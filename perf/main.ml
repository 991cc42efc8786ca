(* perf/main.exe — the benchmark of the AA stack.

     main.exe --workload NAME --seed N [--seconds S] [--trace 0|1]
     main.exe compare [--bench FILE] PARENT.json... -- CHANGE.json...
     main.exe smoke [--bench FILE] [--serve PATH]

   A run prints a table, then as its last stdout line one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1 (also spelled
   --traced). It writes the same result, with its workload, seed and
   details, to perf/out (or $AA_PERF_OUT), plus a Chrome trace of its
   own spans when traced. It exits 1 when a correctness check fails.
   See perf/README.md for the workloads and every metric. *)

open Aa_perf

type cfg = { seed : int; seconds : float; smoke : bool; serve_bin : string; inject_failure : bool }

type outcome = {
  attempted : int;
  failed : int;
  checks : (string * bool) list;  (** correctness gates, by name *)
  metrics : Layers.metric list;
  details : (string * Json.t) list;
}

let num f = Json.Num f
let median_l l = Pct.median (Array.of_list l)

(* ---- sizes ---- *)

(* Open-loop rates sit at about 40% of the closed-loop capacity measured
   at the seed commit on a 2-core machine, rounded; they stay fixed so
   later runs load the daemon identically. *)
let churn_rate = 400.0
let read_rate = 8000.0

let daemon_shape cfg mix : Serve.shape =
  let smoke = cfg.smoke in
  {
    mix;
    rate = (if smoke then 200.0 else match mix with Traffic.Churn -> churn_rate | Traffic.Read -> read_rate);
    prefill = (if smoke then 40 else 2000);
    pool = (if smoke then 8 else 512);
    snapshot_every = (match mix with Traffic.Churn -> if smoke then 50 else 5000 | Traffic.Read -> 0);
  }

let sweep_shape cfg : Solve.sweep_shape =
  if cfg.smoke then { trials = 2; probe_trials = 2 } else { trials = 128; probe_trials = 16 }

let solve_shape cfg : Solve.solve_shape =
  if cfg.smoke then { u_threads = 100; u_servers = 8; p_threads = 200; p_servers = 16 }
  else { u_threads = 2000; u_servers = 8; p_threads = 8000; p_servers = 64 }

let probe_n cfg = if cfg.smoke then 2 else 8

(* The serving session a solver workload's traced run adds: its own
   threads pre-filled into a daemon, then churn. *)
let session_s cfg = if cfg.smoke then 0.2 else 1.0

(* ---- shared pieces of the traced runs ---- *)

let freq_of (recs : Loadgen.record array) =
  let n = Float.of_int (max 1 (Array.length recs)) in
  fun kind -> Float.of_int (Array.fold_left (fun a (r : Loadgen.record) -> if r.req.kind = kind then a + 1 else a) 0 recs) /. n

(* Everything a traced daemon session yields: wire, online, journal and
   server metrics, plus the per-request cost of each kind as the
   standalone replicas measured it (microseconds). *)
let session_layers ~serve_bin ~seed ~open_s ~closed_s ~probe_n shape inputs =
  let t = Serve.run_traced ~serve_bin ~seed ~open_s ~closed_s ~probe_n shape inputs in
  let session = Serve.session_records t in
  Aa_obs.Control.set_enabled true;
  let wire = Layers.wire ~cap:Serve.capacity session in
  let onl = Layers.online ~inputs session in
  let cost ~rebalance_us (kind : Traffic.kind) =
    let edges = (wire.decode_ns +. wire.parse_ns kind +. onl.print_ns) /. 1e3 in
    edges
    +. match kind with
       | Admit | Depart | Update -> onl.mean_us kind
       | Rebalance -> rebalance_us
       | Query | Stats | Snapshot -> 0.0
  in
  let failed = Array.fold_left (fun a r -> if Loadgen.failed r then a + 1 else a) 0 session in
  (t, wire.wire_metrics @ onl.online_metrics @ Layers.server t, cost, Array.length session, failed)

let all_kinds = [ Traffic.Admit; Depart; Update; Query; Stats; Snapshot; Rebalance ]

(* A traced run's outcome: its layer metrics, then the pool probe, the
   reconciliation against the untraced CPU per operation, the tracing
   overhead and the failure share. *)
let traced_outcome ~(t : Serve.traced) ~attempted ~failed ~identical ~efficiency ~metrics ~cpu_per_op ~attributed
    ~overhead =
  {
    attempted;
    failed;
    checks =
      [ ("acked mutations durable", Result.is_ok t.t_durable); ("sweep bit-identical at 1 and 2 domains", identical) ];
    metrics =
      metrics
      @ [
          ("pool.efficiency", efficiency, "ratio");
          ("daemon.unattributed_us_per_op", cpu_per_op -. attributed, "us");
          ("trace.overhead_frac", overhead, "ratio");
          ("fail_frac", Float.of_int failed /. Float.of_int attempted, "ratio");
        ];
    details =
      [
        ("untraced_cpu_us_per_op", num cpu_per_op);
        ("attributed_us_per_op", num attributed);
        ("journal_fs", Json.Str (Proc.fs_type (Proc.run_dir ())));
        ("durable", Json.Str (match t.t_durable with Ok () -> "ok" | Error e -> e));
      ];
  }

(* ---- the daemon workloads ---- *)

let daemon_e2e cfg mix =
  let shape = daemon_shape cfg mix in
  let r = Serve.run_e2e ~serve_bin:cfg.serve_bin ~seed:cfg.seed ~seconds:cfg.seconds shape in
  let lat = Array.map Loadgen.latency_ms r.open_res.records in
  let q, tail = Pct.tail lat in
  {
    attempted = Array.length r.open_res.records + Array.length r.closed_res.records;
    failed = Loadgen.n_failed r.open_res + Loadgen.n_failed r.closed_res;
    checks = [ ("acked mutations durable", Result.is_ok r.durable) ];
    metrics =
      [
        ("throughput", Pct.median (Loadgen.window_rates r.closed_res), "1/s");
        ("latency_p50_ms", Pct.median (Loadgen.window_latency_medians r.open_res), "ms");
        ("setup_s", median_l r.setups, "s");
        ("peak_rss_mb", r.rss_mb, "MiB");
        ("cpu_us_per_op", 1e6 *. Pct.median (Loadgen.window_per_op r.closed_res), "us");
        ("quality_ratio", r.quality, "ratio");
      ];
    details =
      [
        ("open_rate_rps", num shape.rate);
        ("open_samples", num (Float.of_int (Array.length lat)));
        ("open_latency_p50_ms", num (Pct.median lat));
        ("open_latency_tail_ms", num tail);
        ("open_latency_tail_quantile", num q);
        ("closed_throughput_whole_phase", num (Loadgen.throughput r.closed_res));
        ("closed_window_rates", Json.Arr (Array.to_list (Array.map num (Loadgen.window_rates r.closed_res))));
        ("open_cpu_us_per_op", num (1e6 *. Loadgen.per_op r.open_res));
        ("closed_completed", num (Float.of_int (Loadgen.completed r.closed_res)));
        ("setups_s", Json.Arr (List.map num r.setups));
        ("journal_fs", Json.Str (Proc.fs_type (Proc.run_dir ())));
        ("durable", Json.Str (match r.durable with Ok () -> "ok" | Error e -> e));
        ("bad_replies", Json.Arr (List.map (fun s -> Json.Str s) (r.open_res.bad_replies @ r.closed_res.bad_replies)));
      ];
  }

let daemon_traced cfg mix =
  let shape = daemon_shape cfg mix in
  let seed = cfg.seed and serve_bin = cfg.serve_bin in
  let inputs = Serve.make_inputs ~seed shape in
  let quarter = cfg.seconds /. 4.0 in
  let u_res = Serve.run_untraced_closed ~serve_bin ~seed ~duration_s:quarter shape inputs in
  let t, layer_metrics, cost, n_session, failed_session =
    session_layers ~serve_bin ~seed ~open_s:quarter ~closed_s:quarter ~probe_n:(probe_n cfg) shape inputs
  in
  let solver =
    Layers.solver ~seed
      [
        (fun () ->
          Aa_core.Instance.create ~servers:Serve.servers ~capacity:Serve.capacity
            (Serve.utilities ~seed ~n:shape.prefill));
      ]
  in
  let efficiency, identical = Layers.pool_probe ~jobs:(Solve.jobs ()) ~trials:(sweep_shape cfg).probe_trials ~seed in
  (* REBALANCE re-solves the active set: superopt, linearize, Algo2 *)
  let rebalance_us =
    1e3 *. (solver.stage_ms "superopt.compute" +. solver.stage_ms "linearized.make" +. solver.stage_ms "algo2.solve")
  in
  let freq = freq_of t.t_closed.records in
  let attributed = List.fold_left (fun a k -> a +. (freq k *. cost ~rebalance_us k)) 0.0 all_kinds in
  let rate res = Pct.median (Loadgen.window_rates res) in
  traced_outcome ~t
    ~attempted:(Array.length u_res.records + n_session)
    ~failed:(Loadgen.n_failed u_res + failed_session)
    ~identical ~efficiency
    ~metrics:(layer_metrics @ solver.solver_metrics)
    ~cpu_per_op:(1e6 *. Loadgen.per_op u_res)
    ~attributed
    ~overhead:(1.0 -. (rate t.t_closed /. rate u_res))

(* ---- the solver workloads ---- *)

let sweeps_ok l = List.for_all (fun (s : Solve.sweep) -> Solve.sweep_ok s.series) l
let trials_of l = List.fold_left (fun a (s : Solve.sweep) -> a + Solve.sweep_trials s.series) 0 l

let sweep_e2e cfg =
  let shape = sweep_shape cfg in
  let setups = Solve.sweep_setups ~seed:cfg.seed in
  let s = Solve.sweeps ~seed:cfg.seed ~budget_s:cfg.seconds shape in
  let walls_ms = Array.of_list (List.map (fun (w : Solve.sweep) -> w.wall_s *. 1e3) s) in
  let spec = Layers.fig2a () in
  let probe j = spec.run ~jobs:j ~trials:shape.probe_trials ~seed:cfg.seed () in
  let identical = Layers.series_identical (probe 1) (probe (Solve.jobs ())) in
  let ok = sweeps_ok s in
  {
    attempted = trials_of s;
    failed = (if ok then 0 else 1);
    checks = [ ("guarantee holds in every trial", ok); ("sweep bit-identical at 1 and 2 domains", identical) ];
    metrics =
      [
        ("throughput", Solve.sweep_rate s, "1/s");
        ("latency_p50_ms", Pct.median walls_ms, "ms");
        ("setup_s", median_l setups, "s");
        ("peak_rss_mb", Proc.vm_hwm_mb "self", "MiB");
        ("cpu_us_per_op", Solve.sweep_cpu_us s, "us");
        ("quality_ratio", Pct.mean (Array.of_list (List.map (fun (w : Solve.sweep) -> Solve.sweep_quality w.series) s)), "ratio");
      ];
    details =
      [
        ("sweeps", num (Float.of_int (List.length s)));
        ("sweep_walls_ms", Json.Arr (Array.to_list (Array.map num walls_ms)));
        ("trials_per_point", num (Float.of_int shape.trials));
        ("jobs", num (Float.of_int (Solve.jobs ())));
        ("setups_s", Json.Arr (List.map num setups));
      ];
  }

let solve_e2e cfg =
  let inputs = Solve.make_inputs ~seed:cfg.seed (solve_shape cfg) in
  let results = Solve.solves ~budget_s:cfg.seconds inputs in
  let ms = Array.of_list (List.map (fun (r : Solve.solved) -> r.ms) results) in
  let q, tail = Pct.tail ms in
  let n = List.length results in
  let bad = List.length (List.filter (fun (r : Solve.solved) -> not r.ok) results) in
  {
    attempted = n;
    failed = bad;
    checks = [ ("feasible and certified >= alpha", bad = 0) ];
    metrics =
      [
        ("throughput", Solve.solve_rate results, "1/s");
        ("latency_p50_ms", Pct.median ms, "ms");
        ("setup_s", median_l inputs.setups, "s");
        ("peak_rss_mb", Proc.vm_hwm_mb "self", "MiB");
        ("cpu_us_per_op", Solve.solve_cpu_us results, "us");
        ("quality_ratio", Pct.mean (Array.of_list (List.map (fun (r : Solve.solved) -> r.ratio) results)), "ratio");
      ];
    details =
      [
        ("solves", num (Float.of_int n));
        ("latency_tail_ms", num tail);
        ("latency_tail_quantile", num q);
        ("setups_s", Json.Arr (List.map num inputs.setups));
      ];
  }

(* A solver workload's traced run: the workload untraced, the pool
   probe, the workload traced (each workload run gets half the time; the
   throughput ratio is the tracing overhead), the solver replica, and a
   serving session of its own threads for the service layers. [untraced] returns (rate, CPU us per
   op, ops, failed ops), [traced] (rate, ops, failed ops). *)
let solver_traced cfg ~untraced ~traced ~replica ~pool ~prefill ~sequential_us =
  let seed = cfg.seed in
  let thr_u, cpu_per_op, n_u, failed_u = untraced () in
  let efficiency, identical = pool () in
  Aa_obs.Control.set_enabled true;
  let thr_t, n_t, failed_t = traced () in
  let solver = Layers.solver ~seed replica in
  let shape = daemon_shape cfg Traffic.Churn in
  let inputs = Serve.make_inputs ~prefill ~seed shape in
  let s = session_s cfg in
  let t, layer_metrics, _cost, n_session, failed_session =
    session_layers ~serve_bin:cfg.serve_bin ~seed ~open_s:s ~closed_s:s ~probe_n:(probe_n cfg) shape inputs
  in
  traced_outcome ~t ~attempted:(n_u + n_t + n_session) ~failed:(failed_u + failed_t + failed_session) ~identical
    ~efficiency
    ~metrics:(layer_metrics @ solver.solver_metrics)
    ~cpu_per_op ~attributed:(sequential_us solver)
    ~overhead:(1.0 -. (thr_t /. thr_u))

let sweep_traced cfg =
  let shape = sweep_shape cfg and seed = cfg.seed in
  let half = cfg.seconds /. 2.0 in
  let first = ref None in
  let failed s = if sweeps_ok s then 0 else 1 in
  let untraced () =
    let s = Solve.sweeps ~seed ~budget_s:half shape in
    first := Some (List.hd s);
    (Solve.sweep_rate s, Solve.sweep_cpu_us s, trials_of s, failed s)
  in
  let traced () =
    let s = Solve.sweeps ~seed:(seed + 1000) ~budget_s:half shape in
    (Solve.sweep_rate s, trials_of s, failed s)
  in
  (* the workload's own first sweep against the same sweep on one domain *)
  let pool () =
    match !first with
    | None -> (Float.nan, false)
    | Some (f : Solve.sweep) ->
        let s1, w1 = Layers.timed (fun () -> (Layers.fig2a ()).run ~jobs:1 ~trials:shape.trials ~seed ()) in
        (w1 /. 1e3 /. (Float.of_int (Solve.jobs ()) *. f.wall_s), Layers.series_identical s1 f.series)
  in
  let jobs = Solve.sweep_jobs ~seed in
  let inst = (List.nth jobs (List.length jobs - 1)) () in
  (* Run.trial: superopt + linearize, Algo2 and Algo1 each refined,
     four heuristics; plus drawing the instance *)
  let sequential_us (s : Layers.solver) =
    1e3
    *. List.fold_left ( +. ) 0.0
         (List.map s.stage_ms
            [
              "gen.instance";
              "superopt.compute";
              "linearized.make";
              "algo2.solve";
              "refine.per_server";
              "refine.per_server";
              "algo1.solve";
              "heuristics.solve";
            ])
  in
  solver_traced cfg ~untraced ~traced ~replica:jobs ~pool ~prefill:inst.utilities ~sequential_us

let solve_traced cfg =
  let shape = solve_shape cfg and seed = cfg.seed in
  let inputs = Solve.make_inputs ~seed shape in
  let half = cfg.seconds /. 2.0 in
  let run () =
    let r = Solve.solves ~budget_s:half inputs in
    (r, List.length r, List.length (List.filter (fun (s : Solve.solved) -> not s.ok) r))
  in
  let untraced () =
    let r, n, bad = run () in
    (Solve.solve_rate r, Solve.solve_cpu_us r, n, bad)
  in
  let traced () =
    let r, n, bad = run () in
    (Solve.solve_rate r, n, bad)
  in
  let rng = Aa_numerics.Rng.create ~seed:(seed + 7) () in
  let u () = Solve.gen_uniform shape (Aa_numerics.Rng.split rng) in
  let replica = [ u (); u (); Solve.gen_power shape (Aa_numerics.Rng.split rng) ] in
  let pool () = Layers.pool_probe ~jobs:(Solve.jobs ()) ~trials:(sweep_shape cfg).probe_trials ~seed in
  let prefill =
    match Aa_io.Format_text.parse_instance inputs.uniform.(0) with Ok i -> i.utilities | Error e -> failwith e
  in
  (* the `aa solve --refine` path, superopt computed twice as it is there *)
  let sequential_us (s : Layers.solver) =
    1e3
    *. List.fold_left ( +. ) 0.0
         (List.map s.stage_ms
            [
              "format_text.parse_instance";
              "superopt.compute";
              "linearized.make";
              "algo2.solve";
              "refine.per_server";
              "superopt.compute";
              "bounds.certify";
              "format_text.print_assignment";
            ])
  in
  solver_traced cfg ~untraced ~traced ~replica ~pool ~prefill ~sequential_us

(* ---- the workload table ---- *)

let workloads =
  [
    ("paper-sweep", (sweep_e2e, sweep_traced));
    ("solve-large", (solve_e2e, solve_traced));
    ("daemon-churn", ((fun c -> daemon_e2e c Traffic.Churn), fun c -> daemon_traced c Traffic.Churn));
    ("daemon-read", ((fun c -> daemon_e2e c Traffic.Read), fun c -> daemon_traced c Traffic.Read));
  ]

(* ---- output ---- *)

let result_line o ~correct =
  Json.Obj
    [
      ("correct", Json.Bool correct);
      ("attempted", num (Float.of_int o.attempted));
      ("failed", num (Float.of_int o.failed));
      ("metrics", Json.Obj (List.map (fun (n, v, u) -> (n, Json.Obj [ ("value", num v); ("unit", Json.Str u) ])) o.metrics));
    ]

let run_workload cfg ~name ~traced =
  let e2e, tr =
    match List.assoc_opt name workloads with
    | Some w -> w
    | None ->
        Printf.eprintf "perf: unknown workload %S (known: %s)\n" name (String.concat ", " (List.map fst workloads));
        exit 2
  in
  let started = Aa_obs.Clock.wall_s () in
  Printf.eprintf "perf: workload %s, seed %d, %.3g s, trace %d; output in %s (%s)\n%!" name cfg.seed cfg.seconds
    (Bool.to_int traced) (Proc.out_dir ()) (Proc.fs_type (Proc.out_dir ()));
  if cfg.inject_failure then Serve.fail_after_start := true;
  let o = (if traced then tr else e2e) cfg in
  let nonfinite = List.filter (fun (_, v, _) -> not (Float.is_finite v)) o.metrics in
  let checks = o.checks @ [ ("every request answered correctly", o.failed = 0); ("every metric finite", nonfinite = []) ] in
  let correct = List.for_all snd checks in
  Printf.printf "workload %s  seed %d  trace %d\n" name cfg.seed (Bool.to_int traced);
  List.iter (fun (n, v, u) -> Printf.printf "  %-34s %16.6g %s\n" n v u) o.metrics;
  List.iter (fun (k, v) -> Printf.printf "  detail: %-32s %s\n" k (Json.to_string v)) o.details;
  List.iter (fun (c, ok) -> Printf.printf "  check: %-40s %s\n" c (if ok then "ok" else "FAILED")) checks;
  let line = result_line o ~correct in
  let file =
    Json.Obj
      ([
         ("workload", Json.Str name);
         ("seed", num (Float.of_int cfg.seed));
         ("trace", num (if traced then 1.0 else 0.0));
         ("seconds", num cfg.seconds);
         ("started_unix", num started);
         ("checks", Json.Obj (List.map (fun (c, ok) -> (c, Json.Bool ok)) checks));
       ]
      @ (match line with Json.Obj kvs -> kvs | _ -> [])
      @ [ ("details", Json.Obj o.details) ])
  in
  let base = Filename.concat (Proc.out_dir ()) (Printf.sprintf "%s-seed%d-trace%d" name cfg.seed (Bool.to_int traced)) in
  Out_channel.with_open_bin (base ^ ".json") (fun oc -> output_string oc (Json.to_string file ^ "\n"));
  if traced then begin
    Out_channel.with_open_bin (base ^ ".trace.json") (fun oc -> output_string oc (Aa_obs.Trace.to_chrome_json ()));
    Printf.printf "  chrome trace: %s.trace.json\n" base
  end;
  print_endline (Json.to_string line);
  if not correct then exit 1

(* ---- compare ---- *)

let compare_cmd ~bench args =
  let rec split acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | x :: rest -> split (x :: acc) rest
    | [] -> (List.rev acc, [])
  in
  let parent, change = split [] args in
  if parent = [] || change = [] then begin
    prerr_endline "usage: main.exe compare [--bench FILE] PARENT.json... -- CHANGE.json...";
    exit 2
  end;
  let load files = List.map (fun f -> match Compare.load_run f with Ok r -> r | Error e -> prerr_endline e; exit 2) files in
  let specs = Compare.specs_of_benchmark (Json.parse (Json.read_file bench)) in
  let rows = Compare.compare ~specs (load parent) (load change) in
  Compare.print_rows rows;
  if List.exists (fun (r : Compare.row) -> r.verdict = Compare.Regression) rows then exit 1

(* ---- entry ---- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N [--seconds S] [--trace 0|1 | --traced] [--smoke] [--serve PATH]\n\
    \       main.exe compare [--bench FILE] PARENT.json... -- CHANGE.json...\n\
    \       main.exe smoke [--bench FILE] [--serve PATH]\n\
    \       main.exe --list";
  exit 2

let () =
  Proc.install ();
  let args = List.tl (Array.to_list Sys.argv) in
  let flag name l = List.mem name l in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let bench l = Option.value (opt "--bench" l) ~default:"BENCHMARK.json" in
  let serve_bin l = Option.value (opt "--serve" l) ~default:"_build/default/bin/aa_serve.exe" in
  let int_of s = match int_of_string_opt s with Some i -> i | None -> usage () in
  try
    match args with
    | "compare" :: rest ->
        let rest, bench =
          match rest with "--bench" :: f :: rest -> (rest, f) | _ -> (rest, "BENCHMARK.json")
        in
        compare_cmd ~bench rest
    | "smoke" :: rest -> Smoke.run ~exe:Sys.executable_name ~bench:(bench rest) ~serve_bin:(serve_bin rest)
    | [ "--list" ] -> List.iter (fun (n, _) -> print_endline n) workloads
    | _ -> (
        match opt "--workload" args with
        | None -> usage ()
        | Some name ->
            let traced = flag "--traced" args || opt "--trace" args = Some "1" in
            let seconds =
              match opt "--seconds" args with
              | Some s -> ( match float_of_string_opt s with Some f when f > 0.0 -> f | _ -> usage ())
              | None -> 10.0
            in
            let smoke = flag "--smoke" args in
            let cfg =
              {
                seed = int_of (Option.value (opt "--seed" args) ~default:"1");
                seconds = (if smoke then Float.min seconds 0.4 else seconds);
                smoke;
                serve_bin = serve_bin args;
                inject_failure = flag "--inject-failure" args;
              }
            in
            if not (Sys.file_exists cfg.serve_bin) then begin
              Printf.eprintf "perf: %s not found (build it: dune build bin/aa_serve.exe)\n" cfg.serve_bin;
              exit 2
            end;
            run_workload cfg ~name ~traced)
  with
  | Failure m | Sys_error m ->
      Printf.eprintf "perf: error: %s\n%!" m;
      exit 1
  | Unix.Unix_error (e, f, a) ->
      Printf.eprintf "perf: error: %s(%s): %s\n%!" f a (Unix.error_message e);
      exit 1
