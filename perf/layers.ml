(* Per-layer metrics. The benchmark touches the program only from
   outside: it reads the daemon's access log and /metrics, reads
   Aa_obs.Registry counters in its own process, and times standalone
   replicas that call each layer's public functions on the workload's
   own inputs. Every replica call sits inside a benchmark-owned
   Aa_obs.Trace span ("perf.<layer>"), exported as a Chrome trace. *)

open Aa_core
module Frame = Aa_net.Frame
module Protocol = Aa_service.Protocol
module Journal = Aa_service.Journal

type metric = string * float * string

let span = Aa_obs.Trace.span
let ms_since t0 = Float.of_int (Proc.now_ns () - t0) /. 1e6

let timed f =
  let t0 = Proc.now_ns () in
  let r = f () in
  (r, ms_since t0)

(* Mean nanoseconds per call of [f] over [items], repeating whole passes
   until at least 20 ms have elapsed: single calls are far below the
   clock's resolution. *)
let per_call_ns f items =
  let n = Array.length items in
  if n = 0 then Float.nan
  else begin
    let t0 = Proc.now_ns () and passes = ref 0 in
    while !passes = 0 || Proc.now_ns () - t0 < 20_000_000 do
      Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) items;
      incr passes
    done;
    Float.of_int (Proc.now_ns () - t0) /. Float.of_int (!passes * n)
  end

let ok_records recs = List.filter (fun (r : Loadgen.record) -> not (Loadgen.failed r)) (Array.to_list recs)

(* ---- Frame / Protocol, on the lines the session sent ---- *)

type wire = { decode_ns : float; parse_ns : Traffic.kind -> float; wire_metrics : metric list }

let wire ~cap (recs : Loadgen.record array) =
  span "perf.wire" @@ fun () ->
  let payloads kind =
    Array.of_list
      (List.filter_map
         (fun (r : Loadgen.record) -> if r.req.kind = kind then Some r.req.payload else None)
         (Array.to_list recs))
  in
  let encoded = Array.map (fun (r : Loadgen.record) -> Frame.encode r.req.payload) recs in
  let lines = Array.map (fun e -> String.sub e 0 (String.length e - 1)) encoded in
  let decode_ns = span "perf.frame.decode" (fun () -> per_call_ns Frame.decode lines) in
  let parse = Hashtbl.create 8 in
  let parse_ns kind =
    match Hashtbl.find_opt parse kind with
    | Some v -> v
    | None ->
        let v =
          span "perf.protocol.parse" (fun () -> per_call_ns (Protocol.parse_request ~cap) (payloads kind))
        in
        Hashtbl.replace parse kind v;
        v
  in
  let req_bytes = Pct.mean (Array.map (fun e -> Float.of_int (String.length e)) encoded) in
  {
    decode_ns;
    parse_ns;
    wire_metrics =
      [
        ("frame.decode_ns", decode_ns, "ns");
        ("frame.req_bytes", req_bytes, "bytes");
        ("protocol.parse_ns.query", parse_ns Traffic.Query, "ns");
        ("protocol.parse_us.admit", parse_ns Traffic.Admit /. 1e3, "us");
        ("protocol.parse_us.update", parse_ns Traffic.Update /. 1e3, "us");
      ];
  }

(* ---- Engine / Journal / Online: replay the session's mutations ---- *)

type online = {
  mean_us : Traffic.kind -> float;
  print_ns : float;
  online_metrics : metric list;
}

(* [Engine.of_journal] on a copy of the pre-fill journal (the daemon's
   restart path minus the socket), then every acknowledged mutation of
   the session in send order against its Online placer, each timed.
   ADMIT ids are remapped: the replica numbers admissions in its own
   order. *)
let online ~(inputs : Serve.inputs) (recs : Loadgen.record array) =
  span "perf.online_replica" @@ fun () ->
  let path = Filename.concat (Proc.run_dir ()) "replica.journal" in
  Serve.copy_file inputs.prefill_path path;
  let engine, replay_ms =
    span "perf.journal.replay" (fun () ->
        timed (fun () -> Aa_service.Engine.of_journal ~fsync:Journal.Never ~path ()))
  in
  let engine = match engine with Ok e -> e | Error e -> failwith ("replica replay: " ^ e) in
  Option.iter Journal.close (Aa_service.Engine.journal engine);
  let ol = Aa_service.Engine.online engine in
  let cap = Online.capacity ol in
  let utils =
    Array.map
      (fun s ->
        match Aa_io.Format_text.parse_thread_spec ~cap s with Ok u -> u | Error e -> failwith ("spec: " ^ e))
      inputs.specs
  in
  let idmap = Hashtbl.create 1024 in
  let local id = Option.value (Hashtbl.find_opt idmap id) ~default:id in
  let times = Hashtbl.create 4 and bytes = ref [] and responses = ref [] in
  let record kind us = Hashtbl.replace times kind (us :: Option.value (Hashtbl.find_opt times kind) ~default:[]) in
  let timed_us kind f =
    let t0 = Proc.now_ns () in
    let r = f () in
    record kind (Float.of_int (Proc.now_ns () - t0) /. 1e3);
    r
  in
  let entry e = bytes := Float.of_int (String.length (Journal.frame_entry e) + 1) :: !bytes in
  let respond r = responses := r :: !responses in
  span "perf.online.apply" (fun () ->
      List.iter
        (fun (r : Loadgen.record) ->
          match r.req.kind with
          | Admit ->
              let u = utils.(r.req.spec) and id = Online.n_admitted ol in
              let server = timed_us Traffic.Admit (fun () -> Online.admit ol u) in
              Hashtbl.replace idmap r.result_id id;
              entry (Journal.Admit u);
              respond (Protocol.Admitted { id; server })
          | Depart ->
              let id = local r.req.id in
              timed_us Traffic.Depart (fun () -> Online.depart ol id);
              entry (Journal.Depart id);
              respond (Protocol.Departed { id })
          | Update ->
              let id = local r.req.id and u = utils.(r.req.spec) in
              timed_us Traffic.Update (fun () -> Online.update_utility ol id u);
              entry (Journal.Update (id, u));
              respond (Protocol.Updated { id; server = Online.server_of ol id })
          | Query ->
              let id = local r.req.id in
              let alloc = Online.alloc_of ol id in
              respond
                (Protocol.Thread_info
                   {
                     id;
                     server = Online.server_of ol id;
                     alloc;
                     value = Aa_utility.Utility.eval (Online.thread_utility ol id) alloc;
                     active = Online.is_active ol id;
                   })
          | Stats | Snapshot | Rebalance -> ())
        (ok_records recs));
  let samples kind = Array.of_list (Option.value (Hashtbl.find_opt times kind) ~default:[]) in
  let pieces =
    Array.fold_left
      (fun a id ->
        a + Aa_utility.Plc.positive_pieces (Aa_utility.Utility.to_plc (Online.thread_utility ol id)))
      0 (Online.active_ids ol)
  in
  let print_ns =
    span "perf.protocol.print" (fun () -> per_call_ns Protocol.print_response (Array.of_list !responses))
  in
  {
    mean_us = (fun k -> Pct.mean (samples k));
    print_ns;
    online_metrics =
      [
        ("journal.replay_ms", replay_ms, "ms");
        ("journal.bytes_per_mutation", Pct.mean (Array.of_list !bytes), "bytes");
        ("online.admit_us_p50", Pct.median (samples Traffic.Admit), "us");
        ("online.admit_us_p99", snd (Pct.tail (samples Traffic.Admit)), "us");
        ("online.depart_us_p50", Pct.median (samples Traffic.Depart), "us");
        ("online.update_us_p50", Pct.median (samples Traffic.Update), "us");
        ("online.pieces_per_server", Float.of_int pieces /. Float.of_int (Online.servers ol), "count");
        ("protocol.print_ns", print_ns, "ns");
      ];
  }

(* ---- Listener / Shard / Engine, from the traced daemon's own logs ---- *)

let server (t : Serve.traced) =
  let num k j = Option.value (Option.bind (Json.member k j) Json.to_num) ~default:Float.nan in
  let kind j = Option.value (Option.bind (Json.member "kind" j) Json.to_str) ~default:"" in
  let is_mut j = List.mem (kind j) [ "admit"; "depart"; "update" ] in
  let us k j = num k j /. 1e3 in
  let sel pred f = Array.of_list (List.filter_map (fun j -> if pred j then Some (f j) else None) t.access) in
  let all _ = true and of_kind k j = kind j = k in
  let total = sel all (us "total_ns") in
  let queue =
    sel all (fun j ->
        us "total_ns" j -. us "validate_ns" j -. us "journal_ns" j -. us "apply_ns" j -. us "commit_wait_ns" j)
  in
  let session = Serve.session_records t in
  let rtt = Array.map Loadgen.rtt_us (Array.of_list (ok_records session)) in
  let mutations =
    List.length (List.filter (fun (r : Loadgen.record) -> Traffic.is_mutation r.req.kind) (ok_records session))
  in
  let prom k = Option.value (Daemon.prom_value t.exposition ("aa_engine_group_commit_batch_size_" ^ k)) ~default:0.0 in
  let batches = prom "count" and batched = prom "sum" in
  (* a mutation outside a multi-request batch is committed, and fsynced,
     on its own *)
  let fsyncs = batches +. (Float.of_int mutations -. batched) in
  let open_lat = Array.map Loadgen.latency_ms t.t_open.records in
  let open_late = Array.map Loadgen.late_ms t.t_open.records in
  let total_p50 = Pct.median total in
  [
    ("server.total_us_p50", total_p50, "us");
    ("server.total_us_p99", snd (Pct.tail total), "us");
    ("server.queue_us_p50", Pct.median queue, "us");
    ("net.outside_us_p50", Pct.median rtt -. total_p50, "us");
    ("shard.barrier_us_p50.stats", Pct.median (sel (of_kind "stats") (us "total_ns")), "us");
    ("shard.barrier_us_p50.rebalance", Pct.median (sel (of_kind "rebalance") (us "total_ns")), "us");
    ("shard.batch_size_mean", (if batches > 0.0 then batched /. batches else 1.0), "count");
    (* validation is below the clock's microsecond resolution, so its
       median reads 0; the mean still moves *)
    ("engine.validate_us_mean", Pct.mean (sel is_mut (us "validate_ns")), "us");
    ("engine.apply_us_p50.admit", Pct.median (sel (of_kind "admit") (us "apply_ns")), "us");
    ("engine.apply_us_p50.depart", Pct.median (sel (of_kind "depart") (us "apply_ns")), "us");
    ("engine.apply_us_p50.update", Pct.median (sel (of_kind "update") (us "apply_ns")), "us");
    ("engine.commit_wait_us_p50", Pct.median (sel is_mut (us "commit_wait_ns")), "us");
    ("engine.snapshot_ms", Pct.median (sel (of_kind "snapshot") (fun j -> num "total_ns" j /. 1e6)), "ms");
    ("journal.fsyncs_per_mutation", fsyncs /. Float.of_int (max 1 mutations), "ratio");
    ("client.latency_p999_ms", snd (Pct.tail ~cap:0.999 open_lat), "ms");
    ("loadgen.late_p99_ms", snd (Pct.tail open_late), "ms");
  ]

(* ---- Solver: a sequential replica of Run.trial and of `aa solve` ---- *)

type job = unit -> Instance.t

type solver = { stage_ms : string -> float; solver_metrics : metric list }

(* Algorithm 1 is O(m n^2); above this many threads the replica skips
   it, as the sweep driver does above 400. *)
let algo1_max_threads = 2000

let counter name = Option.value (List.assoc_opt name (Aa_obs.Registry.counters ())) ~default:0

(* Runs with observability on, so the library's own counters and spans
   record too. *)
let solver ~seed (jobs : job list) =
  span "perf.solver_replica" @@ fun () ->
  let rng = Aa_numerics.Rng.create ~seed () in
  let stages = Hashtbl.create 16 in
  let stage name f =
    let r, ms = span ("perf." ^ name) (fun () -> timed f) in
    Hashtbl.replace stages name (ms :: Option.value (Hashtbl.find_opt stages name) ~default:[]);
    r
  in
  let c0 = List.map (fun n -> (n, counter n)) [ "plc_greedy.pieces"; "plc_greedy.heap_pops"; "algo1.pair_scans" ] in
  let gc0 = Gc.minor_words () in
  let algo1_runs = ref 0 in
  List.iter
    (fun gen ->
      let inst = stage "gen.instance" gen in
      let text = Aa_io.Format_text.print_instance inst in
      let inst =
        match stage "format_text.parse_instance" (fun () -> Aa_io.Format_text.parse_instance text) with
        | Ok i -> i
        | Error e -> failwith ("replica parse: " ^ e)
      in
      let so = stage "superopt.compute" (fun () -> Superopt.compute inst) in
      let linearized = stage "linearized.make" (fun () -> Linearized.of_superopt inst so) in
      let a2 = stage "algo2.solve" (fun () -> Algo2.solve ~linearized inst) in
      let refined = stage "refine.per_server" (fun () -> Refine.per_server inst a2) in
      let cert = stage "bounds.certify" (fun () -> Bounds.certify inst so refined) in
      ignore (stage "format_text.print_assignment" (fun () -> Aa_io.Format_text.print_assignment refined));
      if Instance.n_threads inst <= algo1_max_threads then begin
        incr algo1_runs;
        ignore (stage "algo1.solve" (fun () -> Algo1.solve ~linearized inst))
      end;
      stage "heuristics.solve" (fun () ->
          List.iter
            (fun algo -> ignore (Solver.solve ~rng ~linearized algo inst))
            [ Solver.Uu; Solver.Ur; Solver.Ru; Solver.Rr ]);
      match Assignment.check inst refined with
      | Ok () when cert.meets_guarantee -> ()
      | Ok () -> failwith (Printf.sprintf "replica: certified ratio %.6f below alpha" cert.ratio)
      | Error e -> failwith ("replica: infeasible assignment: " ^ e))
    jobs;
  let n = Float.of_int (List.length jobs) in
  let delta name = Float.of_int (counter name - List.assoc name c0) in
  let stage_ms name = Pct.mean (Array.of_list (Option.value (Hashtbl.find_opt stages name) ~default:[])) in
  let per_stage = List.map (fun s -> (s ^ "_ms", stage_ms s, "ms")) in
  {
    stage_ms;
    solver_metrics =
      per_stage
        [
          "gen.instance";
          "algo1.solve";
          "heuristics.solve";
          "superopt.compute";
          "linearized.make";
          "algo2.solve";
          "refine.per_server";
          "format_text.parse_instance";
          "format_text.print_assignment";
          "bounds.certify";
        ]
      @ [
          ("gc.minor_words_per_op", (Gc.minor_words () -. gc0) /. n, "words");
          ("plc_greedy.pieces_per_op", delta "plc_greedy.pieces" /. n, "count");
          ("plc_greedy.heap_pops_per_op", delta "plc_greedy.heap_pops" /. n, "count");
          ("algo1.pair_scans_per_trial", delta "algo1.pair_scans" /. Float.of_int (max 1 !algo1_runs), "count");
        ];
  }

(* ---- Pool: the sweep at 1 and at [jobs] domains ---- *)

let fig2a () =
  match Aa_experiments.Figures.find "fig2a" with Some s -> s | None -> failwith "fig2a missing"

let fsame a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let series_identical (a : Aa_experiments.Run.series) (b : Aa_experiments.Run.series) =
  let open Aa_experiments.Run in
  let rs x y = fsame x.vs_so y.vs_so && fsame x.vs_uu y.vs_uu && fsame x.vs_ur y.vs_ur && fsame x.vs_ru y.vs_ru
               && fsame x.vs_rr y.vs_rr in
  List.length a.points = List.length b.points
  && List.for_all2
       (fun p q ->
         fsame p.x q.x && rs p.mean q.mean && rs p.ci95 q.ci95 && fsame p.worst_vs_so q.worst_vs_so
         && fsame p.algo1_vs_so q.algo1_vs_so && p.guarantee_violations = q.guarantee_violations
         && p.trials = q.trials)
       a.points b.points

(* Work done sequentially over the domains' capacity while the pooled
   sweep ran: 1 means the pool wasted nothing. Also checks the
   determinism contract: the two series must be bit-identical. *)
let pool_probe ~jobs ~trials ~seed =
  span "perf.pool" @@ fun () ->
  let spec = fig2a () in
  let s1, w1 = timed (fun () -> spec.run ~jobs:1 ~trials ~seed ()) in
  let sj, wj = timed (fun () -> spec.run ~jobs ~trials ~seed ()) in
  (w1 /. (Float.of_int jobs *. wj), series_identical s1 sj)
