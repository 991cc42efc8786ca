(* Benchmark and figure-reproduction harness.

   With no arguments, reproduces every experiment in DESIGN.md's index:
   the seven figures of Section VII (F1a..F3c), the timing claim (T1),
   the headline-claims summary (T2), the tightness example (X1), the
   ablations (A1, A2) and the parallel-speedup check (SP). Pass
   experiment ids to run a subset, e.g.:

     dune exec bench/main.exe -- fig2a timing

   AA_TRIALS overrides the number of random trials per sweep point
   (default 300; the paper uses 1000 — expect a few minutes per
   beta-sweep figure at that setting). AA_JOBS sizes the domain pool
   the sweeps fan out on (default: the runtime's recommended domain
   count); every value produces bit-identical series.

   Every run also appends a machine-readable perf trajectory to
   BENCH_experiments.json (override the path with AA_BENCH_JSON):
   per-experiment wall time, pool size, trials, solver counter deltas
   and span counts, and — for the SP experiment — the measured speedup
   vs AA_JOBS=1.

   Observability (Aa_obs) is on by default so the trajectory carries
   counter deltas; set AA_OBS=0 to run fully uninstrumented. The
   timing-sensitive sections (T1's measured regions, SP's two timed
   sweeps) force it off regardless, so the reported times never include
   probe overhead. The run exits nonzero if any span is still open at
   exit — unbalanced begin/end accounting is a bug. *)

open Aa_numerics
open Aa_core
open Aa_workload
open Aa_parallel
open Aa_experiments

let trials =
  match Sys.getenv_opt "AA_TRIALS" with
  | Some s -> ( try max 1 (int_of_string s) with _ -> 300)
  | None -> 300

(* Clamped to physical cores: a pool oversubscribed past the core count
   loses 2-4x to stop-the-world minor-GC syncs, which is a config error,
   not a measurement. AA_JOBS beyond the core count is ignored here. *)
let jobs = Pool.auto_domains ()
let seed = 42
let line fmt = Format.printf (fmt ^^ "@.")

let heading title =
  line "";
  line "==============================================================";
  line "%s" title;
  line "=============================================================="

let now () = Aa_obs.Clock.now_s ()

let () =
  Aa_obs.Control.set_enabled
    (match Sys.getenv_opt "AA_OBS" with Some "0" -> false | Some _ | None -> true)

(* ---------- perf trajectory (BENCH_experiments.json) ---------- *)

type bench_entry = {
  bid : string;
  wall_s : float;
  bjobs : int;  (* pool size the experiment ran with (1 = sequential) *)
  btrials : int;
  speedup_vs_j1 : float option;  (* only the SP experiment measures this *)
  regression : bool;  (* speedup_vs_j1 < 1.0: the pool run was slower than j=1 *)
  rps : float option;  (* requests/s, for the daemon throughput experiments *)
  counters : (string * int) list;  (* nonzero counter deltas over the experiment *)
  spans : int;  (* raw span events recorded during the experiment *)
  bfsync : string option;
      (* journal fsync policy, for experiments whose wall time depends
         on it (the service experiment); None = no journal involved *)
  noise_bound : bool;
      (* the timed section stayed under the noise floor (~1 s) even
         after trial scaling — ratios derived from this entry are
         timer-noise dominated and must not gate anything *)
}

let bench_entries : bench_entry list ref = ref []

let record ?speedup ?rps ?(counters = []) ?(spans = 0) ?fsync
    ?(noise_bound = false) ~id ~jobs:bjobs ~trials:btrials wall_s =
  let regression = match speedup with Some s -> s < 1.0 | None -> false in
  if regression then
    Printf.eprintf
      "bench: WARNING %s speedup_vs_j1 = %.2fx < 1.0 — the parallel run was \
       slower than sequential\n%!"
      id
      (Option.value speedup ~default:0.0);
  bench_entries :=
    {
      bid = id;
      wall_s;
      bjobs;
      btrials;
      speedup_vs_j1 = speedup;
      regression;
      rps;
      counters;
      spans;
      bfsync = fsync;
      noise_bound;
    }
    :: !bench_entries

(* Counters are registered on first use and never removed, so [after] is
   a superset of [before]; a name missing from [before] started at 0. *)
let counter_deltas before after =
  List.filter_map
    (fun (name, v) ->
      let v0 = Option.value (List.assoc_opt name before) ~default:0 in
      if v <> v0 then Some (name, v - v0) else None)
    after

(* Run [f], print its wall time, and add it — with the counter and span
   activity it generated — to the trajectory. *)
let timed ~id ?(jobs = 1) ?(trials = trials) ?fsync f =
  let c0 = Aa_obs.Registry.counters () in
  let s0 = Aa_obs.Trace.recorded () in
  let t0 = now () in
  let r = f () in
  let dt = now () -. t0 in
  line "(%.1f s)" dt;
  record ~id ~jobs ~trials ?fsync
    ~counters:(counter_deltas c0 (Aa_obs.Registry.counters ()))
    ~spans:(Aa_obs.Trace.recorded () - s0)
    dt;
  r

let bench_json_path =
  Option.value (Sys.getenv_opt "AA_BENCH_JSON") ~default:"BENCH_experiments.json"

let write_bench_json () =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"schema\": \"aa-bench-trajectory/6\",\n";
  Printf.bprintf b "  \"generated_unix\": %.0f,\n" (Aa_obs.Clock.wall_s ());
  Printf.bprintf b "  \"jobs\": %d,\n" jobs;
  Printf.bprintf b "  \"jobs_requested\": %d,\n" (Pool.default_domains ());
  Printf.bprintf b "  \"trials\": %d,\n" trials;
  Printf.bprintf b "  \"obs\": %b,\n" (Aa_obs.Control.on ());
  Buffer.add_string b "  \"experiments\": [\n";
  let entries = List.rev !bench_entries in
  List.iteri
    (fun i e ->
      Printf.bprintf b
        "    {\"id\": \"%s\", \"wall_s\": %.6f, \"jobs\": %d, \"trials\": %d, \
         \"speedup_vs_j1\": %s, \"regression\": %b, \"noise_bound\": %b, \
         \"rps\": %s, \"fsync\": %s, \"spans\": %d, \"counters\": {%s}}%s\n"
        e.bid e.wall_s e.bjobs e.btrials
        (match e.speedup_vs_j1 with None -> "null" | Some s -> Printf.sprintf "%.4f" s)
        e.regression e.noise_bound
        (match e.rps with None -> "null" | Some r -> Printf.sprintf "%.1f" r)
        (match e.bfsync with None -> "null" | Some p -> Printf.sprintf "\"%s\"" p)
        e.spans
        (String.concat ", "
           (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %d" k v) e.counters))
        (if i = List.length entries - 1 then "" else ","))
    entries;
  Buffer.add_string b "  ]\n}\n";
  Out_channel.with_open_text bench_json_path (fun oc ->
      Out_channel.output_string oc (Buffer.contents b));
  line "(bench trajectory: %s, %d experiment(s))" bench_json_path (List.length entries)

(* ---------- figures F1a .. F3c ---------- *)

(* Set AA_CSV_DIR to also write each series as <id>.csv for plotting,
   and AA_SVG_DIR to render each figure as an SVG image. *)
let csv_dir = Sys.getenv_opt "AA_CSV_DIR"
let svg_dir = Sys.getenv_opt "AA_SVG_DIR"

let write_svg (s : Run.series) =
  match svg_dir with
  | None -> ()
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path = Filename.concat dir (s.id ^ ".svg") in
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc (Svg.render (Svg.of_series s)));
      line "(svg: %s)" path

let write_csv (s : Run.series) =
  match csv_dir with
  | None -> ()
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path = Filename.concat dir (s.id ^ ".csv") in
      Out_channel.with_open_text path (fun oc ->
          Printf.fprintf oc "%s,vs_so,vs_uu,vs_ur,vs_ru,vs_rr,worst_vs_so,algo1_vs_so\n"
            s.xlabel;
          List.iter
            (fun (p : Run.point) ->
              Printf.fprintf oc "%g,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f\n" p.x p.mean.vs_so
                p.mean.vs_uu p.mean.vs_ur p.mean.vs_ru p.mean.vs_rr p.worst_vs_so
                p.algo1_vs_so)
            s.points);
      line "(csv: %s)" path

let run_figure (spec : Figures.spec) =
  heading
    (Printf.sprintf "%s [%s] — %s (trials=%d, jobs=%d)" spec.id spec.paper spec.description
       trials jobs);
  let series = timed ~id:spec.id ~jobs (fun () -> spec.run ~jobs ~trials ~seed ()) in
  Format.printf "%a@." Run.pp_series series;
  write_csv series;
  write_svg series;
  series

(* ---------- SP: parallel speedup + determinism ---------- *)

(* Two floats are the same replay result only when their bits agree —
   tolerances would hide schedule dependence, which is the bug this
   checks for. NaN = NaN here (both runs skipping Algorithm 1 is
   agreement, not a difference). *)
let fsame a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let series_identical (a : Run.series) (b : Run.series) =
  List.length a.points = List.length b.points
  && List.for_all2
       (fun (p : Run.point) (q : Run.point) ->
         fsame p.x q.x && fsame p.mean.vs_so q.mean.vs_so
         && fsame p.mean.vs_uu q.mean.vs_uu
         && fsame p.mean.vs_ur q.mean.vs_ur
         && fsame p.mean.vs_ru q.mean.vs_ru
         && fsame p.mean.vs_rr q.mean.vs_rr
         && fsame p.ci95.vs_so q.ci95.vs_so
         && fsame p.worst_vs_so q.worst_vs_so
         && fsame p.algo1_vs_so q.algo1_vs_so
         && p.guarantee_violations = q.guarantee_violations
         && p.trials = q.trials)
       a.points b.points

let speedup () =
  heading
    (Printf.sprintf
       "SP — parallel sweep engine: fig1a at jobs=1 vs jobs=%d (trials=%d, %d core(s) \
        recommended)"
       jobs trials
       (Domain.recommended_domain_count ()));
  match Figures.find "fig1a" with
  | None -> line "fig1a missing; skipping"
  | Some spec ->
      (* probes off for both timed runs: the speedup ratio must compare
         solver work, not instrumentation overhead *)
      let run ~jobs ~trials =
        let t0 = now () in
        let s =
          Aa_obs.Control.with_enabled false (fun () -> spec.run ~jobs ~trials ~seed ())
        in
        (s, now () -. t0)
      in
      (* a speedup ratio of two sub-second timings is timer noise, not a
         measurement: scale the trial count (both runs use the same
         scaled count, so the bit-identity check still compares like
         with like) until the sequential leg clears ~1 s. If the cap is
         hit first, the entries are flagged noise_bound so downstream
         consumers do not gate on the ratio. *)
      let min_timed_s = 1.0 in
      let max_scaled = trials * 256 in
      let rec calibrate trials_now (sequential, t_seq) =
        if t_seq >= min_timed_s || trials_now >= max_scaled then
          (trials_now, sequential, t_seq)
        else begin
          let next = min max_scaled (trials_now * 2) in
          line "timed section %.3f s < %.1f s — scaling trials %d -> %d" t_seq
            min_timed_s trials_now next;
          calibrate next (run ~jobs:1 ~trials:next)
        end
      in
      let trials, sequential, t_seq = calibrate trials (run ~jobs:1 ~trials) in
      let noise_bound = t_seq < min_timed_s in
      if noise_bound then
        line
          "WARNING: sequential leg still %.3f s after scaling to %d trials — \
           recording noise_bound"
          t_seq trials;
      let parallel, t_par = run ~jobs ~trials in
      let speedup = t_seq /. t_par in
      line "jobs=1: %.2f s   jobs=%d: %.2f s   speedup: %.2fx (trials=%d)" t_seq
        jobs t_par speedup trials;
      line "series bit-identical across job counts: %b (must be true)"
        (series_identical sequential parallel);
      record ~id:"speedup-fig1a" ~jobs ~trials ~speedup ~noise_bound t_par;
      (* reference point for the clamp in [Pool.auto_domains]: the same
         sweep on a deliberately oversubscribed pool. On a machine with
         fewer cores than [jobs_over] this documents the regression the
         clamp removes (stop-the-world minor-GC syncs, historically
         0.49x at 2 domains on 1 core); results stay bit-identical at
         every pool size regardless. *)
      let jobs_over = max 2 (2 * Domain.recommended_domain_count ()) in
      let oversub, t_over = run ~jobs:jobs_over ~trials in
      let speedup_over = t_seq /. t_over in
      line "oversubscribed jobs=%d: %.2f s   speedup: %.2fx (clamp reference)"
        jobs_over t_over speedup_over;
      line "oversubscribed series bit-identical: %b (must be true)"
        (series_identical sequential oversub);
      record ~id:"speedup-fig1a-oversubscribed" ~jobs:jobs_over ~trials
        ~speedup:speedup_over ~noise_bound t_over

(* ---------- PLC: flat-kernel micro-benchmark ---------- *)

module Plc = Aa_utility.Plc

(* Sort-based reference allocator: the pre-flat-kernel algorithm
   (materialize every positive-slope piece globally, sort by slope desc
   / thread asc, pour). Kept here as the baseline the merge kernel is
   measured — and bit-checked — against; the recorded speedup is
   reference/merge, so a kernel slowdown shows up as regression:true. *)
let reference_allocate ~budget fs =
  let n = Array.length fs in
  let pieces = ref [] in
  for i = 0 to n - 1 do
    Array.iter
      (fun (s : Plc.segment) ->
        if s.slope > 0.0 then pieces := (i, s.x1 -. s.x0, s.slope) :: !pieces)
      (Plc.segments fs.(i))
  done;
  let pieces = Array.of_list !pieces in
  Array.sort
    (fun (t1, _, s1) (t2, _, s2) ->
      match compare s2 s1 with 0 -> compare t1 t2 | c -> c)
    pieces;
  let alloc = Array.make n 0.0 in
  let remaining = ref budget in
  (try
     Array.iter
       (fun (t, len, _) ->
         if !remaining <= 0.0 then raise Exit;
         let take = Float.min len !remaining in
         alloc.(t) <- alloc.(t) +. take;
         remaining := !remaining -. take)
       pieces
   with Exit -> ());
  alloc

(* Random strictly-concave envelope with exactly [k] pieces: adjacent
   slopes differ by >= 0.6, so canonicalization never merges any. *)
let synth_plc rng k =
  let pts = Array.make (k + 1) (0.0, 0.0) in
  let x = ref 0.0 and y = ref 0.0 in
  for j = 0 to k - 1 do
    let dx = Rng.uniform rng ~lo:0.5 ~hi:2.0 in
    let slope = float_of_int (k - j) +. Rng.uniform rng ~lo:0.0 ~hi:0.4 in
    x := !x +. dx;
    y := !y +. (slope *. dx);
    pts.(j + 1) <- (!x, !y)
  done;
  Plc.create pts

let plc_kernel () =
  heading
    (Printf.sprintf
       "PLC — flat kernel: eval/demand/allocate throughput at k pieces (trials=%d)" trials);
  let threads = 64 in
  let queries = 200_000 in
  let solves = max 2 (min 400 trials) in
  let sink = ref 0.0 in
  List.iter
    (fun k ->
      let rng = Rng.create ~seed () in
      let fs = Array.init threads (fun _ -> synth_plc rng k) in
      let budget = 0.5 *. Util.sum_by Plc.cap fs in
      (* point queries *)
      let t0 = now () in
      for i = 0 to queries - 1 do
        let f = fs.(i mod threads) in
        sink := !sink +. Plc.eval f (Rng.uniform rng ~lo:0.0 ~hi:(Plc.cap f))
      done;
      let t_eval = now () -. t0 in
      let t0 = now () in
      for i = 0 to queries - 1 do
        let f = fs.(i mod threads) in
        sink := !sink +. Plc.demand f (Rng.uniform rng ~lo:0.0 ~hi:(Plc.max_slope f))
      done;
      let t_demand = now () -. t0 in
      (* full solves: merge kernel on a recycled scratch vs reference *)
      let scratch = Aa_alloc.Plc_greedy.Scratch.create () in
      let c0 = Aa_obs.Registry.counters () in
      let t0 = now () in
      let merged = ref (Aa_alloc.Plc_greedy.allocate ~scratch ~exhaust:false ~budget fs) in
      for _ = 2 to solves do
        merged := Aa_alloc.Plc_greedy.allocate ~scratch ~exhaust:false ~budget fs
      done;
      let t_merge = now () -. t0 in
      let counters = counter_deltas c0 (Aa_obs.Registry.counters ()) in
      let t0 = now () in
      let reference = ref (reference_allocate ~budget fs) in
      for _ = 2 to solves do
        reference := reference_allocate ~budget fs
      done;
      let t_ref = now () -. t0 in
      let identical = Array.for_all2 fsame (!merged).alloc !reference in
      let speedup = t_ref /. t_merge in
      let pos = Util.sum_by (fun f -> float_of_int (Plc.positive_pieces f)) fs in
      line
        "k=%-4d (%2.0f%% positive pieces)  eval %8.1f ns/q   demand %8.1f ns/q   \
         allocate %8.2f us/solve (reference %8.2f us/solve, %.2fx)"
        (Plc.n_pieces fs.(0))
        (100.0 *. pos /. float_of_int (threads * k))
        (1e9 *. t_eval /. float_of_int queries)
        (1e9 *. t_demand /. float_of_int queries)
        (1e6 *. t_merge /. float_of_int solves)
        (1e6 *. t_ref /. float_of_int solves)
        speedup;
      line "  merge allocation bit-identical to sort-based reference: %b (must be true)"
        identical;
      (* certified coarsening: piece collapse at a utility-relative eps *)
      let eps = 1e-3 *. Plc.peak fs.(0) in
      let coarse = Array.map (Plc.coarsen ~eps) fs in
      line "  coarsen eps=%.3g: %d -> %d pieces per envelope" eps (Plc.n_pieces fs.(0))
        (Plc.n_pieces coarse.(0));
      record
        ~id:(Printf.sprintf "plc-k%d" k)
        ~jobs:1 ~trials:solves ~speedup ~counters t_merge)
    [ 8; 64; 512 ];
  if Float.is_nan !sink then line "(sink nan — unreachable)"

(* ---------- T1: timing ---------- *)

let timing_instance ~threads =
  let rng = Rng.create ~seed:1 () in
  Gen.instance rng ~servers:8 ~capacity:1000.0 ~threads Gen.Uniform

let bechamel_timing () =
  heading
    "T1 — running time (paper: unoptimized Matlab Algorithm 2 took 0.02 s at m=8, n=100, \
     C=1000)";
  let open Bechamel in
  let inst100 = timing_instance ~threads:100 in
  let inst1000 = timing_instance ~threads:1000 in
  let lin100 = Linearized.make inst100 in
  let lin1000 = Linearized.make inst1000 in
  let tests =
    [
      Test.make ~name:"algo2-pipeline-n100" (Staged.stage (fun () -> Algo2.solve inst100));
      Test.make ~name:"algo2-assign-only-n100"
        (Staged.stage (fun () -> Algo2.solve ~linearized:lin100 inst100));
      (let scratch = Algo2.Scratch.create () in
       Test.make ~name:"algo2-assign-scratch-n100"
         (Staged.stage (fun () -> Algo2.solve ~linearized:lin100 ~scratch inst100)));
      Test.make ~name:"algo1-pipeline-n100" (Staged.stage (fun () -> Algo1.solve inst100));
      Test.make ~name:"superopt-n100" (Staged.stage (fun () -> Superopt.compute inst100));
      Test.make ~name:"uu-n100" (Staged.stage (fun () -> Heuristics.uu inst100));
      Test.make ~name:"algo2-pipeline-n1000" (Staged.stage (fun () -> Algo2.solve inst1000));
      Test.make ~name:"algo2-assign-only-n1000"
        (Staged.stage (fun () -> Algo2.solve ~linearized:lin1000 inst1000));
      (let scratch = Algo2.Scratch.create () in
       Test.make ~name:"algo2-assign-scratch-n1000"
         (Staged.stage (fun () -> Algo2.solve ~linearized:lin1000 ~scratch inst1000)));
      (* allocator substrate scaling: the three single-pool algorithms on
         one 100-thread pool *)
      (let plcs = Instance.to_plc inst100 in
       Test.make ~name:"alloc-plc-greedy-n100"
         (Staged.stage (fun () -> Aa_alloc.Plc_greedy.allocate ~budget:8000.0 plcs)));
      (let us = inst100.utilities in
       Test.make ~name:"alloc-waterfill-n100"
         (Staged.stage (fun () -> Aa_alloc.Waterfill.allocate ~budget:8000.0 us)));
      (let us = inst100.utilities in
       Test.make ~name:"alloc-fox-B8000-n100"
         (Staged.stage (fun () -> Aa_alloc.Fox.allocate ~budget:8000 ~unit_size:1.0 us)));
      (let us = inst100.utilities in
       Test.make ~name:"alloc-galil-B8000-n100"
         (Staged.stage (fun () -> Aa_alloc.Galil.allocate ~budget:8000 ~unit_size:1.0 us)));
    ]
  in
  let benchmark test =
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    (* per-iteration heap stabilization assumes a quiet single-domain
       heap and aborts ("Unable to stabilize...") under cross-domain
       churn; only the sequential path keeps it *)
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~stabilize:(jobs = 1) ()
    in
    Benchmark.all cfg instances test
  in
  let analyze results =
    let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
    Analyze.all ols Toolkit.Instance.monotonic_clock results
  in
  (* The pool distributes the tests and keeps output in test order, but
     the measured section itself is exclusive: concurrent measurement on
     shared cores would corrupt the timings, and bechamel's initial GC
     stabilization aborts if other domains allocate meanwhile. Only
     report formatting overlaps the next measurement. *)
  let measure_lock = Mutex.create () in
  let tests = Array.of_list tests in
  let reports =
    (* probes off for the whole pooled section, not just the measured
       region: flipping the global flag while another domain has a
       pool.chunk span open would strand that span (end_span is gated
       on the flag), so the flag must stay constant while workers run *)
    Aa_obs.Control.with_enabled false @@ fun () ->
    Pool.with_pool ~domains:jobs (fun pool ->
        Pool.map_chunked pool (Array.length tests) (fun i ->
            let stats =
              Mutex.lock measure_lock;
              Fun.protect
                ~finally:(fun () -> Mutex.unlock measure_lock)
                (fun () -> analyze (benchmark tests.(i)))
            in
            let out = ref [] in
            Hashtbl.iter
              (fun name result ->
                match Analyze.OLS.estimates result with
                | Some [ est ] ->
                    out := Printf.sprintf "%-28s %12.3f us/run" name (est /. 1000.0) :: !out
                | Some _ | None -> out := Printf.sprintf "%-28s (no estimate)" name :: !out)
              stats;
            List.rev !out))
  in
  Array.iter (List.iter (fun l -> line "%s" l)) reports;
  line "";
  line "note: the paper's 0.02 s Matlab figure is the full algo2 pipeline at n=100;";
  line "anything well under 20,000 us/run reproduces the 'runs quickly' claim.";
  if jobs > 1 then
    line "(pool size %d: measurements serialized for fidelity, analysis overlapped)" jobs

(* ---------- T2: headline claims ---------- *)

let claims all_series =
  heading "T2 — headline claims of the paper vs this reproduction";
  let worst_mean_vs_so = ref 1.0 in
  let worst_where = ref "" in
  List.iter
    (fun (s : Run.series) ->
      List.iter
        (fun (p : Run.point) ->
          if p.mean.vs_so < !worst_mean_vs_so then begin
            worst_mean_vs_so := p.mean.vs_so;
            worst_where := Printf.sprintf "%s at %s=%g" s.id s.xlabel p.x
          end)
        s.points)
    all_series;
  line "worst mean Algo2/SO ratio over all sweeps: %.4f (%s)" !worst_mean_vs_so !worst_where;
  line "paper: >= 0.99 on average for all types, dipping to 0.975 at discrete gamma=0.75";
  (match List.find_opt (fun (s : Run.series) -> s.id = "fig2a") all_series with
  | Some s ->
      let last = List.nth s.points (List.length s.points - 1) in
      line
        "power-law alpha=2 at beta=15: Algo2/UU = %.2fx, /RU = %.2fx, /UR = %.2fx, /RR = %.2fx"
        last.mean.vs_uu last.mean.vs_ru last.mean.vs_ur last.mean.vs_rr;
      line "paper: 3.9x better than UU and RU; 5.7x better than UR and RR"
  | None -> line "(fig2a not run; skipping the 5.7x check)");
  let violations =
    List.fold_left
      (fun acc (s : Run.series) ->
        List.fold_left (fun acc (p : Run.point) -> acc + p.guarantee_violations) acc s.points)
      0 all_series
  in
  line "guarantee violations (Algo2 below alpha * F^) across all trials: %d (must be 0)"
    violations

(* ---------- X1: tightness ---------- *)

let tightness () =
  heading "X1 — Theorem V.17 tightness example";
  let inst = Tightness.instance () in
  let u2 = Assignment.utility inst (Algo2.solve inst) in
  let u1 = Assignment.utility inst (Algo1.solve inst) in
  let opt = (Exact.solve inst).utility in
  line "Algorithm 2 utility: %.4f   Algorithm 1 utility: %.4f" u2 u1;
  line "optimal utility:     %.4f" opt;
  line "ratio: %.4f (expected 5/6 = %.4f; proven bound alpha = %.4f)" (u2 /. opt)
    Tightness.expected_ratio Bounds.alpha

(* ---------- A1: algorithm-2 design ablation ---------- *)

let ablation () =
  heading "A1 — ablation: Algorithm 2 design choices (power law alpha=2, beta=15, m=8)";
  let trials = max 50 (trials / 4) in
  let variants =
    [
      ("paper + per-server refill (as in experiments)", true, `Max_remaining, true);
      ("paper pseudocode verbatim (no refill)", true, `Max_remaining, false);
      ("no tail slope re-sort (line 2 dropped)", false, `Max_remaining, true);
      ("min-remaining server rule", true, `Min_remaining, true);
      ("round-robin server rule", true, `Round_robin, true);
    ]
  in
  let master = Rng.create ~seed () in
  let accs = List.map (fun v -> (v, Stats.Online.create ())) variants in
  for _ = 1 to trials do
    let rng = Rng.split master in
    let inst =
      Gen.instance rng ~servers:8 ~capacity:1000.0 ~threads:120 (Gen.Power_law { alpha = 2.0 })
    in
    let lin = Linearized.make inst in
    let fhat = lin.superopt.utility in
    List.iter
      (fun ((_, tail_resort, server_rule, refill), acc) ->
        let a = Algo2.solve ~linearized:lin ~tail_resort ~server_rule inst in
        let a = if refill then Refine.per_server inst a else a in
        Stats.Online.add acc (Assignment.utility inst a /. fhat))
      accs
  done;
  line "%-50s %10s %10s" "variant" "mean/SO" "min/SO";
  List.iter
    (fun ((name, _, _, _), acc) ->
      line "%-50s %10.4f %10.4f" name (Stats.Online.mean acc) (Stats.Online.min acc))
    accs;
  line "";
  line "super-optimal padding (Lemma V.3 'sum = mC') vs minimal chat:";
  let acc_pad = Stats.Online.create () and acc_min = Stats.Online.create () in
  let master = Rng.create ~seed () in
  for _ = 1 to trials do
    let rng = Rng.split master in
    let inst =
      Gen.instance rng ~servers:8 ~capacity:1000.0 ~threads:120 (Gen.Power_law { alpha = 2.0 })
    in
    let so_pad = Superopt.compute ~exhaust:true inst in
    let so_min = Superopt.compute ~exhaust:false inst in
    let score (so : Superopt.t) =
      let lin = Linearized.of_superopt inst so in
      Assignment.utility inst (Algo2.solve ~linearized:lin inst) /. so.utility
    in
    Stats.Online.add acc_pad (score so_pad);
    Stats.Online.add acc_min (score so_min)
  done;
  line "%-50s %10.4f" "padded (paper)" (Stats.Online.mean acc_pad);
  line "%-50s %10.4f" "minimal" (Stats.Online.mean acc_min)

(* ---------- A2: PLC resolution ablation ---------- *)

let resolution () =
  heading "A2 — ablation: PCHIP sampling resolution of the generator";
  let trials = max 50 (trials / 4) in
  List.iter
    (fun res ->
      let master = Rng.create ~seed () in
      let acc = Stats.Online.create () in
      let t0 = now () in
      for _ = 1 to trials do
        let rng = Rng.split master in
        let inst =
          Gen.instance ~resolution:res rng ~servers:8 ~capacity:1000.0 ~threads:40 Gen.Uniform
        in
        let lin = Linearized.make inst in
        let a = Algo2.solve ~linearized:lin inst in
        Stats.Online.add acc (Assignment.utility inst a /. lin.superopt.utility)
      done;
      line "resolution %4d: mean Algo2/SO = %.5f  (%.2f s for %d trials)" res
        (Stats.Online.mean acc) (now () -. t0) trials)
    [ 8; 16; 32; 64; 128; 256 ]

(* ---------- A3: beyond Algorithm 2 ---------- *)

let beyond () =
  heading
    "A3 — beyond Algorithm 2: local search and sampled placements (power law alpha=2, \
     beta=5, m=8)";
  let trials = min 60 (max 30 (trials / 10)) in
  let acc_a2 = Stats.Online.create () in
  let acc_ls = Stats.Online.create () in
  let acc_s30 = Stats.Online.create () in
  let acc_s300 = Stats.Online.create () in
  let time_a2 = ref 0.0 and time_ls = ref 0.0 and time_s300 = ref 0.0 in
  let master = Rng.create ~seed () in
  for _ = 1 to trials do
    let rng = Rng.split master in
    let inst =
      Gen.instance rng ~servers:8 ~capacity:1000.0 ~threads:40 (Gen.Power_law { alpha = 2.0 })
    in
    let lin = Linearized.make inst in
    let fhat = lin.superopt.utility in
    let t0 = now () in
    let a2 = Refine.per_server inst (Algo2.solve ~linearized:lin inst) in
    time_a2 := !time_a2 +. (now () -. t0);
    let t0 = now () in
    let ls, _ = Local_search.improve inst a2 in
    time_ls := !time_ls +. (now () -. t0);
    let s30 = Heuristics.best_of_random ~rng ~tries:30 inst in
    let t0 = now () in
    let s300 = Heuristics.best_of_random ~rng ~tries:300 inst in
    time_s300 := !time_s300 +. (now () -. t0);
    Stats.Online.add acc_a2 (Assignment.utility inst a2 /. fhat);
    Stats.Online.add acc_ls (Assignment.utility inst ls /. fhat);
    Stats.Online.add acc_s30 (Assignment.utility inst s30 /. fhat);
    Stats.Online.add acc_s300 (Assignment.utility inst s300 /. fhat)
  done;
  let per x = 1000.0 *. !x /. float_of_int trials in
  line "%-42s %10s %10s %12s" "method" "mean/SO" "min/SO" "ms/instance";
  line "%-42s %10.4f %10.4f %12.2f" "Algorithm 2 + refill"
    (Stats.Online.mean acc_a2) (Stats.Online.min acc_a2) (per time_a2);
  line "%-42s %10.4f %10.4f %12.2f" "  + local search (moves and swaps)"
    (Stats.Online.mean acc_ls) (Stats.Online.min acc_ls) (per time_ls);
  line "%-42s %10.4f %10.4f %12s" "best of 30 random placements (§II [8])"
    (Stats.Online.mean acc_s30) (Stats.Online.min acc_s30) "-";
  line "%-42s %10.4f %10.4f %12.2f" "best of 300 random placements"
    (Stats.Online.mean acc_s300) (Stats.Online.min acc_s300) (per time_s300)

(* ---------- E1: heterogeneous-server extension ---------- *)

let hetero () =
  heading
    "E1 — extension: heterogeneous servers (m=8, total capacity 8000, uniform workload, \
     n=40)";
  let trials = max 50 (trials / 4) in
  line "capacity skew s: capacities proportional to [1, s] alternating; s=1 is the paper's";
  line "homogeneous setting. ratio = generalized Algo2 utility / pooled bound F^.";
  line "%-8s %12s %12s %12s" "skew" "vs_SO" "vs_heteroUU" "worst_vs_SO";
  List.iter
    (fun skew ->
      let master = Rng.create ~seed () in
      let acc = Stats.Online.create () in
      let acc_uu = Stats.Online.create () in
      for _ = 1 to trials do
        let rng = Rng.split master in
        (* alternating small/large servers, normalized to total 8000 *)
        let raw = Array.init 8 (fun j -> if j mod 2 = 0 then 1.0 else skew) in
        let scale = 8000.0 /. Array.fold_left ( +. ) 0.0 raw in
        let capacities = Array.map (fun c -> c *. scale) raw in
        let cmax = Array.fold_left Float.max capacities.(0) capacities in
        let us = Array.init 40 (fun _ -> Gen.utility rng ~cap:cmax Gen.Uniform) in
        let t = Hetero.create ~capacities us in
        let so = (Hetero.superopt t).utility in
        let u = Hetero.utility_of t (Refine.hetero t (Hetero.solve t)) in
        let uu = Hetero.utility_of t (Hetero.uu t) in
        Stats.Online.add acc (u /. so);
        Stats.Online.add acc_uu (u /. uu)
      done;
      line "%-8g %12.4f %12.4f %12.4f" skew (Stats.Online.mean acc)
        (Stats.Online.mean acc_uu) (Stats.Online.min acc))
    [ 1.0; 2.0; 4.0; 8.0 ]

(* ---------- E2: online extension ---------- *)

let online () =
  heading "E2 — extension: online arrivals (m=8, C=1000, uniform workload)";
  let trials = max 50 (trials / 4) in
  line "threads arrive in random order, placed immediately, no migration;";
  line "intra-server re-allocation allowed. ratio = online / offline Algo2.";
  line "%-8s %14s %14s" "beta" "online/offline" "online/SO";
  List.iter
    (fun beta ->
      let master = Rng.create ~seed () in
      let acc = Stats.Online.create () in
      let acc_so = Stats.Online.create () in
      for _ = 1 to trials do
        let rng = Rng.split master in
        let inst =
          Gen.instance rng ~servers:8 ~capacity:1000.0 ~threads:(8 * beta) Gen.Uniform
        in
        let lin = Linearized.make inst in
        let offline = Assignment.utility inst (Algo2.solve ~linearized:lin inst) in
        let online_a = Online.solve_sequence ~servers:8 ~capacity:1000.0 inst.utilities in
        let online_u = Assignment.utility inst online_a in
        Stats.Online.add acc (online_u /. offline);
        Stats.Online.add acc_so (online_u /. lin.superopt.utility)
      done;
      line "%-8d %14.4f %14.4f" beta (Stats.Online.mean acc) (Stats.Online.mean acc_so))
    [ 1; 2; 5; 10; 15 ];
  (* Incremental vs full per-request maintenance: the same n arrivals
     through both policies. The incremental engine keeps each server's
     merged piece order alive between requests, so ADMIT runs no
     allocator calls at all; the two runs must agree bit for bit. The
     incremental entry's speedup field is the p99 ADMIT latency ratio,
     so a p99 regression raises the trajectory's regression flag. *)
  let n_arr = 1000 in
  let inst =
    Gen.instance (Rng.create ~seed ()) ~servers:8 ~capacity:1000.0 ~threads:n_arr
      Gen.Uniform
  in
  let calls_now () =
    Option.value
      (List.assoc_opt "plc_greedy.calls" (Aa_obs.Registry.counters ()))
      ~default:0
  in
  let run_policy policy =
    let h = Aa_obs.Histogram.create () in
    let t = Online.create ~policy ~servers:8 ~capacity:1000.0 () in
    let calls0 = calls_now () in
    let t0 = now () in
    Array.iter
      (fun u ->
        let a0 = now () in
        ignore (Online.admit t u);
        Aa_obs.Histogram.add h (now () -. a0))
      inst.utilities;
    let wall = now () -. t0 in
    ( Online.total_utility t,
      Aa_obs.Histogram.quantile h 0.99 *. 1e9,
      wall,
      calls_now () - calls0 )
  in
  let u_full, p99_full, wall_full, calls_full = run_policy Online.Full in
  let u_inc, p99_inc, wall_inc, calls_inc = run_policy Online.Incremental in
  if not (Int64.equal (Int64.bits_of_float u_full) (Int64.bits_of_float u_inc)) then begin
    Printf.eprintf
      "bench: ERROR online incremental maintenance diverged from full: %.17g <> %.17g\n%!"
      u_inc u_full;
    exit 1
  end;
  line "admit maintenance (n=%d, m=8): p99 full %.0f ns, incremental %.0f ns (%.1fx);"
    n_arr p99_full p99_inc
    (p99_full /. Float.max 1.0 p99_inc);
  line "plc_greedy.calls %d -> %d; totals bit-identical" calls_full calls_inc;
  record ~id:"online-admit-full" ~jobs:1 ~trials:n_arr
    ~counters:
      [ ("plc_greedy.calls", calls_full); ("p99_admit_ns", int_of_float p99_full) ]
    wall_full;
  record ~id:"online-admit-incremental" ~jobs:1 ~trials:n_arr
    ~speedup:(p99_full /. Float.max 1.0 p99_inc)
    ~counters:
      [ ("plc_greedy.calls", calls_inc); ("p99_admit_ns", int_of_float p99_inc) ]
    wall_inc

(* ---------- E3: multi-resource extension ---------- *)

let multires () =
  heading "E3 — extension: multiple resource types (m=4, C_r=100 each, n=24)";
  let trials = max 50 (trials / 4) in
  line "R resource types; demands drawn per thread per resource; ratios against";
  line "the per-resource-relaxation upper bound (a loose bound for R > 1).";
  line "%-10s %12s %12s" "resources" "solve/bound" "rr/bound";
  List.iter
    (fun nr ->
      let master = Rng.create ~seed () in
      let acc = Stats.Online.create () in
      let acc_rr = Stats.Online.create () in
      for _ = 1 to trials do
        let rng = Rng.split master in
        let capacities = Array.make nr 100.0 in
        let threads =
          Array.init 24 (fun _ ->
              let demand =
                Array.init nr (fun _ -> Rng.uniform rng ~lo:0.05 ~hi:2.0)
              in
              let rc =
                Array.to_seqi demand
                |> Seq.filter_map (fun (r, d) ->
                       if d > 0.0 then Some (capacities.(r) /. d) else None)
                |> Seq.fold_left Float.min Float.infinity
              in
              {
                Multires.rate_utility =
                  Aa_utility.Utility.Shapes.power ~cap:rc
                    ~coeff:(Rng.uniform rng ~lo:0.5 ~hi:4.0)
                    ~beta:(Rng.uniform rng ~lo:0.3 ~hi:0.95);
                demand;
              })
        in
        let t = Multires.create ~servers:4 ~capacities threads in
        let s = Multires.solve t in
        let rr = Multires.round_robin t in
        Stats.Online.add acc (s.total /. s.bound);
        Stats.Online.add acc_rr (rr.total /. rr.bound)
      done;
      line "%-10d %12.4f %12.4f" nr (Stats.Online.mean acc) (Stats.Online.mean acc_rr))
    [ 1; 2; 3; 4 ]

(* ---------- E4: service throughput ---------- *)

(* The journaled run's fsync policy: AA_BENCH_FSYNC=always|interval|never
   (default never, so the default bench measures engine throughput, not
   the disk). The chosen policy is recorded in the trajectory JSON —
   wall times under different policies are not comparable. *)
let service_fsync =
  let s = Option.value (Sys.getenv_opt "AA_BENCH_FSYNC") ~default:"never" in
  match Aa_service.Journal.fsync_of_string s with
  | Ok p -> p
  | Error e ->
      Printf.eprintf "bench: AA_BENCH_FSYNC: %s\n%!" e;
      exit 2

(* The mixed-workload request script both daemon experiments drive;
   built up front so request generation is never timed. Ids are dense
   in admission order, which the sharded dispatcher preserves (ADMIT k
   round-robins to shard [k mod n] and gets global id [k] back), so one
   script serves every shard count. *)
let make_service_script ~n_requests () =
  let rng = Rng.create ~seed () in
  let active = ref [] in
  let admitted = ref 0 in
  let spec () =
    Aa_io.Format_text.print_thread_spec (Gen.utility rng ~cap:1000.0 Gen.Uniform)
  in
  let admit () =
    active := !admitted :: !active;
    incr admitted;
    "ADMIT " ^ spec ()
  in
  let pick () = List.nth !active (Rng.int rng (List.length !active)) in
  List.init n_requests (fun step ->
      if step > 0 && step mod 1000 = 0 then "SNAPSHOT"
      else if step mod 1000 = 500 then "REBALANCE"
      else begin
        let r = Rng.int rng 20 in
        if r < 6 || !active = [] then admit ()
        else if r < 12 then begin
          let i = pick () in
          active := List.filter (fun x -> x <> i) !active;
          Printf.sprintf "DEPART %d" i
        end
        else if r < 15 then Printf.sprintf "UPDATE %d %s" (pick ()) (spec ())
        else if r < 19 then Printf.sprintf "QUERY %d" (pick ())
        else "STATS"
      end)

let service () =
  heading "E4 — service: allocation daemon throughput (m=8, C=1000, mixed workload)";
  let n_requests = 10_000 in
  line "%d requests: ~30%% ADMIT, 30%% DEPART, 15%% UPDATE, 20%% QUERY, plus STATS;"
    n_requests;
  line "SNAPSHOT every 1000 requests, REBALANCE (active-set Algo2) every 1000.";
  line "journaled run fsync policy: %s"
    (Aa_service.Journal.fsync_to_string service_fsync);
  (* parse + engine dispatch on this domain: the engine's cost without
     the dispatcher's worker hand-off *)
  let time_script label engine script =
    let cap = Aa_service.Engine.capacity engine in
    let t0 = now () in
    List.iter
      (fun l ->
        match Aa_service.Protocol.parse_request ~cap l with
        | Ok req -> ignore (Aa_service.Engine.handle engine req)
        | Error _ -> ())
      script;
    let dt = now () -. t0 in
    line "%-12s %10.0f requests/s  (%.2f s total, %d thread(s) active at end)" label
      (float_of_int n_requests /. dt)
      dt
      (Aa_service.Engine.n_active engine)
  in
  let script = make_service_script ~n_requests () in
  time_script "in-memory"
    (Aa_service.Engine.create ~servers:8 ~capacity:1000.0 ())
    script;
  let path = Filename.temp_file "aa_bench_journal" ".log" in
  (match
     Aa_service.Journal.create ~fsync:service_fsync ~path ~servers:8
       ~capacity:1000.0 ()
   with
  | Error e -> line "journaled bench skipped: %s" e
  | Ok j ->
      time_script "journaled"
        (Aa_service.Engine.create ~journal:j ~servers:8 ~capacity:1000.0 ())
        script;
      Aa_service.Journal.close j);
  Sys.remove path

(* ---------- E5: sharded daemon + group commit ---------- *)

(* The same mixed workload through the sharded dispatcher at 1/2/4/8
   shards, every shard journaled at fsync=always — the policy where
   group commit matters. Requests are posted pipelined with a bounded
   in-flight window (the socket reader/writer discipline), so the shard
   queues see real depth and each drained burst lands under one fsync:
   the recorded journal.fsyncs stays well below the request count even
   though every ack names durable state. *)
let service_shards () =
  heading
    "E5 — sharded daemon: requests/s at 1/2/4/8 shards (group commit, fsync=always)";
  let n_requests = 10_000 in
  let max_inflight = 64 in
  let script = make_service_script ~n_requests () in
  line "%d pipelined requests, in-flight window %d; fsyncs counted per run."
    n_requests max_inflight;
  List.iter
    (fun shards ->
      let counts = Aa_service.Shard.server_counts ~servers:8 ~shards in
      let paths =
        Array.init shards (fun _ -> Filename.temp_file "aa_bench_shard" ".log")
      in
      let journals =
        Array.init shards (fun k ->
            match
              Aa_service.Journal.create ~fsync:Aa_service.Journal.Always
                ~path:paths.(k) ~servers:counts.(k) ~capacity:1000.0 ()
            with
            | Ok j -> j
            | Error e ->
                Printf.eprintf "bench: shard journal: %s\n%!" e;
                exit 2)
      in
      let engines =
        Array.init shards (fun k ->
            Aa_service.Engine.create ~journal:journals.(k) ~servers:counts.(k)
              ~capacity:1000.0 ())
      in
      let sh = Aa_service.Shard.create engines in
      let inflight = Queue.create () in
      let await tk =
        match Aa_service.Shard.await sh tk with
        | Aa_service.Shard.Reply _ -> ()
        | Aa_service.Shard.Crashed name ->
            Printf.eprintf "bench: shard crashed at %s\n%!" name;
            exit 2
      in
      let t0 = now () in
      List.iter
        (fun l ->
          (match Aa_service.Shard.post_line sh l with
          | `Ticket tk -> Queue.push tk inflight
          | `Blank | `Immediate _ -> ());
          if Queue.length inflight > max_inflight then await (Queue.pop inflight))
        script;
      Queue.iter await inflight;
      let dt = now () -. t0 in
      Aa_service.Shard.shutdown sh;
      let fsyncs =
        Array.fold_left (fun a j -> a + Aa_service.Journal.fsyncs j) 0 journals
      in
      Array.iter Sys.remove paths;
      let rps = float_of_int n_requests /. dt in
      line "shards=%d   %10.0f requests/s   (%.2f s, %d fsyncs for %d requests)"
        shards rps dt fsyncs n_requests;
      record
        ~id:(Printf.sprintf "service-shards-%d" shards)
        ~jobs:shards ~trials:1 ~fsync:"always" ~rps
        ~counters:[ ("requests", n_requests); ("journal.fsyncs", fsyncs) ]
        dt)
    [ 1; 2; 4; 8 ]

(* ---------- E5b: telemetry overhead on the sharded daemon ---------- *)

(* The E5 workload in the E5 configuration — 4 shards, every shard
   journaled at fsync=always, group commit — run twice: telemetry off,
   then the full request-context layer on — a context minted per
   request, phases timed, slow capture armed, every ack rendered and
   written to a structured access log. The on/off rps ratio is the
   observability tax; the budget is 5% (ratio >= 0.95). Set
   AA_TEL=noalog or AA_TEL=noslow to ablate the access-log write or the
   slow-capture arming out of the on leg when attributing a
   regression. *)
let service_telemetry () =
  heading
    "E5b — telemetry overhead: requests/s with request contexts + access log on \
     vs off (4 shards, group commit, fsync=always)";
  let n_requests = 10_000 in
  let max_inflight = 64 in
  let shards = 4 in
  let run ~telemetry =
    let script = make_service_script ~n_requests () in
    let counts = Aa_service.Shard.server_counts ~servers:8 ~shards in
    let paths =
      Array.init shards (fun _ -> Filename.temp_file "aa_bench_tel" ".log")
    in
    let journals =
      Array.init shards (fun k ->
          match
            Aa_service.Journal.create ~fsync:Aa_service.Journal.Always
              ~path:paths.(k) ~servers:counts.(k) ~capacity:1000.0 ()
          with
          | Ok j -> j
          | Error e ->
              Printf.eprintf "bench: shard journal: %s\n%!" e;
              exit 2)
    in
    let engines =
      Array.init shards (fun k ->
          Aa_service.Engine.create ~journal:journals.(k) ~servers:counts.(k)
            ~capacity:1000.0 ())
    in
    let sh = Aa_service.Shard.create engines in
    let alog_path = Filename.temp_file "aa_bench_alog" ".jsonl" in
    let variant = Option.value (Sys.getenv_opt "AA_TEL") ~default:"full" in
    let alog =
      if not telemetry then None
      else begin
        Aa_obs.Rctx.set_enabled true;
        if variant <> "noslow" then Aa_obs.Rctx.set_slow_ms 1000.0;
        if variant = "noalog" then None
        else
          match Aa_service.Access_log.create ~path:alog_path with
          | Ok a -> Some a
          | Error e ->
              Printf.eprintf "bench: access log: %s\n%!" e;
              exit 2
      end
    in
    let inflight = Queue.create () in
    let await tk =
      match Aa_service.Shard.await sh tk with
      | Aa_service.Shard.Crashed name ->
          Printf.eprintf "bench: shard crashed at %s\n%!" name;
          exit 2
      | Aa_service.Shard.Reply resp as out ->
          (* render the ack in both runs — the wire write the daemon
             pays either way must not be billed to telemetry *)
          let text = Aa_service.Protocol.print_response resp in
          Aa_service.Shard.finish alog tk out
            (Aa_service.Shard.Sent (String.length text + 1))
    in
    let t0 = now () in
    List.iter
      (fun l ->
        (match Aa_service.Shard.post_line ~conn:0 sh l with
        | `Ticket tk -> Queue.push tk inflight
        | `Blank | `Immediate _ -> ());
        if Queue.length inflight > max_inflight then await (Queue.pop inflight))
      script;
    Queue.iter await inflight;
    let dt = now () -. t0 in
    Aa_service.Shard.shutdown sh;
    Array.iter Sys.remove paths;
    Option.iter Aa_service.Access_log.close alog;
    if telemetry then begin
      Aa_obs.Rctx.set_slow_ms (-1.0);
      Aa_obs.Rctx.slow_clear ();
      Aa_obs.Rctx.set_enabled false
    end;
    Sys.remove alog_path;
    dt
  in
  (* Discarded warm-ups, then the median-ratio pair of N adjacent
     (off, on) runs. A single pair on a loaded machine is scheduler
     noise (observed spread 0.87x..1.5x), and independent best-of legs
     drift apart when the background load changes between them; pairing
     adjacent runs makes each ratio a load-matched sample, and the
     median is robust to the outliers. The leg order alternates per
     pair so a monotonic drift (cache warm-up, CPU governor, a suite
     of experiments heating the box) cannot systematically penalize
     whichever leg runs second. The recorded entries are the median
     pair's, so the ratio a consumer derives from the JSON is the
     median ratio. *)
  let reps = 7 in
  ignore (run ~telemetry:false);
  ignore (run ~telemetry:true);
  let pairs =
    List.init reps (fun i ->
        if i mod 2 = 0 then
          let dt_off = run ~telemetry:false in
          let dt_on = run ~telemetry:true in
          (dt_off, dt_on)
        else
          let dt_on = run ~telemetry:true in
          let dt_off = run ~telemetry:false in
          (dt_off, dt_on))
  in
  let by_ratio =
    List.sort
      (fun (o1, n1) (o2, n2) -> Float.compare (o1 /. n1) (o2 /. n2))
      pairs
  in
  let dt_off, dt_on = List.nth by_ratio (reps / 2) in
  let rps_off = float_of_int n_requests /. dt_off in
  let rps_on = float_of_int n_requests /. dt_on in
  let ratio = rps_on /. rps_off in
  line
    "off: %10.0f requests/s   on: %10.0f requests/s   on/off = %.3f (median of %d \
     pairs)"
    rps_off rps_on ratio reps;
  if ratio < 0.95 then
    Printf.eprintf
      "bench: WARNING telemetry-on throughput is %.1f%% of telemetry-off — over \
       the 5%% budget\n%!"
      (100. *. ratio);
  record ~id:"service-telemetry-off" ~jobs:shards ~trials:1 ~fsync:"always"
    ~rps:rps_off dt_off;
  record ~id:"service-telemetry-on" ~jobs:shards ~trials:1 ~fsync:"always"
    ~rps:rps_on dt_on

(* ---------- driver ---------- *)

let all_ids = [ "fig1a"; "fig1b"; "fig2a"; "fig2b"; "fig3a"; "fig3b"; "fig3c" ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args =
    if args = [] then
      all_ids
      @ [ "tightness"; "plc"; "timing"; "speedup"; "ablation"; "resolution"; "beyond";
          "hetero"; "online"; "multires"; "service"; "service-shards";
          "service-telemetry"; "claims" ]
    else args
  in
  let series = ref [] in
  let want id = List.mem id args in
  List.iter
    (fun id ->
      if want id then
        match Figures.find id with
        | Some spec -> series := run_figure spec :: !series
        | None -> ())
    all_ids;
  let experiment ?jobs ?fsync id f =
    if want id then ignore (timed ~id ?jobs ?fsync f)
  in
  experiment "tightness" tightness;
  (* records its own per-piece-count entries, like speedup *)
  if want "plc" then plc_kernel ();
  (* T1 runs on the pool; every other experiment here is sequential *)
  experiment ~jobs "timing" bechamel_timing;
  if want "speedup" then speedup ();
  experiment "ablation" ablation;
  experiment "resolution" resolution;
  experiment "beyond" beyond;
  experiment "hetero" hetero;
  experiment "online" online;
  experiment "multires" multires;
  experiment
    ~fsync:(Aa_service.Journal.fsync_to_string service_fsync)
    "service" service;
  (* records its own per-shard-count entries, like speedup *)
  if want "service-shards" then service_shards ();
  (* records its own on/off entry pair *)
  if want "service-telemetry" then service_telemetry ();
  if want "claims" then claims (List.rev !series);
  line "";
  write_bench_json ();
  let unbalanced = Aa_obs.Trace.unbalanced () in
  if unbalanced <> 0 then begin
    line "ERROR: %d span(s) still open at exit — begin/end accounting is unbalanced."
      unbalanced;
    exit 1
  end;
  line "done."
