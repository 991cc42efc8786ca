(* The solver workloads, called in-process through the libraries'
   public functions.

   paper-sweep: the §VII sweep fig2a (power law alpha = 2, beta = 1..15,
   m = 8, C = 1000) through [Figures.find "fig2a"] and [spec.run] on
   [min 2 nproc] domains, repeated with seeds [seed], [seed+1], ...
   until the run's time is spent. Thousands of small instances fanned
   across the Pool; no service code.

   solve-large: the `aa solve --refine` path on large instances, one at
   a time: parse the printed instance text, Algorithm 2, per-server
   refinement, feasibility check, superopt, certificate, printed
   assignment. Uniform instances at m = 8, n = 2000 and power-law ones
   at m = 64, n = 8000, two uniform solves to one power-law solve, so
   the median sits inside one size class. *)

open Aa_core
module Run = Aa_experiments.Run

let jobs () = max 1 (min 2 (Domain.recommended_domain_count ()))

(* ---- paper-sweep ---- *)

type sweep_shape = { trials : int;  (** per point *) probe_trials : int }

let sweep_ok (s : Run.series) =
  List.for_all
    (fun (p : Run.point) ->
      p.guarantee_violations = 0 && p.worst_vs_so >= Bounds.alpha -. 1e-9 && p.mean.vs_so <= 1.0 +. 1e-9)
    s.points

let sweep_quality (s : Run.series) = Pct.mean (Array.of_list (List.map (fun (p : Run.point) -> p.mean.vs_so) s.points))
let sweep_trials (s : Run.series) = List.fold_left (fun a (p : Run.point) -> a + p.trials) 0 s.points

type sweep = { series : Run.series; wall_s : float; cpu_s : float }

(* Sweeps with seeds seed, seed+1, ... until [budget_s] has elapsed. *)
let sweeps ~seed ~budget_s shape =
  let spec = Layers.fig2a () in
  let t0 = Proc.now_s () in
  let rec go k acc =
    if k > 0 && Proc.now_s () -. t0 >= budget_s then List.rev acc
    else
      let cpu0 = Proc.self_cpu_s () in
      let series, ms = Layers.timed (fun () -> spec.run ~jobs:(jobs ()) ~trials:shape.trials ~seed:(seed + k) ()) in
      go (k + 1) ({ series; wall_s = ms /. 1e3; cpu_s = Proc.self_cpu_s () -. cpu0 } :: acc)
  in
  go 0 []

(* Medians over sweeps: trials per second, and CPU microseconds per
   trial. *)
let sweep_rate l = Pct.median (Array.of_list (List.map (fun s -> Float.of_int (sweep_trials s.series) /. s.wall_s) l))
let sweep_cpu_us l = Pct.median (Array.of_list (List.map (fun s -> s.cpu_s *. 1e6 /. Float.of_int (sweep_trials s.series)) l))

(* Set-up: a one-trial-per-point sweep — pool start-up, figure lookup,
   stream splitting and first touches — nine times, as each is short. *)
let sweep_setups ~seed =
  let spec = Layers.fig2a () in
  List.init 9 (fun k -> snd (Layers.timed (fun () -> spec.run ~jobs:(jobs ()) ~trials:1 ~seed:(seed + k) ())) /. 1e3)

(* One instance per sweep point, built as fig2a builds them. *)
let sweep_jobs ~seed : Layers.job list =
  let rng = Aa_numerics.Rng.create ~seed () in
  List.init 15 (fun i ->
      let rng = Aa_numerics.Rng.split rng in
      fun () ->
        Aa_workload.Gen.instance rng ~servers:8 ~capacity:1000.0 ~threads:(8 * (i + 1))
          (Aa_workload.Gen.Power_law { alpha = 2.0 }))

(* ---- solve-large ---- *)

type solve_shape = { u_threads : int; u_servers : int; p_threads : int; p_servers : int }

let gen_uniform shape rng () =
  Aa_workload.Gen.instance rng ~servers:shape.u_servers ~capacity:1000.0 ~threads:shape.u_threads
    Aa_workload.Gen.Uniform

let gen_power shape rng () =
  Aa_workload.Gen.instance rng ~servers:shape.p_servers ~capacity:1000.0 ~threads:shape.p_threads
    (Aa_workload.Gen.Power_law { alpha = 2.0 })

type inputs = { uniform : string array; power : string; setups : float list }

(* Five uniform instances, each generated and printed as the timed
   set-up, and one power-law instance generated untimed. *)
let make_inputs ~seed shape =
  let rng = Aa_numerics.Rng.create ~seed () in
  let gen_text g = Aa_io.Format_text.print_instance (g ()) in
  let timed_u =
    List.init 5 (fun _ ->
        let r = Aa_numerics.Rng.split rng in
        Layers.timed (fun () -> gen_text (gen_uniform shape r)))
  in
  let power = gen_text (gen_power shape (Aa_numerics.Rng.split rng)) in
  { uniform = Array.of_list (List.map fst timed_u); power; setups = List.map (fun (_, ms) -> ms /. 1e3) timed_u }

(* The k-th instance of the cycle u0 u1 P u2 u3 P u4 u0 P ... *)
let nth_input inputs k =
  if k mod 3 = 2 then inputs.power
  else inputs.uniform.(((2 * (k / 3)) + (k mod 3)) mod Array.length inputs.uniform)

type solved = { ms : float; cpu_s : float; ratio : float; ok : bool }

(* `aa solve --refine`: parse, Algorithm 2, refine, check, superopt,
   certify, print. *)
let solve_text text =
  let t0 = Proc.now_ns () and cpu0 = Proc.self_cpu_s () in
  let finish ratio ok = { ms = Layers.ms_since t0; cpu_s = Proc.self_cpu_s () -. cpu0; ratio; ok } in
  match Aa_io.Format_text.parse_instance text with
  | Error _ -> finish Float.nan false
  | Ok inst ->
      let a = Refine.per_server inst (Algo2.solve inst) in
      let feasible = Assignment.check inst a = Ok () in
      let cert = Bounds.certify inst (Superopt.compute inst) a in
      ignore (Sys.opaque_identity (Aa_io.Format_text.print_assignment a));
      finish cert.ratio (feasible && cert.ratio >= Bounds.alpha -. 1e-9)

(* Solves round the cycle until [budget_s] has elapsed, and always to
   the end of a cycle, so the mix stays two uniform to one power law. *)
let solves ~budget_s inputs =
  let t0 = Proc.now_s () in
  let rec go k acc =
    if k mod 3 = 0 && k > 0 && Proc.now_s () -. t0 >= budget_s then List.rev acc
    else go (k + 1) (solve_text (nth_input inputs k) :: acc)
  in
  go 0 []

(* Medians over cycles of three solves: solves per second, and CPU
   microseconds per solve. *)
let cycles results =
  let rec go acc = function
    | a :: b :: c :: rest -> go ([ a; b; c ] :: acc) rest
    | _ -> List.rev acc
  in
  go [] results

let solve_rate results =
  Pct.median
    (Array.of_list (List.map (fun c -> 3e3 /. List.fold_left (fun a (s : solved) -> a +. s.ms) 0.0 c) (cycles results)))

let solve_cpu_us results =
  Pct.median
    (Array.of_list
       (List.map (fun c -> List.fold_left (fun a (s : solved) -> a +. s.cpu_s) 0.0 c *. 1e6 /. 3.0) (cycles results)))
