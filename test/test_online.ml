open Aa_numerics
open Aa_utility
open Aa_core
module Placer = Aa_oracle.Placer

let cap = 10.0

let test_create_validation () =
  Alcotest.check_raises "servers" (Invalid_argument "Online.create: need at least one server")
    (fun () -> ignore (Online.create ~servers:0 ~capacity:1.0 ()));
  Alcotest.check_raises "capacity"
    (Invalid_argument "Online.create: capacity must be positive") (fun () ->
      ignore (Online.create ~servers:1 ~capacity:0.0 ()))

let test_first_thread_gets_everything_useful () =
  let t = Online.create ~servers:2 ~capacity:cap () in
  let j = Online.admit t (Utility.Shapes.capped_linear ~cap ~slope:1.0 ~knee:4.0) in
  Alcotest.(check bool) "a server" true (j = 0 || j = 1);
  let a = Online.assignment t in
  Helpers.check_float "allocated its knee" 4.0 a.alloc.(0);
  Helpers.check_float "value" 4.0 (Online.total_utility t)

let test_spreads_identical_threads () =
  (* two identical full-capacity threads: the second must go to the other
     server (higher marginal gain there) *)
  let t = Online.create ~servers:2 ~capacity:cap () in
  let u () = Utility.Shapes.capped_linear ~cap ~slope:1.0 ~knee:10.0 in
  let j1 = Online.admit t (u ()) in
  let j2 = Online.admit t (u ()) in
  Alcotest.(check bool) "different servers" true (j1 <> j2);
  Helpers.check_float "full utility" 20.0 (Online.total_utility t)

let test_reallocates_within_server () =
  (* a steep newcomer displaces resources of a resident on its server *)
  let t = Online.create ~servers:1 ~capacity:cap () in
  ignore (Online.admit t (Utility.Shapes.linear ~cap ~slope:1.0));
  let a1 = Online.assignment t in
  Helpers.check_float "resident had it all" cap a1.alloc.(0);
  ignore (Online.admit t (Utility.Shapes.capped_linear ~cap ~slope:5.0 ~knee:4.0));
  let a2 = Online.assignment t in
  Helpers.check_float "resident shrunk" 6.0 a2.alloc.(0);
  Helpers.check_float "newcomer took the steep share" 4.0 a2.alloc.(1);
  Helpers.check_float "value" 26.0 (Online.total_utility t)

let test_assignment_feasible_and_counts () =
  let rng = Rng.create ~seed:3 () in
  let t = Online.create ~servers:3 ~capacity:cap () in
  for _ = 1 to 10 do
    ignore (Online.admit t (Helpers.plc_u rng))
  done;
  Alcotest.(check int) "admitted" 10 (Online.n_admitted t);
  let inst = Online.instance t in
  match Assignment.check inst (Online.assignment t) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_solve_sequence_matches_incremental () =
  let rng = Rng.create ~seed:7 () in
  let us = Array.init 8 (fun _ -> Helpers.plc_u rng) in
  let a = Online.solve_sequence ~servers:2 ~capacity:cap us in
  let t = Online.create ~servers:2 ~capacity:cap () in
  Array.iter (fun u -> ignore (Online.admit t u)) us;
  let b = Online.assignment t in
  Alcotest.(check (array int)) "same servers" b.server a.server;
  Array.iteri (fun i c -> Helpers.check_float "same alloc" c b.alloc.(i)) a.alloc

let test_online_close_to_offline_on_random () =
  let rng = Rng.create ~seed:13 () in
  let worst = ref 1.0 in
  for _ = 1 to 15 do
    let trial = Rng.split rng in
    let inst =
      Aa_workload.Gen.instance trial ~servers:4 ~capacity:100.0 ~threads:16
        Aa_workload.Gen.Uniform
    in
    let online =
      Assignment.utility inst
        (Online.solve_sequence ~servers:4 ~capacity:100.0 inst.utilities)
    in
    let offline = Assignment.utility inst (Algo2.solve inst) in
    let r = online /. offline in
    if r < !worst then worst := r
  done;
  (* online without migration should stay within 25% of offline here *)
  Helpers.check_ge "online within 25% of offline" !worst 0.75

let test_admission_never_decreases_value () =
  let rng = Rng.create ~seed:21 () in
  let t = Online.create ~servers:3 ~capacity:cap () in
  let prev = ref 0.0 in
  for _ = 1 to 12 do
    ignore (Online.admit t (Helpers.plc_u rng));
    let v = Online.total_utility t in
    Helpers.check_ge "monotone total utility" v !prev;
    prev := v
  done

let test_departure_frees_resources () =
  let t = Online.create ~servers:1 ~capacity:cap () in
  let i0 = Online.admit t (Utility.Shapes.capped_linear ~cap ~slope:5.0 ~knee:4.0) in
  ignore i0;
  ignore (Online.admit t (Utility.Shapes.linear ~cap ~slope:1.0));
  (* steep resident holds 4, linear one 6 *)
  Helpers.check_float "before" 26.0 (Online.total_utility t);
  Online.depart t 0;
  Alcotest.(check int) "one active" 1 (Online.n_active t);
  Alcotest.(check bool) "0 inactive" false (Online.is_active t 0);
  (* the linear thread now gets the whole server *)
  Helpers.check_float "after" 10.0 (Online.total_utility t);
  let a = Online.assignment t in
  Helpers.check_float "departed holds nothing" 0.0 a.alloc.(0);
  Helpers.check_float "survivor grew" 10.0 a.alloc.(1)

let test_depart_errors () =
  let t = Online.create ~servers:1 ~capacity:cap () in
  ignore (Online.admit t (Utility.Shapes.linear ~cap ~slope:1.0));
  Online.depart t 0;
  Alcotest.check_raises "double departure"
    (Invalid_argument "Online.depart: unknown or departed thread") (fun () ->
      Online.depart t 0);
  Alcotest.check_raises "unknown" (Invalid_argument "Online.depart: unknown or departed thread")
    (fun () -> Online.depart t 5)

let test_update_utility_reallocates () =
  let t = Online.create ~servers:1 ~capacity:cap () in
  ignore (Online.admit t (Utility.Shapes.capped_linear ~cap ~slope:2.0 ~knee:5.0));
  ignore (Online.admit t (Utility.Shapes.linear ~cap ~slope:1.0));
  (* capped thread holds its knee 5, linear the rest: 10 + 5 *)
  Helpers.check_float "before" 15.0 (Online.total_utility t);
  (* the capped thread's measured curve collapses: it no longer benefits *)
  Online.update_utility t 0 (Utility.Shapes.capped_linear ~cap ~slope:0.1 ~knee:1.0);
  let a = Online.assignment t in
  (* linear slope 1 now dominates slope 0.1 everywhere: it takes all 10 *)
  Helpers.check_float "linear thread takes over" 10.0 a.alloc.(1);
  Helpers.check_float ~eps:1e-9 "value reflects the new curve" 10.0
    (Online.total_utility t)

let test_churn_stays_feasible () =
  let rng = Rng.create ~seed:31 () in
  let t = Online.create ~servers:3 ~capacity:cap () in
  let active = ref [] in
  for step = 1 to 60 do
    if Rng.float rng 1.0 < 0.6 || !active = [] then begin
      ignore (Online.admit t (Helpers.plc_u rng));
      active := (Online.n_admitted t - 1) :: !active
    end
    else begin
      let k = Rng.int rng (List.length !active) in
      let i = List.nth !active k in
      Online.depart t i;
      active := List.filter (fun x -> x <> i) !active
    end;
    if step mod 10 = 0 then begin
      let inst = Online.instance t in
      match Assignment.check inst (Online.assignment t) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "step %d: %s" step e
    end
  done;
  Alcotest.(check int) "active bookkeeping" (List.length !active) (Online.n_active t)

let test_active_views_after_departure () =
  let t = Online.create ~servers:2 ~capacity:cap () in
  let u () = Utility.Shapes.capped_linear ~cap ~slope:1.0 ~knee:10.0 in
  ignore (Online.admit t (u ()));
  ignore (Online.admit t (u ()));
  ignore (Online.admit t (Utility.Shapes.linear ~cap ~slope:2.0));
  Online.depart t 1;
  Alcotest.(check (array int)) "active ids" [| 0; 2 |] (Online.active_ids t);
  let inst = Online.active_instance t in
  Alcotest.(check int) "instance holds survivors only" 2 (Array.length inst.utilities);
  let a = Online.active_assignment t in
  (match Assignment.check inst a with
  | Ok () -> ()
  | Error e -> Alcotest.failf "active snapshot infeasible: %s" e);
  (* departed thread 1 is invisible: the snapshot's value is the live total *)
  Helpers.check_float "snapshot value matches live total" (Online.total_utility t)
    (Assignment.utility inst a)

let test_active_views_errors () =
  let t = Online.create ~servers:1 ~capacity:cap () in
  Alcotest.check_raises "empty instance"
    (Invalid_argument "Online.active_instance: no active threads") (fun () ->
      ignore (Online.active_instance t));
  ignore (Online.admit t (Utility.Shapes.linear ~cap ~slope:1.0));
  Online.depart t 0;
  Alcotest.check_raises "all departed"
    (Invalid_argument "Online.active_assignment: no active threads") (fun () ->
      ignore (Online.active_assignment t));
  Alcotest.check_raises "server_of bounds"
    (Invalid_argument "Online.server_of: unknown thread") (fun () ->
      ignore (Online.server_of t 1));
  Alcotest.check_raises "alloc_of bounds"
    (Invalid_argument "Online.alloc_of: unknown thread") (fun () ->
      ignore (Online.alloc_of t (-1)));
  Helpers.check_float "departed thread holds nothing" 0.0 (Online.alloc_of t 0)

let test_admit_to_replays_placement () =
  let rng = Rng.create ~seed:7 () in
  let t = Online.create ~servers:3 ~capacity:cap () in
  for _ = 1 to 15 do
    ignore (Online.admit t (Helpers.plc_u rng))
  done;
  Online.depart t 3;
  Online.depart t 8;
  (* re-enacting the same placements with admit_to reproduces the state *)
  let t2 = Online.create ~servers:3 ~capacity:cap () in
  for i = 0 to Online.n_admitted t - 1 do
    let j = Online.admit_to t2 ~server:(Online.server_of t i) (Online.thread_utility t i) in
    Alcotest.(check int) "ids count up" i j
  done;
  Online.depart t2 3;
  Online.depart t2 8;
  Helpers.check_float "same total" (Online.total_utility t) (Online.total_utility t2);
  for i = 0 to Online.n_admitted t - 1 do
    Alcotest.(check int) "same server" (Online.server_of t i) (Online.server_of t2 i);
    Helpers.check_float "same alloc" (Online.alloc_of t i) (Online.alloc_of t2 i)
  done;
  Alcotest.check_raises "server range"
    (Invalid_argument "Online.admit_to: server out of range") (fun () ->
      ignore (Online.admit_to t2 ~server:3 (Helpers.plc_u rng)));
  Alcotest.check_raises "cap mismatch"
    (Invalid_argument
       "Online.admit_to: utility domain cap must equal the server capacity")
    (fun () -> ignore (Online.admit_to t2 ~server:0 (Helpers.plc_u ~cap:5.0 rng)))

let test_tiebreak_window_does_not_creep () =
  (* Three servers whose admission gains for the newcomer are exactly
     1, 1 - 2^-40 and 1 - 2^-39: pairwise inside the 1e-12 tie window,
     but 2^-39 > 1e-12 apart end to end. Every float op in the gain
     computation is exact here (Sterbenz), so the gains are these exact
     values. The emptier-server tie rule may move the pick from server 0
     to server 1, but the window is anchored at the best gain seen, so
     it must not creep on to server 2 — in the incremental engine and in
     the from-scratch oracle placer alike. *)
  let c = 2.0 in
  let steep d = Utility.Shapes.capped_linear ~cap:c ~slope:5.0 ~knee:(1.0 +. d) in
  let filler () = Utility.of_plc (Plc.constant ~cap:c 0.0) in
  let pick admit_to admit =
    admit_to 0 (steep 0.0);
    admit_to 1 (steep (Float.ldexp 1.0 (-40)));
    admit_to 2 (steep (Float.ldexp 1.0 (-39)));
    (* resident counts 3 / 2 / 1: each tie candidate is emptier than
       the incumbent, so a creeping window would walk to server 2 *)
    admit_to 0 (filler ());
    admit_to 0 (filler ());
    admit_to 1 (filler ());
    admit (Utility.Shapes.linear ~cap:c ~slope:1.0)
  in
  let t = Online.create ~servers:3 ~capacity:c () in
  let o = Placer.create ~servers:3 ~capacity:c in
  Alcotest.(check int) "incremental: tie window anchored at the best gain" 1
    (pick (fun server u -> ignore (Online.admit_to t ~server u)) (Online.admit t));
  Alcotest.(check int) "oracle: tie window anchored at the best gain" 1
    (pick (fun server u -> ignore (Placer.admit_to o ~server u)) (Placer.admit o))

let test_auto_policy_resolves () =
  let t = Online.create ~policy:(Online.Auto { frac = 0.9 }) ~servers:2 ~capacity:cap () in
  let u () = Utility.Shapes.linear ~cap ~slope:1.0 in
  ignore (Online.admit_to t ~server:0 (u ()));
  (* forcing the second full-capacity thread onto the same server strands
     a certified [cap] of value: 10 < 0.9 * (10 + 10) trips the trigger *)
  ignore (Online.admit_to t ~server:0 (u ()));
  Alcotest.(check int) "auto re-solved once" 1 (Online.resolves t);
  Alcotest.(check bool) "threads migrated apart" true
    (Online.server_of t 0 <> Online.server_of t 1);
  Helpers.check_float "full utility recovered" 20.0 (Online.total_utility t);
  Helpers.check_float "certificate closed by the re-solve" 0.0 (Online.drift_bound t);
  (* Incremental never re-solves on its own *)
  let t2 = Online.create ~servers:2 ~capacity:cap () in
  ignore (Online.admit_to t2 ~server:0 (u ()));
  ignore (Online.admit_to t2 ~server:0 (u ()));
  Alcotest.(check int) "incremental never auto-resolves" 0 (Online.resolves t2);
  Helpers.check_ge "but carries the drift certificate" (Online.drift_bound t2) cap

let test_auto_frac_validation () =
  Alcotest.check_raises "frac"
    (Invalid_argument "Online.create: Auto fraction must be in [0, 1]") (fun () ->
      ignore (Online.create ~policy:(Online.Auto { frac = 1.5 }) ~servers:1 ~capacity:cap ()))

let test_index_consistent_after_churn_and_resolve () =
  let rng = Rng.create ~seed:91 () in
  let t = Online.create ~servers:3 ~capacity:cap () in
  for _ = 1 to 20 do
    ignore (Online.admit t (Helpers.plc_u rng))
  done;
  Online.depart t 5;
  Online.depart t 11;
  Online.update_utility t 3 (Helpers.plc_u rng);
  Alcotest.(check bool) "incremental path spliced" true (Online.splices t > 0);
  Online.resolve t;
  Alcotest.(check int) "explicit resolve counted" 1 (Online.resolves t);
  (* the O(1) per-thread index agrees with the bulk snapshot everywhere *)
  let a = Online.assignment t in
  for i = 0 to Online.n_admitted t - 1 do
    Alcotest.(check int) "server index" a.server.(i) (Online.server_of t i);
    Helpers.check_float "alloc index" a.alloc.(i) (Online.alloc_of t i)
  done;
  Helpers.check_float "departed thread still holds nothing" 0.0 (Online.alloc_of t 5);
  (match Assignment.check (Online.active_instance t) (Online.active_assignment t) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "post-resolve snapshot infeasible: %s" e);
  (* a resolve re-certifies against the pooled bound: exactly
     max 0 (F̂ - U), with F̂ from a separate Superopt.compute. This
     re-solve reaches F̂; three knee-6 threads on two servers of 10
     cannot (F̂ = 18, U = 16), so the second engine has a positive gap *)
  let check_drift t =
    let fhat = (Superopt.compute (Online.active_instance t)).utility in
    let want = Float.max 0.0 (fhat -. Online.total_utility t) in
    Alcotest.(check int64) "drift bound = max 0 (F^ - U)" (Int64.bits_of_float want)
      (Int64.bits_of_float (Online.drift_bound t))
  in
  check_drift t;
  let t2 = Online.create ~servers:2 ~capacity:cap () in
  for _ = 1 to 3 do
    ignore (Online.admit t2 (Utility.Shapes.capped_linear ~cap ~slope:1.0 ~knee:6.0))
  done;
  Online.resolve t2;
  check_drift t2;
  Helpers.check_float "fragmentation gap" 2.0 (Online.drift_bound t2)

(* Random ADMIT/DEPART/UPDATE sequences driven in lockstep through the
   incremental engine and the from-scratch oracle placer: placements,
   per-thread allocations and totals must match bit for bit, and the
   active-thread counter must match the active ids; each server must
   also match a from-scratch [Plc_greedy.allocate] over its residents;
   and the certified drift bound must upper-bound what a full re-solve
   recovers. *)
let prop_incremental_matches_full =
  QCheck2.Test.make ~name:"online: incremental = full, bit-identical; drift sound"
    ~count:500
    QCheck2.Gen.(
      let* m = int_range 1 4 in
      let* capv = float_range 2.0 40.0 in
      let* ops =
        list_size (int_range 1 30)
          (let* kind = int_range 0 4 in
           let* pick = int_range 0 1000 in
           let* u = Helpers.gen_utility_with_cap capv in
           return (kind, pick, u))
      in
      return (m, capv, ops))
    (fun (m, capv, ops) ->
      let ti = Online.create ~policy:Online.Incremental ~servers:m ~capacity:capv () in
      let tf = Placer.create ~servers:m ~capacity:capv in
      let bits = Int64.bits_of_float in
      let same a b = Int64.equal (bits a) (bits b) in
      let ok = ref true in
      let check_states () =
        for i = 0 to Online.n_admitted ti - 1 do
          if Online.server_of ti i <> Placer.server_of tf i then ok := false;
          if not (same (Online.alloc_of ti i) (Placer.alloc_of tf i)) then ok := false
        done;
        if not (same (Online.total_utility ti) (Placer.total_utility tf)) then
          ok := false;
        if Online.n_active ti <> Array.length (Online.active_ids ti) then ok := false
      in
      List.iter
        (fun (kind, pick, u) ->
          let ids = Online.active_ids ti in
          let n_act = Array.length ids in
          if kind <= 2 || n_act = 0 then begin
            let ji = Online.admit ti u in
            let jf = Placer.admit tf u in
            if ji <> jf then ok := false
          end
          else begin
            let i = ids.(pick mod n_act) in
            if kind = 3 then begin
              Online.depart ti i;
              Placer.depart tf i
            end
            else begin
              Online.update_utility ti i u;
              Placer.update_utility tf i u
            end
          end;
          check_states ())
        ops;
      (* from-scratch allocator reference, per server, over the residents
         in the engine's newest-first order *)
      let ids = Online.active_ids ti in
      for j = 0 to m - 1 do
        let mine =
          Array.to_list ids
          |> List.filter (fun i -> Online.server_of ti i = j)
          |> List.rev
        in
        if mine <> [] then begin
          let plcs =
            Array.of_list
              (List.map (fun i -> Utility.to_plc (Online.thread_utility ti i)) mine)
          in
          let res = Aa_alloc.Plc_greedy.allocate ~exhaust:false ~budget:capv plcs in
          List.iteri
            (fun k i -> if not (same res.alloc.(k) (Online.alloc_of ti i)) then ok := false)
            mine
        end
      done;
      (* drift certificate: a full re-solve cannot beat U + drift *)
      let d = Online.drift_bound ti in
      let u0 = Online.total_utility ti in
      Online.resolve ti;
      let u1 = Online.total_utility ti in
      if u1 > u0 +. d +. (1e-6 *. Float.max 1.0 (Float.abs u1)) then ok := false;
      !ok)

let prop_online_feasible =
  QCheck2.Test.make ~name:"online: always feasible" ~count:150
    QCheck2.Gen.(
      let* m = int_range 1 4 in
      let* n = int_range 1 10 in
      let* capv = float_range 2.0 40.0 in
      let* us = list_repeat n (Helpers.gen_utility_with_cap capv) in
      return (m, capv, Array.of_list us))
    (fun (m, capv, us) ->
      let a = Online.solve_sequence ~servers:m ~capacity:capv us in
      let inst = Instance.create ~servers:m ~capacity:capv us in
      match Assignment.check inst a with Ok () -> true | Error _ -> false)

let prop_online_below_superopt =
  QCheck2.Test.make ~name:"online: below the pooled bound" ~count:150
    QCheck2.Gen.(
      let* m = int_range 1 4 in
      let* n = int_range 1 10 in
      let* capv = float_range 2.0 40.0 in
      let* us = list_repeat n (Helpers.gen_utility_with_cap capv) in
      return (m, capv, Array.of_list us))
    (fun (m, capv, us) ->
      let us = Array.map (fun u -> Utility.of_plc (Utility.to_plc u)) us in
      let a = Online.solve_sequence ~servers:m ~capacity:capv us in
      let inst = Instance.create ~servers:m ~capacity:capv us in
      let so = Superopt.compute inst in
      Assignment.utility inst a <= so.utility +. (1e-6 *. Float.max 1.0 so.utility))

let () =
  Alcotest.run "online"
    [
      ( "mechanics",
        [
          Alcotest.test_case "validation" `Quick test_create_validation;
          Alcotest.test_case "first thread" `Quick test_first_thread_gets_everything_useful;
          Alcotest.test_case "spreads identical" `Quick test_spreads_identical_threads;
          Alcotest.test_case "intra-server reallocation" `Quick test_reallocates_within_server;
          Alcotest.test_case "feasible" `Quick test_assignment_feasible_and_counts;
          Alcotest.test_case "solve_sequence" `Quick test_solve_sequence_matches_incremental;
          Alcotest.test_case "monotone admissions" `Quick test_admission_never_decreases_value;
        ] );
      ( "dynamic",
        [
          Alcotest.test_case "departure" `Quick test_departure_frees_resources;
          Alcotest.test_case "departure errors" `Quick test_depart_errors;
          Alcotest.test_case "utility update" `Quick test_update_utility_reallocates;
          Alcotest.test_case "churn" `Quick test_churn_stays_feasible;
          Alcotest.test_case "active views" `Quick test_active_views_after_departure;
          Alcotest.test_case "active view errors" `Quick test_active_views_errors;
          Alcotest.test_case "admit_to replay" `Quick test_admit_to_replays_placement;
          Alcotest.test_case "tie-break window" `Quick test_tiebreak_window_does_not_creep;
          Alcotest.test_case "auto policy" `Quick test_auto_policy_resolves;
          Alcotest.test_case "auto validation" `Quick test_auto_frac_validation;
          Alcotest.test_case "index after churn" `Quick
            test_index_consistent_after_churn_and_resolve;
        ] );
      ( "quality",
        [ Alcotest.test_case "close to offline" `Slow test_online_close_to_offline_on_random ] );
      Helpers.qsuite "properties"
        [ prop_online_feasible; prop_online_below_superopt; prop_incremental_matches_full ];
    ]
