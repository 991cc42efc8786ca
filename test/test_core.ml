open Aa_numerics
open Aa_utility
open Aa_core

let cap = 10.0

let mk_inst ?(servers = 2) utilities = Instance.create ~servers ~capacity:cap utilities

let basic () =
  mk_inst
    [|
      Utility.Shapes.power ~cap ~coeff:3.0 ~beta:0.5;
      Utility.Shapes.capped_linear ~cap ~slope:1.0 ~knee:6.0;
      Utility.Shapes.linear ~cap ~slope:0.5;
    |]

(* ---------- Instance ---------- *)

let test_instance_create () =
  let inst = basic () in
  Alcotest.(check int) "threads" 3 (Instance.n_threads inst);
  Helpers.check_float "beta" 1.5 (Instance.beta inst);
  Alcotest.(check int) "plc count" 3 (Array.length (Instance.to_plc inst))

let test_instance_validation () =
  Alcotest.check_raises "no servers" (Invalid_argument "Instance.create: need at least one server")
    (fun () -> ignore (mk_inst ~servers:0 [| Utility.Shapes.linear ~cap ~slope:1.0 |]));
  Alcotest.check_raises "no threads" (Invalid_argument "Instance.create: no threads") (fun () ->
      ignore (mk_inst [||]));
  (try
     ignore (mk_inst [| Utility.Shapes.linear ~cap:5.0 ~slope:1.0 |]);
     Alcotest.fail "cap mismatch accepted"
   with Invalid_argument _ -> ())

(* ---------- Assignment ---------- *)

let test_assignment_utility_and_load () =
  let inst = basic () in
  let a = Assignment.make ~server:[| 0; 0; 1 |] ~alloc:[| 4.0; 6.0; 10.0 |] in
  (match Assignment.check inst a with Ok () -> () | Error e -> Alcotest.fail e);
  Helpers.check_float "utility" ((3.0 *. 2.0) +. 6.0 +. 5.0) (Assignment.utility inst a);
  let load = Assignment.server_load inst a in
  Helpers.check_float "load 0" 10.0 load.(0);
  Helpers.check_float "load 1" 10.0 load.(1);
  Alcotest.(check (list int)) "threads on 0" [ 0; 1 ] (Assignment.threads_on a 0)

let test_assignment_check_failures () =
  let inst = basic () in
  let over = Assignment.make ~server:[| 0; 0; 1 |] ~alloc:[| 6.0; 6.0; 1.0 |] in
  (match Assignment.check inst over with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "overload accepted");
  let bad_server = Assignment.make ~server:[| 0; 2; 1 |] ~alloc:[| 1.0; 1.0; 1.0 |] in
  (match Assignment.check inst bad_server with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "server index out of range accepted");
  let negative = Assignment.make ~server:[| 0; 0; 1 |] ~alloc:[| -1.0; 1.0; 1.0 |] in
  (match Assignment.check inst negative with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "negative alloc accepted");
  let wrong_n = Assignment.make ~server:[| 0 |] ~alloc:[| 1.0 |] in
  match Assignment.check inst wrong_n with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "wrong thread count accepted"

(* ---------- Superopt ---------- *)

let test_superopt_upper_bounds_feasible () =
  let inst = basic () in
  let so = Superopt.compute inst in
  (* any feasible assignment utility is below F^ (Lemma V.2) *)
  let a = Assignment.make ~server:[| 0; 0; 1 |] ~alloc:[| 4.0; 6.0; 10.0 |] in
  Helpers.check_le "F <= F^" (Assignment.utility inst a) (so.utility +. 1e-9)

let test_superopt_budget_saturation () =
  (* Lemma V.3: with n >= m and exhaust, sum chat = m*C *)
  let inst = basic () in
  let so = Superopt.compute ~exhaust:true inst in
  Helpers.check_float ~eps:1e-9 "sum = mC" 20.0 (Util.kahan_sum so.chat)

let test_superopt_fewer_threads_than_servers () =
  let inst = mk_inst ~servers:5 [| Utility.Shapes.linear ~cap ~slope:1.0 |] in
  let so = Superopt.compute inst in
  Helpers.check_float "everyone capped" cap so.chat.(0);
  Helpers.check_float "utility" cap so.utility

let test_superopt_waterfill_agrees () =
  let inst = basic () in
  let a = Superopt.compute inst in
  let b = Superopt.compute_waterfill inst in
  Helpers.check_float ~eps:1e-3 "same value" a.utility b.utility

let test_superopt_chat_within_caps () =
  let inst = basic () in
  let so = Superopt.compute inst in
  Array.iter (fun c -> if c < 0.0 || c > cap +. 1e-9 then Alcotest.failf "chat %g" c) so.chat

(* ---------- Linearized ---------- *)

let test_linearized_structure () =
  let inst = basic () in
  let lin = Linearized.make inst in
  Alcotest.(check int) "threads" 3 (Array.length lin.threads);
  Array.iteri
    (fun i (th : Linearized.thread) ->
      Alcotest.(check int) "index" i th.index;
      (* peak = f(chat) on the PLC form *)
      Helpers.check_float "peak" (Plc.eval lin.superopt.plc.(i) th.chat) th.peak;
      (* g agrees with f at chat and 0 *)
      Helpers.check_float "g(chat)" th.peak (Linearized.g_value th th.chat);
      if th.chat > 0.0 then Helpers.check_float "g(0)" 0.0 (Linearized.g_value th 0.0))
    lin.threads

let test_linearized_superoptimal_utility () =
  let inst = basic () in
  let lin = Linearized.make inst in
  Helpers.check_float ~eps:1e-9 "sum of peaks = F^" lin.superopt.utility
    (Linearized.superoptimal_utility lin)

let test_linearized_g_minorizes_f () =
  let inst = basic () in
  let lin = Linearized.make inst in
  Array.iteri
    (fun i (th : Linearized.thread) ->
      for k = 0 to 100 do
        let x = cap *. float_of_int k /. 100.0 in
        let g = Linearized.g_value th x in
        let f = Utility.eval inst.utilities.(i) x in
        if g > f +. 1e-7 then Alcotest.failf "thread %d: g(%g)=%g > f=%g" i x g f
      done)
    lin.threads

(* [g_value] is a closed form of the ramp. It must return the bits of
   the PLC ramp it replaced: [Plc.create [(0,0); (ĉ,peak); (C,peak)]],
   or [Plc.constant ~cap:C peak] when ĉ ≈ 0, at every probe point.
   Random instances of every generator; the first threads get ĉ forced
   to 0, to two values within the ≈ 0 tolerance, and to C. The same
   loop pins the ramp's shape: g(ĉ) = peak, flat from ĉ on, and the
   constant peak when ĉ ≈ 0. *)
let test_linearized_closed_form_bits () =
  let bits = Int64.bits_of_float in
  let dists =
    Aa_workload.Gen.
      [|
        Uniform;
        Power_law { alpha = 2.0 };
        Normal { mu = 1.0; sigma = 1.0 };
        Discrete { gamma = 0.85; theta = 5.0 };
      |]
  in
  let rng = Rng.create ~seed:29 () in
  for trial = 0 to 39 do
    let r = Rng.split rng in
    let capacity = Rng.uniform r ~lo:1.0 ~hi:200.0 in
    let inst =
      Aa_workload.Gen.instance r ~servers:(1 + Rng.int r 4) ~capacity
        ~threads:(4 + Rng.int r 30)
        dists.(trial mod Array.length dists)
    in
    let so = Superopt.compute inst in
    let chat = Array.copy so.chat in
    Array.iteri (fun k c -> chat.(k) <- c) [| 0.0; 1e-12; 5e-10; capacity |];
    let lin = Linearized.of_superopt inst { so with chat } in
    Array.iter
      (fun (th : Linearized.thread) ->
        let degenerate = Util.feq th.chat 0.0 in
        let ramp =
          if degenerate then Plc.constant ~cap:capacity th.peak
          else Plc.create [| (0.0, 0.0); (th.chat, th.peak); (capacity, th.peak) |]
        in
        let probes =
          [ -1.0; 0.0; th.chat /. 2.0; Float.pred th.chat; th.chat; Float.succ th.chat;
            capacity; 2.0 *. capacity ]
        in
        List.iter
          (fun x ->
            let g = Linearized.g_value th x in
            if not (Int64.equal (bits g) (bits (Plc.eval ramp x))) then
              Alcotest.failf "trial %d thread %d chat %h: g(%h) = %h, PLC ramp %h" trial
                th.index th.chat x g (Plc.eval ramp x);
            if (degenerate || x >= th.chat) && not (Int64.equal (bits g) (bits th.peak)) then
              Alcotest.failf "trial %d thread %d: g(%h) = %h, not the peak %h" trial th.index x
                g th.peak)
          probes)
      lin.threads
  done

(* ---------- Solver umbrella ---------- *)

let test_solver_names () =
  List.iter
    (fun algo ->
      match Solver.of_name (Solver.name algo) with
      | Some a when a = algo -> ()
      | _ -> Alcotest.failf "roundtrip failed for %s" (Solver.name algo))
    Solver.all;
  Alcotest.(check bool) "unknown" true (Solver.of_name "nope" = None)

let test_solver_all_feasible () =
  let inst = basic () in
  let rng = Rng.create ~seed:3 () in
  List.iter
    (fun algo ->
      let a = Solver.solve ~rng algo inst in
      match Assignment.check inst a with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s infeasible: %s" (Solver.name algo) e)
    Solver.all

(* ---------- Bounds ---------- *)

let test_alpha_value () = Helpers.check_float ~eps:1e-12 "alpha" (2.0 *. (sqrt 2.0 -. 1.0)) Bounds.alpha

let test_certificate () =
  let inst = basic () in
  let so = Superopt.compute inst in
  let a = Algo2.solve inst in
  let cert = Bounds.certify inst so a in
  Helpers.check_float "achieved" (Assignment.utility inst a) cert.achieved;
  Alcotest.(check bool) "guarantee met" true cert.meets_guarantee;
  Helpers.check_le "ratio sane" cert.ratio 1.0

(* ---------- properties ---------- *)

let prop_superopt_bounds_any_algo =
  (* stated on the exact PLC forms: for smooth utilities the PLC-based F^
     is an upper bound only up to sampling error (see Superopt docs) *)
  QCheck2.Test.make ~name:"F^ upper-bounds every algorithm's utility" ~count:200
    Helpers.gen_instance (fun inst ->
      let inst = Helpers.plc_instance inst in
      let so = Superopt.compute inst in
      let rng = Rng.create ~seed:1 () in
      List.for_all
        (fun algo ->
          let a = Solver.solve ~rng algo inst in
          Assignment.utility inst a <= so.utility +. (1e-6 *. Float.max 1.0 so.utility))
        Solver.all)

let prop_superopt_saturation =
  QCheck2.Test.make ~name:"Lemma V.3: sum chat = min(mC, nC)" ~count:200 Helpers.gen_instance
    (fun inst ->
      let so = Superopt.compute ~exhaust:true inst in
      let m = float_of_int inst.servers in
      let n = float_of_int (Instance.n_threads inst) in
      let expect = Float.min (m *. inst.capacity) (n *. inst.capacity) in
      Util.approx_equal ~eps:1e-6 expect (Util.kahan_sum so.chat))

let prop_all_algorithms_feasible =
  QCheck2.Test.make ~name:"all algorithms produce feasible assignments" ~count:200
    Helpers.gen_instance (fun inst ->
      let rng = Rng.create ~seed:7 () in
      List.for_all
        (fun algo ->
          match Assignment.check inst (Solver.solve ~rng algo inst) with
          | Ok () -> true
          | Error _ -> false)
        Solver.all)

let () =
  Alcotest.run "core"
    [
      ( "instance",
        [
          Alcotest.test_case "create" `Quick test_instance_create;
          Alcotest.test_case "validation" `Quick test_instance_validation;
        ] );
      ( "assignment",
        [
          Alcotest.test_case "utility and load" `Quick test_assignment_utility_and_load;
          Alcotest.test_case "check failures" `Quick test_assignment_check_failures;
        ] );
      ( "superopt",
        [
          Alcotest.test_case "upper bound" `Quick test_superopt_upper_bounds_feasible;
          Alcotest.test_case "saturation" `Quick test_superopt_budget_saturation;
          Alcotest.test_case "n < m" `Quick test_superopt_fewer_threads_than_servers;
          Alcotest.test_case "waterfill agrees" `Quick test_superopt_waterfill_agrees;
          Alcotest.test_case "chat within caps" `Quick test_superopt_chat_within_caps;
        ] );
      ( "linearized",
        [
          Alcotest.test_case "structure" `Quick test_linearized_structure;
          Alcotest.test_case "superoptimal utility" `Quick test_linearized_superoptimal_utility;
          Alcotest.test_case "g minorizes f" `Quick test_linearized_g_minorizes_f;
          Alcotest.test_case "closed form = PLC ramp, bit for bit" `Quick
            test_linearized_closed_form_bits;
        ] );
      ( "solver",
        [
          Alcotest.test_case "names" `Quick test_solver_names;
          Alcotest.test_case "all feasible" `Quick test_solver_all_feasible;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "alpha" `Quick test_alpha_value;
          Alcotest.test_case "certificate" `Quick test_certificate;
        ] );
      Helpers.qsuite "properties"
        [ prop_superopt_bounds_any_algo; prop_superopt_saturation; prop_all_algorithms_feasible ];
    ]
