open Aa_numerics
open Aa_utility

let cap = 10.0

let all_shapes () =
  [
    ("power", Utility.Shapes.power ~cap ~coeff:3.0 ~beta:0.5);
    ("power-linear", Utility.Shapes.power ~cap ~coeff:2.0 ~beta:1.0);
    ("log", Utility.Shapes.log_utility ~cap ~coeff:2.0 ~rate:0.7);
    ("saturating", Utility.Shapes.saturating ~cap ~limit:6.0 ~halfway:2.0);
    ("expsat", Utility.Shapes.exp_saturating ~cap ~limit:5.0 ~rate:0.4);
    ("linear", Utility.Shapes.linear ~cap ~slope:1.2);
    ("capped", Utility.Shapes.capped_linear ~cap ~slope:2.0 ~knee:4.0);
  ]

let test_shapes_are_valid () =
  List.iter
    (fun (name, u) ->
      match Utility.check u with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" name e)
    (all_shapes ())

let test_shape_values () =
  Helpers.check_float "power" (3.0 *. sqrt 4.0)
    (Utility.eval (Utility.Shapes.power ~cap ~coeff:3.0 ~beta:0.5) 4.0);
  Helpers.check_float "log" (2.0 *. log 8.0)
    (Utility.eval (Utility.Shapes.log_utility ~cap ~coeff:2.0 ~rate:0.7) 10.0);
  Helpers.check_float "saturating" 3.0
    (Utility.eval (Utility.Shapes.saturating ~cap ~limit:6.0 ~halfway:2.0) 2.0);
  Helpers.check_float "expsat" (5.0 *. (1.0 -. exp (-2.0)))
    (Utility.eval (Utility.Shapes.exp_saturating ~cap ~limit:5.0 ~rate:0.4) 5.0);
  Helpers.check_float "linear" 6.0 (Utility.eval (Utility.Shapes.linear ~cap ~slope:1.2) 5.0)

let test_eval_clamps () =
  let u = Utility.Shapes.linear ~cap ~slope:1.0 in
  Helpers.check_float "below" 0.0 (Utility.eval u (-3.0));
  Helpers.check_float "above" cap (Utility.eval u 100.0);
  Helpers.check_float "peak" cap (Utility.peak u)

let test_deriv_closed_forms () =
  List.iter
    (fun (name, u) ->
      let h = 1e-6 in
      List.iter
        (fun x ->
          let fd = (Utility.eval u (x +. h) -. Utility.eval u (x -. h)) /. (2.0 *. h) in
          let d = Utility.deriv u x in
          if not (Util.approx_equal ~eps:1e-3 fd d) then
            Alcotest.failf "%s deriv at %g: fd %g vs closed %g" name x fd d)
        [ 1.0; 3.0; 7.0 ])
    (all_shapes ())

let test_demand_is_inverse_of_deriv () =
  List.iter
    (fun (name, u) ->
      List.iter
        (fun lambda ->
          let d = Utility.demand u lambda in
          (* derivative at demand is >= lambda (just left of it) and
             < lambda just right of it *)
          if d > 1e-6 && d < cap -. 1e-6 then begin
            let left = Utility.deriv u (d *. (1.0 -. 1e-7)) in
            let right = Utility.deriv u (Float.min cap (d +. 1e-6)) in
            if left < lambda *. (1.0 -. 1e-4) then
              Alcotest.failf "%s: deriv left of demand %g < lambda %g" name left lambda;
            if right > lambda *. (1.0 +. 1e-2) && right > lambda +. 1e-9 then
              Alcotest.failf "%s: deriv right of demand %g > lambda %g" name right lambda
          end)
        [ 0.05; 0.2; 0.5; 1.0; 2.0 ])
    (all_shapes ())

let test_demand_at_zero_price () =
  List.iter
    (fun (name, u) ->
      if not (Util.approx_equal (Utility.demand u 0.0) cap) then
        Alcotest.failf "%s: demand at price 0 should be cap" name)
    (all_shapes ())

let test_to_plc_minorizes_smooth () =
  (* the PLC conversion must never exceed a concave function *)
  List.iter
    (fun (name, u) ->
      let p = Utility.to_plc ~samples:48 u in
      for i = 0 to 200 do
        let x = cap *. float_of_int i /. 200.0 in
        let diff = Plc.eval p x -. Utility.eval u x in
        if diff > 1e-7 then Alcotest.failf "%s: PLC exceeds f at %g by %g" name x diff
      done)
    (all_shapes ())

let test_to_plc_is_close () =
  List.iter
    (fun (name, u) ->
      let p = Utility.to_plc ~samples:128 u in
      let peak = Utility.peak u in
      for i = 0 to 100 do
        let x = cap *. float_of_int i /. 100.0 in
        let gap = Utility.eval u x -. Plc.eval p x in
        if gap > 0.01 *. Float.max 1.0 peak then
          Alcotest.failf "%s: PLC too far from f at %g (gap %g)" name x gap
      done)
    (all_shapes ())

let test_check_catches_bad () =
  (* a convex function sneaked in via the Smooth constructor *)
  let bad =
    Utility.Smooth
      {
        name = "convex";
        cap;
        eval = (fun x -> x *. x);
        deriv = (fun x -> 2.0 *. x);
        demand = None;
        spec = None;
      }
  in
  (match Utility.check bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "convex function accepted");
  let decreasing =
    Utility.Smooth
      {
        name = "decreasing";
        cap;
        eval = (fun x -> 10.0 -. x);
        deriv = (fun _ -> -1.0);
        demand = None;
        spec = None;
      }
  in
  match Utility.check decreasing with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "decreasing function accepted"

let test_shape_validation () =
  Alcotest.check_raises "power beta" (Invalid_argument "Shapes.power: beta outside (0, 1]")
    (fun () -> ignore (Utility.Shapes.power ~cap ~coeff:1.0 ~beta:1.5));
  Alcotest.check_raises "log rate" (Invalid_argument "Shapes.log_utility: rate must be positive")
    (fun () -> ignore (Utility.Shapes.log_utility ~cap ~coeff:1.0 ~rate:0.0))

let test_sampled_of_points () =
  let u = Sampled.of_points [| (0.0, 0.0); (5.0, 3.0); (10.0, 4.0) |] in
  (match Utility.check u with Ok () -> () | Error e -> Alcotest.fail e);
  Helpers.check_float "hits anchor 0" 0.0 (Utility.eval u 0.0);
  Helpers.check_ge "near anchor mid" (Utility.eval u 5.0) 2.99;
  Helpers.check_float ~eps:1e-6 "hits last anchor" 4.0 (Utility.eval u 10.0);
  Helpers.check_float "cap" 10.0 (Utility.cap u)

let test_sampled_envelope_deviation_small () =
  (* anchors with decreasing slopes: PCHIP is near-concave, deviation small *)
  let dev = Sampled.envelope_deviation [| (0.0, 0.0); (5.0, 3.0); (10.0, 4.0) |] in
  Helpers.check_le "deviation below 2%" dev 0.02

let test_sampled_rejects_bad_domain () =
  Alcotest.check_raises "domain" (Invalid_argument "Sampled.of_points: domain must start at 0")
    (fun () -> ignore (Sampled.of_points [| (1.0, 0.0); (2.0, 1.0) |]))

let prop_generated_utilities_valid =
  QCheck2.Test.make ~name:"generator produces valid utilities" ~count:300
    (Helpers.gen_utility_with_cap 20.0) (fun u ->
      match Utility.check u with Ok () -> true | Error _ -> false)

let prop_to_plc_minorizes =
  QCheck2.Test.make ~name:"to_plc minorizes within tolerance" ~count:200
    (Helpers.gen_utility_with_cap 20.0) (fun u ->
      let p = Utility.to_plc u in
      let ok = ref true in
      for i = 0 to 50 do
        let x = 20.0 *. float_of_int i /. 50.0 in
        if Plc.eval p x > Utility.eval u x +. 1e-6 then ok := false
      done;
      !ok)

let () =
  Alcotest.run "utility-unified"
    [
      ( "shapes",
        [
          Alcotest.test_case "all valid" `Quick test_shapes_are_valid;
          Alcotest.test_case "values" `Quick test_shape_values;
          Alcotest.test_case "clamping" `Quick test_eval_clamps;
          Alcotest.test_case "derivatives" `Quick test_deriv_closed_forms;
          Alcotest.test_case "demand inverse" `Quick test_demand_is_inverse_of_deriv;
          Alcotest.test_case "demand zero price" `Quick test_demand_at_zero_price;
          Alcotest.test_case "validation" `Quick test_shape_validation;
        ] );
      ( "conversion",
        [
          Alcotest.test_case "to_plc minorizes" `Quick test_to_plc_minorizes_smooth;
          Alcotest.test_case "to_plc close" `Quick test_to_plc_is_close;
        ] );
      ( "check",
        [ Alcotest.test_case "catches invalid" `Quick test_check_catches_bad ] );
      ( "sampled",
        [
          Alcotest.test_case "of_points" `Quick test_sampled_of_points;
          Alcotest.test_case "deviation" `Quick test_sampled_envelope_deviation_small;
          Alcotest.test_case "bad domain" `Quick test_sampled_rejects_bad_domain;
        ] );
      Helpers.qsuite "properties" [ prop_generated_utilities_valid; prop_to_plc_minorizes ];
    ]
