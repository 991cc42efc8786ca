open Aa_numerics

let mk xs ys = Pchip.create ~xs ~ys

let test_interpolates () =
  let p = mk [| 0.0; 1.0; 3.0; 7.0 |] [| 0.0; 2.0; 3.0; 3.5 |] in
  Helpers.check_float "x0" 0.0 (Pchip.eval p 0.0);
  Helpers.check_float "x1" 2.0 (Pchip.eval p 1.0);
  Helpers.check_float "x2" 3.0 (Pchip.eval p 3.0);
  Helpers.check_float "x3" 3.5 (Pchip.eval p 7.0)

let test_two_points_is_linear () =
  let p = mk [| 0.0; 2.0 |] [| 1.0; 5.0 |] in
  Helpers.check_float "mid" 3.0 (Pchip.eval p 1.0);
  Helpers.check_float "quarter" 2.0 (Pchip.eval p 0.5);
  Helpers.check_float "deriv" 2.0 (Pchip.deriv p 1.0)

let test_clamps_outside () =
  let p = mk [| 0.0; 1.0 |] [| 0.0; 1.0 |] in
  Helpers.check_float "left" 0.0 (Pchip.eval p (-5.0));
  Helpers.check_float "right" 1.0 (Pchip.eval p 9.0);
  Helpers.check_float "deriv outside" 0.0 (Pchip.deriv p 9.0)

let test_monotone_data_monotone_interpolant () =
  (* the defining property of PCHIP vs natural splines *)
  let p = mk [| 0.0; 1.0; 2.0; 3.0; 4.0 |] [| 0.0; 0.1; 0.11; 5.0; 5.01 |] in
  let prev = ref (Pchip.eval p 0.0) in
  for i = 1 to 400 do
    let x = 4.0 *. float_of_int i /. 400.0 in
    let y = Pchip.eval p x in
    if y < !prev -. 1e-12 then Alcotest.failf "not monotone at x=%g (%g < %g)" x y !prev;
    prev := y
  done

let test_flat_data_flat () =
  let p = mk [| 0.0; 1.0; 2.0 |] [| 3.0; 3.0; 3.0 |] in
  Helpers.check_float "mid" 3.0 (Pchip.eval p 0.7);
  Helpers.check_float "deriv" 0.0 (Pchip.deriv p 0.7)

let test_local_extremum_zero_derivative () =
  (* at a data-local max the FC scheme forces derivative 0 *)
  let p = mk [| 0.0; 1.0; 2.0 |] [| 0.0; 1.0; 0.0 |] in
  Helpers.check_float "deriv at peak" 0.0 (Pchip.deriv p 1.0);
  (* interpolant never overshoots the data maximum *)
  for i = 0 to 100 do
    let x = 2.0 *. float_of_int i /. 100.0 in
    Helpers.check_le "no overshoot" (Pchip.eval p x) 1.0
  done

let test_derivative_matches_finite_difference () =
  let p = mk [| 0.0; 1.0; 3.0; 7.0 |] [| 0.0; 2.0; 3.0; 3.5 |] in
  let h = 1e-6 in
  List.iter
    (fun x ->
      let fd = (Pchip.eval p (x +. h) -. Pchip.eval p (x -. h)) /. (2.0 *. h) in
      Helpers.check_float ~eps:1e-4 (Printf.sprintf "deriv at %g" x) fd (Pchip.deriv p x))
    [ 0.5; 1.5; 2.5; 4.0; 6.5 ]

let test_sample () =
  let p = mk [| 0.0; 4.0 |] [| 0.0; 8.0 |] in
  let xs, ys = Pchip.sample p 5 in
  Alcotest.(check int) "count" 5 (Array.length xs);
  Alcotest.(check int) "ys count" 5 (Array.length ys);
  let x0, y0 = (xs.(0), ys.(0)) and x4, y4 = (xs.(4), ys.(4)) in
  Helpers.check_float "first x" 0.0 x0;
  Helpers.check_float "first y" 0.0 y0;
  Helpers.check_float "last x" 4.0 x4;
  Helpers.check_float "last y" 8.0 y4

let test_breakpoints () =
  let p = mk [| 0.0; 1.0 |] [| 2.0; 3.0 |] in
  Alcotest.(check int) "count" 2 (Array.length (Pchip.breakpoints p))

let test_invalid () =
  Alcotest.check_raises "one point" (Invalid_argument "Pchip.create: need at least two points")
    (fun () -> ignore (mk [| 0.0 |] [| 1.0 |]));
  Alcotest.check_raises "unsorted"
    (Invalid_argument "Pchip.create: xs must be strictly increasing") (fun () ->
      ignore (mk [| 0.0; 0.0 |] [| 1.0; 2.0 |]));
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Pchip.create: xs/ys length mismatch") (fun () ->
      ignore (mk [| 0.0; 1.0 |] [| 1.0 |]))

let prop_monotone =
  QCheck2.Test.make ~name:"monotone data gives monotone interpolant" ~count:300
    QCheck2.Gen.(
      let* k = int_range 2 10 in
      let* deltas = list_repeat k (float_range 0.01 3.0) in
      let* steps = list_repeat k (float_range 0.0 2.0) in
      return (deltas, steps))
    (fun (deltas, steps) ->
      let xs = Array.make (List.length deltas + 1) 0.0 in
      let ys = Array.make (List.length deltas + 1) 0.0 in
      List.iteri (fun i d -> xs.(i + 1) <- xs.(i) +. d) deltas;
      List.iteri (fun i s -> ys.(i + 1) <- ys.(i) +. s) steps;
      let p = Pchip.create ~xs ~ys in
      let n = Array.length xs in
      let ok = ref true in
      let prev = ref (Pchip.eval p 0.0) in
      for i = 1 to 300 do
        let x = xs.(n - 1) *. float_of_int i /. 300.0 in
        let y = Pchip.eval p x in
        if y < !prev -. 1e-9 then ok := false;
        prev := y
      done;
      !ok)

let () =
  Alcotest.run "numerics-pchip"
    [
      ( "pchip",
        [
          Alcotest.test_case "interpolates data" `Quick test_interpolates;
          Alcotest.test_case "two points linear" `Quick test_two_points_is_linear;
          Alcotest.test_case "clamps outside" `Quick test_clamps_outside;
          Alcotest.test_case "monotone" `Quick test_monotone_data_monotone_interpolant;
          Alcotest.test_case "flat" `Quick test_flat_data_flat;
          Alcotest.test_case "extremum" `Quick test_local_extremum_zero_derivative;
          Alcotest.test_case "derivative" `Quick test_derivative_matches_finite_difference;
          Alcotest.test_case "sample" `Quick test_sample;
          Alcotest.test_case "breakpoints" `Quick test_breakpoints;
          Alcotest.test_case "invalid input" `Quick test_invalid;
        ] );
      Helpers.qsuite "properties" [ prop_monotone ];
    ]
