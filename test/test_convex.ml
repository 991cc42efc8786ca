open Aa_numerics

(* The tests state points as (x, y) literals; [Convex] takes and returns
   parallel arrays. *)
let split pts = (Array.map fst pts, Array.map snd pts)

let envelope pts =
  let xs, ys = split pts in
  let xs, ys = Convex.upper_envelope xs ys in
  Array.map2 (fun x y -> (x, y)) xs ys

let is_concave ?eps pts =
  let xs, ys = split pts in
  Convex.is_concave ?eps xs ys

let is_nondecreasing pts = Convex.is_nondecreasing (Array.map snd pts)

let test_envelope_identity_on_concave () =
  let pts = [| (0.0, 0.0); (1.0, 2.0); (2.0, 3.0); (3.0, 3.5) |] in
  Alcotest.(check int) "keeps all points" 4 (Array.length (envelope pts))

let test_envelope_drops_below_chord () =
  let pts = [| (0.0, 0.0); (1.0, 0.1); (2.0, 3.0) |] in
  let env = envelope pts in
  Alcotest.(check int) "drops the dip" 2 (Array.length env);
  Alcotest.(check bool) "concave result" true (is_concave env)

let test_envelope_unsorted_input () =
  let pts = [| (2.0, 3.0); (0.0, 0.0); (1.0, 2.0) |] in
  let env = envelope pts in
  let x0, _ = env.(0) in
  Helpers.check_float "starts at 0" 0.0 x0;
  Alcotest.(check bool) "concave" true (is_concave env)

let test_envelope_duplicate_x () =
  let pts = [| (0.0, 0.0); (1.0, 1.0); (1.0, 2.0); (2.0, 2.5) |] in
  let env = envelope pts in
  (* keeps the max y at x = 1, and result is a function of x *)
  let seen = Hashtbl.create 8 in
  Array.iter
    (fun (x, _) ->
      if Hashtbl.mem seen x then Alcotest.fail "duplicate x in envelope";
      Hashtbl.add seen x ())
    env;
  Alcotest.(check bool) "covers (1,2)" true
    (Array.exists (fun (x, y) -> x = 1.0 && y >= 2.0) env)

let test_envelope_majorizes () =
  let rng = Rng.create ~seed:3 () in
  for _ = 1 to 100 do
    let pts =
      Array.init 20 (fun i -> (float_of_int i, Rng.float rng 10.0))
    in
    let env = envelope pts in
    (* piecewise-linear eval of the envelope *)
    let eval x =
      let n = Array.length env in
      let rec find i =
        if i >= n - 1 then n - 2
        else begin
          let x1, _ = env.(i + 1) in
          if x <= x1 then i else find (i + 1)
        end
      in
      let i = find 0 in
      let x0, y0 = env.(i) and x1, y1 = env.(i + 1) in
      y0 +. ((y1 -. y0) *. (x -. x0) /. (x1 -. x0))
    in
    Array.iter
      (fun (x, y) -> Helpers.check_ge ~eps:1e-9 "envelope above data" (eval x) y)
      pts
  done

let test_envelope_single_point () =
  let env = envelope [| (1.0, 2.0) |] in
  Alcotest.(check int) "one point" 1 (Array.length env)

let test_is_concave () =
  Alcotest.(check bool) "concave" true
    (is_concave [| (0.0, 0.0); (1.0, 2.0); (2.0, 3.0) |]);
  Alcotest.(check bool) "convex" false
    (is_concave [| (0.0, 0.0); (1.0, 1.0); (2.0, 3.0) |]);
  Alcotest.(check bool) "line" true
    (is_concave [| (0.0, 0.0); (1.0, 1.0); (2.0, 2.0) |]);
  Alcotest.(check bool) "two points" true (is_concave [| (0.0, 0.0); (1.0, 5.0) |])

let test_is_nondecreasing () =
  Alcotest.(check bool) "yes" true
    (is_nondecreasing [| (0.0, 0.0); (1.0, 0.0); (2.0, 1.0) |]);
  Alcotest.(check bool) "no" false
    (is_nondecreasing [| (0.0, 1.0); (1.0, 0.5) |])

let prop_envelope_concave_and_majorizing =
  QCheck2.Test.make ~name:"envelope is concave and majorizes data" ~count:300
    QCheck2.Gen.(
      list_size (int_range 2 30) (pair (float_range 0.0 10.0) (float_range 0.0 10.0)))
    (fun pts ->
      let pts = Array.of_list pts in
      let env = envelope pts in
      is_concave ~eps:1e-7 env)

let () =
  Alcotest.run "numerics-convex"
    [
      ( "envelope",
        [
          Alcotest.test_case "identity on concave" `Quick test_envelope_identity_on_concave;
          Alcotest.test_case "drops dips" `Quick test_envelope_drops_below_chord;
          Alcotest.test_case "unsorted input" `Quick test_envelope_unsorted_input;
          Alcotest.test_case "duplicate x" `Quick test_envelope_duplicate_x;
          Alcotest.test_case "majorizes data" `Quick test_envelope_majorizes;
          Alcotest.test_case "single point" `Quick test_envelope_single_point;
        ] );
      ( "checks",
        [
          Alcotest.test_case "is_concave" `Quick test_is_concave;
          Alcotest.test_case "is_nondecreasing" `Quick test_is_nondecreasing;
        ] );
      Helpers.qsuite "properties" [ prop_envelope_concave_and_majorizing ];
    ]
