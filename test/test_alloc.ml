open Aa_numerics
open Aa_utility
open Aa_alloc
open Aa_oracle

(* ---------- Plc_greedy ---------- *)

let test_greedy_simple () =
  (* two threads: slopes 2 then 1; budget covers the steep segments *)
  let f1 = Plc.capped_linear ~cap:10.0 ~slope:2.0 ~knee:3.0 in
  let f2 = Plc.capped_linear ~cap:10.0 ~slope:1.0 ~knee:4.0 in
  let r = Plc_greedy.allocate ~exhaust:false ~budget:5.0 [| f1; f2 |] in
  Helpers.check_float "steep thread first" 3.0 r.alloc.(0);
  Helpers.check_float "rest to second" 2.0 r.alloc.(1);
  Helpers.check_float "utility" 8.0 r.utility;
  Helpers.check_float "lambda" 1.0 r.lambda

let test_greedy_budget_exceeds_all () =
  let f1 = Plc.capped_linear ~cap:10.0 ~slope:1.0 ~knee:2.0 in
  let r = Plc_greedy.allocate ~exhaust:false ~budget:100.0 [| f1 |] in
  Helpers.check_float "only useful part" 2.0 r.alloc.(0);
  let r' = Plc_greedy.allocate ~exhaust:true ~budget:100.0 [| f1 |] in
  Helpers.check_float "exhaust fills to cap" 10.0 r'.alloc.(0);
  Helpers.check_float "same utility" r.utility r'.utility

let test_greedy_zero_budget () =
  let f1 = Plc.capped_linear ~cap:10.0 ~slope:1.0 ~knee:2.0 in
  let r = Plc_greedy.allocate ~budget:0.0 [| f1 |] in
  Helpers.check_float "nothing" 0.0 r.alloc.(0);
  Helpers.check_float "utility" 0.0 r.utility

let test_greedy_exhaust_saturates_budget () =
  let fs =
    [|
      Plc.capped_linear ~cap:10.0 ~slope:2.0 ~knee:1.0;
      Plc.capped_linear ~cap:10.0 ~slope:1.0 ~knee:1.0;
    |]
  in
  let r = Plc_greedy.allocate ~exhaust:true ~budget:15.0 fs in
  Helpers.check_float "uses whole budget" 15.0 (Util.kahan_sum r.alloc)

let test_greedy_respects_caps () =
  let fs = [| Plc.capped_linear ~cap:3.0 ~slope:1.0 ~knee:3.0 |] in
  let r = Plc_greedy.allocate ~exhaust:true ~budget:10.0 fs in
  Helpers.check_float "capped" 3.0 r.alloc.(0)

let test_greedy_negative_budget () =
  Alcotest.check_raises "negative" (Invalid_argument "Plc_greedy.allocate: negative budget")
    (fun () -> ignore (Plc_greedy.allocate ~budget:(-1.0) [||]))

(* ---------- Waterfill ---------- *)

let test_waterfill_equalizes_derivatives () =
  (* two identical log threads must get equal shares *)
  let u = Utility.Shapes.log_utility ~cap:10.0 ~coeff:1.0 ~rate:1.0 in
  let r = Waterfill.allocate ~budget:8.0 [| u; u |] in
  Helpers.check_float ~eps:1e-6 "equal split" r.alloc.(0) r.alloc.(1);
  Helpers.check_float ~eps:1e-6 "uses budget" 8.0 (Util.kahan_sum r.alloc)

let test_waterfill_budget_not_binding () =
  let u = Utility.Shapes.linear ~cap:2.0 ~slope:1.0 in
  let r = Waterfill.allocate ~budget:100.0 [| u; u |] in
  Helpers.check_float "caps" 2.0 r.alloc.(0);
  Helpers.check_float "caps" 2.0 r.alloc.(1)

let test_waterfill_prefers_steeper () =
  let a = Utility.Shapes.power ~cap:10.0 ~coeff:4.0 ~beta:0.5 in
  let b = Utility.Shapes.power ~cap:10.0 ~coeff:1.0 ~beta:0.5 in
  let r = Waterfill.allocate ~budget:6.0 [| a; b |] in
  Alcotest.(check bool) "steeper gets more" true (r.alloc.(0) > r.alloc.(1))

let test_waterfill_matches_kkt () =
  (* for power utilities the optimum is closed-form: with f_i = a_i sqrt(x),
     optimal shares are proportional to a_i^2 *)
  let a1 = 2.0 and a2 = 3.0 in
  let u1 = Utility.Shapes.power ~cap:100.0 ~coeff:a1 ~beta:0.5 in
  let u2 = Utility.Shapes.power ~cap:100.0 ~coeff:a2 ~beta:0.5 in
  let budget = 50.0 in
  let r = Waterfill.allocate ~budget [| u1; u2 |] in
  let w1 = a1 *. a1 and w2 = a2 *. a2 in
  Helpers.check_float ~eps:1e-6 "share 1" (budget *. w1 /. (w1 +. w2)) r.alloc.(0);
  Helpers.check_float ~eps:1e-6 "share 2" (budget *. w2 /. (w1 +. w2)) r.alloc.(1)

(* ---------- DP oracle ---------- *)

let test_dp_nonconcave () =
  (* DP is the only allocator that must handle non-concave tables *)
  let values = [| [| 0.0; 0.0; 5.0 |]; [| 0.0; 3.0; 3.5 |] |] in
  let r = Dp.allocate_values ~budget:2 values in
  (* best: 2 units to thread 0 (5.0) beats 1+1 (3.0) and 0+2 (3.5) *)
  Helpers.check_float "optimum" 5.0 r.utility;
  Alcotest.(check (array int)) "alloc" [| 2; 0 |] r.alloc

let test_dp_empty_row () =
  Alcotest.check_raises "empty row" (Invalid_argument "Dp.allocate_values: empty row")
    (fun () -> ignore (Dp.allocate_values ~budget:2 [| [||] |]))

(* greedy on PLC == DP on a fine discretization *)
let test_plc_greedy_matches_dp () =
  let cap = 10.0 in
  let fs =
    [|
      Plc.create [| (0.0, 0.0); (2.0, 4.0); (6.0, 6.0); (10.0, 6.5) |];
      Plc.capped_linear ~cap ~slope:1.5 ~knee:4.0;
      Plc.create [| (0.0, 1.0); (5.0, 3.0); (10.0, 3.5) |];
    |]
  in
  let us = Array.map Utility.of_plc fs in
  List.iter
    (fun budget ->
      let greedy = Plc_greedy.allocate ~budget:(float_of_int budget) fs in
      let dp = Dp.allocate ~budget ~unit_size:1.0 us in
      (* integer grid contains all breakpoints here, so values agree *)
      Helpers.check_float ~eps:1e-9
        (Printf.sprintf "budget %d" budget)
        dp.utility greedy.utility)
    [ 0; 1; 2; 5; 9; 14; 30 ]

(* ---------- properties ---------- *)

let gen_plcs_and_budget =
  QCheck2.Gen.(
    let* n = int_range 1 6 in
    let* fs = list_repeat n Helpers.gen_plc in
    let* budget = float_range 0.0 120.0 in
    return (Array.of_list fs, budget))

let prop_greedy_feasible =
  QCheck2.Test.make ~name:"plc greedy: feasible and within caps" ~count:300
    gen_plcs_and_budget (fun (fs, budget) ->
      let r = Plc_greedy.allocate ~budget fs in
      let total = Util.kahan_sum r.alloc in
      total <= budget +. 1e-6
      && Array.for_all2 (fun c f -> c >= 0.0 && c <= Plc.cap f +. 1e-9) r.alloc fs)

let prop_greedy_beats_random_feasible =
  QCheck2.Test.make ~name:"plc greedy: no feasible point beats it" ~count:300
    QCheck2.Gen.(pair gen_plcs_and_budget (int_range 0 10_000))
    (fun ((fs, budget), seed) ->
      let r = Plc_greedy.allocate ~budget fs in
      let rng = Rng.create ~seed () in
      let n = Array.length fs in
      (* random feasible allocation: random simplex point scaled to budget,
         clipped at caps *)
      let ok = ref true in
      for _ = 1 to 20 do
        let parts = Rng.simplex rng n in
        let alloc =
          Array.mapi (fun i p -> Float.min (Plc.cap fs.(i)) (p *. budget)) parts
        in
        let u = Plc_greedy.total_utility fs alloc in
        if u > r.utility +. 1e-6 *. Float.max 1.0 r.utility then ok := false
      done;
      !ok)

let fsame a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let prop_merge_bit_identical_to_sort =
  QCheck2.Test.make ~name:"plc greedy: merge kernel bit-identical to sort-based reference"
    ~count:500
    QCheck2.Gen.(pair gen_plcs_and_budget bool)
    (fun ((fs, budget), exhaust) ->
      let r = Plc_greedy.allocate ~exhaust ~budget fs in
      let ref_alloc, ref_lambda = Sort_greedy.allocate ~exhaust ~budget fs in
      Array.for_all2 fsame r.alloc ref_alloc && fsame r.lambda ref_lambda)

let prop_scratch_reuse_bit_identical =
  QCheck2.Test.make ~name:"plc greedy: recycled scratch bit-identical to fresh state"
    ~count:200
    QCheck2.Gen.(pair gen_plcs_and_budget gen_plcs_and_budget)
    (fun ((fs1, b1), (fs2, b2)) ->
      let scratch = Plc_greedy.Scratch.create () in
      (* interleave two different shapes through one scratch, twice *)
      let runs =
        List.map
          (fun (fs, b) -> Plc_greedy.allocate ~scratch ~budget:b fs)
          [ (fs1, b1); (fs2, b2); (fs1, b1); (fs2, b2) ]
      in
      let fresh =
        List.map (fun (fs, b) -> Plc_greedy.allocate ~budget:b fs) [ (fs1, b1); (fs2, b2) ]
      in
      let same (a : Plc_greedy.result) (b : Plc_greedy.result) =
        Array.for_all2 fsame a.alloc b.alloc && fsame a.lambda b.lambda
        && fsame a.utility b.utility
      in
      match (runs, fresh) with
      | [ r1; r2; r1'; r2' ], [ f1; f2 ] ->
          same r1 f1 && same r2 f2 && same r1' f1 && same r2' f2
      | _ -> false)

let prop_greedy_monotone_in_budget =
  QCheck2.Test.make ~name:"plc greedy: utility nondecreasing in budget" ~count:200
    gen_plcs_and_budget (fun (fs, budget) ->
      let r1 = Plc_greedy.allocate ~budget fs in
      let r2 = Plc_greedy.allocate ~budget:(budget *. 1.5) fs in
      r2.utility >= r1.utility -. 1e-9)

let prop_waterfill_close_to_greedy =
  QCheck2.Test.make ~name:"waterfill matches exact greedy on PLC" ~count:200
    gen_plcs_and_budget (fun (fs, budget) ->
      let exact = (Plc_greedy.allocate ~budget fs).utility in
      let wf = (Waterfill.allocate ~budget (Array.map Utility.of_plc fs)).utility in
      wf <= exact +. 1e-6 *. Float.max 1.0 exact
      && wf >= exact -. (2e-4 *. Float.max 1.0 exact))

let () =
  Alcotest.run "alloc"
    [
      ( "plc-greedy",
        [
          Alcotest.test_case "simple" `Quick test_greedy_simple;
          Alcotest.test_case "budget exceeds" `Quick test_greedy_budget_exceeds_all;
          Alcotest.test_case "zero budget" `Quick test_greedy_zero_budget;
          Alcotest.test_case "exhaust saturates" `Quick test_greedy_exhaust_saturates_budget;
          Alcotest.test_case "respects caps" `Quick test_greedy_respects_caps;
          Alcotest.test_case "negative budget" `Quick test_greedy_negative_budget;
          Alcotest.test_case "matches DP" `Quick test_plc_greedy_matches_dp;
        ] );
      ( "waterfill",
        [
          Alcotest.test_case "equalizes derivatives" `Quick test_waterfill_equalizes_derivatives;
          Alcotest.test_case "budget not binding" `Quick test_waterfill_budget_not_binding;
          Alcotest.test_case "prefers steeper" `Quick test_waterfill_prefers_steeper;
          Alcotest.test_case "matches KKT" `Quick test_waterfill_matches_kkt;
        ] );
      ( "discrete",
        [
          Alcotest.test_case "dp nonconcave" `Quick test_dp_nonconcave;
          Alcotest.test_case "dp empty row" `Quick test_dp_empty_row;
        ] );
      Helpers.qsuite "properties"
        [
          prop_greedy_feasible;
          prop_greedy_beats_random_feasible;
          prop_merge_bit_identical_to_sort;
          prop_scratch_reuse_bit_identical;
          prop_greedy_monotone_in_budget;
          prop_waterfill_close_to_greedy;
        ];
    ]
