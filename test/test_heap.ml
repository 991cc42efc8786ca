open Aa_numerics

let test_indexed_basic () =
  let h = Heap.Indexed.create [| 5.0; 9.0; 2.0 |] in
  Alcotest.(check int) "size" 3 (Heap.Indexed.size h);
  Alcotest.(check int) "max" 1 (Heap.Indexed.max_element h);
  Helpers.check_float "priority" 9.0 (Heap.Indexed.priority h 1);
  Heap.Indexed.update h 1 1.0;
  Alcotest.(check int) "new max" 0 (Heap.Indexed.max_element h);
  Heap.Indexed.update h 2 100.0;
  Alcotest.(check int) "raised" 2 (Heap.Indexed.max_element h)

let test_indexed_ties_by_index () =
  let h = Heap.Indexed.create [| 4.0; 4.0; 4.0 |] in
  Alcotest.(check int) "lowest index wins" 0 (Heap.Indexed.max_element h);
  Heap.Indexed.update h 0 3.0;
  Alcotest.(check int) "next index" 1 (Heap.Indexed.max_element h)

let test_indexed_empty () =
  let h = Heap.Indexed.create [||] in
  Alcotest.check_raises "max of empty" Not_found (fun () ->
      ignore (Heap.Indexed.max_element h))

(* Model check: drive the indexed heap with random updates and compare
   the max element against a linear scan. *)
let prop_indexed_model =
  QCheck2.Test.make ~name:"indexed heap matches linear scan" ~count:200
    QCheck2.Gen.(
      let* n = int_range 1 12 in
      let* prios = list_repeat n (float_range 0.0 100.0) in
      let* updates = list_size (int_range 0 50) (pair (int_range 0 (n - 1)) (float_range 0.0 100.0)) in
      return (prios, updates))
    (fun (prios, updates) ->
      let prios = Array.of_list prios in
      let h = Heap.Indexed.create prios in
      let model = Array.copy prios in
      List.for_all
        (fun (e, p) ->
          Heap.Indexed.update h e p;
          model.(e) <- p;
          let best = ref 0 in
          Array.iteri (fun i v -> if v > model.(!best) then best := i) model;
          let hm = Heap.Indexed.max_element h in
          model.(hm) = model.(!best))
        updates)

let () =
  Alcotest.run "numerics-heap"
    [
      ( "indexed",
        [
          Alcotest.test_case "basic" `Quick test_indexed_basic;
          Alcotest.test_case "ties" `Quick test_indexed_ties_by_index;
          Alcotest.test_case "empty" `Quick test_indexed_empty;
        ] );
      Helpers.qsuite "properties" [ prop_indexed_model ];
    ]
