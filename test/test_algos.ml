open Aa_numerics
open Aa_utility
open Aa_core

let cap = 10.0
let mk ?(servers = 2) us = Instance.create ~servers ~capacity:cap us

(* ---------- Algorithm 2 mechanics ---------- *)

let test_algo2_single_thread () =
  let inst = mk ~servers:3 [| Utility.Shapes.linear ~cap ~slope:1.0 |] in
  let a = Algo2.solve inst in
  Helpers.check_float "gets its chat" cap a.alloc.(0);
  Helpers.check_float "utility" cap (Assignment.utility inst a)

let test_algo2_order_peak_then_slope () =
  (* m=1: order is peak-desc for the first thread, slope-desc for the rest *)
  let us =
    [|
      Utility.Shapes.capped_linear ~cap ~slope:1.0 ~knee:4.0 (* peak 4, slope 1 *);
      Utility.Shapes.capped_linear ~cap ~slope:5.0 ~knee:1.0 (* peak 5, slope 5 *);
      Utility.Shapes.capped_linear ~cap ~slope:2.0 ~knee:1.5 (* peak 3, slope 2 *);
    |]
  in
  let inst = mk ~servers:1 us in
  let lin = Linearized.make inst in
  let order = Algo2.order lin in
  (* chat: budget 10 -> thread 1 gets 1 (slope 5), thread 2 gets 1.5
     (slope 2), thread 0 gets 4 (slope 1); all full, 3.5 spare padded.
     peaks: t0=4, t1=5, t2=3 -> first is t1 (peak 5); tail by slope:
     t2 (2) before t0 (1)... but padding distorts slopes; just check the
     first element and that all threads appear. *)
  Alcotest.(check int) "highest peak first" 1 order.(0);
  let sorted = Array.copy order in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" [| 0; 1; 2 |] sorted

let test_algo2_fills_max_remaining () =
  (* two servers; three equal threads wanting 6 each: third lands on the
     fuller-remaining server and is truncated *)
  let us = Array.make 3 (Utility.Shapes.capped_linear ~cap ~slope:1.0 ~knee:6.0) in
  let inst = mk us in
  let a = Algo2.solve inst in
  (match Assignment.check inst a with Ok () -> () | Error e -> Alcotest.fail e);
  let allocs = Array.copy a.alloc in
  Array.sort compare allocs;
  (* chat padding gives [8; 6; 6]; the first two threads get their chat on
     separate servers, the third is truncated to the fullest remainder *)
  Helpers.check_float "third thread truncated to max remaining" 4.0 allocs.(0);
  Helpers.check_float "second" 6.0 allocs.(1);
  Helpers.check_float "first (padded chat)" 8.0 allocs.(2);
  (* utility meets the guarantee: 16 >= alpha * 18 *)
  Helpers.check_ge "guarantee" (Assignment.utility inst a)
    (Bounds.alpha *. (Superopt.compute inst).utility)

let test_algo2_deterministic () =
  let rng = Rng.create ~seed:5 () in
  let inst =
    Aa_workload.Gen.instance rng ~servers:4 ~capacity:100.0 ~threads:20 Aa_workload.Gen.Uniform
  in
  let a = Algo2.solve inst in
  let b = Algo2.solve inst in
  Alcotest.(check (array int)) "same servers" a.server b.server;
  Array.iteri (fun i c -> Helpers.check_float "same alloc" c b.alloc.(i)) a.alloc

let test_algo2_tail_resort_matters () =
  (* build an instance where disabling line 2 changes the outcome *)
  let us =
    [|
      Utility.Shapes.capped_linear ~cap ~slope:1.0 ~knee:10.0 (* peak 10 *);
      Utility.Shapes.capped_linear ~cap ~slope:1.0 ~knee:9.0 (* peak 9 *);
      Utility.Shapes.capped_linear ~cap ~slope:0.95 ~knee:9.5 (* peak ~9 *);
      Utility.Shapes.capped_linear ~cap ~slope:4.0 ~knee:2.0 (* peak 8, steep *);
    |]
  in
  let inst = mk us in
  let with_resort = Assignment.utility inst (Algo2.solve ~tail_resort:true inst) in
  let without = Assignment.utility inst (Algo2.solve ~tail_resort:false inst) in
  Helpers.check_ge "resort at least as good here" with_resort without ~eps:1e-9

let test_algo2_server_rules_feasible () =
  let rng = Rng.create ~seed:11 () in
  let inst =
    Aa_workload.Gen.instance rng ~servers:3 ~capacity:50.0 ~threads:12 Aa_workload.Gen.Uniform
  in
  List.iter
    (fun rule ->
      let a = Algo2.solve ~server_rule:rule inst in
      match Assignment.check inst a with
      | Ok () -> ()
      | Error e -> Alcotest.failf "rule infeasible: %s" e)
    [ `Max_remaining; `Min_remaining; `Round_robin ]

let test_order_matches_copy_reference () =
  (* Algo2.order sorts flat key arrays with its own sort; it must
     produce exactly the permutation of the record-reading comparators
     with Array.sort and an Array.sub/sort/blit tail — both comparators
     are total orders (ties broken by index), so any comparison sort
     agrees *)
  let rng = Rng.create ~seed:7 () in
  for _ = 1 to 20 do
    let trial = Rng.split rng in
    let servers = 1 + Rng.int trial 5 in
    let threads = 1 + Rng.int trial 40 in
    let inst =
      Aa_workload.Gen.instance trial ~servers ~capacity:50.0 ~threads Aa_workload.Gen.Uniform
    in
    let lin = Linearized.make inst in
    let by_peak a b =
      let pa = lin.threads.(a).Linearized.peak and pb = lin.threads.(b).Linearized.peak in
      match compare pb pa with 0 -> compare a b | c -> c
    in
    let by_slope a b =
      let sa = lin.threads.(a).Linearized.slope and sb = lin.threads.(b).Linearized.slope in
      match compare sb sa with 0 -> compare a b | c -> c
    in
    let reference = Array.init threads Fun.id in
    Array.sort by_peak reference;
    if threads > servers then begin
      let tail = Array.sub reference servers (threads - servers) in
      Array.sort by_slope tail;
      Array.blit tail 0 reference servers (threads - servers)
    end;
    Alcotest.(check (array int))
      (Printf.sprintf "m=%d n=%d" servers threads)
      reference (Algo2.order lin)
  done

(* Algo2.order_keys against the sort Hetero and Multires inlined before
   they shared it: Array.sort with polymorphic compare on the peak keys,
   then Array.sub, sort and Array.blit of the tail by slope. Keys drawn
   from a few values force many ties; infinity slopes stand for ĉ = 0
   threads with a positive peak. *)
let test_order_keys_matches_inline_reference () =
  let rng = Rng.create ~seed:31 () in
  let pick vals = vals.(Rng.int rng (Array.length vals)) in
  for _ = 1 to 300 do
    let n = Rng.int rng 60 in
    let m = 1 + Rng.int rng 8 in
    let peak = Array.init n (fun _ -> pick [| 0.0; 1.0; 2.5; 2.5; 7.0 |]) in
    let slope = Array.init n (fun _ -> pick [| 0.0; 0.5; 3.0; Float.infinity; Float.infinity |]) in
    let by_peak a b = match compare peak.(b) peak.(a) with 0 -> compare a b | c -> c in
    let by_slope a b = match compare slope.(b) slope.(a) with 0 -> compare a b | c -> c in
    let reference = Array.init n Fun.id in
    Array.sort by_peak reference;
    let unresorted = Array.copy reference in
    if n > m then begin
      let tail = Array.sub reference m (n - m) in
      Array.sort by_slope tail;
      Array.blit tail 0 reference m (n - m)
    end;
    let idx = Array.make n (-1) in
    Algo2.order_keys ~m ~peak ~slope idx;
    Alcotest.(check (array int)) (Printf.sprintf "m=%d n=%d" m n) reference idx;
    Algo2.order_keys ~tail_resort:false ~m ~peak ~slope idx;
    Alcotest.(check (array int)) (Printf.sprintf "no tail re-sort, m=%d n=%d" m n) unresorted idx
  done

let test_scratch_solve_bit_identical () =
  (* one scratch recycled across shapes and trials: every solve matches
     the scratch-free solve exactly, including after shape changes *)
  let scratch = Algo2.Scratch.create () in
  let rng = Rng.create ~seed:13 () in
  List.iter
    (fun (servers, threads) ->
      for _ = 1 to 5 do
        let trial = Rng.split rng in
        let inst =
          Aa_workload.Gen.instance trial ~servers ~capacity:80.0 ~threads
            Aa_workload.Gen.Uniform
        in
        let lin = Linearized.make inst in
        let a = Algo2.solve ~linearized:lin inst in
        let b = Algo2.solve ~linearized:lin ~scratch inst in
        Alcotest.(check (array int)) "same servers" a.server b.server;
        Array.iteri (fun i c -> Helpers.check_float "same alloc" c b.alloc.(i)) a.alloc;
        (* the result must not alias scratch storage *)
        Alcotest.(check bool) "fresh arrays" false (a.server == b.server)
      done)
    [ (2, 10); (4, 25); (2, 10); (3, 3) ]

let test_min_remaining_matches_naive_argmin () =
  (* replay the ablation rule by hand: each thread in assignment order
     goes to the argmin of the remaining capacities (ties to the smaller
     server index) and receives min(chat, remaining) *)
  let rng = Rng.create ~seed:17 () in
  for _ = 1 to 10 do
    let trial = Rng.split rng in
    let inst =
      Aa_workload.Gen.instance trial ~servers:3 ~capacity:40.0 ~threads:12
        Aa_workload.Gen.Uniform
    in
    let lin = Linearized.make inst in
    let a = Algo2.solve ~linearized:lin ~server_rule:`Min_remaining inst in
    let remaining = Array.make inst.servers inst.capacity in
    Array.iter
      (fun i ->
        let best = ref 0 in
        for k = 1 to inst.servers - 1 do
          if remaining.(k) < remaining.(!best) then best := k
        done;
        let c = Float.min lin.threads.(i).Linearized.chat remaining.(!best) in
        Alcotest.(check int) "server" !best a.server.(i);
        Helpers.check_float "alloc" c a.alloc.(i);
        remaining.(!best) <- remaining.(!best) -. c)
      (Algo2.order lin)
  done

(* ---------- Algorithm 1 mechanics ---------- *)

let test_algo1_single_server_matches_superopt () =
  (* with m = 1, chat is computed with budget C, so every thread can be
     full: Algorithm 1 achieves exactly F^ *)
  let us =
    [|
      Utility.Shapes.capped_linear ~cap ~slope:2.0 ~knee:3.0;
      Utility.Shapes.capped_linear ~cap ~slope:1.0 ~knee:4.0;
    |]
  in
  let inst = mk ~servers:1 us in
  let so = Superopt.compute inst in
  let a = Algo1.solve inst in
  Helpers.check_float ~eps:1e-9 "achieves F^" so.utility (Assignment.utility inst a)

let test_algo1_prefers_high_peak_when_full () =
  (* one server of size 10; two threads want 10 each; the higher-peak
     thread must get the server *)
  let us =
    [|
      Utility.Shapes.capped_linear ~cap ~slope:1.0 ~knee:10.0 (* peak 10 *);
      Utility.Shapes.capped_linear ~cap ~slope:0.5 ~knee:10.0 (* peak 5 *);
    |]
  in
  let inst = mk ~servers:1 us in
  let a = Algo1.solve inst in
  Helpers.check_ge "high-peak thread wins the resources" a.alloc.(0) a.alloc.(1) ~eps:1e-9;
  Helpers.check_float "and gets a lot" 10.0 (a.alloc.(0) +. a.alloc.(1))

let test_algo1_agrees_with_algo2_quality () =
  let rng = Rng.create ~seed:23 () in
  for _ = 1 to 20 do
    let trial = Rng.split rng in
    let inst =
      Aa_workload.Gen.instance trial ~servers:3 ~capacity:60.0 ~threads:9
        Aa_workload.Gen.Uniform
    in
    let so = Superopt.compute inst in
    let u1 = Assignment.utility inst (Algo1.solve inst) in
    let u2 = Assignment.utility inst (Algo2.solve inst) in
    (* both meet the guarantee; they are close but not identical *)
    Helpers.check_ge "algo1 guarantee" u1 (Bounds.alpha *. so.utility) ~eps:1e-6;
    Helpers.check_ge "algo2 guarantee" u2 (Bounds.alpha *. so.utility) ~eps:1e-6
  done

(* ---------- heuristics ---------- *)

let test_uu_round_robin_equal_split () =
  let us = Array.make 5 (Utility.Shapes.linear ~cap ~slope:1.0) in
  let inst = mk ~servers:2 us in
  let a = Heuristics.uu inst in
  Alcotest.(check (array int)) "round robin" [| 0; 1; 0; 1; 0 |] a.server;
  (* server 0 has 3 threads -> 10/3 each; server 1 has 2 -> 5 each *)
  Helpers.check_float ~eps:1e-9 "share on 0" (10.0 /. 3.0) a.alloc.(0);
  Helpers.check_float ~eps:1e-9 "share on 1" 5.0 a.alloc.(1)

let test_uu_beta_one_optimal () =
  (* paper: for beta = 1, UU places one thread per server with all
     resources — optimal *)
  let rng = Rng.create ~seed:31 () in
  let inst =
    Aa_workload.Gen.instance rng ~servers:4 ~capacity:100.0 ~threads:4 Aa_workload.Gen.Uniform
  in
  let so = Superopt.compute inst in
  let u = Assignment.utility inst (Heuristics.uu inst) in
  Helpers.check_float ~eps:1e-6 "UU optimal at beta 1" so.utility u

let test_ur_allocations_sum_to_capacity () =
  let us = Array.make 6 (Utility.Shapes.linear ~cap ~slope:1.0) in
  let inst = mk ~servers:2 us in
  let rng = Rng.create ~seed:41 () in
  let a = Heuristics.ur ~rng inst in
  let load = Assignment.server_load inst a in
  Helpers.check_float ~eps:1e-9 "server 0 full" cap load.(0);
  Helpers.check_float ~eps:1e-9 "server 1 full" cap load.(1);
  Alcotest.(check (array int)) "round robin placement" [| 0; 1; 0; 1; 0; 1 |] a.server

let test_ru_equal_split_random_place () =
  let us = Array.make 6 (Utility.Shapes.linear ~cap ~slope:1.0) in
  let inst = mk ~servers:2 us in
  let rng = Rng.create ~seed:43 () in
  let a = Heuristics.ru ~rng inst in
  (match Assignment.check inst a with Ok () -> () | Error e -> Alcotest.fail e);
  (* every thread on server j gets C / (threads on j) *)
  Array.iteri
    (fun i j ->
      let k = List.length (Assignment.threads_on a j) in
      Helpers.check_float ~eps:1e-9 "equal share" (cap /. float_of_int k) a.alloc.(i))
    a.server

let test_rr_feasible_many_seeds () =
  let us = Array.make 9 (Utility.Shapes.linear ~cap ~slope:1.0) in
  let inst = mk ~servers:3 us in
  for seed = 0 to 30 do
    let rng = Rng.create ~seed () in
    let a = Heuristics.rr ~rng inst in
    match Assignment.check inst a with
    | Ok () -> ()
    | Error e -> Alcotest.failf "seed %d: %s" seed e
  done

(* ---------- refine post-pass ---------- *)

let test_refine_recovers_stranded_resource () =
  (* Algorithm 2 on the tightness instance leaves the linear thread with
     0.5 although its server has spare capacity only on the other side;
     refill on this instance improves nothing (nothing stranded) — build
     a case where it does: thread truncated below its server optimum *)
  let us =
    [|
      Utility.Shapes.capped_linear ~cap ~slope:1.0 ~knee:6.0;
      Utility.Shapes.linear ~cap ~slope:0.5;
    |]
  in
  let inst = mk ~servers:1 us in
  (* bad hand-made assignment: thread 0 under-allocated, 4 units stranded *)
  let a = Assignment.make ~server:[| 0; 0 |] ~alloc:[| 2.0; 4.0 |] in
  let r = Refine.per_server inst a in
  Helpers.check_ge "utility never decreases" (Assignment.utility inst r)
    (Assignment.utility inst a);
  (* optimal division: 6 to the capped thread, 4 to the linear one *)
  Helpers.check_float "capped thread filled" 6.0 r.alloc.(0);
  Helpers.check_float "linear gets the rest" 4.0 r.alloc.(1)

let prop_refine_sound =
  QCheck2.Test.make ~name:"refine: feasible, same placement, never worse" ~count:200
    Helpers.gen_instance (fun inst ->
      let inst = Helpers.plc_instance inst in
      let rng = Rng.create ~seed:5 () in
      List.for_all
        (fun algo ->
          let a = Solver.solve ~rng algo inst in
          let r = Refine.per_server inst a in
          r.server = a.server
          && (match Assignment.check inst r with Ok () -> true | Error _ -> false)
          && Assignment.utility inst r
             >= Assignment.utility inst a -. (1e-6 *. Float.max 1.0 (Assignment.utility inst a)))
        Solver.all)

(* ---------- the headline guarantee, property-tested ---------- *)

let prop_order_structure =
  QCheck2.Test.make ~name:"Algo2 order: head holds the m largest peaks, tail slope-sorted"
    ~count:200 Helpers.gen_instance (fun inst ->
      let lin = Linearized.make inst in
      let idx = Algo2.order lin in
      let n = Array.length idx in
      let m = inst.servers in
      let peak i = lin.threads.(i).peak in
      let slope i = lin.threads.(i).slope in
      (* the first min(m,n) entries are peak-sorted and dominate the tail *)
      let head = Array.sub idx 0 (min m n) in
      let tail = if n > m then Array.sub idx m (n - m) else [||] in
      let head_sorted =
        Array.for_all Fun.id
          (Array.init (max 0 (Array.length head - 1)) (fun k ->
               peak head.(k) >= peak head.(k + 1)))
      in
      let head_dominates =
        Array.for_all (fun h -> Array.for_all (fun t -> peak h >= peak t) tail) head
      in
      let tail_sorted =
        Array.for_all Fun.id
          (Array.init (max 0 (Array.length tail - 1)) (fun k ->
               slope tail.(k) >= slope tail.(k + 1)))
      in
      head_sorted && head_dominates && tail_sorted)

let prop_guarantee_algo2 =
  QCheck2.Test.make ~name:"Theorem VI.1: Algo2 >= alpha * F^ on random instances"
    ~count:300 ~print:Helpers.print_instance Helpers.gen_instance (fun inst ->
      let lin = Linearized.make inst in
      let a = Algo2.solve ~linearized:lin inst in
      let u = Assignment.utility inst a in
      u >= (Bounds.alpha *. lin.superopt.utility) -. 1e-6)

let prop_guarantee_algo1 =
  QCheck2.Test.make ~name:"Theorem V.16: Algo1 >= alpha * F^ on random instances"
    ~count:200 ~print:Helpers.print_instance Helpers.gen_instance (fun inst ->
      let lin = Linearized.make inst in
      let a = Algo1.solve ~linearized:lin inst in
      let u = Assignment.utility inst a in
      u >= (Bounds.alpha *. lin.superopt.utility) -. 1e-6)

let prop_algo2_beats_heuristics_on_average =
  (* not a per-instance theorem, so test the aggregate over a fixed batch *)
  QCheck2.Test.make ~name:"Algo2 at least matches UU on average" ~count:1
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let rng = Rng.create ~seed () in
      let total_a2 = ref 0.0 and total_uu = ref 0.0 in
      for _ = 1 to 50 do
        let trial = Rng.split rng in
        let inst =
          Aa_workload.Gen.instance trial ~servers:4 ~capacity:50.0 ~threads:20
            Aa_workload.Gen.Uniform
        in
        total_a2 := !total_a2 +. Assignment.utility inst (Algo2.solve inst);
        total_uu := !total_uu +. Assignment.utility inst (Heuristics.uu inst)
      done;
      !total_a2 >= !total_uu *. 0.999)

let prop_full_allocation_used =
  QCheck2.Test.make ~name:"Algo2 wastes no resource when demand exceeds supply" ~count:200
    Helpers.gen_instance (fun inst ->
      let n = Instance.n_threads inst in
      let m = inst.servers in
      if n < m then true
      else begin
        let lin = Linearized.make inst in
        (* if every thread's chat is positive and total chat = mC, servers
           should end up fully allocated *)
        let total_chat = Util.kahan_sum lin.superopt.chat in
        let a = Algo2.solve ~linearized:lin inst in
        let used = Util.kahan_sum a.alloc in
        (* used >= total_chat - (m-1) * max chat is a weak bound; just check
           used is at least alpha fraction of the pooled budget when
           saturated *)
        if Util.approx_equal ~eps:1e-6 total_chat (float_of_int m *. inst.capacity) then
          used >= 0.5 *. total_chat -. 1e-6
        else true
      end)

(* ---------- the paper's structural lemmas, checked on Algo2 runs ---------- *)

let prop_lemma_v5_at_most_one_unfull_per_server =
  QCheck2.Test.make ~name:"Lemma V.5: at most one unfull thread per server" ~count:200
    Helpers.gen_instance (fun inst ->
      let lin = Linearized.make inst in
      let a = Algo2.solve ~linearized:lin inst in
      let unfull = Array.make inst.servers 0 in
      Array.iteri
        (fun i j ->
          let chat = Float.min lin.threads.(i).chat inst.capacity in
          if a.alloc.(i) < chat -. 1e-9 then unfull.(j) <- unfull.(j) + 1)
        a.server;
      Array.for_all (fun k -> k <= 1) unfull)

let prop_lemma_v8_first_m_threads_full =
  QCheck2.Test.make ~name:"Lemma V.8: the first m assigned threads are full" ~count:200
    Helpers.gen_instance (fun inst ->
      let lin = Linearized.make inst in
      let order = Algo2.order lin in
      let a = Algo2.solve ~linearized:lin inst in
      let m = min inst.servers (Array.length order) in
      let ok = ref true in
      for k = 0 to m - 1 do
        let i = order.(k) in
        let chat = Float.min lin.threads.(i).chat inst.capacity in
        if a.alloc.(i) < chat -. 1e-9 then ok := false
      done;
      !ok)

let test_large_instance_smoke () =
  (* n = 4000 threads on 32 servers: the heap algorithm must stay fast
     and feasible (the paper's complexity claim, qualitatively) *)
  let rng = Rng.create ~seed:99 () in
  let inst =
    Aa_workload.Gen.instance ~resolution:16 rng ~servers:32 ~capacity:1000.0 ~threads:4000
      Aa_workload.Gen.Uniform
  in
  let t0 = Aa_obs.Clock.now_s () in
  let lin = Linearized.make inst in
  let a = Algo2.solve ~linearized:lin inst in
  let elapsed = Aa_obs.Clock.now_s () -. t0 in
  (match Assignment.check inst a with Ok () -> () | Error e -> Alcotest.fail e);
  Helpers.check_ge "guarantee at scale"
    (Assignment.utility inst a)
    (Bounds.alpha *. lin.superopt.utility)
    ~eps:1e-6;
  if elapsed > 10.0 then Alcotest.failf "Algo2 too slow at n=4000: %.1f s" elapsed

let () =
  Alcotest.run "algorithms"
    [
      ( "algo2",
        [
          Alcotest.test_case "single thread" `Quick test_algo2_single_thread;
          Alcotest.test_case "order" `Quick test_algo2_order_peak_then_slope;
          Alcotest.test_case "max remaining" `Quick test_algo2_fills_max_remaining;
          Alcotest.test_case "deterministic" `Quick test_algo2_deterministic;
          Alcotest.test_case "tail resort" `Quick test_algo2_tail_resort_matters;
          Alcotest.test_case "server rules" `Quick test_algo2_server_rules_feasible;
          Alcotest.test_case "in-place order = copy reference" `Quick
            test_order_matches_copy_reference;
          Alcotest.test_case "shared order = inline reference" `Quick
            test_order_keys_matches_inline_reference;
          Alcotest.test_case "scratch bit-identical" `Quick test_scratch_solve_bit_identical;
          Alcotest.test_case "min-remaining scan = naive argmin" `Quick
            test_min_remaining_matches_naive_argmin;
        ] );
      ( "algo1",
        [
          Alcotest.test_case "single server optimal" `Quick test_algo1_single_server_matches_superopt;
          Alcotest.test_case "prefers high peak" `Quick test_algo1_prefers_high_peak_when_full;
          Alcotest.test_case "quality vs algo2" `Quick test_algo1_agrees_with_algo2_quality;
        ] );
      ( "heuristics",
        [
          Alcotest.test_case "UU round robin" `Quick test_uu_round_robin_equal_split;
          Alcotest.test_case "UU optimal at beta=1" `Quick test_uu_beta_one_optimal;
          Alcotest.test_case "UR sums to capacity" `Quick test_ur_allocations_sum_to_capacity;
          Alcotest.test_case "RU equal split" `Quick test_ru_equal_split_random_place;
          Alcotest.test_case "RR feasible" `Quick test_rr_feasible_many_seeds;
        ] );
      ( "refine",
        [ Alcotest.test_case "recovers stranded resource" `Quick
            test_refine_recovers_stranded_resource ] );
      ("scale", [ Alcotest.test_case "n=4000 smoke" `Slow test_large_instance_smoke ]);
      Helpers.qsuite "properties"
        [
          prop_order_structure;
          prop_refine_sound;
          prop_lemma_v5_at_most_one_unfull_per_server;
          prop_lemma_v8_first_m_threads_full;
          prop_guarantee_algo2;
          prop_guarantee_algo1;
          prop_algo2_beats_heuristics_on_average;
          prop_full_allocation_used;
        ];
    ]
