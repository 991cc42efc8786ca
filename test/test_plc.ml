open Aa_numerics
open Aa_utility

let simple () = Plc.create [| (0.0, 0.0); (2.0, 4.0); (5.0, 5.5); (10.0, 5.5) |]

let test_eval () =
  let f = simple () in
  Helpers.check_float "at 0" 0.0 (Plc.eval f 0.0);
  Helpers.check_float "on first segment" 2.0 (Plc.eval f 1.0);
  Helpers.check_float "at breakpoint" 4.0 (Plc.eval f 2.0);
  Helpers.check_float "second segment" 4.5 (Plc.eval f 3.0);
  Helpers.check_float "flat region" 5.5 (Plc.eval f 7.0);
  Helpers.check_float "at cap" 5.5 (Plc.eval f 10.0);
  Helpers.check_float "clamped left" 0.0 (Plc.eval f (-1.0));
  Helpers.check_float "clamped right" 5.5 (Plc.eval f 20.0)

let test_cap_peak_max_slope () =
  let f = simple () in
  Helpers.check_float "cap" 10.0 (Plc.cap f);
  Helpers.check_float "peak" 5.5 (Plc.peak f);
  Helpers.check_float "max slope" 2.0 (Plc.max_slope f)

let test_slope_right () =
  let f = simple () in
  Helpers.check_float "first" 2.0 (Plc.slope_right f 0.0);
  Helpers.check_float "at breakpoint takes right side" 0.5 (Plc.slope_right f 2.0);
  Helpers.check_float "second" 0.5 (Plc.slope_right f 4.0);
  Helpers.check_float "flat" 0.0 (Plc.slope_right f 6.0);
  Helpers.check_float "at cap" 0.0 (Plc.slope_right f 10.0)

let test_demand () =
  let f = simple () in
  Helpers.check_float "very high price" 0.0 (Plc.demand f 10.0);
  Helpers.check_float "price between slopes" 2.0 (Plc.demand f 1.0);
  Helpers.check_float "price at slope boundary" 2.0 (Plc.demand f 2.0);
  Helpers.check_float "low positive price" 5.0 (Plc.demand f 0.1);
  Helpers.check_float "price equal to second slope" 5.0 (Plc.demand f 0.5);
  Helpers.check_float "zero price" 10.0 (Plc.demand f 0.0)

let test_demand_monotone_in_price () =
  let f = simple () in
  let prev = ref (Plc.demand f 0.0) in
  List.iter
    (fun lambda ->
      let d = Plc.demand f lambda in
      Helpers.check_le "demand nonincreasing" d !prev;
      prev := d)
    [ 0.1; 0.5; 0.7; 1.0; 2.0; 3.0 ]

let test_constant () =
  let f = Plc.constant ~cap:5.0 3.0 in
  Helpers.check_float "value" 3.0 (Plc.eval f 2.0);
  Helpers.check_float "peak" 3.0 (Plc.peak f);
  Helpers.check_float "max slope" 0.0 (Plc.max_slope f);
  Helpers.check_float "demand" 0.0 (Plc.demand f 0.5)

let test_capped_linear () =
  let f = Plc.capped_linear ~cap:10.0 ~slope:2.0 ~knee:3.0 in
  Helpers.check_float "ramp" 4.0 (Plc.eval f 2.0);
  Helpers.check_float "flat" 6.0 (Plc.eval f 8.0);
  let full = Plc.capped_linear ~cap:10.0 ~slope:1.0 ~knee:10.0 in
  Helpers.check_float "knee at cap" 10.0 (Plc.eval full 10.0);
  let zero = Plc.capped_linear ~cap:10.0 ~slope:2.0 ~knee:0.0 in
  Helpers.check_float "zero knee" 0.0 (Plc.peak zero)

let test_create_validation () =
  Alcotest.check_raises "must start at 0"
    (Invalid_argument "Plc.create: domain must start at x = 0") (fun () ->
      ignore (Plc.create [| (1.0, 0.0); (2.0, 1.0) |]));
  Alcotest.check_raises "negative value"
    (Invalid_argument "Plc.create: negative utility value") (fun () ->
      ignore (Plc.create [| (0.0, -1.0); (2.0, 1.0) |]));
  Alcotest.check_raises "decreasing"
    (Invalid_argument "Plc.create: utility must be nondecreasing") (fun () ->
      ignore (Plc.create [| (0.0, 2.0); (2.0, 1.0) |]));
  Alcotest.check_raises "convex" (Invalid_argument "Plc.create: utility must be concave")
    (fun () -> ignore (Plc.create [| (0.0, 0.0); (1.0, 0.5); (2.0, 2.0) |]));
  Alcotest.check_raises "nan" (Invalid_argument "Plc.create: non-finite coordinate")
    (fun () -> ignore (Plc.create [| (0.0, 0.0); (1.0, Float.nan) |]));
  Alcotest.check_raises "infinite" (Invalid_argument "Plc.create: non-finite coordinate")
    (fun () -> ignore (Plc.create [| (0.0, 0.0); (Float.infinity, 1.0) |]))

let test_create_merges_collinear () =
  let f = Plc.create [| (0.0, 0.0); (1.0, 1.0); (2.0, 2.0); (3.0, 3.0) |] in
  Alcotest.(check int) "one segment" 1 (Array.length (Plc.segments f))

let test_create_unsorted_dedup () =
  let f = Plc.create [| (2.0, 4.0); (0.0, 0.0); (2.0, 3.0); (5.0, 5.0) |] in
  Helpers.check_float "keeps max y at duplicate" 4.0 (Plc.eval f 2.0)

let test_segments () =
  let f = simple () in
  let segs = Plc.segments f in
  Alcotest.(check int) "three segments" 3 (Array.length segs);
  Helpers.check_float "slope 0" 2.0 segs.(0).slope;
  Helpers.check_float "slope 1" 0.5 segs.(1).slope;
  Helpers.check_float "slope 2" 0.0 segs.(2).slope;
  Helpers.check_float "x bounds" 2.0 segs.(0).x1

let test_restrict () =
  let f = simple () in
  let g = Plc.restrict f ~cap:3.0 in
  Helpers.check_float "cap" 3.0 (Plc.cap g);
  Helpers.check_float "same values" (Plc.eval f 2.5) (Plc.eval g 2.5);
  Helpers.check_float "boundary" 4.5 (Plc.eval g 3.0)

let test_scale () =
  let f = Plc.scale (simple ()) ~y:2.0 in
  Helpers.check_float "scaled" 8.0 (Plc.eval f 2.0)

let test_equal () =
  Alcotest.(check bool) "same" true (Plc.equal (simple ()) (simple ()));
  Alcotest.(check bool) "different" false
    (Plc.equal (simple ()) (Plc.constant ~cap:10.0 1.0))

let test_flat_accessors () =
  let f = simple () in
  let xs = Plc.Flat.breakpoints f in
  let ys = Plc.Flat.prefix_utility f in
  let slopes = Plc.Flat.slopes f in
  Alcotest.(check int) "n_pieces" 3 (Plc.n_pieces f);
  Alcotest.(check int) "positive_pieces" 2 (Plc.positive_pieces f);
  Alcotest.(check int) "xs/ys same length" (Array.length xs) (Array.length ys);
  Alcotest.(check int) "one slope per piece" (Array.length xs - 1) (Array.length slopes);
  Helpers.check_float "first breakpoint" 0.0 xs.(0);
  Helpers.check_float "last breakpoint is cap" (Plc.cap f) xs.(Array.length xs - 1);
  Array.iteri
    (fun i x -> Helpers.check_float "prefix utility = eval at breakpoint" (Plc.eval f x) ys.(i))
    xs;
  Array.iteri
    (fun k (s : Plc.segment) -> Helpers.check_float "slope matches segment" s.slope slopes.(k))
    (Plc.segments f)

let test_coarsen_basic () =
  (* near-collinear interior points within eps collapse; well-separated
     geometry survives *)
  let f = Plc.create [| (0.0, 0.0); (1.0, 1.0); (2.0, 1.9); (3.0, 2.7); (4.0, 2.7) |] in
  let g = Plc.coarsen ~eps:0.2 f in
  Alcotest.(check bool) "fewer pieces" true (Plc.n_pieces g < Plc.n_pieces f);
  Helpers.check_float "cap preserved" (Plc.cap f) (Plc.cap g);
  Helpers.check_float "peak preserved" (Plc.peak f) (Plc.peak g);
  Alcotest.(check bool) "eps = 0 returns the same value" true (Plc.coarsen ~eps:0.0 f == f);
  Alcotest.check_raises "negative eps" (Invalid_argument "Plc.coarsen: eps must be >= 0")
    (fun () -> ignore (Plc.coarsen ~eps:(-1.0) f))

(* --- properties --- *)

let prop_eval_concave =
  QCheck2.Test.make ~name:"random PLC: midpoint concavity" ~count:500 Helpers.gen_plc
    (fun f ->
      let cap = Plc.cap f in
      let ok = ref true in
      for i = 0 to 20 do
        for j = i to 20 do
          let x = cap *. float_of_int i /. 20.0 in
          let y = cap *. float_of_int j /. 20.0 in
          let mid = 0.5 *. (x +. y) in
          let lhs = Plc.eval f mid in
          let rhs = 0.5 *. (Plc.eval f x +. Plc.eval f y) in
          if lhs < rhs -. 1e-7 then ok := false
        done
      done;
      !ok)

let prop_demand_inverse =
  QCheck2.Test.make ~name:"random PLC: demand is the right inverse of slope" ~count:500
    Helpers.gen_plc (fun f ->
      let ok = ref true in
      Array.iter
        (fun (s : Plc.segment) ->
          if s.slope > 0.0 then begin
            (* at price exactly the slope, demand reaches the segment end *)
            let d = Plc.demand f s.slope in
            if d < s.x1 -. 1e-9 then ok := false;
            (* at a price just above, demand stops at or before the start *)
            let d' = Plc.demand f (s.slope *. (1.0 +. 1e-9)) in
            if d' > s.x0 +. (1e-9 *. Plc.cap f) then ok := false
          end)
        (Plc.segments f);
      !ok)

let prop_slopes_strictly_decreasing =
  QCheck2.Test.make ~name:"random PLC: canonical slopes strictly decreasing" ~count:500
    Helpers.gen_plc (fun f ->
      let segs = Plc.segments f in
      let ok = ref true in
      for i = 1 to Array.length segs - 1 do
        if segs.(i).slope >= segs.(i - 1).slope then ok := false
      done;
      !ok)

let prop_eval_matches_segments =
  QCheck2.Test.make ~name:"random PLC: eval consistent with segment form" ~count:500
    Helpers.gen_plc (fun f ->
      Array.for_all
        (fun (s : Plc.segment) ->
          let mid = 0.5 *. (s.x0 +. s.x1) in
          Util.approx_equal ~eps:1e-9 (Plc.eval f mid) (s.y0 +. (s.slope *. (mid -. s.x0))))
        (Plc.segments f))

(* Reference implementations of the three queries as linear scans over
   the boxed segment list — the shape the flat kernel replaced. *)
let ref_eval f x =
  let segs = Plc.segments f in
  let n = Array.length segs in
  let x = Util.clamp ~lo:0.0 ~hi:(Plc.cap f) x in
  if x >= segs.(n - 1).x1 then Plc.peak f
  else begin
    let k = ref 0 in
    while x >= segs.(!k).x1 do
      incr k
    done;
    let s = segs.(!k) in
    s.y0 +. (s.slope *. (x -. s.x0))
  end

let ref_slope_right f x =
  let segs = Plc.segments f in
  if x >= Plc.cap f then 0.0
  else begin
    let x = Float.max 0.0 x in
    let k = ref 0 in
    while x >= segs.(!k).x1 do
      incr k
    done;
    segs.(!k).slope
  end

let ref_demand f lambda =
  if lambda <= 0.0 then Plc.cap f
  else
    Array.fold_left
      (fun acc (s : Plc.segment) -> if s.slope >= lambda then s.x1 else acc)
      0.0 (Plc.segments f)

let prop_flat_queries_match_reference =
  QCheck2.Test.make ~name:"flat eval/slope_right/demand match segment-scan reference"
    ~count:300 Helpers.gen_plc (fun f ->
      let cap = Plc.cap f in
      let ok = ref true in
      let check a b = if not (Util.feq ~eps:1e-12 a b) then ok := false in
      (* probe breakpoints, segment interiors, and off-grid points *)
      let xs = Plc.Flat.breakpoints f in
      Array.iter
        (fun x ->
          check (Plc.eval f x) (ref_eval f x);
          check (Plc.slope_right f x) (ref_slope_right f x))
        xs;
      for i = 0 to 40 do
        let x = cap *. float_of_int i /. 40.0 in
        check (Plc.eval f x) (ref_eval f x);
        check (Plc.slope_right f x) (ref_slope_right f x)
      done;
      let probe_prices =
        Array.concat
          [
            Array.map (fun (s : Plc.segment) -> s.slope) (Plc.segments f);
            Array.init 20 (fun i ->
                Plc.max_slope f *. (0.01 +. (float_of_int i /. 19.0)));
            [| 0.0; -1.0; Plc.max_slope f *. 2.0 |];
          ]
      in
      Array.iter (fun l -> check (Plc.demand f l) (ref_demand f l)) probe_prices;
      !ok)

let prop_coarsen_certified =
  QCheck2.Test.make
    ~name:"coarsen: 0 <= f - f' <= eps pointwise, canonical result"
    ~count:300
    QCheck2.Gen.(pair Helpers.gen_plc (float_range 0.0 0.5))
    (fun (f, eps_frac) ->
      let eps = eps_frac *. Float.max 1e-6 (Plc.peak f) in
      let g = Plc.coarsen ~eps f in
      let ok = ref true in
      if Plc.n_pieces g > Plc.n_pieces f then ok := false;
      (* same domain and exact endpoint values *)
      if Plc.cap g <> Plc.cap f then ok := false;
      if Plc.peak g <> Plc.peak f then ok := false;
      (* slopes stay strictly decreasing (canonical form) *)
      let gs = Plc.Flat.slopes g in
      for i = 1 to Array.length gs - 1 do
        if gs.(i) >= gs.(i - 1) then ok := false
      done;
      (* certified bound, checked at f's breakpoints (where the max
         deviation lives) and off-grid *)
      let dev x =
        let d = Plc.eval f x -. Plc.eval g x in
        if d < -1e-9 || d > eps +. 1e-9 then ok := false
      in
      Array.iter dev (Plc.Flat.breakpoints f);
      for i = 0 to 60 do
        dev (Plc.cap f *. float_of_int i /. 60.0)
      done;
      !ok)

(* ---- the flat constructor against the tuple-path reference ---- *)

module Ref = Aa_oracle.Tuple_curve

let outcome f = match f () with c -> Ok c | exception Invalid_argument m -> Error m

let of_plc p =
  Ref.
    {
      xs = Plc.Flat.breakpoints p;
      ys = Plc.Flat.prefix_utility p;
      slopes = Plc.Flat.slopes p;
    }

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

(* Same breakpoints, prefix utilities and slopes as Int64 bits, or the
   same [Invalid_argument] message. *)
let same_outcome (a : (Ref.curve, string) result) (b : (Ref.curve, string) result) =
  match (a, b) with
  | Ok a, Ok b -> same_bits a.xs b.xs && same_bits a.ys b.ys && same_bits a.slopes b.slopes
  | Error a, Error b -> String.equal a b
  | _ -> false

let show = function
  | Ok (c : Ref.curve) -> Printf.sprintf "Ok (%d points)" (Array.length c.xs)
  | Error m -> "Error " ^ m

let dists =
  [|
    Aa_workload.Gen.Uniform;
    Aa_workload.Gen.Normal { mu = 1.0; sigma = 1.0 };
    Aa_workload.Gen.Power_law { alpha = 2.0 };
    Aa_workload.Gen.Discrete { gamma = 0.85; theta = 5.0 };
  |]

(* A strictly concave chain from x = 0 with [k] pieces; the last slope
   may be 0. *)
let concave_points rng k =
  let x = ref 0.0 and y = ref (Rng.float rng 2.0) in
  let pts = ref [ (0.0, !y) ] in
  let slope = ref (Rng.uniform rng ~lo:1.0 ~hi:10.0) in
  for j = 1 to k do
    let dx = Rng.uniform rng ~lo:0.01 ~hi:3.0 in
    x := !x +. dx;
    y := !y +. (!slope *. dx);
    pts := (!x, !y) :: !pts;
    slope := if j = k - 1 && Rng.bool rng then 0.0 else !slope *. Rng.uniform rng ~lo:0.1 ~hi:0.95
  done;
  Array.of_list (List.rev !pts)

(* Point sets that exercise every branch of the constructor: each
   variant names the input shape; variants 6 onward must raise. *)
let variants =
  [|
    "concave"; "unsorted"; "duplicate x"; "x0 near 0"; "collinear runs"; "concavity noise";
    "nan"; "+inf"; "-inf"; "negative y"; "x0 <> 0"; "decreasing"; "convex"; "two faults";
  |]

(* the seven single faults, variants 6 to 12 *)
let n_faults = 7

let rec points_case ?pts rng v =
  let pts = match pts with Some p -> p | None -> concave_points rng (1 + Rng.int rng 40) in
  let n = Array.length pts in
  let shuffled a =
    Rng.shuffle rng a;
    a
  in
  let pick () = Rng.int rng n in
  let set_x i x = pts.(i) <- (x, snd pts.(i)) and set_y i y = pts.(i) <- (fst pts.(i), y) in
  match variants.(v) with
  | "concave" -> pts
  | "unsorted" -> shuffled pts
  | "duplicate x" ->
      let dups =
        Array.init (1 + Rng.int rng 4) (fun _ ->
            let x, y = pts.(pick ()) in
            (x, if Rng.bool rng then y else y *. Rng.float rng 1.0))
      in
      shuffled (Array.append pts dups)
  | "x0 near 0" ->
      set_x 0 (Rng.uniform rng ~lo:(-9e-10) ~hi:9e-10);
      if Rng.bool rng then shuffled pts else pts
  | "collinear runs" ->
      (* points exactly on the chords of random segments, in any order *)
      let extra =
        Array.init (1 + Rng.int rng 6) (fun _ ->
            let i = Rng.int rng (max 1 (n - 1)) in
            let (x0, y0), (x1, y1) = (pts.(i), pts.(min (n - 1) (i + 1))) in
            let t = Rng.float rng 1.0 in
            (x0 +. (t *. (x1 -. x0)), y0 +. (t *. (y1 -. y0))))
      in
      let all = Array.append pts extra in
      Array.sort (fun (a, _) (b, _) -> Float.compare a b) all;
      if Rng.bool rng then shuffled all else all
  | "concavity noise" ->
      (* bumps far below the 1e-9 relative tolerance: validation passes,
         the exact test does not, so the second envelope pass runs *)
      Array.map (fun (x, y) -> (x, y *. (1.0 +. Rng.uniform rng ~lo:0.0 ~hi:1e-13))) pts
  | "nan" ->
      if Rng.bool rng then set_x (pick ()) Float.nan else set_y (pick ()) Float.nan;
      pts
  | "+inf" ->
      if Rng.bool rng then set_x (pick ()) Float.infinity else set_y (pick ()) Float.infinity;
      pts
  | "-inf" ->
      if Rng.bool rng then set_x (pick ()) Float.neg_infinity
      else set_y (pick ()) Float.neg_infinity;
      pts
  | "negative y" ->
      set_y 0 (-.Rng.uniform rng ~lo:1e-6 ~hi:1.0);
      pts
  | "x0 <> 0" -> Array.map (fun (x, y) -> (x +. Rng.uniform rng ~lo:1e-6 ~hi:1.0, y)) pts
  | "decreasing" -> Array.mapi (fun i (x, _) -> (x, snd pts.(n - 1 - i))) pts
  | "convex" -> Array.mapi (fun i (x, y) -> (x, if i = 0 then y else y +. (x *. x))) pts
  | _ (* two faults: the checks' order decides the message *) ->
      let fault () = 6 + Rng.int rng n_faults in
      let v1 = fault () and v2 = fault () in
      points_case ~pts:(points_case ~pts rng v1) rng v2

let prop_points_match_reference =
  QCheck2.Test.make ~name:"flat constructor = tuple-path reference, bit for bit" ~count:3000
    QCheck2.Gen.(pair (int_range 0 (Array.length variants - 1)) (int_range 0 1_000_000))
    ~print:(fun (v, seed) -> Printf.sprintf "%s seed %d" variants.(v) seed)
    (fun (v, seed) ->
      let pts = points_case (Rng.create ~seed ()) v in
      let flat = outcome (fun () -> of_plc (Plc.create pts)) in
      let reference = outcome (fun () -> Ref.create (Array.copy pts)) in
      if not (same_outcome flat reference) then
        QCheck2.Test.fail_reportf "flat %s, reference %s" (show flat) (show reference);
      (* the envelope on its own, on finite input *)
      if Array.for_all (fun (x, y) -> Float.is_finite x && Float.is_finite y) pts then begin
        let exs, eys = Convex.upper_envelope (Array.map fst pts) (Array.map snd pts) in
        let env = Ref.upper_envelope pts in
        if not (same_bits exs (Array.map fst env) && same_bits eys (Array.map snd env)) then
          QCheck2.Test.fail_report "upper envelope differs from the reference"
      end;
      true)

let prop_sampled_match_reference =
  QCheck2.Test.make ~name:"sampled and to_plc curves = tuple-path reference, bit for bit"
    ~count:800
    QCheck2.Gen.(triple (int_range 0 7) (int_range 0 1_000_000) (oneofl [ 128; 128; 64; 17; 3; 2 ]))
    ~print:(fun (k, seed, res) -> Printf.sprintf "case %d seed %d resolution %d" k seed res)
    (fun (k, seed, resolution) ->
      let rng = Rng.create ~seed () in
      let cap = Rng.uniform rng ~lo:0.5 ~hi:2000.0 in
      let flat, reference =
        if k < 4 then begin
          (* the paper's generator: three anchors, PCHIP, 128 samples *)
          let v, w = Aa_workload.Gen.draw_pair rng dists.(k) in
          let anchors = [| (0.0, 0.0); (cap /. 2.0, v); (cap, v +. w) |] in
          ( outcome (fun () ->
                of_plc (Utility.to_plc (Sampled.of_points ~resolution anchors))),
            outcome (fun () -> Ref.sampled ~resolution anchors) )
        end
        else begin
          let a = Rng.uniform rng ~lo:0.1 ~hi:10.0 and b = Rng.uniform rng ~lo:0.01 ~hi:0.99 in
          let u =
            match k with
            | 4 -> Utility.Shapes.power ~cap ~coeff:a ~beta:b
            | 5 -> Utility.Shapes.log_utility ~cap ~coeff:a ~rate:b
            | 6 -> Utility.Shapes.saturating ~cap ~limit:a ~halfway:b
            | _ -> Utility.Shapes.exp_saturating ~cap ~limit:a ~rate:b
          in
          match u with
          | Utility.Smooth s ->
              (outcome (fun () -> of_plc (Utility.to_plc u)), outcome (fun () -> Ref.smooth_to_plc s))
          | Utility.Plc _ -> QCheck2.assume_fail ()
        end
      in
      if not (same_outcome flat reference) then
        QCheck2.Test.fail_reportf "flat %s, reference %s" (show flat) (show reference);
      true)

let test_second_envelope_pass () =
  (* (1, 1 + 1e-12) sits above the chord of its neighbours by far less
     than the 1e-9 tolerance: accepted, then repaired by the envelope *)
  let pts = [| (0.0, 0.0); (1.0, 1.0); (2.0, 2.0 +. 2e-12); (3.0, 2.5) |] in
  let xs = Array.map fst pts and ys = Array.map snd pts in
  Alcotest.(check bool) "inside tolerance" true (Convex.is_concave ~eps:1e-9 xs ys);
  Alcotest.(check bool) "not exactly concave" false (Convex.is_concave ~eps:0.0 xs ys);
  let flat = outcome (fun () -> of_plc (Plc.of_arrays ~xs ~ys)) in
  Alcotest.(check bool) "same bits as reference" true
    (same_outcome flat (outcome (fun () -> Ref.create pts)));
  Alcotest.(check (array (float 0.0))) "caller's arrays untouched" [| 0.0; 1.0; 2.0; 3.0 |] xs

let test_of_arrays_length_mismatch () =
  Alcotest.check_raises "lengths" (Invalid_argument "Plc.of_arrays: xs/ys length mismatch")
    (fun () -> ignore (Plc.of_arrays ~xs:[| 0.0; 1.0 |] ~ys:[| 0.0 |]))

(* print -> parse gives back the same curve, bit for bit *)
let prop_spec_roundtrip =
  QCheck2.Test.make ~name:"parse_thread_spec (print_thread_spec u) = u, bit for bit" ~count:300
    QCheck2.Gen.(pair (int_range 0 4) (int_range 0 1_000_000))
    (fun (k, seed) ->
      let rng = Rng.create ~seed () in
      let cap = Rng.uniform rng ~lo:0.5 ~hi:2000.0 in
      let u =
        if k < 4 then Aa_workload.Gen.utility rng ~cap dists.(k)
        else Utility.Shapes.power ~cap ~coeff:(Rng.uniform rng ~lo:0.1 ~hi:10.0) ~beta:0.5
      in
      match Aa_io.Format_text.parse_thread_spec ~cap (Aa_io.Format_text.print_thread_spec u) with
      | Error e -> QCheck2.Test.fail_report e
      | Ok v ->
          let a = of_plc (Utility.to_plc u) and b = of_plc (Utility.to_plc v) in
          same_outcome (Ok a) (Ok b))

let () =
  Alcotest.run "utility-plc"
    [
      ( "plc",
        [
          Alcotest.test_case "eval" `Quick test_eval;
          Alcotest.test_case "cap/peak/max_slope" `Quick test_cap_peak_max_slope;
          Alcotest.test_case "slope_right" `Quick test_slope_right;
          Alcotest.test_case "demand" `Quick test_demand;
          Alcotest.test_case "demand monotone" `Quick test_demand_monotone_in_price;
          Alcotest.test_case "constant" `Quick test_constant;
          Alcotest.test_case "capped_linear" `Quick test_capped_linear;
          Alcotest.test_case "validation" `Quick test_create_validation;
          Alcotest.test_case "merges collinear" `Quick test_create_merges_collinear;
          Alcotest.test_case "unsorted/dedup" `Quick test_create_unsorted_dedup;
          Alcotest.test_case "segments" `Quick test_segments;
          Alcotest.test_case "restrict" `Quick test_restrict;
          Alcotest.test_case "scale" `Quick test_scale;
          Alcotest.test_case "equal" `Quick test_equal;
          Alcotest.test_case "flat accessors" `Quick test_flat_accessors;
          Alcotest.test_case "coarsen" `Quick test_coarsen_basic;
          Alcotest.test_case "second envelope pass" `Quick test_second_envelope_pass;
          Alcotest.test_case "of_arrays length mismatch" `Quick test_of_arrays_length_mismatch;
        ] );
      Helpers.qsuite "properties"
        [
          prop_eval_concave;
          prop_demand_inverse;
          prop_slopes_strictly_decreasing;
          prop_eval_matches_segments;
          prop_flat_queries_match_reference;
          prop_coarsen_certified;
        ];
      Helpers.qsuite "reference"
        [ prop_points_match_reference; prop_sampled_match_reference; prop_spec_roundtrip ];
    ]
