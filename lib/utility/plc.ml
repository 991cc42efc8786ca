open Aa_numerics

(* Struct-of-arrays ("flat") representation: three parallel float arrays
   instead of boxed segment records. [ys.(k)] is the prefix utility
   accumulated at breakpoint [xs.(k)], and [slopes.(k)] the slope of the
   segment [xs.(k), xs.(k+1)] — precomputed once at construction with
   the exact same [seg_slope] expression the queries used to recompute,
   so every query answer is bit-identical to the former on-the-fly form.
   Slopes are nonincreasing (strictly decreasing in canonical form), so
   value, slope and inverse-slope queries are all O(log k) binary
   searches over flat arrays. *)
type t = {
  xs : float array; (* breakpoints: strictly increasing, xs.(0) = 0 *)
  ys : float array; (* prefix utility: nonnegative, nondecreasing, concave *)
  slopes : float array; (* per-segment slopes; length = length xs - 1 *)
}

type segment = { x0 : float; x1 : float; y0 : float; slope : float }

let seg_slope (x0, y0) (x1, y1) = (y1 -. y0) /. (x1 -. x0)

(* The only way to build a [t]: derives the slope array from the
   breakpoints so the three arrays can never drift apart. *)
let of_xs_ys xs ys =
  let k = Array.length xs - 1 in
  let slopes =
    Array.init k (fun i -> seg_slope (xs.(i), ys.(i)) (xs.(i + 1), ys.(i + 1)))
  in
  { xs; ys; slopes }

(* Merge consecutive collinear segments so slopes end up strictly
   decreasing; assumes points already concave, sorted, deduped. *)
let canonicalize pts =
  let n = Array.length pts in
  if n <= 2 then pts
  else begin
    let out = ref [ pts.(0) ] in
    for i = 1 to n - 1 do
      let p = pts.(i) in
      let rec drop_collinear () =
        match !out with
        | b :: a :: rest when Util.feq ~eps:1e-12 (seg_slope a b) (seg_slope b p) ->
            out := a :: rest;
            drop_collinear ()
        | _ -> ()
      in
      drop_collinear ();
      out := p :: !out
    done;
    Array.of_list (List.rev !out)
  end

let validate pts =
  let n = Array.length pts in
  if n = 0 then invalid_arg "Plc.create: no points";
  Array.iter
    (fun (x, y) ->
      if not (Float.is_finite x && Float.is_finite y) then
        invalid_arg "Plc.create: non-finite coordinate")
    pts;
  let x0, _ = pts.(0) in
  if Util.fne x0 0.0 then invalid_arg "Plc.create: domain must start at x = 0";
  Array.iter
    (fun (_, y) -> if y < 0.0 then invalid_arg "Plc.create: negative utility value")
    pts;
  if not (Convex.is_nondecreasing ~eps:1e-9 pts) then
    invalid_arg "Plc.create: utility must be nondecreasing";
  if not (Convex.is_concave ~eps:1e-9 pts) then
    invalid_arg "Plc.create: utility must be concave"

let sort_dedup pts =
  let a = Array.copy pts in
  Array.sort (fun (x1, _) (x2, _) -> compare x1 x2) a;
  let out = ref [] in
  Array.iter
    (fun (x, y) ->
      match !out with
      (* exact dedup on the x coordinate, via the monomorphic float
         compare: a tolerant merge here would silently move breakpoints
         supplied by the caller (and would swallow infinities before
         [validate] can reject them) *)
      | (x', y') :: rest when Float.equal x' x -> out := (x, Float.max y y') :: rest
      | _ -> out := (x, y) :: !out)
    a;
  Array.of_list (List.rev !out)

let create points =
  let pts = sort_dedup points in
  (* Snap a float-noise start (|x0| within tolerance of 0) to the exact
     domain anchor so downstream code can rely on [xs.(0) = 0.]. *)
  if Array.length pts > 0 then begin
    let x0, y0 = pts.(0) in
    if Util.feq x0 0.0 then pts.(0) <- (0.0, y0)
  end;
  validate pts;
  (* Repair sub-tolerance concavity noise exactly once. *)
  let pts = if Convex.is_concave ~eps:0.0 pts then pts else Convex.upper_envelope pts in
  let pts = canonicalize pts in
  if Array.length pts < 2 then
    invalid_arg "Plc.create: need at least two distinct points (or use constant)";
  of_xs_ys (Array.map fst pts) (Array.map snd pts)

let constant ~cap v =
  if v < 0.0 then invalid_arg "Plc.constant: negative value";
  if not (cap > 0.0) then invalid_arg "Plc.constant: cap must be positive";
  of_xs_ys [| 0.0; cap |] [| v; v |]

let capped_linear ~cap ~slope ~knee =
  if not (0.0 <= knee && knee <= cap) then invalid_arg "Plc.capped_linear: knee outside [0, cap]";
  if slope < 0.0 then invalid_arg "Plc.capped_linear: negative slope";
  if Util.feq knee 0.0 || Util.feq slope 0.0 then constant ~cap 0.0
  else if knee = cap then of_xs_ys [| 0.0; cap |] [| 0.0; slope *. cap |]
  else of_xs_ys [| 0.0; knee; cap |] [| 0.0; slope *. knee; slope *. knee |]

let cap t = t.xs.(Array.length t.xs - 1)

let last t = Array.length t.xs - 1

let n_pieces t = Array.length t.slopes

(* First segment index with slope <= 0, i.e. the count of
   positive-slope pieces. Slopes are nonincreasing, so this is a binary
   search, not a scan. *)
let positive_pieces t =
  let k = Array.length t.slopes in
  if k = 0 || t.slopes.(0) <= 0.0 then 0
  else if t.slopes.(k - 1) > 0.0 then k
  else begin
    (* invariant: slopes.(lo) > 0 >= slopes.(hi) *)
    let lo = ref 0 and hi = ref (k - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if t.slopes.(mid) > 0.0 then lo := mid else hi := mid
    done;
    !hi
  end

(* Largest k with xs.(k) <= x, for x within range. *)
let interval t x =
  let lo = ref 0 and hi = ref (last t) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if t.xs.(mid) <= x then lo := mid else hi := mid
  done;
  !lo

let eval t x =
  let x = Util.clamp ~lo:0.0 ~hi:(cap t) x in
  if x = cap t then t.ys.(last t)
  else begin
    let k = interval t x in
    t.ys.(k) +. (t.slopes.(k) *. (x -. t.xs.(k)))
  end

let peak t = t.ys.(last t)
let max_slope t = t.slopes.(0)

let slope_right t x =
  if x >= cap t then 0.0
  else begin
    let x = Float.max 0.0 x in
    (* [interval] returns the segment to the right of a breakpoint hit *)
    t.slopes.(interval t x)
  end

let demand t lambda =
  if lambda <= 0.0 then cap t
  else begin
    (* slopes are nonincreasing in the segment index: binary-search the
       first segment priced below lambda directly on the flat array. *)
    let k = last t in
    if t.slopes.(0) < lambda then 0.0
    else if t.slopes.(k - 1) >= lambda then t.xs.(k)
    else begin
      (* invariant: slopes.(lo) >= lambda > slopes.(hi) *)
      let lo = ref 0 and hi = ref (k - 1) in
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if t.slopes.(mid) >= lambda then lo := mid else hi := mid
      done;
      t.xs.(!hi)
    end
  end

let segments t =
  Array.init (last t) (fun k ->
      { x0 = t.xs.(k); x1 = t.xs.(k + 1); y0 = t.ys.(k); slope = t.slopes.(k) })

let points t = Array.init (Array.length t.xs) (fun i -> (t.xs.(i), t.ys.(i)))

module Flat = struct
  let breakpoints t = t.xs
  let prefix_utility t = t.ys
  let slopes t = t.slopes
end

(* Certified envelope coarsening: greedily extend a chord from the last
   kept breakpoint as far as every skipped interior breakpoint stays
   within [eps] of it. The chord of a concave function lies below it,
   and the maximum of (concave - linear) over an interval is attained
   at a breakpoint, so checking interior breakpoints certifies the
   whole interval: 0 <= f(x) - f~(x) <= eps for all x. Chord slopes of
   a concave chain are again strictly decreasing, so the result is a
   canonical Plc without re-validation. *)
let coarsen ~eps t =
  if not (eps >= 0.0) then invalid_arg "Plc.coarsen: eps must be >= 0";
  let n = Array.length t.xs in
  if eps <= 0.0 || n <= 2 then t
  else begin
    let kept = ref [ 0 ] in
    let n_kept = ref 1 in
    let a = ref 0 in
    (* Every interior i in (a, b) stays within eps of the chord a->b. *)
    let chord_ok a b =
      let sl = seg_slope (t.xs.(a), t.ys.(a)) (t.xs.(b), t.ys.(b)) in
      let ok = ref true in
      let i = ref (a + 1) in
      while !ok && !i < b do
        let dev = t.ys.(!i) -. (t.ys.(a) +. (sl *. (t.xs.(!i) -. t.xs.(a)))) in
        if dev > eps then ok := false;
        incr i
      done;
      !ok
    in
    while !a < n - 1 do
      let b = ref (!a + 1) in
      while !b < n - 1 && chord_ok !a (!b + 1) do
        incr b
      done;
      kept := !b :: !kept;
      incr n_kept;
      a := !b
    done;
    if !n_kept = n then t
    else begin
      let idx = Array.of_list (List.rev !kept) in
      of_xs_ys (Array.map (fun i -> t.xs.(i)) idx) (Array.map (fun i -> t.ys.(i)) idx)
    end
  end

let restrict t ~cap:c =
  if not (0.0 < c && c <= cap t) then invalid_arg "Plc.restrict: cap outside (0, cap]";
  let pts =
    Array.to_list (points t)
    |> List.filter (fun (x, _) -> x < c)
    |> fun kept -> kept @ [ (c, eval t c) ]
  in
  create (Array.of_list pts)

let scale t ~y =
  if y < 0.0 then invalid_arg "Plc.scale: negative factor";
  of_xs_ys (Array.copy t.xs) (Array.map (fun v -> v *. y) t.ys)

let equal ?(eps = 1e-9) a b =
  cap a = cap b
  && begin
       let xs = Array.append a.xs b.xs in
       Array.for_all (fun x -> Util.approx_equal ~eps (eval a x) (eval b x)) xs
     end

let pp ppf t =
  Format.fprintf ppf "@[<h>plc[";
  Array.iteri
    (fun i x ->
      if i > 0 then Format.fprintf ppf "; ";
      Format.fprintf ppf "(%g, %g)" x t.ys.(i))
    t.xs;
  Format.fprintf ppf "]@]"
