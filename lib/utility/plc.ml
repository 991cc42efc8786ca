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

let seg_slope x0 y0 x1 y1 = (y1 -. y0) /. (x1 -. x0)

(* The only way to build a [t]: derives the slope array from the
   breakpoints so the three arrays can never drift apart. *)
let of_xs_ys xs ys =
  let slopes = Array.make (Array.length xs - 1) 0.0 in
  for i = 0 to Array.length slopes - 1 do
    slopes.(i) <- seg_slope xs.(i) ys.(i) xs.(i + 1) ys.(i + 1)
  done;
  { xs; ys; slopes }

(* Merge consecutive collinear segments so slopes end up strictly
   decreasing; assumes points already concave, sorted, deduped. Works in
   place with the front of the arrays as a stack and returns the number
   of points kept. *)
let canonicalize xs ys =
  let top = ref 0 in
  for i = 1 to Array.length xs - 1 do
    let px = xs.(i) and py = ys.(i) in
    while
      !top >= 1
      && Util.feq ~eps:1e-12
           (seg_slope xs.(!top - 1) ys.(!top - 1) xs.(!top) ys.(!top))
           (seg_slope xs.(!top) ys.(!top) px py)
    do
      decr top
    done;
    incr top;
    xs.(!top) <- px;
    ys.(!top) <- py
  done;
  !top + 1

let validate xs ys =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Plc.create: no points";
  for i = 0 to n - 1 do
    if not (Float.is_finite xs.(i) && Float.is_finite ys.(i)) then
      invalid_arg "Plc.create: non-finite coordinate"
  done;
  if Util.fne xs.(0) 0.0 then invalid_arg "Plc.create: domain must start at x = 0";
  for i = 0 to n - 1 do
    if ys.(i) < 0.0 then invalid_arg "Plc.create: negative utility value"
  done;
  if not (Convex.is_nondecreasing ~eps:1e-9 ys) then
    invalid_arg "Plc.create: utility must be nondecreasing";
  if not (Convex.is_concave ~eps:1e-9 xs ys) then
    invalid_arg "Plc.create: utility must be concave"

let of_arrays ~xs ~ys =
  if Array.length ys <> Array.length xs then invalid_arg "Plc.of_arrays: xs/ys length mismatch";
  (* fresh arrays, sorted by x with duplicates merged: every step below
     may work in place without touching the caller's arrays *)
  let xs, ys = Convex.sort_unique xs ys in
  (* Snap a float-noise start (|x0| within tolerance of 0) to the exact
     domain anchor so downstream code can rely on [xs.(0) = 0.]. *)
  if Array.length xs > 0 && Util.feq xs.(0) 0.0 then xs.(0) <- 0.0;
  validate xs ys;
  (* Repair sub-tolerance concavity noise exactly once. *)
  let xs, ys = if Convex.is_concave ~eps:0.0 xs ys then (xs, ys) else Convex.upper_envelope xs ys in
  let k = canonicalize xs ys in
  if k < 2 then invalid_arg "Plc.create: need at least two distinct points (or use constant)";
  of_xs_ys (Array.sub xs 0 k) (Array.sub ys 0 k)

let create points = of_arrays ~xs:(Array.map fst points) ~ys:(Array.map snd points)

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
      let sl = seg_slope t.xs.(a) t.ys.(a) t.xs.(b) t.ys.(b) in
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
  (* the breakpoints left of c, then c itself *)
  let k = ref 0 in
  while t.xs.(!k) < c do
    incr k
  done;
  let xs = Array.append (Array.sub t.xs 0 !k) [| c |] in
  let ys = Array.append (Array.sub t.ys 0 !k) [| eval t c |] in
  of_arrays ~xs ~ys

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
