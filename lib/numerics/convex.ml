let strictly_increasing (xs : float array) =
  let n = Array.length xs in
  let rec go i = i >= n || (xs.(i - 1) < xs.(i) && go (i + 1)) in
  go 1

let sort_unique xs ys =
  let n = Array.length xs in
  if Array.length ys <> n then invalid_arg "Convex.sort_unique: xs/ys length mismatch";
  if strictly_increasing xs then (Array.copy xs, Array.copy ys)
  else begin
    (* Sort an index permutation by the float key (no tuple boxing), then
       keep the max y among points with exactly equal x. NaN keys compare
       equal to each other and sort first, as with polymorphic [compare].
       A tolerant merge here would silently move breakpoints a caller
       supplied (and would swallow infinities before [Plc] can reject
       them). *)
    let perm = Array.init n Fun.id in
    Array.sort (fun i j -> Float.compare xs.(i) xs.(j)) perm;
    let ox = Array.make n 0.0 and oy = Array.make n 0.0 in
    let k = ref (-1) in
    Array.iter
      (fun i ->
        let x = xs.(i) and y = ys.(i) in
        if !k >= 0 && Float.equal ox.(!k) x then begin
          (* keep the later x: equal keys differ only as -0/+0 *)
          ox.(!k) <- x;
          oy.(!k) <- Float.max y oy.(!k)
        end
        else begin
          incr k;
          ox.(!k) <- x;
          oy.(!k) <- y
        end)
      perm;
    let k = !k + 1 in
    (Array.sub ox 0 k, Array.sub oy 0 k)
  end

(* cross product of (b - a) x (c - a); > 0 means c is above line ab,
   i.e. keeping b would make the chain convex from below. *)
let cross ax ay bx by cx cy = ((bx -. ax) *. (cy -. ay)) -. ((by -. ay) *. (cx -. ax))

let upper_envelope xs ys =
  if Array.length xs = 0 then invalid_arg "Convex.upper_envelope: no points";
  let xs, ys = sort_unique xs ys in
  let n = Array.length xs in
  (* Andrew's monotone chain, keeping the hull that lies above the data:
     pop the middle point whenever it is at or below the chord. The
     stack lives in the front of the (fresh) sorted arrays: its top
     never passes the point being read. *)
  let top = ref 0 in
  for i = 1 to n - 1 do
    let cx = xs.(i) and cy = ys.(i) in
    while
      !top >= 1 && cross xs.(!top - 1) ys.(!top - 1) xs.(!top) ys.(!top) cx cy >= 0.0
    do
      decr top
    done;
    incr top;
    xs.(!top) <- cx;
    ys.(!top) <- cy
  done;
  (Array.sub xs 0 (!top + 1), Array.sub ys 0 (!top + 1))

let is_concave ?(eps = 1e-9) (xs : float array) ys =
  (* slopes of consecutive segments, (y1 - y0) / (x1 - x0), each
     compared with the previous one under a tolerance relative to
     max 1 (max |prev| |s|). Written out inline so no float is boxed;
     when a slope is NaN the comparison is false whatever the
     tolerance, so the plain max needs no NaN case. *)
  let ok = ref true and i = ref 0 and prev = ref 0.0 in
  while !ok && !i < Array.length xs - 1 do
    let k = !i in
    (* callers pass points with distinct xs (envelope output, sorted samples) *)
    let s = (ys.(k + 1) -. ys.(k)) /. (xs.(k + 1) -. xs.(k)) in
    if k >= 1 then begin
      let a = Float.abs !prev and b = Float.abs s in
      let m = if b > a then b else a in
      let tol = eps *. if m > 1.0 then m else 1.0 in
      if s > !prev +. tol then ok := false
    end;
    prev := s;
    incr i
  done;
  !ok

let is_nondecreasing ?(eps = 1e-9) ys =
  let ok = ref true and i = ref 1 in
  while !ok && !i < Array.length ys do
    if ys.(!i) < ys.(!i - 1) -. eps then ok := false;
    incr i
  done;
  !ok
