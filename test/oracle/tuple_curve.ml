(* The tuple-and-list curve pipeline that [Convex.upper_envelope] and
   [Plc.of_arrays] replaced with one constructor over two float arrays:
   sort (x, y) tuples with polymorphic [compare], dedup through a list,
   a monotone chain over tuples, validate, canonicalize through a list.
   The flat constructor must reproduce its breakpoints, prefix
   utilities and slopes bit for bit, and raise the same messages. *)

open Aa_numerics
open Aa_utility

(* ---- envelope ---- *)

let dedup_sorted pts =
  (* keep the max y among points with equal x; pts sorted by x *)
  let out = ref [] in
  Array.iter
    (fun (x, y) ->
      match !out with
      | (x', y') :: rest when x' = x -> out := (x, Float.max y y') :: rest
      | _ -> out := (x, y) :: !out)
    pts;
  Array.of_list (List.rev !out)

let sort_by_x pts =
  let a = Array.copy pts in
  Array.sort (fun (x1, _) (x2, _) -> compare x1 x2) a;
  a

let cross (ax, ay) (bx, by) (cx, cy) =
  ((bx -. ax) *. (cy -. ay)) -. ((by -. ay) *. (cx -. ax))

let upper_envelope pts =
  if Array.length pts = 0 then invalid_arg "Convex.upper_envelope: no points";
  let pts = dedup_sorted (sort_by_x pts) in
  let n = Array.length pts in
  if n <= 2 then pts
  else begin
    let stack = Array.make n pts.(0) in
    let top = ref 0 in
    for i = 1 to n - 1 do
      while !top >= 1 && cross stack.(!top - 1) stack.(!top) pts.(i) >= 0.0 do
        decr top
      done;
      incr top;
      stack.(!top) <- pts.(i)
    done;
    Array.sub stack 0 (!top + 1)
  end

let slopes pts =
  let n = Array.length pts in
  Array.init (max 0 (n - 1)) (fun i ->
      let x0, y0 = pts.(i) and x1, y1 = pts.(i + 1) in
      (y1 -. y0) /. (x1 -. x0))

let is_concave ?(eps = 1e-9) pts =
  let s = slopes pts in
  let ok = ref true in
  for i = 1 to Array.length s - 1 do
    let tol = eps *. Float.max 1.0 (Float.max (Float.abs s.(i - 1)) (Float.abs s.(i))) in
    if s.(i) > s.(i - 1) +. tol then ok := false
  done;
  !ok

let is_nondecreasing ?(eps = 1e-9) pts =
  let ok = ref true in
  for i = 1 to Array.length pts - 1 do
    let _, y0 = pts.(i - 1) and _, y1 = pts.(i) in
    if y1 < y0 -. eps then ok := false
  done;
  !ok

(* ---- constructor ---- *)

let seg_slope (x0, y0) (x1, y1) = (y1 -. y0) /. (x1 -. x0)

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
  if not (is_nondecreasing ~eps:1e-9 pts) then
    invalid_arg "Plc.create: utility must be nondecreasing";
  if not (is_concave ~eps:1e-9 pts) then invalid_arg "Plc.create: utility must be concave"

let sort_dedup pts =
  let a = Array.copy pts in
  Array.sort (fun (x1, _) (x2, _) -> compare x1 x2) a;
  let out = ref [] in
  Array.iter
    (fun (x, y) ->
      match !out with
      | (x', y') :: rest when Float.equal x' x -> out := (x, Float.max y y') :: rest
      | _ -> out := (x, y) :: !out)
    a;
  Array.of_list (List.rev !out)

type curve = { xs : float array; ys : float array; slopes : float array }

let create points =
  let pts = sort_dedup points in
  if Array.length pts > 0 then begin
    let x0, y0 = pts.(0) in
    if Util.feq x0 0.0 then pts.(0) <- (0.0, y0)
  end;
  validate pts;
  let pts = if is_concave ~eps:0.0 pts then pts else upper_envelope pts in
  let pts = canonicalize pts in
  if Array.length pts < 2 then
    invalid_arg "Plc.create: need at least two distinct points (or use constant)";
  let xs = Array.map fst pts and ys = Array.map snd pts in
  let k = Array.length xs - 1 in
  { xs; ys; slopes = Array.init k (fun i -> seg_slope (xs.(i), ys.(i)) (xs.(i + 1), ys.(i + 1))) }

(* ---- producers, as they built curves through the tuple path ---- *)

(* [Sampled.of_points]: PCHIP through the anchors, [resolution]
   samples clipped at 0, envelope, constructor. *)
let sampled ?(resolution = 128) anchors =
  let p = Pchip.create ~xs:(Array.map fst anchors) ~ys:(Array.map snd anchors) in
  let xs, ys = Pchip.sample p resolution in
  create (upper_envelope (Array.map2 (fun x y -> (x, Float.max 0.0 y)) xs ys))

(* [Utility.to_plc] of a smooth shape: its 1 + 2 [samples]-point grid,
   envelope, constructor. *)
let smooth_to_plc ?(samples = 64) (s : Utility.smooth) =
  let uniform = Util.linspace 0.0 s.cap samples in
  let geometric = Array.init samples (fun i -> s.cap *. (0.5 ** float_of_int (samples - 1 - i))) in
  let xs = Array.append (Array.append [| 0.0 |] uniform) geometric in
  create (upper_envelope (Array.map (fun x -> (x, Float.max 0.0 (s.eval x))) xs))
