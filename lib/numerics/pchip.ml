type t = {
  xs : float array;
  ys : float array;
  ds : float array; (* derivative at each breakpoint *)
}

let sign x = if x > 0.0 then 1 else if x < 0.0 then -1 else 0

(* Fritsch–Carlson derivative selection. Interior derivatives are the
   weighted harmonic mean of adjacent secant slopes (0 at local extrema);
   endpoint derivatives use the non-centered three-point formula with the
   usual monotonicity clamps, as in Matlab's pchip. *)
let derivatives xs ys =
  let n = Array.length xs in
  let h = Array.init (n - 1) (fun k -> xs.(k + 1) -. xs.(k)) in
  let delta = Array.init (n - 1) (fun k -> (ys.(k + 1) -. ys.(k)) /. h.(k)) in
  let d = Array.make n 0.0 in
  if n = 2 then begin
    d.(0) <- delta.(0);
    d.(1) <- delta.(0)
  end
  else begin
    for k = 1 to n - 2 do
      if sign delta.(k - 1) * sign delta.(k) <= 0 then d.(k) <- 0.0
      else begin
        let w1 = (2.0 *. h.(k)) +. h.(k - 1) in
        let w2 = h.(k) +. (2.0 *. h.(k - 1)) in
        d.(k) <- (w1 +. w2) /. ((w1 /. delta.(k - 1)) +. (w2 /. delta.(k)))
      end
    done;
    let endpoint h0 h1 d0 d1 =
      let g = (((2.0 *. h0) +. h1) *. d0 -. (h0 *. d1)) /. (h0 +. h1) in
      if sign g <> sign d0 then 0.0
      else if sign d0 <> sign d1 && Float.abs g > 3.0 *. Float.abs d0 then 3.0 *. d0
      else g
    in
    d.(0) <- endpoint h.(0) h.(1) delta.(0) delta.(1);
    d.(n - 1) <- endpoint h.(n - 2) h.(n - 3) delta.(n - 2) delta.(n - 3)
  end;
  d

let create ~xs ~ys =
  let n = Array.length xs in
  if n < 2 then invalid_arg "Pchip.create: need at least two points";
  if Array.length ys <> n then invalid_arg "Pchip.create: xs/ys length mismatch";
  if not (Util.is_sorted_strict xs) then
    invalid_arg "Pchip.create: xs must be strictly increasing";
  { xs = Array.copy xs; ys = Array.copy ys; ds = derivatives xs ys }

(* Index of the interval [xs.(k), xs.(k+1)] containing x (x within range). *)
let interval t x =
  let n = Array.length t.xs in
  let lo = ref 0 and hi = ref (n - 1) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if t.xs.(mid) <= x then lo := mid else hi := mid
  done;
  !lo

let eval t x =
  let n = Array.length t.xs in
  if x <= t.xs.(0) then t.ys.(0)
  else if x >= t.xs.(n - 1) then t.ys.(n - 1)
  else begin
    let k = interval t x in
    let h = t.xs.(k + 1) -. t.xs.(k) in
    let s = (x -. t.xs.(k)) /. h in
    let s2 = s *. s in
    let s3 = s2 *. s in
    let h00 = (2.0 *. s3) -. (3.0 *. s2) +. 1.0 in
    let h10 = s3 -. (2.0 *. s2) +. s in
    let h01 = (-2.0 *. s3) +. (3.0 *. s2) in
    let h11 = s3 -. s2 in
    (h00 *. t.ys.(k)) +. (h10 *. h *. t.ds.(k)) +. (h01 *. t.ys.(k + 1))
    +. (h11 *. h *. t.ds.(k + 1))
  end

let deriv t x =
  let n = Array.length t.xs in
  if x < t.xs.(0) || x > t.xs.(n - 1) then 0.0
  else if x = t.xs.(n - 1) then t.ds.(n - 1)
  else begin
    let k = interval t x in
    let h = t.xs.(k + 1) -. t.xs.(k) in
    let s = (x -. t.xs.(k)) /. h in
    let s2 = s *. s in
    let h00' = ((6.0 *. s2) -. (6.0 *. s)) /. h in
    let h10' = (3.0 *. s2) -. (4.0 *. s) +. 1.0 in
    let h01' = ((-6.0 *. s2) +. (6.0 *. s)) /. h in
    let h11' = (3.0 *. s2) -. (2.0 *. s) in
    (h00' *. t.ys.(k)) +. (h10' *. t.ds.(k)) +. (h01' *. t.ys.(k + 1))
    +. (h11' *. t.ds.(k + 1))
  end

let sample t k =
  let n = Array.length t.xs in
  let xs = Util.linspace t.xs.(0) t.xs.(n - 1) k in
  (xs, Array.map (eval t) xs)

let breakpoints t = Array.init (Array.length t.xs) (fun i -> (t.xs.(i), t.ys.(i)))
