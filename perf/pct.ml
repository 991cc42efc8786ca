(* Order statistics for the benchmark's reports. Failed or refused
   requests enter latency samples as [infinity], so any percentile that
   reaches one reads as infinite: a failure misses every latency
   limit. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest rank: the smallest sample with at least [q] of the samples
   at or below it. Safe with infinities, unlike interpolation. *)
let rank_index n q = max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1))

let percentile a q =
  let n = Array.length a in
  if n = 0 then Float.nan else (sorted a).(rank_index n q)

let median a =
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let s = sorted a in
    if n mod 2 = 1 then s.(n / 2)
    else
      let lo = s.((n / 2) - 1) and hi = s.(n / 2) in
      if Float.is_finite lo && Float.is_finite hi then (lo +. hi) /. 2.0 else hi

let mean a =
  let n = Array.length a in
  if n = 0 then Float.nan else Array.fold_left ( +. ) 0.0 a /. float_of_int n

let ladder = [ 0.5; 0.9; 0.99; 0.999; 0.9999 ]

(* The reported tail: the highest percentile on the ladder, at most
   [cap], that still has at least ten samples beyond it. With fewer than
   twenty samples not even the median qualifies, and the maximum is
   reported as [q = 1]. *)
let tail ?(cap = 0.99) a =
  let n = Array.length a in
  let beyond q = n - (rank_index n q + 1) in
  match List.filter (fun q -> q <= cap && beyond q >= 10) ladder |> List.rev with
  | q :: _ -> (q, (sorted a).(rank_index n q))
  | [] -> (1.0, if n = 0 then Float.nan else (sorted a).(n - 1))

(* Quartiles exactly as Python's [statistics.quantiles(data, n=4)]
   (the default "exclusive" method), so the spreads printed here are the
   ones the acceptance rule computes. Needs at least two values. *)
let quartiles a =
  let s = sorted a in
  let ld = Array.length s in
  if ld < 2 then invalid_arg "Pct.quartiles: need at least two values";
  let m = ld + 1 in
  let q i =
    let j = i * m / 4 in
    let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
    let delta = (i * m) - (j * 4) in
    ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta)) /. 4.0
  in
  (q 1, q 2, q 3)
