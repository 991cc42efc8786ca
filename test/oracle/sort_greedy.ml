(* The sort-based single-pool allocator that [Plc_greedy] replaced with
   a k-way merge: materialize every positive-slope piece, sort globally
   by (slope desc, thread asc), pour, then optionally exhaust on flat
   regions. The merge kernel must reproduce it bit for bit; returns the
   allocation and the marginal price [lambda]. *)

open Aa_utility

let allocate ~exhaust ~budget fs =
  let n = Array.length fs in
  let pieces = ref [] in
  for i = 0 to n - 1 do
    Array.iter
      (fun (s : Plc.segment) ->
        if s.slope > 0.0 then pieces := (i, s.x1 -. s.x0, s.slope) :: !pieces)
      (Plc.segments fs.(i))
  done;
  let pieces = Array.of_list !pieces in
  Array.sort
    (fun (t1, _, s1) (t2, _, s2) ->
      match compare s2 s1 with 0 -> compare t1 t2 | c -> c)
    pieces;
  let alloc = Array.make n 0.0 in
  let remaining = ref budget in
  let lambda = ref 0.0 in
  (try
     Array.iter
       (fun (t, len, slope) ->
         if !remaining <= 0.0 then raise Exit;
         let take = Float.min len !remaining in
         alloc.(t) <- alloc.(t) +. take;
         remaining := !remaining -. take;
         if take > 0.0 then lambda := slope)
       pieces
   with Exit -> ());
  if exhaust && !remaining > 0.0 then begin
    let i = ref 0 in
    while !remaining > 0.0 && !i < n do
      let headroom = Plc.cap fs.(!i) -. alloc.(!i) in
      let take = Float.min headroom !remaining in
      if take > 0.0 then begin
        alloc.(!i) <- alloc.(!i) +. take;
        remaining := !remaining -. take
      end;
      incr i
    done
  end;
  let lambda = if !remaining > 0.0 then 0.0 else !lambda in
  (alloc, lambda)
