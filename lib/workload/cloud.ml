open Aa_numerics
open Aa_utility

type tier = { size : float; price : float }

let bid_curve ~cap tiers =
  List.iter
    (fun t ->
      if not (t.size > 0.0 && t.price >= 0.0) then
        invalid_arg "Cloud.bid_curve: tiers need positive size, nonnegative price")
    tiers;
  (* breakpoints, newest first: x strictly increases tier by tier *)
  let xs = ref [ 0.0 ] and ys = ref [ 0.0 ] in
  let add px py =
    xs := px :: !xs;
    ys := py :: !ys
  in
  let x = ref 0.0 and y = ref 0.0 in
  List.iter
    (fun t ->
      x := !x +. t.size;
      y := !y +. t.price;
      if !x <= cap then add !x !y)
    tiers;
  if !x < cap then add cap !y
  else if not (List.exists (fun px -> px = cap) !xs) then begin
    (* interpolate the boundary point of the tier straddling cap *)
    match (!xs, !ys) with
    | x1 :: _, y1 :: _ ->
        let rate =
          (* unit price of the straddling tier *)
          let rec find acc = function
            | [] -> 0.0
            | t :: rest ->
                let nx = acc +. t.size in
                if nx > cap then t.price /. t.size else find nx rest
          in
          find 0.0 tiers
        in
        add cap (y1 +. (rate *. (cap -. x1)))
    | _ -> assert false
  end;
  let ascending l = Array.of_list (List.rev l) in
  Utility.of_plc (Plc.of_arrays ~xs:(ascending !xs) ~ys:(ascending !ys))

let elastic ~cap ~budget ~beta =
  if not (budget >= 0.0) then invalid_arg "Cloud.elastic: negative budget";
  match Utility.Shapes.power ~cap ~coeff:(budget /. (cap ** beta)) ~beta with
  | u -> u

let random_customer rng ~cap =
  match Rng.int rng 3 with
  | 0 ->
      (* batch: elastic with low beta *)
      elastic ~cap ~budget:(Rng.uniform rng ~lo:5.0 ~hi:50.0)
        ~beta:(Rng.uniform rng ~lo:0.3 ~hi:0.7)
  | 1 ->
      (* interactive: saturating, values the first units highly *)
      Utility.Shapes.saturating ~cap
        ~limit:(Rng.uniform rng ~lo:10.0 ~hi:80.0)
        ~halfway:(Rng.uniform rng ~lo:(cap /. 20.0) ~hi:(cap /. 4.0))
  | _ ->
      (* reserved: pays a fixed unit price up to a requested size *)
      let knee = Rng.uniform rng ~lo:(cap /. 10.0) ~hi:cap in
      Utility.Shapes.capped_linear ~cap
        ~slope:(Rng.uniform rng ~lo:0.05 ~hi:0.5)
        ~knee

let instance rng ~machines ~capacity ~customers =
  if customers < 1 then invalid_arg "Cloud.instance: need at least one customer";
  let utilities = Array.init customers (fun _ -> random_customer rng ~cap:capacity) in
  Aa_core.Instance.create ~servers:machines ~capacity utilities
