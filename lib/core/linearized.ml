open Aa_numerics
open Aa_utility

type thread = { index : int; chat : float; peak : float; slope : float }
type t = { instance : Instance.t; superopt : Superopt.t; threads : thread array }

let of_superopt (inst : Instance.t) (so : Superopt.t) =
  let threads =
    Array.mapi
      (fun i chat ->
        (* float accumulation in the pooled allocator can overshoot the
           domain cap by an ulp; the theory has chat in [0, C] *)
        let chat = Util.clamp ~lo:0.0 ~hi:inst.capacity chat in
        let peak = Plc.eval so.plc.(i) chat in
        let slope =
          if not (Util.feq chat 0.0) then peak /. chat
          else if peak > 0.0 then Float.infinity
          else 0.0
        in
        { index = i; chat; peak; slope })
      so.chat
  in
  { instance = inst; superopt = so; threads }

let make ?samples ?exhaust inst = of_superopt inst (Superopt.compute ?samples ?exhaust inst)

(* The ramp in closed form. [slope] is [peak /. chat], the very segment
   slope a two-piece PLC through (0, 0), (chat, peak), (cap, peak) would
   store, so each branch returns the bits that PLC's [eval] would. *)
let g_value th x =
  if Util.feq th.chat 0.0 then th.peak
  else
    let x = Float.max 0.0 x in
    if x >= th.chat then th.peak else th.slope *. x

let superoptimal_utility t = Util.sum_by (fun th -> th.peak) t.threads
