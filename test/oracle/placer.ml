(* From-scratch online placer: the reference the incremental engine in
   [Aa_core.Online] is held to. Every decision re-runs
   [Plc_greedy.allocate ~exhaust:false] over a server's residents,
   newest first (the order the engine's merged piece order replays),
   and placement applies [Online.admit]'s tie rule. No drift
   certificate and no re-solves; callers pass only active thread ids. *)

open Aa_numerics
open Aa_utility
open Aa_alloc

type t = {
  c : float;
  residents : int list array; (* per server, thread ids newest first *)
  values : float array; (* allocator utility of each server *)
  plcs : Plc.t Dynvec.t; (* by thread id *)
  allocs : float Dynvec.t;
  servers_of : int Dynvec.t;
  scratch : Plc_greedy.Scratch.t;
}

let create ~servers ~capacity =
  {
    c = capacity;
    residents = Array.make servers [];
    values = Array.make servers 0.0;
    plcs = Dynvec.create ();
    allocs = Dynvec.create ();
    servers_of = Dynvec.create ();
    scratch = Plc_greedy.Scratch.create ();
  }

let plcs_of t ids = List.map (Dynvec.get t.plcs) ids

let solve t plcs =
  Plc_greedy.allocate ~scratch:t.scratch ~exhaust:false ~budget:t.c (Array.of_list plcs)

(* Re-divide server [j]'s capacity among its residents. *)
let commit t j =
  match t.residents.(j) with
  | [] -> t.values.(j) <- 0.0
  | ids ->
      let r = solve t (plcs_of t ids) in
      List.iteri (fun k i -> Dynvec.set t.allocs i r.alloc.(k)) ids;
      t.values.(j) <- r.utility

let enroll t j p =
  let id = Dynvec.length t.plcs in
  Dynvec.push t.plcs p;
  Dynvec.push t.allocs 0.0;
  Dynvec.push t.servers_of j;
  t.residents.(j) <- id :: t.residents.(j);
  commit t j;
  id

(* Largest marginal gain wins. A gain within 1e-12 of the best so far
   goes to the emptier server, but the window stays anchored at the
   best gain, so it cannot creep across servers. *)
let admit t u =
  let p = Utility.to_plc u in
  let count j = List.length t.residents.(j) in
  let best = ref (-1) and best_gain = ref Float.neg_infinity in
  Array.iteri
    (fun j ids ->
      let gain = (solve t (p :: plcs_of t ids)).utility -. t.values.(j) in
      let emptier = match !best with -1 -> true | b -> count j < count b in
      if gain > !best_gain +. 1e-12 then begin
        best := j;
        best_gain := gain
      end
      else if Util.approx_equal ~eps:1e-12 gain !best_gain && emptier then best := j)
    t.residents;
  ignore (enroll t !best p);
  !best

let admit_to t ~server u = enroll t server (Utility.to_plc u)

let depart t i =
  let j = Dynvec.get t.servers_of i in
  t.residents.(j) <- List.filter (fun k -> k <> i) t.residents.(j);
  Dynvec.set t.allocs i 0.0;
  commit t j

let update_utility t i u =
  Dynvec.set t.plcs i (Utility.to_plc u);
  commit t (Dynvec.get t.servers_of i)

let server_of t i = Dynvec.get t.servers_of i
let alloc_of t i = Dynvec.get t.allocs i
let total_utility t = Util.kahan_sum t.values
