(* Request mixes for the daemon workloads, and the check that every
   reply is well-formed and answers its own request.

   Each connection operates only on the thread ids it owns: prefilled
   ids are dealt out by [id mod connections], and an ADMIT's new id
   belongs to the connection that sent it once the reply names it. A
   DEPART removes its id from the owner's set when it is sent, so no
   later request on any connection can name a departed thread, and
   every request is valid whatever order the daemon interleaves the
   connections in. *)

type kind = Admit | Depart | Update | Query | Stats | Snapshot | Rebalance

let is_mutation = function Admit | Depart | Update -> true | _ -> false

type mix = Churn | Read

type req = { kind : kind; payload : string; id : int; spec : int }
(** [id]: the thread a DEPART/UPDATE/QUERY names (-1 otherwise);
    [spec]: index into the spec pool for ADMIT/UPDATE (-1 otherwise). *)

(* A set of ids with O(1) insert, uniform pick and removal. *)
module Owned = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 64 0; n = 0 }

  let add t id =
    if t.n = Array.length t.a then begin
      let a = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 a 0 t.n;
      t.a <- a
    end;
    t.a.(t.n) <- id;
    t.n <- t.n + 1

  let pick rng t = t.a.(Aa_numerics.Rng.int rng t.n)

  let take rng t =
    let i = Aa_numerics.Rng.int rng t.n in
    let id = t.a.(i) in
    t.n <- t.n - 1;
    t.a.(i) <- t.a.(t.n);
    id
end

type t = {
  mix : mix;
  specs : string array;  (** utility specs, rendered once before timing *)
  admit_lines : string array;  (** "ADMIT <spec>" for each spec *)
  owned : Owned.t array;
  rngs : Aa_numerics.Rng.t array;
  mutable sent : int;
  snapshot_every : int;
}

let create ~mix ~seed ~conns ~specs ~prefill ~snapshot_every =
  let owned = Array.init conns (fun _ -> Owned.create ()) in
  for id = 0 to prefill - 1 do
    Owned.add owned.(id mod conns) id
  done;
  let master = Aa_numerics.Rng.create ~seed () in
  {
    mix;
    specs;
    admit_lines = Array.map (fun s -> "ADMIT " ^ s) specs;
    owned;
    rngs = Array.init conns (fun _ -> Aa_numerics.Rng.split master);
    sent = 0;
    snapshot_every;
  }

let simple kind payload = { kind; payload; id = -1; spec = -1 }

let next t conn =
  let rng = t.rngs.(conn) and own = t.owned.(conn) in
  t.sent <- t.sent + 1;
  let spec () = Aa_numerics.Rng.int rng (Array.length t.specs) in
  let with_id kind verb =
    let id = if kind = Depart then Owned.take rng own else Owned.pick rng own in
    { kind; payload = Printf.sprintf "%s %d" verb id; id; spec = -1 }
  in
  match t.mix with
  | Churn when t.snapshot_every > 0 && t.sent mod t.snapshot_every = 0 -> simple Snapshot "SNAPSHOT"
  | Churn ->
      let r = Aa_numerics.Rng.int rng 100 in
      if r < 35 || own.n = 0 then
        let s = spec () in
        { kind = Admit; payload = t.admit_lines.(s); id = -1; spec = s }
      else if r < 70 then with_id Depart "DEPART"
      else if r < 85 then
        let id = Owned.pick rng own and s = spec () in
        { kind = Update; payload = Printf.sprintf "UPDATE %d %s" id t.specs.(s); id; spec = s }
      else with_id Query "QUERY"
  | Read ->
      let r = Aa_numerics.Rng.int rng 100 in
      if r < 94 && own.n > 0 then with_id Query "QUERY"
      else if r < 99 then simple Stats "STATS"
      else simple Rebalance "REBALANCE"

let has_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* Check [reply] answers [req]; an ADMIT's new id joins [conn]'s set. *)
let reply t conn req reply =
  let words = String.split_on_char ' ' reply in
  let id_is want = match words with _ :: _ :: "id" :: n :: _ -> int_of_string_opt n = Some want | _ -> false in
  match req.kind with
  | Admit -> (
      match words with
      | [ "OK"; "admit"; "id"; n; "server"; _ ] -> (
          match int_of_string_opt n with
          | Some id ->
              Owned.add t.owned.(conn) id;
              Ok id
          | None -> Error reply)
      | _ -> Error reply)
  | Depart -> if has_prefix "OK depart " reply && id_is req.id then Ok req.id else Error reply
  | Update -> if has_prefix "OK update " reply && id_is req.id then Ok req.id else Error reply
  | Query ->
      if has_prefix "OK query " reply && id_is req.id && List.rev words |> List.hd = "1" then Ok req.id
      else Error reply
  | Stats -> if has_prefix "OK stats" reply then Ok (-1) else Error reply
  | Snapshot -> if has_prefix "OK snapshot " reply then Ok (-1) else Error reply
  | Rebalance -> if has_prefix "OK rebalance " reply then Ok (-1) else Error reply
