(* Request contexts: the identity a request carries through the stack.

   A context is created once at the edge (listener reader thread, or
   the daemon's stdin loop) and handed down by value — through shard
   routing, engine dispatch, group commit and back to the writer that
   acks the client. While a domain works on behalf of a request it
   scopes itself with [with_current]: the context lands in domain-local
   storage and the Trace ring's per-domain tag, so every span recorded
   in scope carries [(rid, shard, conn)]. Cross-shard barriers share
   ONE context across N worker domains — each worker re-scopes it with
   its own shard id, so the export shows one rid spanning all shards —
   which is why every mutable accumulation below takes [t.lock].

   Rids and everything derived from them are schedule-dependent
   diagnostics: they live on the gauge/log side of the determinism
   contract and must never feed a counter. *)

type t = {
  rid : int;
  conn : int;
  kind : string;
  t0_ns : int;
  lock : Mutex.t;
  mutable shard : int;  (* -1 until routed; stays -1 for barrier ops *)
  mutable phase_ns : (string * int) list;  (* accumulated per phase name *)
  mutable captured : (string * int * int * int) list;  (* name, t0, t1, shard *)
  mutable handled_ns : int;  (* when the engine finished dispatch; 0 = not yet *)
  mutable commit_wait_ns : int;  (* group-commit wait after dispatch *)
  mutable total_ns : int;  (* stamped by finish; 0 until then *)
}

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b
let next_rid = Atomic.make 0

(* Slow capture: threshold in ns, negative = disarmed. *)
let slow_threshold_ns = Atomic.make (-1)
let slow_armed () = Atomic.get slow_threshold_ns >= 0

let set_slow_ms ms =
  Atomic.set slow_threshold_ns
    (if ms < 0.0 then -1 else int_of_float (ms *. 1e6))

let create ~kind ~conn =
  {
    rid = Atomic.fetch_and_add next_rid 1;
    conn;
    kind;
    t0_ns = Clock.now_ns ();
    lock = Mutex.create ();
    shard = -1;
    phase_ns = [];
    captured = [];
    handled_ns = 0;
    commit_wait_ns = 0;
    total_ns = 0;
  }

let set_shard t s = t.shard <- s
let rid t = t.rid
let conn t = t.conn
let kind t = t.kind
let shard t = t.shard
let commit_wait_ns t = t.commit_wait_ns
let total_ns t = if t.total_ns > 0 then t.total_ns else Clock.now_ns () - t.t0_ns

let phases t =
  Mutex.lock t.lock;
  let p = t.phase_ns in
  Mutex.unlock t.lock;
  List.sort (fun (a, _) (b, _) -> String.compare a b) p

let phase_ns t name =
  Mutex.lock t.lock;
  let v = match List.assoc_opt name t.phase_ns with Some v -> v | None -> 0 in
  Mutex.unlock t.lock;
  v

(* --- the current context (domain-local) ----------------------------- *)

type scoped = { ctx : t; eff_shard : int }

let cur_key : scoped option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)
let current () = match !(Domain.DLS.get cur_key) with Some s -> Some s.ctx | None -> None

let with_current ?shard t f =
  let r = Domain.DLS.get cur_key in
  let prev = !r in
  let eff = match shard with Some s -> s | None -> t.shard in
  r := Some { ctx = t; eff_shard = eff };
  Trace.set_ctx ~rid:t.rid ~shard:eff ~conn:t.conn;
  let restore () =
    r := prev;
    match prev with
    | Some p -> Trace.set_ctx ~rid:p.ctx.rid ~shard:p.eff_shard ~conn:p.ctx.conn
    | None -> Trace.clear_ctx ()
  in
  match f () with
  | v ->
      restore ();
      v
  | exception e ->
      restore ();
      raise e

let phase name f =
  match !(Domain.DLS.get cur_key) with
  | None -> Trace.span name f
  | Some { ctx; eff_shard } ->
      let t0 = Clock.now_ns () in
      let fin () =
        let t1 = Clock.now_ns () in
        Mutex.lock ctx.lock;
        let prior = match List.assoc_opt name ctx.phase_ns with Some v -> v | None -> 0 in
        ctx.phase_ns <- (name, prior + (t1 - t0)) :: List.remove_assoc name ctx.phase_ns;
        if slow_armed () then ctx.captured <- (name, t0, t1, eff_shard) :: ctx.captured;
        Mutex.unlock ctx.lock
      in
      Trace.span name (fun () ->
          match f () with
          | v ->
              fin ();
              v
          | exception e ->
              fin ();
              raise e)

let mark_handled t = t.handled_ns <- Clock.now_ns ()

let mark_committed t =
  if t.handled_ns > 0 then t.commit_wait_ns <- Clock.now_ns () - t.handled_ns

(* --- slow keep-list ------------------------------------------------- *)

type slow = {
  s_rid : int;
  s_conn : int;
  s_kind : string;
  s_shard : int;
  s_outcome : string;
  s_total_ns : int;
  s_spans : (string * int * int * int) list;  (* name, t0, t1, shard; chronological *)
}

let slow_lock = Mutex.create ()
let slow_keep : slow Queue.t = Queue.create ()
let slow_max = ref 64

let set_slow_keep n =
  Mutex.lock slow_lock;
  slow_max := max 1 n;
  while Queue.length slow_keep > !slow_max do
    ignore (Queue.pop slow_keep)
  done;
  Mutex.unlock slow_lock

let finish t ~outcome =
  let total = Clock.now_ns () - t.t0_ns in
  t.total_ns <- total;
  if slow_armed () && total >= Atomic.get slow_threshold_ns then begin
    Mutex.lock t.lock;
    let spans = List.rev t.captured in
    Mutex.unlock t.lock;
    let s =
      {
        s_rid = t.rid;
        s_conn = t.conn;
        s_kind = t.kind;
        s_shard = t.shard;
        s_outcome = outcome;
        s_total_ns = total;
        s_spans = spans;
      }
    in
    Mutex.lock slow_lock;
    Queue.push s slow_keep;
    while Queue.length slow_keep > !slow_max do
      ignore (Queue.pop slow_keep)
    done;
    Mutex.unlock slow_lock
  end;
  total

let slow_entries () =
  Mutex.lock slow_lock;
  let l = List.of_seq (Queue.to_seq slow_keep) in
  Mutex.unlock slow_lock;
  List.rev l (* most recent first *)

let slow_count () =
  Mutex.lock slow_lock;
  let n = Queue.length slow_keep in
  Mutex.unlock slow_lock;
  n

let slow_clear () =
  Mutex.lock slow_lock;
  Queue.clear slow_keep;
  Mutex.unlock slow_lock

(* One-line JSON array for the SLOW verb: [{rid,kind,conn,shard,outcome,
   total_ns,spans:[{name,t0_ns,dur_ns,shard}]}] — most recent first. *)
let slow_json () =
  let b = Buffer.create 512 in
  Buffer.add_char b '[';
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "{\"rid\":%d,\"kind\":\"" s.s_rid;
      Trace.add_escaped b s.s_kind;
      Printf.bprintf b "\",\"conn\":%d,\"shard\":%d,\"outcome\":\"" s.s_conn s.s_shard;
      Trace.add_escaped b s.s_outcome;
      Printf.bprintf b "\",\"total_ns\":%d,\"spans\":[" s.s_total_ns;
      List.iteri
        (fun j (name, t0, t1, shard) ->
          if j > 0 then Buffer.add_char b ',';
          Printf.bprintf b "{\"name\":\"";
          Trace.add_escaped b name;
          Printf.bprintf b "\",\"t0_ns\":%d,\"dur_ns\":%d,\"shard\":%d}" t0 (t1 - t0) shard)
        s.s_spans;
      Buffer.add_string b "]}")
    (slow_entries ());
  Buffer.add_char b ']';
  Buffer.contents b

(* Chrome trace_event "complete" (ph:X) objects for the slow keep-list,
   comma-joined WITHOUT brackets — the TRACE exporter splices them into
   its own array so a dump holds both the live ring and the preserved
   slow subtrees. tid = shard the span ran on (-1 → 0). *)
let slow_chrome_events () =
  let b = Buffer.create 512 in
  let first = ref true in
  List.iter
    (fun s ->
      List.iter
        (fun (name, t0, t1, shard) ->
          if not !first then Buffer.add_char b ',';
          first := false;
          Buffer.add_string b "{\"name\":\"";
          Trace.add_escaped b name;
          Printf.bprintf b
            "\",\"cat\":\"aa.slow\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":2,\"tid\":%d,\"args\":{\"rid\":%d,\"conn\":%d}}"
            (float_of_int t0 /. 1000.0)
            (float_of_int (t1 - t0) /. 1000.0)
            (max 0 shard) s.s_rid s.s_conn)
        s.s_spans)
    (slow_entries ());
  Buffer.contents b

(* Text rendering for /tracez: one block per slow request, spans
   indented under it with shard tags and millisecond durations. *)
let slow_text () =
  let b = Buffer.create 512 in
  let entries = slow_entries () in
  Printf.bprintf b "slow requests: %d (threshold %s)\n" (List.length entries)
    (let t = Atomic.get slow_threshold_ns in
     if t < 0 then "off" else Printf.sprintf "%.3f ms" (float_of_int t /. 1e6));
  List.iter
    (fun s ->
      Printf.bprintf b "rid %d %s conn=%d shard=%d %s %12.3f ms\n" s.s_rid s.s_kind s.s_conn
        s.s_shard s.s_outcome
        (float_of_int s.s_total_ns /. 1e6);
      List.iter
        (fun (name, t0, t1, shard) ->
          let label = "  " ^ name ^ if shard >= 0 then Printf.sprintf " [shard %d]" shard else "" in
          let pad =
            if String.length label >= 36 then " " else String.make (36 - String.length label) ' '
          in
          Printf.bprintf b "%s%s%12.3f ms\n" label pad (float_of_int (t1 - t0) /. 1e6))
        s.s_spans)
    entries;
  Buffer.contents b
