module Failpoint = Aa_fault.Failpoint

(* N engines behind one dispatch surface. Each shard owns a contiguous
   block of servers, its own journal and one parked worker domain; the
   dispatcher routes requests by thread id and the workers drain their
   queues in FIFO bursts, landing each burst under one journal group
   commit. The synchronization follows lib/parallel's pool discipline —
   parked domains, one mutex guarding the shared dispatch state, one
   condition per wait reason — rather than reusing [Pool] itself, whose
   job model (one chunked index range at a time) does not fit long-lived
   per-shard queues.

   Identifier scheme (pure arithmetic, no shared map): the thread with
   shard-local id [l] on shard [s] has global id [g = l*n + s], so
   [s = g mod n] and [l = g / n] route any id without coordination.
   Servers partition in contiguous blocks: shard [s] gets
   [m/n + (1 if s < m mod n)] servers starting at [server_base s].
   With [n = 1] every mapping is the identity. *)

type outcome = Reply of Protocol.response | Crashed of string

type ticket = {
  t_lock : Mutex.t;
  t_cond : Condition.t;
  t_kind : string;
  t_t0 : float;
  t_rctx : Aa_obs.Rctx.t option;  (* request context, when the Rctx layer is on *)
  mutable t_out : outcome option;
  mutable t_recorded : bool;
}

(* Per-shard barrier contributions, kept typed so aggregation never
   re-parses a printed response. *)
type bres = R_stats of Engine.stats | R_resp of Protocol.response

type bkind = B_stats | B_snapshot | B_rebalance

type barrier = {
  bkind : bkind;
  b_ticket : ticket;
  b_results : bres option array; (* slot per shard *)
  mutable b_arrived : int;
  mutable b_done : int;
}

type job = Request of { req : Protocol.request; ticket : ticket } | Barrier of barrier

type t = {
  n : int;
  engines : Engine.t array;
  bases : int array; (* first global server of each shard *)
  lock : Mutex.t; (* guards queues, barriers, crashed, stop *)
  conds : Condition.t array; (* one per shard: its queue became non-empty *)
  bcond : Condition.t; (* barrier arrivals and crash aborts *)
  queues : job Queue.t array;
  window_s : float; (* group-commit window: wait this long after wake *)
  rr : int Atomic.t; (* round-robin admit counter (routing only) *)
  metrics : Metrics.t; (* the daemon's request metrics: queueing + engine latency *)
  mlock : Mutex.t; (* Metrics is not thread-safe; awaits are concurrent *)
  mutable crashed : string option;
  mutable stop : bool;
  mutable workers : unit Domain.t array;
}

(* Jobs drained per burst: bounds one group commit and the latency a
   burst adds to the barrier queued behind it. *)
let max_batch = 256

let server_counts ~servers ~shards =
  if shards < 1 then invalid_arg "Shard.server_counts: shards must be >= 1";
  if servers < shards then
    invalid_arg
      (Printf.sprintf "Shard.server_counts: %d server(s) cannot split across %d shards"
         servers shards);
  Array.init shards (fun s -> (servers / shards) + if s < servers mod shards then 1 else 0)

(* ---------- tickets ---------- *)

let ticket ~kind ~t0 ~rctx =
  {
    t_lock = Mutex.create ();
    t_cond = Condition.create ();
    t_kind = kind;
    t_t0 = t0;
    t_rctx = rctx;
    t_out = None;
    t_recorded = false;
  }

(* Fill-once: a barrier ticket is shared by every shard's worker and a
   crash may race a normal delivery — the first outcome wins. *)
let deliver tk out =
  Mutex.lock tk.t_lock;
  if tk.t_out = None then begin
    tk.t_out <- Some out;
    Condition.broadcast tk.t_cond
  end;
  Mutex.unlock tk.t_lock

let record_once t tk out =
  Mutex.lock tk.t_lock;
  let fresh = not tk.t_recorded in
  tk.t_recorded <- true;
  Mutex.unlock tk.t_lock;
  if fresh then begin
    let ok = match out with Reply r -> (match r with Protocol.Err _ -> false | _ -> true) | Crashed _ -> false in
    Mutex.lock t.mlock;
    Metrics.record t.metrics ~kind:tk.t_kind ~ok
      ~latency:(Aa_obs.Clock.now_s () -. tk.t_t0);
    Mutex.unlock t.mlock
  end

let await t tk =
  Mutex.lock tk.t_lock;
  let rec wait () =
    match tk.t_out with
    | Some out -> out
    | None ->
        Condition.wait tk.t_cond tk.t_lock;
        wait ()
  in
  let out = wait () in
  Mutex.unlock tk.t_lock;
  record_once t tk out;
  out

type delivery = Sent of int | Dropped

(* The ack side's close of a ticket: finish stamps the context's total
   latency (and feeds slow capture), then the access log gets its one
   record. The outcome names are the access-log schema's. *)
let finish access_log tk out delivery =
  match tk.t_rctx with
  | None -> ()
  | Some c ->
      let outcome, bytes =
        match (out, delivery) with
        | Crashed _, _ -> ("crashed", 0)
        | Reply _, Dropped -> ("dropped", 0)
        | Reply (Protocol.Err { code; _ }), Sent n -> ("err:" ^ Protocol.code_name code, n)
        | Reply _, Sent n -> ("ok", n)
      in
      ignore (Aa_obs.Rctx.finish c ~outcome);
      Option.iter (fun al -> Access_log.log al c ~outcome ~bytes) access_log

(* ---------- id / server arithmetic ---------- *)

let global_id t ~shard l = (l * t.n) + shard
let shard_of t g = g mod t.n
let local_id t g = g / t.n
let global_server t ~shard sv = t.bases.(shard) + sv

(* Outbound rewrite: shard-local ids and servers become global. Error
   messages gain a shard tag (their embedded ids are shard-local).
   Identity when n = 1, so the single-shard daemon's wire output is
   byte-identical to the plain engine's. *)
let rewrite_out t ~shard (r : Protocol.response) : Protocol.response =
  if t.n = 1 then r
  else
    match r with
    | Admitted { id; server } ->
        Admitted { id = global_id t ~shard id; server = global_server t ~shard server }
    | Departed { id } -> Departed { id = global_id t ~shard id }
    | Updated { id; server } ->
        Updated { id = global_id t ~shard id; server = global_server t ~shard server }
    | Thread_info { id; server; alloc; value; active } ->
        Thread_info
          {
            id = global_id t ~shard id;
            server = global_server t ~shard server;
            alloc;
            value;
            active;
          }
    | Err { code; message } ->
        Err { code; message = Printf.sprintf "%s [shard %d]" message shard }
    | (Stats_report _ | Snapshot_done _ | Rebalance_report _ | Trace_dump _ | Slow_dump _) as r
      -> r

(* ---------- barriers ---------- *)

let local_barrier eng = function
  | B_stats -> R_stats (Engine.stats eng)
  | B_snapshot -> R_resp (Engine.handle eng Protocol.Snapshot)
  | B_rebalance -> R_resp (Engine.handle eng Protocol.Rebalance)

(* Fleet STATS: counts and utilities add up; the engines share one
   policy. Certified-interval keys appear only once every shard has a
   REBALANCE behind it: a partial sum would understate the global
   bounds, so a missing interval anywhere drops them. *)
let add_stats (a : Engine.stats) (b : Engine.stats) : Engine.stats =
  {
    a with
    admitted = a.admitted + b.admitted;
    active = a.active + b.active;
    utility = a.utility +. b.utility;
    degraded = a.degraded || b.degraded;
    drift = a.drift +. b.drift;
    splices = a.splices + b.splices;
    resolves = a.resolves + b.resolves;
    interval =
      (match (a.interval, b.interval) with
      | Some (l, h, g), Some (l', h', g') -> Some (l +. l', h +. h', g +. g')
      | _, _ -> None);
  }

let fleet_stats stats =
  Array.fold_left add_stats stats.(0) (Array.sub stats 1 (Array.length stats - 1))

let aggregate t (b : barrier) : Protocol.response =
  let results =
    (* the barrier countdown reached zero, so every slot has been filled *)
    Array.map
      (function
        | Some r -> r
        | None -> invalid_arg "Shard.aggregate: incomplete barrier")
      b.b_results
  in
  match b.bkind with
  | B_stats ->
      let stats =
        Array.map
          (function R_stats s -> s | R_resp _ -> invalid_arg "Shard.aggregate: not a STATS cut")
          results
      in
      let sum = fleet_stats stats in
      let per_shard =
        List.concat
          (List.init t.n (fun k ->
               [
                 (Printf.sprintf "shard.%d.admitted" k, string_of_int stats.(k).admitted);
                 (Printf.sprintf "shard.%d.active" k, string_of_int stats.(k).active);
               ]))
      in
      Mutex.lock t.mlock;
      let m = Metrics.report t.metrics in
      Mutex.unlock t.mlock;
      Stats_report
        (Engine.stats_report sum @ [ ("shards", string_of_int t.n) ] @ per_shard @ m)
  | B_snapshot -> (
      let err = ref None in
      let active = ref 0 and admitted = ref 0 and utility = ref 0.0 and compacted = ref true in
      Array.iteri
        (fun k -> function
          | R_resp (Protocol.Snapshot_done s) ->
              active := !active + s.active;
              admitted := !admitted + s.admitted;
              utility := !utility +. s.utility;
              compacted := !compacted && s.compacted
          | R_resp r -> if !err = None then err := Some (rewrite_out t ~shard:k r)
          | R_stats _ -> ())
        results;
      match !err with
      | Some e -> e
      | None ->
          Snapshot_done
            { active = !active; admitted = !admitted; utility = !utility; compacted = !compacted })
  | B_rebalance -> (
      let err = ref None in
      let online = ref 0.0 and offline = ref 0.0 in
      Array.iteri
        (fun k -> function
          | R_resp (Protocol.Rebalance_report r) ->
              online := !online +. r.online;
              offline := !offline +. r.offline
          | R_resp r -> if !err = None then err := Some (rewrite_out t ~shard:k r)
          | R_stats _ -> ())
        results;
      match !err with
      | Some e -> e
      | None ->
          let gap = if !offline > 0.0 then !online /. !offline else 1.0 in
          Mutex.lock t.mlock;
          Metrics.note_gap t.metrics gap;
          Mutex.unlock t.mlock;
          Rebalance_report { online = !online; offline = !offline; gap })

(* Arrival phase, then local compute, then the last shard aggregates.
   The arrival barrier gives REBALANCE (and SNAPSHOT) a consistent cut:
   every shard has flushed the mutations queued before the barrier and
   none has started a later one. *)
let do_barrier t ~shard eng (b : barrier) =
  Mutex.lock t.lock;
  b.b_arrived <- b.b_arrived + 1;
  if b.b_arrived = t.n then Condition.broadcast t.bcond;
  while b.b_arrived < t.n && t.crashed = None do
    Condition.wait t.bcond t.lock
  done;
  let crashed = t.crashed in
  Mutex.unlock t.lock;
  match crashed with
  | Some name -> deliver b.b_ticket (Crashed name)
  | None ->
      (* one shared context, re-scoped per worker with its own shard id:
         the exported trace shows a single rid spanning all shards *)
      let res =
        match b.b_ticket.t_rctx with
        | Some c -> Aa_obs.Rctx.with_current ~shard c (fun () -> local_barrier eng b.bkind)
        | None -> local_barrier eng b.bkind
      in
      Mutex.lock t.lock;
      b.b_results.(shard) <- Some res;
      b.b_done <- b.b_done + 1;
      let complete = b.b_done = t.n in
      Mutex.unlock t.lock;
      if complete then deliver b.b_ticket (Reply (aggregate t b))

(* ---------- workers ---------- *)

let fail_job name = function
  | Request { ticket; _ } -> deliver ticket (Crashed name)
  | Barrier b -> deliver b.b_ticket (Crashed name)

(* Process one drained burst: runs of consecutive Requests go through
   [Engine.handle_batch] (one group commit — responses are delivered
   only after the batch's fsync barrier, so an ack always names durable
   state), barriers flush the run first. *)
let process t ~shard eng jobs =
  let pending = ref [] in
  let flush () =
    match List.rev !pending with
    | [] -> ()
    | run ->
        pending := [];
        let ctxs = Array.of_list (List.map (fun (_, tk) -> tk.t_rctx) run) in
        let resps = Engine.handle_batch ~ctxs eng (List.map fst run) in
        List.iter2
          (fun (_, tk) r -> deliver tk (Reply (rewrite_out t ~shard r)))
          run resps
  in
  List.iter
    (function
      | Request { req; ticket } -> pending := (req, ticket) :: !pending
      | Barrier b ->
          flush ();
          do_barrier t ~shard eng b)
    jobs;
  flush ()

let drain_queue q =
  let rec go acc k =
    if k >= max_batch || Queue.is_empty q then List.rev acc else go (Queue.pop q :: acc) (k + 1)
  in
  go [] 0

let worker t shard () =
  let eng = t.engines.(shard) in
  let rec loop () =
    Mutex.lock t.lock;
    while (not t.stop) && Queue.is_empty t.queues.(shard) do
      Condition.wait t.conds.(shard) t.lock
    done;
    if Queue.is_empty t.queues.(shard) then (* stop, queue drained *)
      Mutex.unlock t.lock
    else begin
      (* group-commit window: give a burst [window_s] to accumulate so
         one fsync covers more of it; 0 batches only what is already
         queued (natural batching under load, no added latency) *)
      if t.window_s > 0.0 then begin
        Mutex.unlock t.lock;
        Unix.sleepf t.window_s;
        Mutex.lock t.lock
      end;
      let jobs = drain_queue t.queues.(shard) in
      let crashed = t.crashed in
      Mutex.unlock t.lock;
      (match crashed with
      | Some name -> List.iter (fail_job name) jobs
      | None -> (
          match process t ~shard eng jobs with
          | () -> ()
          | exception Failpoint.Crash name ->
              (* the simulated process death: every job of this burst
                 that has not been answered dies unacknowledged, and the
                 whole shard group refuses further work *)
              Mutex.lock t.lock;
              if t.crashed = None then t.crashed <- Some name;
              Condition.broadcast t.bcond;
              Array.iter Condition.broadcast t.conds;
              Mutex.unlock t.lock;
              List.iter (fail_job name) jobs));
      loop ()
    end
  in
  loop ()

(* ---------- construction ---------- *)

(* The daemon-state gauges are callbacks sampled when /metrics is
   scraped, so they are live whether or not observability is on and
   the request path never writes them. They are the same unsynchronized
   reads as [health], and the engine gauges sum the shards with STATS's
   [add_stats] fold, so /metrics and STATS print the same numbers.
   Registration is by name: the newest dispatcher owns the gauges. *)
let register_gauges t =
  let engine name help f =
    Aa_obs.Registry.gauge_fn ~help ("engine." ^ name) (fun () ->
        f (fleet_stats (Array.map Engine.stats t.engines)))
  in
  let interval pick (s : Engine.stats) =
    match s.interval with Some i -> pick i | None -> 0.0
  in
  engine "utility" "Live utility of the serving allocation (STATS utility=)" (fun s ->
      s.utility);
  engine "utility_lower" "Certified lower bound on the offline re-solve utility"
    (interval (fun (l, _, _) -> l));
  engine "utility_upper" "Certified upper bound on the offline re-solve utility"
    (interval (fun (_, h, _) -> h));
  engine "alpha_bound_gap"
    "Superopt certificate utility minus online utility at the last REBALANCE"
    (interval (fun (_, _, a) -> a));
  engine "drift_bound" "Certified upper bound on superopt utility minus online utility"
    (fun s -> s.drift);
  engine "incremental.splices"
    "Incremental piece-order splices performed by the online placer" (fun s ->
      float_of_int s.splices);
  engine "incremental.resolves" "Full re-solves performed by the online placer" (fun s ->
      float_of_int s.resolves);
  Array.iteri
    (fun k e ->
      Aa_obs.Registry.gauge_fn (Printf.sprintf "shard.%d.active_threads" k) (fun () ->
          float_of_int (Engine.n_active e));
      Aa_obs.Registry.gauge_fn (Printf.sprintf "shard.%d.journal_bytes" k) (fun () ->
          match Engine.journal e with Some j -> float_of_int (Journal.bytes j) | None -> 0.0))
    t.engines

let create ?(window_s = 0.0) engines =
  let n = Array.length engines in
  if n < 1 then invalid_arg "Shard.create: need at least one engine";
  let cap = Engine.capacity engines.(0) in
  Array.iter
    (fun e ->
      if Engine.capacity e <> cap then
        invalid_arg "Shard.create: shards must share one server capacity")
    engines;
  if window_s < 0.0 || not (Float.is_finite window_s) then
    invalid_arg "Shard.create: negative group-commit window";
  let bases = Array.make n 0 in
  for s = 1 to n - 1 do
    bases.(s) <- bases.(s - 1) + Engine.servers engines.(s - 1)
  done;
  let admitted = Array.fold_left (fun a e -> a + Engine.n_admitted e) 0 engines in
  let t =
    {
      n;
      engines;
      bases;
      lock = Mutex.create ();
      conds = Array.init n (fun _ -> Condition.create ());
      bcond = Condition.create ();
      queues = Array.init n (fun _ -> Queue.create ());
      window_s;
      rr = Atomic.make admitted;
      metrics = Metrics.create ();
      mlock = Mutex.create ();
      crashed = None;
      stop = false;
      workers = [||];
    }
  in
  register_gauges t;
  t.workers <- Array.init n (fun s -> Domain.spawn (worker t s));
  t

let shards t = t.n
let capacity t = Engine.capacity t.engines.(0)
let servers t = Array.fold_left (fun a e -> a + Engine.servers e) 0 t.engines
let engines t = t.engines
let crashed t = t.crashed

(* ---------- health (diagnostic reads) ---------- *)

type shard_health = {
  h_active : int;
  h_degraded : bool;
  h_journal_bytes : int;
  h_journal_lag : int;
}

(* Unsynchronized reads against live engines: each field is a single
   load (or a Buffer length), so a concurrent burst can make the row
   momentarily inconsistent — fine for the /healthz diagnostic, which
   never feeds a counter. *)
let health t =
  Array.map
    (fun e ->
      let jb, lag =
        match Engine.journal e with
        | Some j -> (Journal.bytes j, Journal.pending_bytes j)
        | None -> (0, 0)
      in
      {
        h_active = Engine.n_active e;
        h_degraded = Engine.degraded e;
        h_journal_bytes = jb;
        h_journal_lag = lag;
      })
    t.engines

(* ---------- dispatch ---------- *)

let enqueue_one t s job =
  Queue.push job t.queues.(s);
  Condition.signal t.conds.(s)

(* Route one request to a ticket. Mutations and reads on a thread id go
   to its shard's queue; STATS/SNAPSHOT/REBALANCE fan out as a barrier
   (pushed to every queue under one lock acquisition, so two barriers
   can never interleave their per-shard ordering — the deadlock-freedom
   argument for the arrival phase); TRACE reads the process-global span
   buffer and rides shard 0's queue. *)
let post ?conn t (req : Protocol.request) : ticket =
  let kind = Protocol.kind_of req in
  let rctx =
    if Aa_obs.Rctx.enabled () then
      Some (Aa_obs.Rctx.create ~kind ~conn:(Option.value conn ~default:0))
    else None
  in
  let tk = ticket ~kind ~t0:(Aa_obs.Clock.now_s ()) ~rctx in
  let local ~shard req =
    (match rctx with Some c -> Aa_obs.Rctx.set_shard c shard | None -> ());
    Request { req; ticket = tk } |> enqueue_one t shard
  in
  let barrier bkind =
    let b =
      { bkind; b_ticket = tk; b_results = Array.make t.n None; b_arrived = 0; b_done = 0 }
    in
    for s = 0 to t.n - 1 do
      enqueue_one t s (Barrier b)
    done
  in
  Mutex.lock t.lock;
  (match t.crashed with
  | Some name ->
      Mutex.unlock t.lock;
      deliver tk (Crashed name)
  | None ->
      (match req with
      | Admit _ ->
          let s = Atomic.fetch_and_add t.rr 1 mod t.n in
          local ~shard:s req
      | Depart g when g >= 0 && t.n > 1 -> local ~shard:(shard_of t g) (Depart (local_id t g))
      | Update (g, u) when g >= 0 && t.n > 1 ->
          local ~shard:(shard_of t g) (Update (local_id t g, u))
      | Query g when g >= 0 && t.n > 1 -> local ~shard:(shard_of t g) (Query (local_id t g))
      | (Depart _ | Update _ | Query _) as req ->
          (* n = 1 (identity mapping) or a negative id the engine's own
             validation will reject with its usual message *)
          local ~shard:0 req
      | Trace -> local ~shard:0 Trace
      | Slow -> local ~shard:0 Slow
      | Stats -> barrier B_stats
      | Snapshot -> barrier B_snapshot
      | Rebalance -> barrier B_rebalance);
      Mutex.unlock t.lock);
  tk

let submit t req = await t (post t req)

let post_line ?conn t line =
  match Aa_io.Format_text.tokens line with
  | [] -> `Blank
  | _ :: _ -> (
      let t0 = Aa_obs.Clock.now_s () in
      match Protocol.parse_request ~cap:(capacity t) line with
      | Ok req -> `Ticket (post ?conn t req)
      | Error resp ->
          Mutex.lock t.mlock;
          Metrics.record t.metrics ~kind:"malformed" ~ok:false
            ~latency:(Aa_obs.Clock.now_s () -. t0);
          Mutex.unlock t.mlock;
          `Immediate (Reply resp))

let handle_line t line : outcome option =
  match post_line t line with
  | `Blank -> None
  | `Ticket tk -> Some (await t tk)
  | `Immediate out -> Some out

let shutdown t =
  if Array.length t.workers > 0 then begin
    Mutex.lock t.lock;
    t.stop <- true;
    Array.iter Condition.broadcast t.conds;
    Condition.broadcast t.bcond;
    Mutex.unlock t.lock;
    Array.iter Domain.join t.workers;
    t.workers <- [||];
    (* fail anything still queued (posts that raced the shutdown) *)
    Array.iter
      (fun q -> Queue.iter (fail_job "shutdown") q)
      t.queues;
    Array.iter
      (fun e -> match Engine.journal e with Some j -> Journal.close j | None -> ())
      t.engines
  end
