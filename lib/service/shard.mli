(** Sharded multi-engine dispatch: N {!Engine}s — each owning a
    contiguous block of servers, its own journal and one parked worker
    domain — behind a single {!Protocol} surface. It is the daemon's
    only request path: [aa_serve] runs every session through it, stdin
    and sockets alike, at any shard count.

    {b Routing.} The thread with shard-local id [l] on shard [s] has
    global id [g = l*n + s]; [s = g mod n] and [l = g / n] route
    DEPART/UPDATE/QUERY by pure arithmetic. ADMITs round-robin across
    shards. Servers map as [global = server_base(s) + local], with
    shard [s] owning [m/n (+1 for s < m mod n)] servers. With [n = 1]
    every mapping is the identity: every reply except STATS is
    byte-identical to the one engine's own {!Engine.handle} reply, and
    the journal is the same file.

    {b Group commit.} Each worker drains its queue in FIFO bursts and
    runs every burst of consecutive requests through
    {!Engine.handle_batch}: one journal write, one fsync, and only then
    are the burst's responses released — an ack always names durable
    state. A [window_s > 0] makes the worker sleep that long after
    waking so a burst can accumulate (fewer fsyncs, bounded added
    latency); [0] batches only what is already queued.

    {b Barriers.} STATS, SNAPSHOT and REBALANCE fan out to every shard
    under one lock acquisition and meet at an arrival barrier before
    computing, so the aggregated report is a consistent cut: every
    mutation queued before the barrier is flushed, none after it has
    started. REBALANCE sums per-shard online/offline utilities and
    reports the global gap; STATS sums the engines' {!Engine.stats},
    renders them with {!Engine.stats_report}, and appends [shards],
    per-shard [shard.K.admitted]/[shard.K.active] entries and the
    request metrics.

    {b Request metrics.} The dispatcher is the daemon's one
    {!Metrics} store: every request is recorded when first awaited,
    with its latency from {!post} (queueing included), malformed lines
    under the ["malformed"] kind; the summed REBALANCE gap is noted as
    [rebalance.gap].

    {b Crashes.} A {!Aa_fault.Failpoint.Crash} raised in any worker
    (the simulated process death) marks the whole group crashed: every
    unanswered ticket — including the crashing burst's, whose acks were
    withheld behind the uncommitted group — resolves to {!Crashed}, and
    later posts are refused with it. [aa_serve] translates the first
    {!Crashed} into the injected-crash exit (70).

    {b Observability.} Per-shard gauges [shard.K.active_threads] and
    [shard.K.journal_bytes] are set after every burst; batch sizes feed
    the [engine.group_commit.batch_size] histogram. When the
    {!Aa_obs.Rctx} layer is enabled, {!post} mints a request context
    per request: the owning shard is stamped at routing, engine
    dispatch runs the request's phases under its scope
    ({!Engine.handle_batch}'s [ctxs]), and barrier operations re-scope
    the one shared context per worker — STATS/SNAPSHOT/REBALANCE export
    as a single rid spanning every shard. The REBALANCE aggregate also
    overwrites the [engine.utility*] / [engine.alpha_bound_gap] gauges
    with fleet-wide sums, and STATS reports the summed certified
    interval once every shard has rebalanced. All of these are
    schedule-dependent and quarantined from the counter determinism
    contract, like [Pool.stats]. *)

type t

type outcome =
  | Reply of Protocol.response
  | Crashed of string  (** the failpoint name that killed the group *)

type ticket
(** An in-flight request: resolved exactly once, awaitable many times. *)

val server_counts : servers:int -> shards:int -> int array
(** Contiguous-block partition of [servers] over [shards]:
    [m/n + (1 if s < m mod n)] per shard. Raises [Invalid_argument]
    when [servers < shards] (every shard needs at least one server). *)

val create : ?window_s:float -> Engine.t array -> t
(** Spawn one worker domain per engine. The engines' server counts
    define the shard blocks (build them with {!server_counts} for the
    canonical partition); all engines must share one capacity.
    [window_s] (default 0) is the group-commit accumulation window; a
    burst drains at most 256 jobs. *)

val shards : t -> int
val capacity : t -> float
val servers : t -> int (* aa-lint: ignore unused-export -- introspection symmetry with Engine *)

val engines : t -> Engine.t array
(** The live engines, shard order. Callers must not mutate them while
    workers run; meant for post-shutdown inspection (journal fsync
    counts, replay checks). *)

val crashed : t -> string option
(** The failpoint that killed the group, once one has. *)

type shard_health = {
  h_active : int;
  h_degraded : bool;
  h_journal_bytes : int;  (** durable journal size ({!Journal.bytes}) *)
  h_journal_lag : int;
      (** bytes buffered in an open group commit, not yet durable *)
}

val health : t -> shard_health array
(** One row per shard, read {e unsynchronized} against the live
    engines: a concurrent burst can make a row momentarily
    inconsistent. Diagnostic only (the /healthz ops endpoint); never
    feed these into counters. *)

val post : ?conn:int -> t -> Protocol.request -> ticket
(** Enqueue a request and return immediately — the pipelining interface
    (a connection's reader posts while its writer awaits, giving the
    group-commit window queue depth from one client). When
    {!Aa_obs.Rctx.enabled}, a fresh request context is attached to the
    ticket, tagged with [conn] (default 0, the stdin pseudo-connection). *)

val await : t -> ticket -> outcome
(** Block until the ticket resolves. First await records the request's
    latency metric. *)

type delivery =
  | Sent of int  (** the reply was written; its wire size in bytes *)
  | Dropped  (** nothing was written: the client went away, or the group crashed *)

val finish : Access_log.t option -> ticket -> outcome -> delivery -> unit
(** The ack side's close of an awaited ticket, once per ticket: finish
    its request context ({!Aa_obs.Rctx.finish}) with outcome ["ok"],
    ["err:<code>"], ["dropped"] or ["crashed"], then append its
    {!Access_log} record. A no-op when the ticket has no context. *)

val submit : t -> Protocol.request -> outcome
(** [await t (post t req)]. *)

val post_line :
  ?conn:int -> t -> string -> [ `Blank | `Ticket of ticket | `Immediate of outcome ]
(** {!post} for wire lines: parse and enqueue without blocking.
    [`Blank] for blank/comment lines (no response due), [`Immediate]
    for malformed ones (counted under the ["malformed"] metrics kind). *)

val handle_line : t -> string -> outcome option
(** Parse and dispatch one wire line; [None] for blank/comment lines,
    [Some (Reply (Err …))] for malformed ones. *)

val shutdown : t -> unit
(** Join the worker domains (after their queues drain), fail any ticket
    that raced the stop, and close every engine's journal. Idempotent. *)
