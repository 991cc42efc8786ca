(** The allocation daemon's stateful core: an {!Aa_core.Online} placer
    behind the {!Protocol} request dispatch, with write-ahead journaling.
    It is the state machine behind {!Shard}, the daemon's one request
    path: parsing, queueing, request metrics and acks live there, and an
    engine sees only typed requests ({!handle}, {!handle_batch}).

    Semantics per request:
    - ADMIT: admission control (the utility's domain cap must equal the
      server capacity — smooth specs inherit it, [plc] specs carry their
      own and are checked), then greedy placement. The mutation is
      journaled {e before} it is applied (write-ahead), so recovery
      never loses an acknowledged request.
    - DEPART / UPDATE: validated against the live thread set, journaled,
      applied; the thread's server re-divides its capacity.
    - QUERY: read-only thread view (historical server and zero
      allocation for departed threads).
    - STATS: the engine's gauges ({!stats_report}); the daemon's STATS
      is the {!Shard} barrier, which sums these over the shards and
      appends its request metrics.
    - SNAPSHOT: compacts the journal to a [place]-per-thread state dump
      ({!snapshot_entries}); a no-op (but still [OK]) without a journal.
    - REBALANCE: re-solves the {e active} set offline with
      {!Aa_core.Algo2} and reports the online/offline utility gap — the
      empirical counterpart of the paper's §VIII remark that online AA
      admits no constant competitive ratio. Read-only: the online
      placement is not migrated.
    - TRACE: dumps the in-process {!Aa_obs.Trace} span buffer as compact
      Chrome trace JSON (an empty array while tracing is off). Mutating
      requests record [validate]/[journal]/[apply] phase spans under a
      per-request span named after the request kind.

    {b Degraded mode.} A journal append that fails after
    [journal_retries] bounded-backoff retries flips the engine into a
    degraded read-only mode instead of failing each mutation
    independently: the triggering request and every later mutation get
    [ERR degraded], while QUERY, STATS, REBALANCE and TRACE keep being
    served (the WAL discipline guarantees memory still equals the
    durable state). A successful SNAPSHOT compaction — which rewrites
    the journal wholesale — heals the engine back to read-write. All
    transitions are counted in {!Aa_obs.Registry} under
    [engine.journal.retries], [engine.degraded.enter],
    [engine.degraded.rejected] and [engine.degraded.exit].

    {b Fault injection.} The failpoints [engine.dispatch] (before a
    request touches anything) and [engine.apply] (the WAL window: entry
    durable, mutation not yet applied) simulate process crashes by
    raising {!Aa_fault.Failpoint.Crash}; see doc/fault-injection.md.

    No request — well-formed or not — raises (except an armed crash
    failpoint, which is the point). *)

type t

val create :
  ?journal:Journal.t ->
  ?journal_retries:int ->
  ?retry_backoff_s:float ->
  ?coarsen_eps:float ->
  ?policy:Aa_core.Online.policy ->
  servers:int ->
  capacity:float ->
  unit ->
  t
(** A failed journal append is retried [journal_retries] times
    (default 2) with exponential backoff starting at [retry_backoff_s]
    seconds (default 1e-3) before the engine degrades.
    [coarsen_eps > 0] makes REBALANCE solve a certified
    eps-coarsened copy of the active instance ({!Aa_utility.Plc.coarsen})
    and report the guaranteed utility interval; 0 (default) solves at
    full resolution. [policy] selects the online maintenance strategy
    ({!Aa_core.Online.policy}, default [Incremental] — bit-identical to
    [Full], without the per-request allocator runs). Raises
    [Invalid_argument] on a negative or non-finite eps. *)

val servers : t -> int
val capacity : t -> float
val online : t -> Aa_core.Online.t
val journal : t -> Journal.t option

val degraded : t -> bool
(** Whether the engine is in degraded read-only mode (also reported as
    the [degraded] gauge in STATS). *)

val n_admitted : t -> int
val n_active : t -> int
val total_utility : t -> float

val utility_interval : t -> (float * float * float) option
(** The last REBALANCE's certified [(lower, upper, alpha_gap)]: the
    offline re-solve's exact utility lies in [[lower, upper]]
    ([lower = upper] without coarsening), and [alpha_gap] is the
    superopt certificate utility F̂ minus the online utility. [None]
    until a REBALANCE has run. Also exported as the [engine.utility*]
    and [engine.alpha_bound_gap] gauges and the
    [utility_lower]/[utility_upper]/[alpha_gap] STATS keys. *)

type stats = {
  admitted : int;
  active : int;
  utility : float;
  degraded : bool;
  policy : Aa_core.Online.policy;  (** the policy the engine was created with *)
  drift : float;
      (** {!Aa_core.Online.drift_bound} of the placer: certified upper
          bound on how far the serving utility sits below the pooled
          superopt bound ([engine.drift_bound] gauge); REBALANCE
          re-certifies (tightens) it *)
  splices : int;  (** incremental piece-order splices of the placer *)
  resolves : int;  (** full re-solves, {!Aa_core.Online.Auto} triggers *)
  interval : (float * float * float) option;  (** {!utility_interval} *)
}
(** The engine's STATS gauges as values, so {!Shard} can sum them over
    a barrier cut before rendering. *)

val stats : t -> stats

val stats_report : stats -> (string * string) list
(** The STATS keys shared by an engine and the sharded aggregate, in
    order: [admitted], [active], [utility], [degraded], [policy],
    [drift_bound], [incremental.splices], [incremental.resolves], then
    [utility_lower]/[utility_upper]/[alpha_gap] when [interval] is
    set. *)

val handle : t -> Protocol.request -> Protocol.response
(** Dispatch one request inside a span named {!Protocol.kind_of}.
    Never raises (except an armed crash failpoint). *)

val handle_batch :
  ?ctxs:Aa_obs.Rctx.t option array -> t -> Protocol.request list -> Protocol.response list
(** Dispatch the requests strictly in order under {e one} journal group
    commit: mutations buffer in the journal's group batch and become
    durable together at a single write + fsync ({!Journal.commit_group})
    — the batch's durability barrier. Responses must not be released to
    clients before this returns. On commit failure the engine degrades
    and every mutating OK in the batch is rewritten to [ERR degraded]
    (nothing is acked that the journal does not hold); an armed crash
    failpoint in the commit window ([journal.group.append] /
    [journal.group.fsync]) raises {!Aa_fault.Failpoint.Crash} with all
    acks withheld. Batches of length [<= 1], journal-less engines and
    already-degraded engines fall back to per-request {!handle}.
    Batch sizes are observed in the (schedule-dependent)
    [engine.group_commit.batch_size] histogram.

    [ctxs], when given, is parallel to the request list: request [i]
    dispatches inside [Rctx.with_current ctxs.(i)] (its spans tagged
    with the request id), is marked handled when dispatch returns, and
    marked committed after the group's fsync barrier — the gap is the
    context's group-commit wait. *)

val apply : t -> Journal.entry -> (unit, string) result
(** Replay path: validate and apply one journal entry without
    re-journaling. [Place] entries must arrive in admission order
    (consecutive ids from the current [n_admitted]). *)

val snapshot_entries : t -> Journal.entry list (* aa-lint: ignore unused-export -- snapshot/restore API, exercised via Journal replay *)
(** Full-state dump, one [Place] per admitted thread in id order;
    replaying it into a fresh engine reproduces servers, allocations and
    total utility exactly. *)

val of_journal :
  ?fsync:Journal.fsync_policy ->
  ?journal_retries:int ->
  ?retry_backoff_s:float ->
  ?coarsen_eps:float ->
  ?policy:Aa_core.Online.policy ->
  path:string ->
  unit ->
  (t, string) result
(** Crash recovery: load the journal, replay every entry, and keep the
    journal attached — rewritten (dropping any torn tail) under the
    given [fsync] policy — for subsequent appends.
    Replay runs under [policy]; [Auto] re-solve points are a pure
    function of the journaled mutation sequence, so recovering with the
    same policy the journal was written under reproduces the engine
    exactly. *)
