(** Online AA (the paper's second future-work item, §VIII): threads
    arrive one at a time and must be placed immediately, without
    migration. Within a server, resources may be re-divided among the
    threads already there (cache partitions and VM sizes can be adjusted
    in place; moving a thread cannot).

    The policy is marginal-gain greedy: for each server, compute the
    optimal (water-filling) value of its resident threads with and
    without the newcomer, and place the thread where the increase is
    largest — ties to the emptier server.

    Each server's merged piece order stays alive between requests:
    ADMIT evaluates candidates with an allocator-free two-stream merge
    walk and splices the winner's pieces in, DEPART/UPDATE re-fill only
    the affected server — [O(m · S)] per admission, where [S] bounds a
    server's total PLC segments, with no allocator calls at all.
    Because resident lists are newest-first, the merged (slope desc,
    admission id desc) order replays a from-scratch
    {!Aa_alloc.Plc_greedy.allocate} over each server's residents bit
    for bit; the tests hold this engine to such a from-scratch placer.

    Every mutation also accrues a {e certified drift bound}: an upper
    bound on [F̂ − U], the gap between the pooled super-optimal bound
    (Lemma V.2) and the online utility — exact for PLC utilities,
    relative to the PLC-minorant forms for smooth ones. {!Auto} uses it
    to trigger a full re-solve (Algorithm 2 with migration) once the
    online value certifiably decays below a configured fraction of what
    the bound says might be attainable.

    There is no constant competitive ratio for this problem (an
    adversary can fill servers with low-value threads first); the bench's
    [online] experiment measures the empirical gap to offline
    Algorithm 2. *)

type t

type policy =
  | Incremental  (** splice-maintained piece orders; never migrates *)
  | Auto of { frac : float }
      (** incremental maintenance plus a certified decay trigger: after
          any mutation, if [U < frac · (U + drift)] a full re-solve
          (with migration) runs at the mutation boundary. [frac = 0.]
          never re-solves; [frac = 1.] re-solves on any certified loss. *)

val create : ?policy:policy -> servers:int -> capacity:float -> unit -> t
(** [policy] defaults to {!Incremental}. Raises [Invalid_argument] for
    [servers < 1], a non-positive [capacity], or an {!Auto} fraction
    outside [[0, 1]]. *)

val servers : t -> int
val capacity : t -> float
val n_admitted : t -> int
val policy : t -> policy

val admit : ?samples:int -> t -> Aa_utility.Utility.t -> int
(** Places one thread, returning its server. The thread's utility must
    have domain cap equal to the server capacity. Allocations of the
    chosen server's resident threads are re-optimized. Under {!Auto} the
    admission may trigger a re-solve, in which case the returned server
    is the thread's post-migration home. *)

val admit_to : ?samples:int -> t -> server:int -> Aa_utility.Utility.t -> int
(** [admit_to t ~server u] admits a thread onto an explicit server,
    bypassing the greedy placement rule, and returns the new thread id
    (its admission index). Used by deterministic replay — a journal that
    records each thread's historical server can reconstruct the engine
    exactly, placement decisions included. Raises [Invalid_argument] on
    a server out of range or a domain-cap mismatch. *)

val depart : t -> int -> unit
(** [depart t i] removes the thread admitted [i]-th (0-based); its
    server's capacity is re-divided among the remaining residents.
    Raises [Invalid_argument] for unknown or already-departed threads.
    Departed threads keep their historical server in {!assignment} but
    hold 0 resources and contribute nothing to {!total_utility}. *)

val update_utility : ?samples:int -> t -> int -> Aa_utility.Utility.t -> unit
(** [update_utility t i u] replaces thread [i]'s utility — the paper's
    "utility functions … may change over time; integrate online
    performance measurements" (§VIII). The thread stays on its server
    (no migration, unless an {!Auto} re-solve fires); that server's
    allocations are re-optimized under the new curve. Raises for
    unknown/departed threads or cap mismatch. *)

val n_active : t -> int
(** Admitted and not departed. O(1): a counter kept by admission and
    {!depart}. *)

val is_active : t -> int -> bool

val drift_bound : t -> float
(** Certified upper bound on [F̂ − U] for the current active set: how far
    the online utility may certifiably sit below the pooled
    super-optimal bound (and hence below any assignment, offline
    re-solves included). Accrued per mutation, tightened by
    {!note_bound}, reset exactly by {!resolve}. *)

val splices : t -> int
(** Incremental piece-order splices performed (admissions and utility
    updates). *)

val resolves : t -> int
(** Re-solves performed ({!resolve} calls, including {!Auto}
    triggers). *)

val resolve : t -> unit
(** Re-solve the active set from scratch with Algorithm 2 — the one
    operation allowed to migrate threads — then reset the drift
    certificate to [max 0 (F̂ − U)]. One pooled solve
    ({!Linearized.make}) feeds both: Algorithm 2 runs on it, and F̂ is
    its [superopt.utility]. With no active threads, clears all servers
    and zeroes the drift. *)

val note_bound : t -> upper:float -> unit
(** [note_bound t ~upper] tightens the published {!drift_bound} given a
    freshly computed pooled upper bound (e.g. the F̂ of the pooled solve
    that the service REBALANCE runs for Algorithm 2); keeps whichever
    certificate is smaller. Never loosens the bound, and never affects
    {!Auto} triggering — re-solve points stay a pure function of the
    mutation sequence so journal replay reproduces them. *)

val assignment : t -> Assignment.t
(** Current assignment of all admitted threads, in admission order.
    Raises [Invalid_argument] if nothing was admitted. *)

val instance : t -> Instance.t
(** The offline instance formed by the admitted threads (for comparing
    against offline algorithms). Raises if nothing was admitted.
    Includes departed threads — use {!active_instance} for a view of the
    live set only. *)

val server_of : t -> int -> int
(** The server a thread was admitted to (historical for departed
    threads). Raises [Invalid_argument] for unknown ids. *)

val alloc_of : t -> int -> float
(** The thread's current allocation; [0.] for departed threads. O(1) via
    the admission-id index. Raises [Invalid_argument] for unknown ids. *)

val thread_utility : t -> int -> Aa_utility.Utility.t
(** The utility most recently registered for a thread (admission value,
    or the last {!update_utility}). Raises for unknown ids. *)

val active_ids : t -> int array
(** Admission indices of the non-departed threads, increasing. *)

val active_instance : t -> Instance.t
(** The offline instance formed by the active (non-departed) threads
    only, ordered as {!active_ids} — the set an offline re-solve
    (service REBALANCE) should compete on. Raises [Invalid_argument]
    when no thread is active. *)

val active_assignment : t -> Assignment.t
(** Current servers and allocations of the active threads, indexed as
    {!active_ids} (thread [k] of {!active_instance} is admission id
    [(active_ids t).(k)]). Raises when no thread is active. *)

val active_view : t -> Instance.t * Assignment.t
(** [(active_instance t, active_assignment t)] from one walk over the
    departed flags — what a REBALANCE scores the live assignment on.
    Raises when no thread is active. *)

val total_utility : t -> float
(** Utility of the current assignment. *)

val solve_sequence :
  ?samples:int ->
  ?policy:policy ->
  servers:int ->
  capacity:float ->
  Aa_utility.Utility.t array ->
  Assignment.t
(** Convenience: admit the whole array in order and return the final
    assignment. *)
