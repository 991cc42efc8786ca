(** Structured JSONL access log of the daemon: one JSON object per
    acked request, one line per object, written by the thread that acks
    the request. Records are flushed in line-aligned batches (at most a
    few KiB or ~50 ms behind; {!close} drains the rest), so a crash
    loses at most the buffered tail and tears at most the final line —
    readers must tolerate a torn tail.

    Record schema (all integers exact, [ts] fractional Unix seconds):
    {v
    {"ts":…,"rid":N,"conn":N,"kind":"admit","shard":N,"outcome":"ok",
     "bytes":N,"total_ns":N,"validate_ns":N,"journal_ns":N,
     "apply_ns":N,"commit_wait_ns":N}
    v}
    [shard] is [-1] for cross-shard barrier requests; [outcome] is
    ["ok"], ["err:<code>"], ["dropped"] (the client went away before
    the reply was written) or ["crashed"] ({!Shard.finish} names them);
    [bytes] is the reply's wire size; the [*_ns] phase fields are 0 for
    requests that never entered that phase. Rids, timings and
    everything else here are log-side diagnostics under the determinism
    contract — never counters. *)

type t

val create : path:string -> (t, string) result
(** Open (append/create) the log file. *)

val log : t -> Aa_obs.Rctx.t -> outcome:string -> bytes:int -> unit
(** Append one record for a finished request context. Thread-safe;
    call after {!Aa_obs.Rctx.finish} so [total_ns] is stamped. *)

val close : t -> unit
