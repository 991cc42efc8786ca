(** Nestable timed spans over per-domain ring buffers.

    A span is a named region between {!begin_span} and {!end_span}
    (prefer the exception-safe {!span} wrapper outside hot loops),
    timestamped on the {!Clock}. Each domain records into its own
    fixed-size ring — no cross-domain synchronization on the hot path —
    and all probes are no-ops while {!Control.on} is false. When a ring
    wraps, the oldest events are overwritten ({!overwritten} counts
    them, and the [obs.trace.overwritten] callback gauge surfaces the
    total in the Prometheus exposition).

    Ring size: {!capacity} slots per domain, default 32768, overridable
    through the [AA_TRACE_RING] environment variable (read once at
    program start; rounded up to a power of two, bad values ignored).

    Events carry an optional request context [(rid, shard, conn)]: set
    {!set_ctx} on a domain and subsequent records are tagged with it
    until {!clear_ctx}. [Rctx] drives this; untagged events read -1.

    Exporters sanitize every buffer into a balanced B/E stream: ends
    whose begins were overwritten are dropped, spans still open at dump
    time get synthesized ends — so {!to_chrome_json} is always loadable
    in Perfetto / chrome://tracing, even dumped mid-request. Exports,
    {!clear} and the accounting reads walk other domains' buffers and
    are meant for quiescence (or a single-domain daemon dumping
    itself): never a crash, but spans recorded concurrently with the
    dump may be missed. *)

val capacity : int
(** Slots per per-domain ring, fixed at program start (see
    [AA_TRACE_RING] above). Always a power of two. *)

val ring_capacity_of : string option -> int
(** The capacity an [AA_TRACE_RING] value would select — [None] and
    unparseable or non-positive strings give the default, anything else
    is clamped to [16, 2^26] and rounded up to a power of two. Exposed
    for tests; {!capacity} is [ring_capacity_of] of the actual
    environment. *)

val set_ctx : rid:int -> shard:int -> conn:int -> unit
(** Tag subsequent records on the calling domain with this request
    context. [-1] in any position means "none". *)

val clear_ctx : unit -> unit
(** Reset the calling domain's context to untagged. *)

val begin_span : string -> unit
(** Open a span on the calling domain. Allocation-free on the hot path
    (the name should be a literal or pre-built string); no-op while
    observability is off. Must be balanced by {!end_span} on the same
    domain — [begin_span]/[end_span] pairs must not straddle a chunk
    boundary handed to another domain. *)

val end_span : unit -> unit
(** Close the innermost open span on the calling domain. *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] inside a span, closing it also on exception.
    The closure makes this the convenient form everywhere except
    allocation-sensitive inner loops, where the [begin_span]/[end_span]
    pair keeps the disabled path allocation-free. *)

type event = {
  domain : int;
  name : string;
  is_begin : bool;
  ts_ns : int;
  rid : int;  (** request id at record time; -1 = untagged *)
  shard : int;
  conn : int;
}

val events : unit -> event list
(** The sanitized, per-domain-chronological event stream behind the
    exporters: per domain, every begin has a matching end (in
    particular [end] events carry their span's name). *)

val n_events : unit -> int
val recorded : unit -> int
(** Raw events ever written, including overwritten ones — cheap (no
    buffer walk), monotonic; what the bench uses for per-experiment
    span deltas. *)

val overwritten : unit -> int
val unbalanced : unit -> int
(** Spans currently open across all domains. Zero at quiescence; the
    bench treats a nonzero value at exit as a hard error. *)

val clear : unit -> unit
(** Drop all recorded events (buffers stay allocated). Quiescence only. *)

val add_escaped : Buffer.t -> string -> unit
(** [add_escaped b s] appends [s] as the body of a JSON string: quote,
    backslash, LF, tab and CR get their short escapes, other control
    characters [\u00XX]. The one escaper behind every JSON the
    telemetry writes: trace exports, SLOW dumps, access-log records and
    [/healthz]. *)

val to_chrome_json : ?compact:bool -> unit -> string
(** Chrome [trace_event] JSON array ([{"name":…,"ph":"B"|"E","ts":…,
    "pid":1,"tid":<domain>}]): load in Perfetto (ui.perfetto.dev) or
    chrome://tracing. [ts] is microseconds at ns precision. [compact]
    puts everything on one line (the wire form of the TRACE request).
    Context-tagged events additionally carry
    [args:{rid,shard,conn}]. *)

val to_text_tree : ?limit:int -> unit -> string
(** Human-readable rendering: one block per domain, spans indented by
    nesting depth with millisecond durations; at most [limit] spans per
    domain (default 10000). *)
