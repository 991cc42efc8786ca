(** Wire protocol of the [aa_serve] allocation daemon.

    Line-oriented, UTF-8-free, human-typeable: one request per line, one
    response line per request (blank and [#]-comment lines are skipped
    by the session loop and get no response). Utility specs reuse the
    [thread] grammar of instance files
    ({!Aa_io.Format_text.parse_thread_spec}).

    Requests:
    {v
    ADMIT <utility-spec>        place a new thread (greedy, no migration)
    DEPART <id>                 remove a thread, free its resources
    UPDATE <id> <utility-spec>  replace a thread's utility in place
    QUERY <id>                  a thread's server, allocation and value
    STATS                       operational counters and latency quantiles
    SNAPSHOT                    compact the journal to current state
    REBALANCE                   offline Algorithm 2 re-solve of the active
                                set; reports the online/offline gap
    TRACE                       dump the in-process span buffer as one
                                line of Chrome trace JSON (empty when
                                tracing is off); slow-request captures
                                are spliced in when armed
    SLOW                        dump the slow-request keep-list as one
                                line of JSON (empty when --slow-ms is
                                not armed)
    v}

    Responses are a single [OK …] or [ERR <code> <message>] line; see
    [doc/service-protocol.md] for the full grammar. Malformed input
    parses to a ready-to-send [Err] response — it can never raise. *)

type request =
  | Admit of Aa_utility.Utility.t
  | Depart of int
  | Update of int * Aa_utility.Utility.t
  | Query of int
  | Stats
  | Snapshot
  | Rebalance
  | Trace
  | Slow

type error_code =
  | Bad_request  (** unknown verb or malformed arguments *)
  | Bad_spec  (** utility spec rejected (grammar, concavity, domain cap) *)
  | No_thread  (** id never admitted, or already departed *)
  | Journal_failed  (** the write-ahead journal could not be written *)
  | Degraded
      (** the engine is in degraded read-only mode after exhausting its
          journal-append retries; mutations are rejected without being
          attempted until a successful SNAPSHOT compaction heals the
          journal (QUERY/STATS/REBALANCE/TRACE still work) *)

type response =
  | Admitted of { id : int; server : int }
  | Departed of { id : int }
  | Updated of { id : int; server : int }
  | Thread_info of {
      id : int;
      server : int;
      alloc : float;
      value : float;
      active : bool;
    }
  | Stats_report of (string * string) list  (** ordered [key=value] pairs *)
  | Snapshot_done of {
      active : int;
      admitted : int;
      utility : float;
      compacted : bool;  (** false when the engine has no journal *)
    }
  | Rebalance_report of { online : float; offline : float; gap : float }
  | Trace_dump of { events : int; json : string }
      (** [json] is a compact (single-line) Chrome trace array; [events]
          counts its entries, [0] with an empty [[]] array when tracing
          is disabled *)
  | Slow_dump of { count : int; json : string }
      (** [json] is the compact {!Aa_obs.Rctx.slow_json} array of kept
          slow requests, most recent first; [count] its length ([0] and
          [[]] when slow capture is disarmed or nothing crossed the
          threshold) *)
  | Err of { code : error_code; message : string }

val parse_request : cap:float -> string -> (request, response) result
(** [cap] is the server capacity, used as the domain cap of smooth
    utility specs. The line is split once by {!Aa_io.Format_text.tokens}
    (the lexical layer shared by requests, journal lines and instance
    files), and an ADMIT / UPDATE spec's tokens go to
    {!Aa_io.Format_text.parse_thread} as they are. The error branch is
    always an {!Err} response, ready to print. *)

val print_request : request -> string
(** Canonical wire form; [parse_request] inverts it. *)

val kind_of : request -> string
(** The request kind's lower-case name (["admit"], ["query"], …): the
    span name of its dispatch, its metrics kind and its access-log
    [kind]. *)

val print_response : response -> string
(** One line, newline-free (embedded newlines in error messages are
    flattened to spaces). *)

val code_name : error_code -> string
