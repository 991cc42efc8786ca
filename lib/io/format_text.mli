(** Plain-text serialization of AA instances and solutions.

    Instance format (line-oriented; [#] starts a comment):
    {v
    servers 4
    capacity 8.0
    thread plc 0 0 2.5 1 8 1.5      # breakpoints: x y pairs
    thread power 4.0 0.5            # coeff beta
    thread log 3.0 1.0              # coeff rate
    thread saturating 8.0 2.0       # limit halfway
    thread expsat 8.0 0.5           # limit rate
    thread capped 1.5 6.0           # slope knee
    thread linear 0.8               # slope
    v}

    Solution format: one [assign <thread> <server> <alloc>] line per
    thread.

    Smooth utilities print as their closed-form spec, so instances
    written by {!print_instance} round-trip exactly. *)

val parse_instance : string -> (Aa_core.Instance.t, string) result
(** Parse the text of an instance file. Errors carry a line number. *)

val tokens : string -> string list
(** The tokens of one line: maximal runs of characters other than
    space and tab, up to the first [#] (the rest is a comment). The
    instance format and the aa_serve wire protocol share it. *)

val parse_thread : cap:float -> string list -> (Aa_utility.Utility.t, string) result
(** {!parse_thread_spec} on a spec already split by {!tokens}: the
    wire protocol and the journal hand over the tokens that follow
    their verb, so a spec is tokenized once. *)

val parse_thread_spec :
  cap:float -> string -> (Aa_utility.Utility.t, string) result
(** Parse one utility spec — the part of a [thread] line after the
    keyword, e.g. ["power 4.0 0.5"] or ["plc 0 0 2.5 1 8 1.5"]. [cap]
    is the domain cap used for the smooth shapes; a [plc] spec carries
    its own cap in the breakpoints (callers enforcing a fixed capacity
    must check {!Aa_utility.Utility.cap} on the result). Whitespace and
    [#] comments are tolerated, as in instance files. This is the
    grammar the aa_serve wire protocol embeds in ADMIT / UPDATE. A
    [plc] spec's numbers go straight into {!Aa_utility.Plc.of_arrays}. *)

val print_thread_spec : Aa_utility.Utility.t -> string
(** Render one utility as a spec string (no [thread] keyword, no
    newline) that {!parse_thread_spec} reparses exactly: smooth shapes
    built by {!Aa_utility.Utility.Shapes} print their constructor with
    [%.17g] parameters, everything else prints PLC breakpoints. *)

val print_instance : Aa_core.Instance.t -> string
(** Render an instance in the format above. PLC utilities print their
    breakpoints; smooth shapes print their constructor when the utility
    was built by {!Aa_utility.Utility.Shapes} (recognized by name),
    otherwise they are converted to PLC breakpoints. *)

val parse_assignment : string -> (Aa_core.Assignment.t, string) result
val print_assignment : Aa_core.Assignment.t -> string

val load_instance : string -> (Aa_core.Instance.t, string) result
(** Read and parse a file. *)

val save : string -> string -> (unit, string) result
(** [save path contents] writes a file, reporting system errors. *)
