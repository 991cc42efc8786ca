(** Utilities constructed from measured sample points.

    The paper's workload generator fixes three anchor points and smooths
    them with Matlab's PCHIP; real systems would instead measure a
    thread's performance at a handful of allocations (e.g. miss-rate
    curves from cache-partitioning hardware). Either way the raw
    interpolant is not guaranteed concave, so this module samples it
    densely and takes the upper concave envelope, producing an exact
    {!Plc.t} that satisfies the model assumptions. *)

val of_points : ?resolution:int -> (float * float) array -> Utility.t
(** [of_points pts] interpolates the anchor points with PCHIP, samples
    the interpolant at [resolution] points (default 128) and returns the
    upper concave envelope as a PLC utility. Requirements: at least two
    points, x strictly increasing starting at 0, y nonnegative
    nondecreasing. The samples stay two float arrays: y is clipped at 0,
    then {!Aa_numerics.Convex.upper_envelope} and {!Plc.of_arrays} take
    their fast path, as sample x is already strictly increasing. *)

val envelope_deviation : ?resolution:int -> (float * float) array -> float
(** Maximum absolute difference between the PCHIP interpolant and the
    concave envelope actually used, normalized by the peak value —
    measures how much the concavity repair distorts the generated
    utility (reported in EXPERIMENTS.md; typically well below 1%). *)
