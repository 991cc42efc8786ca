(** Piecewise-linear concave nondecreasing utility functions on [[0, cap]].

    This is the exact, canonical representation used throughout the AA
    algorithms: slopes are strictly decreasing across segments and every
    query (value, slope, inverse slope) is answered exactly, which lets
    the super-optimal allocation and the linearized problem of Lai et
    al. §V be solved without numeric tolerance games.

    Canonical form: breakpoints start at [x = 0], end at [x = cap],
    consecutive collinear segments are merged, and all slopes are
    [>= 0]. *)

type t

type segment = { x0 : float; x1 : float; y0 : float; slope : float }
(** One linear piece: value [y0 + slope * (x - x0)] on [[x0, x1]]. *)

val of_arrays : xs:float array -> ys:float array -> t
(** [of_arrays ~xs ~ys] builds the function interpolating the points
    [(xs.(i), ys.(i))], in any order; duplicate x keeps the larger y.
    Requirements, checked and raising [Invalid_argument] with a
    [Plc.create:] message: the smallest x is [0] (a start within 1e-9 of
    [0] is snapped to it); coordinates are finite; y values are
    nonnegative and nondecreasing in x; slopes are nonincreasing
    (concavity), within a 1e-9 relative tolerance — tiny violations from
    float noise are repaired by taking the upper concave envelope; at
    least two distinct points remain once collinear segments merge.
    Input whose x is already strictly increasing (samples, printed
    specs) skips the sort. The arrays are copied, never kept. *)

val create : (float * float) array -> t
(** [create points] is {!of_arrays} on the points split into x and y
    arrays — the same constructor for literal point lists. *)

val constant : cap:float -> float -> t
(** [constant ~cap v] is the function identically [v >= 0] on [[0, cap]]. *)

val capped_linear : cap:float -> slope:float -> knee:float -> t
(** [capped_linear ~cap ~slope ~knee] rises with [slope] until [knee],
    then is flat until [cap] — the utility family used by the paper's
    NP-hardness reduction and tightness example. Requires
    [0 <= knee <= cap] and [slope >= 0]. *)

val cap : t -> float
val eval : t -> float -> float
(** Arguments are clamped to [[0, cap]]. *)

val peak : t -> float
(** [eval t (cap t)] — the largest attainable utility. *)

val max_slope : t -> float
(** Slope of the first segment ([0] for constant functions). *)

val slope_right : t -> float -> float
(** Right derivative at [x] ([0] at and beyond [cap]). *)

val demand : t -> float -> float
(** [demand t lambda] is the largest [x] in [[0, cap]] whose right
    derivative is at least [lambda] — the thread's resource demand at
    marginal price [lambda]. [demand t 0.] = [cap]; nonincreasing in
    [lambda]. For positive [lambda] the result is always a breakpoint. *)

val segments : t -> segment array
(** The linear pieces, in increasing x, slopes strictly decreasing. *)

val n_pieces : t -> int
(** Number of linear pieces (segments). At least 1. *)

val positive_pieces : t -> int
(** Number of leading pieces with strictly positive slope — the only
    pieces a greedy water-filling allocation can ever consume. O(log k). *)

(** Zero-copy access to the flat struct-of-arrays representation, for
    kernels (greedy allocation, linearization) that iterate pieces
    without per-segment boxing. The returned arrays are the internal
    storage: callers must treat them as read-only. *)
module Flat : sig
  val breakpoints : t -> float array
  (** Strictly increasing, [breakpoints.(0) = 0.], last entry = [cap]. *)

  val prefix_utility : t -> float array
  (** [prefix_utility.(k) = eval t breakpoints.(k)]; same length as
      [breakpoints]. *)

  val slopes : t -> float array
  (** [slopes.(k)] is the slope on
      [[breakpoints.(k), breakpoints.(k+1)]]; strictly decreasing;
      length [n_pieces]. *)
end

val coarsen : eps:float -> t -> t
(** [coarsen ~eps t] drops breakpoints whose removal changes the
    function by at most [eps] anywhere: the result [t'] satisfies
    [0 <= eval t x -. eval t' x <= eps] for every [x] (the coarse
    envelope is a chord chain of the concave original, hence a pointwise
    lower bound), has the same [cap] and the same endpoint values, and
    is again concave with strictly decreasing slopes. [eps = 0.] (or a
    function with <= 1 piece) returns [t] physically unchanged.
    Requires [eps >= 0.]. Greedy left-to-right chord extension; O(k^2)
    worst case, linear on smooth envelopes. *)

val restrict : t -> cap:float -> t
(** Restriction to a smaller domain [[0, cap]]. Requires
    [0 < cap <= cap t]. *)

val scale : t -> y:float -> t
(** Pointwise multiplication of values by [y >= 0]. *)

val equal : ?eps:float -> t -> t -> bool
(** Pointwise approximate equality (compared on the union of
    breakpoints). *)

val pp : Format.formatter -> t -> unit
