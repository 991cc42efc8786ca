(** Shape-preserving piecewise cubic Hermite interpolation
    (Fritsch–Carlson), a reimplementation of the PCHIP scheme used by the
    paper's Matlab workload generator.

    Given data points with strictly increasing abscissae, the interpolant
    passes through every point, is C¹, and is monotone on every interval
    where the data are monotone — so nondecreasing samples yield a
    nondecreasing utility function. Concavity is {e not} guaranteed in
    general; see {!Aa_utility.Sampled} for the concave-envelope repair. *)

type t

val create : xs:float array -> ys:float array -> t
(** [create ~xs ~ys] interpolates the points [(xs.(i), ys.(i))].
    Requires [xs] strictly increasing and at least two points.
    Raises [Invalid_argument] otherwise. *)

val eval : t -> float -> float
(** Value of the interpolant. Arguments outside the data range are clamped
    to the nearest endpoint. *)

val deriv : t -> float -> float
(** Derivative of the interpolant (one-sided at breakpoints, 0 outside the
    data range). *)

val sample : t -> int -> float array * float array
(** [sample t k] evaluates the interpolant at [k >= 2] evenly spaced
    points spanning the data range, endpoints included: [(xs, ys)] with
    [ys.(i) = eval t xs.(i)], as two fresh arrays. *)

val breakpoints : t -> (float * float) array
(** The original data points. *)
