(** Unified utility-function type.

    A utility function gives a thread's performance as a function of the
    resources allocated to it, on the domain [[0, cap]] where [cap] is the
    per-server capacity [C]. It must be nonnegative, nondecreasing and
    concave (the paper's Section III model).

    Two representations coexist: exact piecewise-linear concave ({!Plc})
    functions — closed under linearization and allowing exact
    water-filling — and smooth closed-form functions evaluated
    numerically. {!to_plc} converts the latter into the former. *)

type t =
  | Plc of Plc.t  (** exact piecewise-linear concave *)
  | Smooth of smooth  (** closed-form concave function *)

and smooth = {
  name : string;
  cap : float;
  eval : float -> float;
  deriv : float -> float;  (** right derivative, nonincreasing *)
  demand : (float -> float) option;
      (** [demand lambda]: largest x in [[0,cap]] with derivative >= lambda;
          when [None], it is obtained by bisection on [deriv]. *)
  spec : spec option;
      (** constructor parameters when built by {!Shapes}, letting
          serialization round-trip exactly *)
}

and spec =
  | Spec_power of { coeff : float; beta : float }
  | Spec_log of { coeff : float; rate : float }
  | Spec_saturating of { limit : float; halfway : float }
  | Spec_exp_saturating of { limit : float; rate : float }

val of_plc : Plc.t -> t

val cap : t -> float
(** Upper end of the domain. *)

val eval : t -> float -> float
(** Value at an allocation; arguments clamped to [[0, cap]]. *)

val peak : t -> float
(** Value at the full capacity [cap]. *)

val deriv : t -> float -> float
(** Right derivative ([0] at and beyond [cap]). May be [infinity] at 0 for
    shapes like [x^b], [b < 1]. *)

val demand : t -> float -> float
(** [demand t lambda] = largest x in [[0,cap]] with derivative >= lambda.
    Nonincreasing in [lambda]; [demand t 0. = cap t]. *)

val to_plc : ?samples:int -> t -> Plc.t
(** Convert to an exact piecewise-linear concave function. For [Plc] this
    is the identity. For [Smooth] the function is sampled at [samples]
    points (default 64; denser near 0 where concave functions curve the
    most) and replaced by the upper concave envelope of the samples. *)

val check : ?samples:int -> t -> (unit, string) result
(** Sample-based verification that the function is nonnegative,
    nondecreasing and concave; returns a description of the first
    violation found. *)

val pp : Format.formatter -> t -> unit (* aa-lint: ignore unused-export -- debug printer, kept for toplevel/driver use *)

(** Closed-form concave families. All take the domain cap [c] and yield
    functions that satisfy the model assumptions. *)
module Shapes : sig
  val power : cap:float -> coeff:float -> beta:float -> t
  (** [coeff * x^beta] with [beta] in (0, 1], [coeff >= 0]. *)

  val log_utility : cap:float -> coeff:float -> rate:float -> t
  (** [coeff * log(1 + rate * x)], [rate > 0]. *)

  val saturating : cap:float -> limit:float -> halfway:float -> t
  (** Michaelis–Menten [limit * x / (x + halfway)], [halfway > 0]: utility
      approaches [limit], reaching half of it at [x = halfway]. *)

  val exp_saturating : cap:float -> limit:float -> rate:float -> t
  (** [limit * (1 - exp (-rate * x))], [rate > 0]. *)

  val linear : cap:float -> slope:float -> t
  (** [slope * x] (as an exact PLC). *)

  val capped_linear : cap:float -> slope:float -> knee:float -> t
  (** Rises with [slope] to [knee], then flat (exact PLC); the reduction /
      tightness family. *)
end
