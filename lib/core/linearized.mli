(** The linearized problem of Section V-A.

    Each concave utility [f_i] is replaced by the ramp
    [g_i(x) = (x / ĉ_i) · f_i(ĉ_i)] for [x <= ĉ_i], constant afterwards,
    where [ĉ_i] is the thread's super-optimal allocation. [g_i] minorizes
    [f_i] (Lemma V.4) and agrees with it at [ĉ_i], so an [α]-approximate
    solution of the linearized instance is [α]-approximate for the
    original (Theorem V.16). A thread's [chat], [peak] and [slope]
    define its ramp completely; no function object is built. *)

type thread = {
  index : int;
  chat : float;  (** super-optimal allocation ĉ_i *)
  peak : float;  (** g_i(ĉ_i) = f_i(ĉ_i) *)
  slope : float;
      (** peak / ĉ_i, the ramp slope; [infinity] when [ĉ_i = 0] with
          positive peak, [0] when the peak is 0 *)
}

type t = {
  instance : Instance.t;
  superopt : Superopt.t;
  threads : thread array;  (** in original thread order *)
}

val make : ?samples:int -> ?exhaust:bool -> Instance.t -> t
(** Computes the super-optimal allocation and linearizes every thread. *)

val of_superopt : Instance.t -> Superopt.t -> t
(** Linearize against an already-computed super-optimal allocation. *)

val g_value : thread -> float -> float
(** [g_value th x]: the linearized utility of allocating [x], in closed
    form. [peak] when [ĉ_i ≈ 0] (the constant ramp); otherwise [x] is
    clamped at 0, and the value is [peak] for [x >= ĉ_i] and
    [slope *. x] below. Bit-identical to evaluating the two-piece PLC
    through [(0, 0)], [(ĉ_i, peak)] and [(C, peak)]. *)

val superoptimal_utility : t -> float
(** [F̂] of the linearized instance = [sum_i peak_i] (equals the concave
    instance's super-optimal utility by construction). *)
