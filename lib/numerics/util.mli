(** Small numeric helpers shared across the library. *)

val clamp : lo:float -> hi:float -> float -> float
(** [clamp ~lo ~hi x] is [x] restricted to the interval [[lo, hi]].
    Requires [lo <= hi]. *)

val approx_equal : ?eps:float -> float -> float -> bool
(** [approx_equal ?eps a b] holds when [a] and [b] differ by at most [eps]
    in absolute terms, or by [eps] relative to the larger magnitude.
    [eps] defaults to [1e-9]. *)

val feq : ?eps:float -> float -> float -> bool
(** Tolerant float equality — the comparison [aa_lint] requires in place
    of [=] on floats. Alias of {!approx_equal}; the short name keeps
    numeric guard clauses readable. *)

val fne : ?eps:float -> float -> float -> bool
(** Negation of {!feq}, replacing [<>] on floats. *)

val feq_rel : ?rel:float -> float -> float -> bool
(** Purely {e relative} tolerant equality: [|a - b| <= rel * max |a| |b|]
    (plus exact equality, covering zeros and equal infinities). [rel]
    defaults to [1e-9]. Unlike {!feq}, there is no absolute-epsilon
    branch, so the test scales with the operands at both extremes —
    [feq ~eps:1e-9 1e-12 2e-12] accepts values 2x apart (the absolute
    branch swallows them) and at magnitude [1e12] nothing short of bit
    equality passes the absolute branch alone. Use for quantities with
    arbitrary scale, e.g. capacity caps. *)

val fne_rel : ?rel:float -> float -> float -> bool
(** Negation of {!feq_rel}. *)

val kahan_sum : float array -> float
(** Compensated (Kahan) summation, stable for long sums of small terms. *)

val sum_by : ('a -> float) -> 'a array -> float
(** [sum_by f a] is the compensated sum of [f a.(i)] over all elements. *)

val linspace : float -> float -> int -> float array
(** [linspace a b k] is [k] evenly spaced points from [a] to [b]
    inclusive. Requires [k >= 2]. *)

val logspace : float -> float -> int -> float array
(** [logspace a b k] is [k] logarithmically spaced points from [a] to [b]
    inclusive. Requires [0 < a <= b] and [k >= 2]. *)

val argmax : ('a -> float) -> 'a array -> int
(** Index of the first element maximizing [f]. Raises [Invalid_argument]
    on an empty array. *)

val float_down : float -> float
(** Largest representable float strictly below the argument (predecessor);
    identity on infinities and nan. *)

val is_sorted_strict : float array -> bool
(** Whether the array is strictly increasing. *)
