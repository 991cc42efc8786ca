(** Exact discrete allocation by dynamic programming.

    [O(n * budget^2)] time and [O(n * budget)] space — far too slow for
    real instances, but an unconditional optimum that does not rely on
    concavity. The oracle {!Aa_alloc.Plc_greedy} is held to on integer
    grids. *)

type result = { alloc : int array; utility : float }

val allocate : budget:int -> unit_size:float -> Aa_utility.Utility.t array -> result
(** Thread [i] holding [u] units has utility
    [eval f_i (min (u * unit_size) (cap f_i))]. Works for arbitrary
    (even non-concave) value tables. *)

val allocate_values : budget:int -> float array array -> result
(** Lower-level entry point: [values.(i).(u)] is thread [i]'s utility at
    [u] units, [0 <= u <= budget] (rows may be shorter; missing entries
    repeat the last). Rows must be nonempty with nonnegative entries. *)
