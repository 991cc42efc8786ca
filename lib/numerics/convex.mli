(** Upper concave envelopes and shape checks on sampled functions.

    Points are passed as two parallel float arrays, abscissae [xs] and
    values [ys]. Results are fresh arrays: nothing here keeps or mutates
    a caller's array. *)

val sort_unique : float array -> float array -> float array * float array
(** [sort_unique xs ys] is the points sorted by strictly increasing x,
    where points sharing an x keep only the largest y. Input whose x is
    already strictly increasing is copied as is; otherwise an index
    permutation is sorted by [Float.compare] on x (NaN sorts first).
    Raises [Invalid_argument] when the lengths differ. *)

val upper_envelope : float array -> float array -> float array * float array
(** [upper_envelope xs ys] is the upper concave envelope (upper convex
    hull) of the points, as [(xs', ys')] with [xs'] strictly increasing:
    {!sort_unique}, then one monotone chain that drops every point at or
    below the chord of its neighbours. The result always contains the
    leftmost and rightmost x. Requires at least one point. *)

val is_concave : ?eps:float -> float array -> float array -> bool
(** Whether the piecewise-linear interpolant of the (x-sorted) points has
    nonincreasing slopes, up to tolerance [eps] (default 1e-9) relative to
    the magnitude of the slopes involved. *)

val is_nondecreasing : ?eps:float -> float array -> bool
(** [is_nondecreasing ys]: whether the values never decrease (up to
    [eps]) in array order. *)
