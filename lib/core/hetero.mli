(** Heterogeneous-server extension of AA (the paper's first future-work
    item, §VIII): servers may have different capacities.

    The super-optimal bound generalizes directly — pool
    [B = sum_j capacity_j] and cap each thread at the largest server.
    The assignment step generalizes Algorithm 2: threads in Algorithm 2's
    own order ({!Algo2.order_keys}) are placed on the server with the
    most remaining resource. The [2(√2−1)] proof does {e not}
    carry over verbatim (Lemmas V.5–V.8 use homogeneity), so the
    guarantee here is empirical: the bench's [hetero] experiment measures
    the achieved ratio against the generalized F̂, and the exact solver
    below verifies small instances. *)

type t = private {
  capacities : float array;  (** per-server resource, all positive *)
  utilities : Aa_utility.Utility.t array;
      (** each defined on [[0, max capacity]] *)
}

val create : capacities:float array -> Aa_utility.Utility.t array -> t
(** Validates: at least one server, positive capacities, at least one
    thread, every utility's domain cap equal to the largest capacity. *)

val n_threads : t -> int
val n_servers : t -> int

val total_capacity : t -> float

val to_homogeneous : t -> Instance.t option
(** The equivalent {!Instance.t} when all capacities are equal. *)

type superopt = { chat : float array; utility : float }

val superopt : ?samples:int -> t -> superopt
(** Pooled bound: maximize [sum f_i(ĉ_i)] s.t. [sum ĉ_i <= sum_j C_j] and
    [ĉ_i <= max_j C_j]. Upper-bounds every feasible assignment. *)

val solve : ?samples:int -> t -> Assignment.t
(** Generalized Algorithm 2: {!Algo2.order_keys} over the pooled
    allocation's peaks and slopes, then max-remaining placement. *)

val check : ?eps:float -> t -> Assignment.t -> (unit, string) result
(** Feasibility against per-server capacities. *)

val utility_of : t -> Assignment.t -> float

val uu : t -> Assignment.t
(** Capacity-aware UU baseline: threads are placed round-robin weighted
    by capacity (larger servers receive proportionally more threads) and
    each server's capacity is split equally among its threads. *)

val exact : ?samples:int -> t -> Assignment.t * float
(** Optimal assignment by dynamic programming over (server, thread-set)
    pairs, [O(m 3^n)]; requires [n_threads <= Exact.max_threads]. *)
