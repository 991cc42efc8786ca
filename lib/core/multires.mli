(** Multi-resource extension of AA (the paper's second future-work item,
    §VIII): servers hold several resource types (CPU, memory, bandwidth,
    …) and threads consume them in fixed proportions.

    Model (the Leontief/DRF consumption model of Ghodsi et al., the
    standard way multi-resource schedulers express demands): thread [i]
    runs at a {e task rate} [t_i >= 0], consuming [t_i * demand.(r)] of
    each resource [r] on its server; its utility is a concave
    nondecreasing function of the task rate alone. Single-resource AA is
    the special case [demand = [|1.|]].

    No approximation guarantee is claimed (even the single-server
    allocation with multiple linear constraints is no longer solved
    exactly by segment greedy); everything here is explicitly heuristic,
    bracketed by a sound upper bound:

    - {!superopt_bound} relaxes to each resource separately (pool
      [m * C_r], ignore the others — every relaxation upper-bounds the
      true optimum) and takes the minimum;
    - {!allocate_server} fills segments by marginal utility per unit of
      {e currently scarcest} resource (progressive filling);
    - {!solve} orders threads with Algorithm 2's own order
      ({!Algo2.order_keys}, keyed on the linearized peaks and slopes at
      the tightest relaxation's rates) and places each on the server
      with the most dominant-resource headroom, then re-fills every
      server.

    The bench's [multires] experiment measures the heuristic against
    this bound and against a round-robin baseline. *)

type thread = {
  rate_utility : Aa_utility.Utility.t;
      (** concave utility of the task rate, on [[0, rate_cap]] where
          [rate_cap = min_r capacities.(r) / demand.(r)] (the fastest the
          thread can run on one whole server) *)
  demand : float array;  (** per-rate resource consumption, length R *)
}

type t = private {
  servers : int;
  capacities : float array;  (** per-resource capacity of every server *)
  threads : thread array;
}

val create : servers:int -> capacities:float array -> thread array -> t
(** Validates: positive capacities; each thread's demand has length R,
    all entries nonnegative with at least one positive; each
    [rate_utility]'s domain cap equals the thread's [rate_cap] within
    1e-6 relative. *)

val n_threads : t -> int
val rate_cap : t -> thread -> float

type allocation = {
  rates : float array;  (** task rate granted to each thread *)
  usage : float array;  (** per-resource total consumption *)
  utility : float;
}

val allocate_server : ?samples:int -> t -> int list -> allocation
(** Progressive-filling allocation of one server's capacity vector among
    the given thread indices. [rates] and [usage] are indexed like the
    input list / resources respectively. *)

val superopt_bound : ?samples:int -> t -> float
(** Sound upper bound on any feasible assignment's utility (minimum over
    single-resource relaxations). *)

type result = {
  server : int array;
  rates : float array;
  total : float;
  bound : float;  (** the {!superopt_bound} of the instance *)
}

val solve : ?samples:int -> t -> result
(** Heuristic assign-and-allocate: a portfolio of the relaxation-guided
    placement and the balanced round-robin placement, keeping whichever
    scores higher (with several resource types neither dominates the
    other). The result is feasible by construction; [total <= bound],
    and [total >= round_robin t .total] always. *)

val round_robin : ?samples:int -> t -> result
(** Baseline: place threads round-robin, then progressive-fill each
    server. *)
