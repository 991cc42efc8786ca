(** Algorithm 2 (Section VI): the faster [O(n (log mC)²)]
    [2(√2−1)]-approximation.

    Threads are sorted by nonincreasing linearized peak [g_i(ĉ_i)]; the
    tail beyond the first [m] is re-sorted by nonincreasing ramp slope
    [g_i(ĉ_i)/ĉ_i]. Threads are then assigned in this order, each to the
    server with the most remaining resource (a max-heap), receiving
    [min ĉ_i (remaining)]. *)

type server_rule =
  [ `Max_remaining  (** the paper's rule *)
  | `Min_remaining  (** ablation: worst-fit inverted *)
  | `Round_robin  (** ablation: ignore remaining resource *) ]

(** Reusable solve buffers (assignment order, capacity heap) for tight
    same-shape trial loops; see {!solve}'s [scratch]. A scratch value
    must not be shared across domains running concurrently — give each
    worker its own. *)
module Scratch : sig
  type t

  val create : unit -> t
  (** Empty scratch; buffers are (re)grown on first use per shape. *)
end

val solve :
  ?linearized:Linearized.t ->
  ?tail_resort:bool ->
  ?server_rule:server_rule ->
  ?scratch:Scratch.t ->
  Instance.t ->
  Assignment.t
(** [solve inst] runs the full pipeline. [tail_resort] (default true)
    applies line 2 of the pseudocode — disabling it is the A1 ablation.
    [server_rule] (default [`Max_remaining]) selects the server choice
    rule; only the default carries the approximation guarantee.
    [scratch] recycles the internal order/heap buffers across calls of
    the same shape [(n, m)] — results are bit-identical with or without
    it; the returned assignment never aliases scratch storage. *)

val order : ?tail_resort:bool -> Linearized.t -> int array
(** The assignment order used by [solve] (exposed for tests):
    {!order_keys} over the threads' [peak] and [slope] fields. *)

val order_keys :
  ?tail_resort:bool -> m:int -> peak:float array -> slope:float array -> int array -> unit
(** [order_keys ~m ~peak ~slope idx] fills [idx] with [0 .. n-1] sorted
    by [peak] descending, then re-sorts the tail beyond the first [m] by
    [slope] descending (unless [tail_resort] is false); ties go to the
    smaller index. Algorithm 2's one order: {!solve}, {!Hetero.solve}
    and {!Multires.solve} call it with their own keys. Counts nothing;
    [algo2.sorts] counts {!solve}'s sorts only. *)
