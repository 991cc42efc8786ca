(** Indexed binary max-heap over a fixed element set [0 .. n-1] with
    float priorities and key updates: Algorithm 2 uses it to track the
    server with the most remaining resources in [O(log m)] per step,
    and the PLC greedy allocator drives its k-way merge with it. *)

(** Max-heap over elements [0 .. n-1] with mutable float priorities. *)
module Indexed : sig
  type t

  val create : float array -> t
  (** [create prios] builds a heap over [0 .. Array.length prios - 1]
      keyed by the given priorities, in [O(n)]. *)

  val size : t -> int

  val max_element : t -> int
  (** Element with the largest priority (ties broken by smaller index).
      Raises [Not_found] when the heap is empty. *)

  val priority : t -> int -> float
  (** Current priority of an element. *)

  val update : t -> int -> float -> unit
  (** [update t e p] changes element [e]'s priority to [p], restoring the
      heap in [O(log n)]. *)

  val refill : t -> float -> unit
  (** [refill t p] resets every element's priority to [p], leaving the
      heap identical to [create (Array.make (size t) p)] — in [O(n)]
      with no allocation. Lets Algorithm 2's scratch state reuse one
      heap across trials of the same shape. *)

  val reset : t -> float array -> unit
  (** [reset t prios] reloads arbitrary priorities and re-heapifies,
      leaving the heap indistinguishable from [create prios] (same
      layout, same sift-swap count) — in [O(n)] with no allocation.
      Raises [Invalid_argument] if [Array.length prios <> size t]. The
      merge-based greedy allocator uses this to recycle one heap across
      same-shape solves. *)
end
