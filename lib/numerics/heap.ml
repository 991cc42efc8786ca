module Indexed = struct
  type t = {
    prio : float array; (* priority of each element *)
    heap : int array; (* heap positions -> elements *)
    pos : int array; (* elements -> heap positions *)
    n : int;
  }

  (* Sift swaps are the heap-op count behind Algorithm 2's
     O(n log m) assignment phase — a pure function of the key
     sequence, so the total is schedule-independent. *)
  let c_swaps = Aa_obs.Registry.counter "heap.sift_swaps"
  let c_updates = Aa_obs.Registry.counter "heap.updates"

  (* Element a beats element b when its priority is higher, or equal with a
     smaller index: makes consumers (Algorithm 2) deterministic. *)
  let beats t a b = t.prio.(a) > t.prio.(b) || (t.prio.(a) = t.prio.(b) && a < b)

  let swap t i j =
    Aa_obs.Registry.Counter.incr c_swaps;
    let a = t.heap.(i) and b = t.heap.(j) in
    t.heap.(i) <- b;
    t.heap.(j) <- a;
    t.pos.(b) <- i;
    t.pos.(a) <- j

  let rec sift_up t i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if beats t t.heap.(i) t.heap.(parent) then begin
        swap t i parent;
        sift_up t parent
      end
    end

  let rec sift_down t i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let best = ref i in
    if l < t.n && beats t t.heap.(l) t.heap.(!best) then best := l;
    if r < t.n && beats t t.heap.(r) t.heap.(!best) then best := r;
    if !best <> i then begin
      swap t i !best;
      sift_down t !best
    end

  let create prios =
    let n = Array.length prios in
    let t =
      { prio = Array.copy prios; heap = Array.init n (fun i -> i); pos = Array.init n (fun i -> i); n }
    in
    for i = (n / 2) - 1 downto 0 do
      sift_down t i
    done;
    t

  let size t = t.n

  let max_element t =
    if t.n = 0 then raise Not_found;
    t.heap.(0)

  let priority t e = t.prio.(e)

  let update t e p =
    Aa_obs.Registry.Counter.incr c_updates;
    let old = t.prio.(e) in
    t.prio.(e) <- p;
    let i = t.pos.(e) in
    if p > old then sift_up t i else sift_down t i

  (* With all priorities equal, the identity arrangement is a heap (ties
     break toward the smaller index, which identity satisfies), and it
     is exactly what [create (Array.make n p)] builds — so refilled and
     fresh heaps are indistinguishable to consumers. *)
  let refill t p =
    for i = 0 to t.n - 1 do
      t.prio.(i) <- p;
      t.heap.(i) <- i;
      t.pos.(i) <- i
    done

  (* Restore the identity arrangement first, then run exactly the
     bottom-up heapify of [create]: same sift_down sequence from the
     same start state, so a reset heap is indistinguishable from
     [create prios] — swap counters included. *)
  let reset t prios =
    if Array.length prios <> t.n then invalid_arg "Heap.Indexed.reset: size mismatch";
    for i = 0 to t.n - 1 do
      t.prio.(i) <- prios.(i);
      t.heap.(i) <- i;
      t.pos.(i) <- i
    done;
    for i = (t.n / 2) - 1 downto 0 do
      sift_down t i
    done
end
