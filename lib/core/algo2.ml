open Aa_numerics

type server_rule = [ `Max_remaining | `Min_remaining | `Round_robin ]

(* Reusable per-worker buffers for [solve]: the assignment order and the
   remaining-capacity heap are shaped by (n, m) only, so experiment
   loops running thousands of same-shape trials can recycle them
   instead of re-allocating per call. The returned Assignment arrays
   escape to the caller and are always fresh. *)
module Scratch = struct
  type t = { mutable idx : int array; mutable heap : Heap.Indexed.t option }

  let create () = { idx = [||]; heap = None }

  let idx_for t n =
    if Array.length t.idx <> n then t.idx <- Array.make n 0;
    t.idx

  let heap_for t m capacity =
    match t.heap with
    | Some h when Heap.Indexed.size h = m ->
        Heap.Indexed.refill h capacity;
        h
    | Some _ | None ->
        let h = Heap.Indexed.create (Array.make m capacity) in
        t.heap <- Some h;
        h
end

let c_solves = Aa_obs.Registry.counter "algo2.solves"
let c_sorts = Aa_obs.Registry.counter "algo2.sorts"
let c_assigned = Aa_obs.Registry.counter "algo2.threads_assigned"

(* Both comparators are total orders, so any correct sort yields the
   same permutation; merge sort is the stdlib's fastest here. *)
let order_keys ?(tail_resort = true) ~m ~peak ~slope idx =
  let n = Array.length idx in
  for i = 0 to n - 1 do
    idx.(i) <- i
  done;
  let desc (key : float array) a b =
    match compare key.(b) key.(a) with 0 -> compare a b | c -> c
  in
  Array.stable_sort (desc peak) idx;
  if tail_resort && n > m then begin
    let tail = Array.sub idx m (n - m) in
    Array.stable_sort (desc slope) tail;
    Array.blit tail 0 idx m (n - m)
  end

let order_into ?(tail_resort = true) (lin : Linearized.t) idx =
  let m = lin.instance.servers in
  let peak = Array.map (fun (th : Linearized.thread) -> th.peak) lin.threads in
  let slope = Array.map (fun (th : Linearized.thread) -> th.slope) lin.threads in
  order_keys ~tail_resort ~m ~peak ~slope idx;
  Aa_obs.Registry.Counter.add c_sorts (if tail_resort && Array.length idx > m then 2 else 1)

let order ?tail_resort (lin : Linearized.t) =
  let idx = Array.make (Array.length lin.threads) 0 in
  order_into ?tail_resort lin idx;
  idx

let solve ?linearized ?tail_resort ?(server_rule = `Max_remaining) ?scratch
    (inst : Instance.t) =
  Aa_obs.Registry.Counter.incr c_solves;
  Aa_obs.Trace.begin_span "algo2";
  let lin = match linearized with Some l -> l | None -> Linearized.make inst in
  let n = Instance.n_threads inst in
  let m = inst.servers in
  let idx, heap =
    match scratch with
    | Some s -> (Scratch.idx_for s n, Scratch.heap_for s m inst.capacity)
    | None -> (Array.make n 0, Heap.Indexed.create (Array.make m inst.capacity))
  in
  order_into ?tail_resort lin idx;
  let server = Array.make n (-1) in
  let alloc = Array.make n 0.0 in
  let rr = ref 0 in
  Array.iter
    (fun i ->
      let j =
        match server_rule with
        | `Max_remaining -> Heap.Indexed.max_element heap
        | `Min_remaining ->
            (* heap-free linear scan: the ablation wants the argmin of the
               remaining capacities, ties to the smaller index, and a
               max-heap cannot pop its minimum — O(m) per thread is fine
               for an ablation-only rule (see the scan test) *)
            let best = ref 0 in
            for k = 1 to m - 1 do
              if Heap.Indexed.priority heap k < Heap.Indexed.priority heap !best then
                best := k
            done;
            !best
        | `Round_robin ->
            let j = !rr mod m in
            incr rr;
            j
      in
      let available = Heap.Indexed.priority heap j in
      let c = Float.min lin.threads.(i).chat available in
      server.(i) <- j;
      alloc.(i) <- c;
      Heap.Indexed.update heap j (available -. c))
    idx;
  Aa_obs.Registry.Counter.add c_assigned n;
  Aa_obs.Trace.end_span ();
  Assignment.make ~server ~alloc
