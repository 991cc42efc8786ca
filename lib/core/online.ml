open Aa_numerics
open Aa_utility

type resident = {
  thread : int;
  mutable plc : Plc.t;
  mutable alloc : float;
  mutable acc : float; (* scratch for what-if fills; meaningless between calls *)
}

(* Per-server merged piece order, struct-of-arrays: the first [len]
   entries of the parallel [ss] (slope) / [ww] (width) / [ow] (owner)
   arrays are the residents' strictly-positive-slope linear pieces,
   sorted by (slope desc, admission id desc). Because resident lists are
   newest-first (admission id descending), this key is exactly the
   (slope desc, thread-array-index asc) pop order of the
   [Plc_greedy.allocate] k-way merge over those residents — so a linear
   walk of these arrays replays the from-scratch water-fill bit for bit.
   The flat layout keeps splices at memmove speed: inserting a thread's
   pieces shifts blocks with [Array.blit] instead of moving boxed
   records one by one.

   Only a prefix of the canonical order is stored: pieces past the
   water line — where the cumulative width already covers the server
   capacity — can never be consumed by a fill, so splices truncate the
   dead tail and the arrays stay O(consumed pieces) instead of O(all
   resident pieces). [complete] records whether anything was truncated;
   a removal that drags the stored width below the capacity (plus a
   relative slack that dominates float accumulation error) then forces
   a rebuild from the resident PLCs. Truncation never changes a fill:
   the stored prefix always carries at least the capacity in width, so
   the water-fill exhausts its budget strictly inside it. *)
type order = {
  mutable ss : float array;
  mutable ww : float array;
  mutable ow : resident array;
  mutable len : int;
  mutable complete : bool;
}

type policy = Incremental | Auto of { frac : float }

type t = {
  m : int;
  c : float;
  policy : policy;
  mutable n : int; (* admitted threads *)
  mutable active : int; (* admitted and not departed *)
  residents : resident list array; (* per server, newest first *)
  counts : int array; (* per server, [List.length residents.(j)] *)
  orders : order array; (* per server merged piece order *)
  values : float array; (* current optimal value of each server *)
  utilities : Utility.t Dynvec.t;
  servers_of : int Dynvec.t; (* admission order -> server *)
  departed : bool Dynvec.t;
  byid : resident Dynvec.t; (* admission order -> resident record, O(1) lookups *)
  mutable drift : float; (* published certified bound on F-hat - U *)
  mutable drift_trig : float; (* resolve-trigger accumulator; replay-deterministic *)
  mutable splices : int;
  mutable resolves : int;
}

let create ?(policy = Incremental) ~servers ~capacity () =
  if servers < 1 then invalid_arg "Online.create: need at least one server";
  if not (capacity > 0.0) then invalid_arg "Online.create: capacity must be positive";
  (match policy with
  | Auto { frac } ->
      if not (frac >= 0.0 && frac <= 1.0) then
        invalid_arg "Online.create: Auto fraction must be in [0, 1]"
  | Incremental -> ());
  {
    m = servers;
    c = capacity;
    policy;
    n = 0;
    active = 0;
    residents = Array.make servers [];
    counts = Array.make servers 0;
    orders =
      Array.init servers (fun _ ->
          { ss = [||]; ww = [||]; ow = [||]; len = 0; complete = true });
    values = Array.make servers 0.0;
    utilities = Dynvec.create ();
    servers_of = Dynvec.create ();
    departed = Dynvec.create ();
    byid = Dynvec.create ();
    drift = 0.0;
    drift_trig = 0.0;
    splices = 0;
    resolves = 0;
  }

let servers t = t.m
let capacity t = t.c
let n_admitted t = t.n
let policy t = t.policy
let drift_bound t = t.drift
let splices t = t.splices
let resolves t = t.resolves

let is_active t i = i >= 0 && i < t.n && not (Dynvec.get t.departed i)

let n_active t = t.active

(* --- merged piece order maintenance -------------------------------- *)

let ensure_room o extra filler =
  let need = o.len + extra in
  if need > Array.length o.ss then begin
    let ncap = Int.max need (Int.max 8 (2 * Array.length o.ss)) in
    let nss = Array.make ncap 0.0 in
    let nww = Array.make ncap 0.0 in
    let now_ = Array.make ncap filler in
    Array.blit o.ss 0 nss 0 o.len;
    Array.blit o.ww 0 nww 0 o.len;
    Array.blit o.ow 0 now_ 0 o.len;
    o.ss <- nss;
    o.ww <- nww;
    o.ow <- now_
  end

(* Truncation slack: the stored prefix keeps width >= cap * (1 + 2e-9).
   The 2e-9 margin is orders of magnitude above the discrepancy between
   the truncation's prefix sum and fill's sequential
   remaining-subtraction, so a fill can never run off the end of a
   truncated order. *)
let keep_factor = 1.000000002

(* Merge the strictly-positive-slope pieces of [r.plc] into [o], keyed
   (slope desc, admission id desc). The pieces arrive slope-descending,
   so their insertion points are found right to left by binary search
   and the blocks between them shift with one [Array.blit] each:
   O(np log len) compares plus memmove traffic, instead of a
   compare-and-move per element. The dead tail past the water line is
   then truncated, keeping the order O(consumed pieces). *)
let splice ~cap o r =
  let xs = Plc.Flat.breakpoints r.plc in
  let ss = Plc.Flat.slopes r.plc in
  let np = Plc.positive_pieces r.plc in
  if np > 0 then begin
    ensure_room o np r;
    (* elements of the sorted prefix strictly before a (slope, id) key *)
    let stays_before i s =
      o.ss.(i) > s || (Float.compare o.ss.(i) s = 0 && o.ow.(i).thread > r.thread)
    in
    let src_end = ref (o.len - 1) in
    let dst = ref (o.len + np - 1) in
    for j = np - 1 downto 0 do
      let s = ss.(j) in
      (* smallest index in [0, src_end] whose element sorts after the key *)
      let lo = ref 0 and hi = ref (!src_end + 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if stays_before mid s then lo := mid + 1 else hi := mid
      done;
      let cnt = !src_end - !lo + 1 in
      if cnt > 0 then begin
        let d = !dst - cnt + 1 in
        Array.blit o.ss !lo o.ss d cnt;
        Array.blit o.ww !lo o.ww d cnt;
        Array.blit o.ow !lo o.ow d cnt;
        dst := !dst - cnt
      end;
      o.ss.(!dst) <- s;
      o.ww.(!dst) <- xs.(j + 1) -. xs.(j);
      o.ow.(!dst) <- r;
      decr dst;
      src_end := !lo - 1
    done;
    o.len <- o.len + np;
    (* truncate past the water line: a piece whose preceding width
       already covers the slacked capacity can never be filled *)
    let keep = cap *. keep_factor in
    let cum = ref 0.0 and k = ref 0 in
    while !k < o.len && !cum < keep do
      cum := !cum +. o.ww.(!k);
      incr k
    done;
    if !k < o.len then begin
      o.len <- !k;
      o.complete <- false
    end
  end

(* Drop [r]'s pieces from [o], preserving the order of the rest. Only
   sound on a [complete] order: removing width from a truncated one can
   pull once-dead pieces back above the water line, and later splices
   rely on dropped pieces staying dead — truncated orders rebuild on
   removal instead. *)
let unsplice o r =
  let k = ref 0 in
  for i = 0 to o.len - 1 do
    if o.ow.(i) != r then begin
      if !k < i then begin
        o.ss.(!k) <- o.ss.(i);
        o.ww.(!k) <- o.ww.(i);
        o.ow.(!k) <- o.ow.(i)
      end;
      incr k
    end
  done;
  o.len <- !k

(* Utility of server [j]'s committed allocations, with the exact Kahan
   recurrence [Util.sum_by] applies in [Plc_greedy.allocate] — same terms,
   same order (the resident list is the from-scratch thread array). *)
let value_of rs =
  let sum = ref 0.0 and comp = ref 0.0 in
  List.iter
    (fun r ->
      let y = Plc.eval r.plc r.alloc -. !comp in
      let s = !sum +. y in
      comp := s -. !sum -. y;
      sum := s)
    rs;
  !sum

(* Water-fill server [j] from its merged piece order. Bit-identical to
   [Plc_greedy.allocate ~exhaust:false] over the same residents: the same
   takes, in the same order, accumulated with the same float operations. *)
let fill t j =
  let o = t.orders.(j) in
  let rs = t.residents.(j) in
  List.iter (fun r -> r.alloc <- 0.0) rs;
  let remaining = ref t.c in
  let i = ref 0 in
  while !remaining > 0.0 && !i < o.len do
    let take = Float.min o.ww.(!i) !remaining in
    let r = o.ow.(!i) in
    r.alloc <- r.alloc +. take;
    remaining := !remaining -. take;
    incr i
  done;
  t.values.(j) <- value_of rs

(* What-if value of admitting PLC [p] (with the next admission id, i.e. the
   largest) on server [j], via a two-stream merge walk over the committed
   piece order and the newcomer's positive pieces — no committed state is
   touched and no allocator call is made. The newcomer wins slope ties
   (largest id = lowest thread-array index in the from-scratch merge). *)
let what_if t j ~xs ~ss ~np p =
  let o = t.orders.(j) in
  let rs = t.residents.(j) in
  List.iter (fun r -> r.acc <- 0.0) rs;
  let nalloc = ref 0.0 in
  let remaining = ref t.c in
  let i = ref 0 and k = ref 0 in
  while !remaining > 0.0 && (!i < o.len || !k < np) do
    let newcomer_first = !k < np && (!i >= o.len || ss.(!k) >= o.ss.(!i)) in
    if newcomer_first then begin
      let take = Float.min (xs.(!k + 1) -. xs.(!k)) !remaining in
      nalloc := !nalloc +. take;
      remaining := !remaining -. take;
      incr k
    end
    else begin
      let take = Float.min o.ww.(!i) !remaining in
      let r = o.ow.(!i) in
      r.acc <- r.acc +. take;
      remaining := !remaining -. take;
      incr i
    end
  done;
  let sum = ref 0.0 and comp = ref 0.0 in
  let add v =
    let y = v -. !comp in
    let s = !sum +. y in
    comp := s -. !sum -. y;
    sum := s
  in
  add (Plc.eval p !nalloc);
  List.iter (fun r -> add (Plc.eval r.plc r.acc)) rs;
  !sum

(* --- committed-state mutations -------------------------------------- *)

(* Recreate server [j]'s order from its residents' PLCs. The result is
   the minimal canonical prefix carrying the slacked capacity,
   whichever history led here. *)
let rebuild t j =
  let o = t.orders.(j) in
  o.len <- 0;
  o.complete <- true;
  List.iter (fun r -> splice ~cap:t.c o r) t.residents.(j)

(* Register a new thread on server [j] with PLC form [p]: splice its pieces
   in and record the admission-order bookkeeping. *)
let enroll t j u p =
  let r = { thread = t.n; plc = p; alloc = 0.0; acc = 0.0 } in
  Dynvec.push t.utilities u;
  Dynvec.push t.servers_of j;
  Dynvec.push t.departed false;
  Dynvec.push t.byid r;
  t.n <- t.n + 1;
  t.active <- t.active + 1;
  t.counts.(j) <- t.counts.(j) + 1;
  t.residents.(j) <- r :: t.residents.(j);
  splice ~cap:t.c t.orders.(j) r;
  fill t j;
  t.splices <- t.splices + 1

(* Each mutation accrues a certified upper bound on how much further the
   online solution may have fallen behind the pooled bound F-hat (Lemma
   V.2): admitting/updating a thread raises F-hat by at most the new
   curve's peak while realizing [delta] online; a departure lowers the
   online value by [delta] while F-hat cannot increase. Clamping each
   increment at 0 only loosens (never unsounds) the bound. *)
let accrue_drift t d =
  let d = Float.max 0.0 d in
  t.drift <- t.drift +. d;
  t.drift_trig <- t.drift_trig +. d

let total_utility t = Util.kahan_sum t.values

let check_id t name i =
  if i < 0 || i >= t.n then invalid_arg (name ^ ": unknown thread")

let server_of t i =
  check_id t "Online.server_of" i;
  Dynvec.get t.servers_of i

let thread_utility t i =
  check_id t "Online.thread_utility" i;
  Dynvec.get t.utilities i

let alloc_of t i =
  check_id t "Online.alloc_of" i;
  if Dynvec.get t.departed i then 0.0 else (Dynvec.get t.byid i).alloc

let active_ids t =
  let ids = ref [] in
  for i = t.n - 1 downto 0 do
    if not (Dynvec.get t.departed i) then ids := i :: !ids
  done;
  Array.of_list !ids

(* The views of the active set, over ids the caller computed once. *)
let nonempty what ids =
  if Array.length ids = 0 then invalid_arg (what ^ ": no active threads")

let instance_of t ids =
  Instance.create ~servers:t.m ~capacity:t.c (Array.map (Dynvec.get t.utilities) ids)

let active_instance t =
  let ids = active_ids t in
  nonempty "Online.active_instance" ids;
  instance_of t ids

let resolve t =
  t.resolves <- t.resolves + 1;
  let ids = active_ids t in
  for j = 0 to t.m - 1 do
    t.residents.(j) <- [];
    t.counts.(j) <- 0;
    t.orders.(j).len <- 0;
    t.orders.(j).complete <- true;
    t.values.(j) <- 0.0
  done;
  if Array.length ids = 0 then begin
    t.drift <- 0.0;
    t.drift_trig <- 0.0
  end
  else begin
    let inst = instance_of t ids in
    (* one pooled solve: Algorithm 2 and the drift certificate share F̂ *)
    let lin = Linearized.make inst in
    let x = Algo2.solve ~linearized:lin inst in
    (* [ids] ascends, so prepending rebuilds the newest-first invariant *)
    Array.iteri
      (fun k i ->
        let r = Dynvec.get t.byid i in
        let j = x.Assignment.server.(k) in
        Dynvec.set t.servers_of i j;
        t.residents.(j) <- r :: t.residents.(j);
        t.counts.(j) <- t.counts.(j) + 1)
      ids;
    for j = 0 to t.m - 1 do
      rebuild t j;
      fill t j
    done;
    let d = Float.max 0.0 (lin.superopt.utility -. total_utility t) in
    t.drift <- d;
    t.drift_trig <- d
  end

let note_bound t ~upper =
  t.drift <- Float.min t.drift (Float.max 0.0 (upper -. total_utility t))

(* Auto trigger: re-solve once the certified online value has decayed below
   [frac] of what the bound says might be attainable. Driven by the pure
   accumulator [drift_trig] (never tightened by out-of-band REBALANCE
   certificates), so journal replay reproduces re-solve points exactly. *)
let maybe_resolve t =
  match t.policy with
  | Auto { frac } ->
      if t.drift_trig > 0.0 then begin
        let u = total_utility t in
        if u < frac *. (u +. t.drift_trig) then resolve t
      end
  | Incremental -> ()

let check_cap name t u =
  if not (Util.approx_equal ~eps:1e-9 (Utility.cap u) t.c) then
    invalid_arg (name ^ ": utility domain cap must equal the server capacity")

let admit ?samples t u =
  check_cap "Online.admit" t u;
  let p = Utility.to_plc ?samples u in
  let xs = Plc.Flat.breakpoints p in
  let ss = Plc.Flat.slopes p in
  let np = Plc.positive_pieces p in
  (* marginal gain of placing the newcomer on each server *)
  let best = ref (-1) in
  let best_gain = ref Float.neg_infinity in
  for j = 0 to t.m - 1 do
    let gain = what_if t j ~xs ~ss ~np p -. t.values.(j) in
    let emptier =
      match !best with -1 -> true | b -> t.counts.(j) < t.counts.(b)
    in
    if gain > !best_gain +. 1e-12 then begin
      best := j;
      best_gain := gain
    end
    else if Util.approx_equal ~eps:1e-12 gain !best_gain && emptier then
      (* Tie: prefer the emptier server but keep the incumbent gain as the
         tie anchor — updating it here would let the 1e-12 window creep
         across servers whose end-to-end gains differ by far more. *)
      best := j
  done;
  let j = !best in
  let id = t.n in
  let before = t.values.(j) in
  enroll t j u p;
  accrue_drift t (Plc.peak p -. (t.values.(j) -. before));
  maybe_resolve t;
  Dynvec.get t.servers_of id

let admit_to ?samples t ~server u =
  if server < 0 || server >= t.m then invalid_arg "Online.admit_to: server out of range";
  check_cap "Online.admit_to" t u;
  let p = Utility.to_plc ?samples u in
  let id = t.n in
  let before = t.values.(server) in
  enroll t server u p;
  accrue_drift t (Plc.peak p -. (t.values.(server) -. before));
  maybe_resolve t;
  id

let depart t i =
  if not (is_active t i) then invalid_arg "Online.depart: unknown or departed thread";
  let j = Dynvec.get t.servers_of i in
  Dynvec.set t.departed i true;
  t.active <- t.active - 1;
  t.counts.(j) <- t.counts.(j) - 1;
  let before = t.values.(j) in
  let r = Dynvec.get t.byid i in
  t.residents.(j) <- List.filter (fun r' -> r'.thread <> i) t.residents.(j);
  let o = t.orders.(j) in
  if o.complete then unsplice o r else rebuild t j;
  fill t j;
  accrue_drift t (before -. t.values.(j));
  maybe_resolve t

let update_utility ?samples t i u =
  if not (is_active t i) then
    invalid_arg "Online.update_utility: unknown or departed thread";
  check_cap "Online.update_utility" t u;
  let j = Dynvec.get t.servers_of i in
  Dynvec.set t.utilities i u;
  let p = Utility.to_plc ?samples u in
  let r = Dynvec.get t.byid i in
  r.plc <- p;
  let before = t.values.(j) in
  let o = t.orders.(j) in
  if o.complete then begin
    unsplice o r;
    splice ~cap:t.c o r
  end
  else rebuild t j;
  fill t j;
  t.splices <- t.splices + 1;
  accrue_drift t (Plc.peak p -. (t.values.(j) -. before));
  maybe_resolve t

let assignment t =
  if t.n = 0 then invalid_arg "Online.assignment: no threads admitted";
  let server = Array.init t.n (Dynvec.get t.servers_of) in
  let alloc =
    Array.init t.n (fun i ->
        if Dynvec.get t.departed i then 0.0 else (Dynvec.get t.byid i).alloc)
  in
  Assignment.make ~server ~alloc

let instance t =
  if t.n = 0 then invalid_arg "Online.instance: no threads admitted";
  Instance.create ~servers:t.m ~capacity:t.c (Array.init t.n (Dynvec.get t.utilities))

let assignment_of t ids =
  Assignment.make
    ~server:(Array.map (Dynvec.get t.servers_of) ids)
    ~alloc:(Array.map (alloc_of t) ids)

let active_assignment t =
  let ids = active_ids t in
  nonempty "Online.active_assignment" ids;
  assignment_of t ids

let active_view t =
  let ids = active_ids t in
  nonempty "Online.active_view" ids;
  (instance_of t ids, assignment_of t ids)

let solve_sequence ?samples ?policy ~servers ~capacity us =
  let t = create ?policy ~servers ~capacity () in
  Array.iter (fun u -> ignore (admit ?samples t u)) us;
  assignment t
