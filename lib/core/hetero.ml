open Aa_numerics
open Aa_utility
open Aa_alloc

type t = { capacities : float array; utilities : Utility.t array }

let create ~capacities utilities =
  if Array.length capacities = 0 then invalid_arg "Hetero.create: need at least one server";
  Array.iter
    (fun c -> if not (c > 0.0) then invalid_arg "Hetero.create: capacities must be positive")
    capacities;
  if Array.length utilities = 0 then invalid_arg "Hetero.create: no threads";
  let cmax = Array.fold_left Float.max capacities.(0) capacities in
  Array.iteri
    (fun i f ->
      if not (Util.approx_equal ~eps:1e-9 (Utility.cap f) cmax) then
        invalid_arg
          (Printf.sprintf "Hetero.create: thread %d has domain cap %g, expected %g" i
             (Utility.cap f) cmax))
    utilities;
  { capacities; utilities }

let n_threads t = Array.length t.utilities
let n_servers t = Array.length t.capacities
let total_capacity t = Util.kahan_sum t.capacities

let to_homogeneous t =
  let c0 = t.capacities.(0) in
  if Array.for_all (fun c -> c = c0) t.capacities then
    Some (Instance.create ~servers:(n_servers t) ~capacity:c0 t.utilities)
  else None

type superopt = { chat : float array; utility : float }

let plc ?samples t = Array.map (Utility.to_plc ?samples) t.utilities

let superopt ?samples t =
  let r = Plc_greedy.allocate ~exhaust:true ~budget:(total_capacity t) (plc ?samples t) in
  { chat = r.alloc; utility = r.utility }

let solve ?samples t =
  let n = n_threads t in
  let m = n_servers t in
  let plcs = plc ?samples t in
  let so = Plc_greedy.allocate ~exhaust:true ~budget:(total_capacity t) plcs in
  let cmax = Array.fold_left Float.max t.capacities.(0) t.capacities in
  let peak = Array.mapi (fun i chat -> Plc.eval plcs.(i) (Util.clamp ~lo:0.0 ~hi:cmax chat)) so.alloc in
  let slope =
    Array.mapi
      (fun i chat ->
        if chat > 0.0 then peak.(i) /. chat
        else if peak.(i) > 0.0 then Float.infinity
        else 0.0)
      so.alloc
  in
  let idx = Array.make n 0 in
  Algo2.order_keys ~m ~peak ~slope idx;
  let heap = Heap.Indexed.create (Array.copy t.capacities) in
  let server = Array.make n (-1) in
  let alloc = Array.make n 0.0 in
  Array.iter
    (fun i ->
      let j = Heap.Indexed.max_element heap in
      let available = Heap.Indexed.priority heap j in
      let c = Float.min so.alloc.(i) available in
      server.(i) <- j;
      alloc.(i) <- c;
      Heap.Indexed.update heap j (available -. c))
    idx;
  Assignment.make ~server ~alloc

let check ?(eps = 1e-9) t (a : Assignment.t) =
  let n = n_threads t in
  if Assignment.n_threads a <> n then Error "thread count mismatch"
  else if Array.exists (fun j -> j < 0 || j >= n_servers t) a.server then
    Error "server index out of range"
  else if Array.exists (fun c -> c < 0.0 || Float.is_nan c) a.alloc then
    Error "negative or NaN allocation"
  else begin
    let load = Array.make (n_servers t) 0.0 in
    Array.iteri (fun i j -> load.(j) <- load.(j) +. a.alloc.(i)) a.server;
    let bad = ref None in
    Array.iteri
      (fun j l ->
        let slack = eps *. t.capacities.(j) *. float_of_int n in
        if l > t.capacities.(j) +. slack && !bad = None then bad := Some (j, l))
      load;
    match !bad with
    | Some (j, l) ->
        Error (Printf.sprintf "server %d overloaded: %g > %g" j l t.capacities.(j))
    | None -> Ok ()
  end

let utility_of t (a : Assignment.t) =
  Util.sum_by (fun i -> Utility.eval t.utilities.(i) a.alloc.(i)) (Array.init (n_threads t) Fun.id)

let uu t =
  let n = n_threads t in
  let m = n_servers t in
  let total = total_capacity t in
  (* weighted round robin: server j receives a share of threads
     proportional to its capacity, via largest-remainder assignment in
     arrival order *)
  let credit = Array.make m 0.0 in
  let server = Array.make n 0 in
  for i = 0 to n - 1 do
    for j = 0 to m - 1 do
      credit.(j) <- credit.(j) +. (t.capacities.(j) /. total)
    done;
    let best = Util.argmax Fun.id credit in
    server.(i) <- best;
    credit.(best) <- credit.(best) -. 1.0
  done;
  let counts = Array.make m 0 in
  Array.iter (fun j -> counts.(j) <- counts.(j) + 1) server;
  let alloc =
    Array.map (fun j -> t.capacities.(j) /. float_of_int (max 1 counts.(j))) server
  in
  Assignment.make ~server ~alloc

let exact ?samples t =
  let n = n_threads t in
  if n > Exact.max_threads then
    invalid_arg
      (Printf.sprintf "Hetero.exact: %d threads exceeds the limit of %d" n Exact.max_threads);
  let m = n_servers t in
  let plcs = plc ?samples t in
  let full = (1 lsl n) - 1 in
  let members mask =
    let out = ref [] in
    for i = n - 1 downto 0 do
      if mask land (1 lsl i) <> 0 then out := i :: !out
    done;
    Array.of_list !out
  in
  (* per-server pooled values, memoized *)
  let value = Array.init m (fun _ -> Array.make (full + 1) Float.nan) in
  let valloc = Array.init m (fun _ -> Array.make (full + 1) [||]) in
  let scratch = Plc_greedy.Scratch.create () in
  let value_of j mask =
    if Float.is_nan value.(j).(mask) then begin
      let ids = members mask in
      let fs = Array.map (fun i -> plcs.(i)) ids in
      let r = Plc_greedy.allocate ~scratch ~exhaust:false ~budget:t.capacities.(j) fs in
      value.(j).(mask) <- r.utility;
      valloc.(j).(mask) <- r.alloc
    end;
    value.(j).(mask)
  in
  (* dp.(j).(mask): best utility assigning exactly the threads in mask to
     servers 0..j-1 *)
  let dp = Array.make_matrix (m + 1) (full + 1) Float.neg_infinity in
  let choice = Array.make_matrix (m + 1) (full + 1) 0 in
  dp.(0).(0) <- 0.0;
  for j = 1 to m do
    for mask = 0 to full do
      (* enumerate submasks s of mask assigned to server j-1 *)
      let s = ref mask in
      let continue = ref true in
      while !continue do
        if dp.(j - 1).(mask lxor !s) > Float.neg_infinity then begin
          let cand = dp.(j - 1).(mask lxor !s) +. value_of (j - 1) !s in
          if cand > dp.(j).(mask) then begin
            dp.(j).(mask) <- cand;
            choice.(j).(mask) <- !s
          end
        end;
        if !s = 0 then continue := false else s := (!s - 1) land mask
      done
    done
  done;
  let server = Array.make n 0 in
  let alloc = Array.make n 0.0 in
  let mask = ref full in
  for j = m downto 1 do
    let s = choice.(j).(!mask) in
    ignore (value_of (j - 1) s);
    Array.iteri
      (fun pos i ->
        server.(i) <- j - 1;
        alloc.(i) <- valloc.(j - 1).(s).(pos))
      (members s);
    mask := !mask lxor s
  done;
  (Assignment.make ~server ~alloc, dp.(m).(full))
