open Aa_numerics
open Aa_utility
open Aa_alloc

type thread = { rate_utility : Utility.t; demand : float array }
type t = { servers : int; capacities : float array; threads : thread array }

let resources t = Array.length t.capacities

let rate_cap_of ~capacities (th : thread) =
  let best = ref Float.infinity in
  Array.iteri
    (fun r d -> if d > 0.0 then best := Float.min !best (capacities.(r) /. d))
    th.demand;
  !best

let create ~servers ~capacities threads =
  if servers < 1 then invalid_arg "Multires.create: need at least one server";
  if Array.length capacities = 0 then invalid_arg "Multires.create: no resources";
  Array.iter
    (fun c -> if not (c > 0.0) then invalid_arg "Multires.create: capacities must be positive")
    capacities;
  if Array.length threads = 0 then invalid_arg "Multires.create: no threads";
  Array.iteri
    (fun i th ->
      if Array.length th.demand <> Array.length capacities then
        invalid_arg (Printf.sprintf "Multires.create: thread %d demand length mismatch" i);
      Array.iter
        (fun d -> if d < 0.0 || Float.is_nan d then invalid_arg "Multires.create: bad demand")
        th.demand;
      if not (Array.exists (fun d -> d > 0.0) th.demand) then
        invalid_arg (Printf.sprintf "Multires.create: thread %d consumes nothing" i);
      let rc = rate_cap_of ~capacities th in
      if not (Util.approx_equal ~eps:1e-6 (Utility.cap th.rate_utility) rc) then
        invalid_arg
          (Printf.sprintf "Multires.create: thread %d rate-utility cap %g, expected %g" i
             (Utility.cap th.rate_utility) rc))
    threads;
  { servers; capacities; threads }

let n_threads t = Array.length t.threads
let rate_cap t th = rate_cap_of ~capacities:t.capacities th

type allocation = { rates : float array; usage : float array; utility : float }

(* Progressive filling: repeatedly advance, by one (partial) PLC segment,
   the thread whose current marginal utility per unit of its scarcest
   remaining resource is highest. *)
let allocate_server ?samples t ids =
  let ids = Array.of_list ids in
  let k = Array.length ids in
  let nr = resources t in
  let remaining = Array.copy t.capacities in
  let plcs = Array.map (fun i -> Utility.to_plc ?samples t.threads.(i).rate_utility) ids in
  let segs = Array.map Plc.segments plcs in
  let seg_idx = Array.make k 0 in
  let rates = Array.make k 0.0 in
  let exhausted r = remaining.(r) <= 1e-12 *. t.capacities.(r) in
  (* largest extra rate thread j can still take, resource-wise *)
  let headroom j =
    let d = t.threads.(ids.(j)).demand in
    let best = ref Float.infinity in
    for r = 0 to nr - 1 do
      if d.(r) > 0.0 then
        best := Float.min !best (if exhausted r then 0.0 else remaining.(r) /. d.(r))
    done;
    !best
  in
  (* marginal utility per unit of scarcest-resource fraction *)
  let priority j =
    if seg_idx.(j) >= Array.length segs.(j) then None
    else begin
      let s = segs.(j).(seg_idx.(j)) in
      if s.Plc.slope <= 0.0 then None
      else begin
        let d = t.threads.(ids.(j)).demand in
        let cost = ref 0.0 in
        let blocked = ref false in
        for r = 0 to nr - 1 do
          if d.(r) > 0.0 then begin
            if exhausted r then blocked := true
            else cost := Float.max !cost (d.(r) /. remaining.(r))
          end
        done;
        if !blocked || !cost <= 0.0 then None else Some (s.Plc.slope /. !cost)
      end
    end
  in
  (* Steps are capped at a quarter of the thread's current resource
     headroom so that competing threads with complementary demands
     interleave (costs are re-evaluated as resources deplete) instead of
     one thread draining a resource in a single segment-sized gulp; once
     the headroom is negligible the thread takes it whole and stops. *)
  let continue = ref true in
  let guard = ref 0 in
  let seg_count = Array.fold_left (fun acc s -> acc + Array.length s) 0 segs in
  let max_steps = 400 * (seg_count + (nr * k) + 8) in
  while !continue && !guard < max_steps do
    incr guard;
    let best = ref None in
    for j = 0 to k - 1 do
      match priority j with
      | None -> ()
      | Some p -> (
          match !best with Some (p', _) when p' >= p -> () | _ -> best := Some (p, j))
    done;
    match !best with
    | None -> continue := false
    | Some (_, j) ->
        let s = segs.(j).(seg_idx.(j)) in
        let seg_left = s.Plc.x1 -. rates.(j) in
        let room = headroom j in
        let tol = 1e-7 *. Float.max 1.0 (Plc.cap plcs.(j)) in
        let step =
          if room *. 0.25 <= tol then Float.min seg_left room
          else Float.min seg_left (room *. 0.25)
        in
        if step <= 1e-12 *. Float.max 1.0 s.Plc.x1 then
          (* cannot advance: mark the segment as done to move on *)
          seg_idx.(j) <- seg_idx.(j) + 1
        else begin
          rates.(j) <- rates.(j) +. step;
          let d = t.threads.(ids.(j)).demand in
          for r = 0 to nr - 1 do
            remaining.(r) <- Float.max 0.0 (remaining.(r) -. (step *. d.(r)))
          done;
          if rates.(j) >= s.Plc.x1 -. (1e-12 *. Float.max 1.0 s.Plc.x1) then
            seg_idx.(j) <- seg_idx.(j) + 1
        end
  done;
  let usage = Array.make nr 0.0 in
  Array.iteri
    (fun j rate ->
      let d = t.threads.(ids.(j)).demand in
      for r = 0 to nr - 1 do
        usage.(r) <- usage.(r) +. (rate *. d.(r))
      done)
    rates;
  let utility =
    Util.sum_by (fun j -> Plc.eval plcs.(j) rates.(j)) (Array.init k Fun.id)
  in
  { rates; usage; utility }

(* Relaxation to resource r: scale each thread's rate-PLC into a
   consumption-PLC and run the exact pooled allocator; threads that do
   not consume r run free at their rate cap. *)
let relaxation ?samples t r =
  let free = ref 0.0 in
  let consuming = ref [] in
  Array.iteri
    (fun i th ->
      let d = th.demand.(r) in
      if d <= 0.0 then free := !free +. Utility.peak th.rate_utility
      else begin
        let plc = Utility.to_plc ?samples th.rate_utility in
        let scaled =
          Plc.of_arrays
            ~xs:(Array.map (fun x -> x *. d) (Plc.Flat.breakpoints plc))
            ~ys:(Plc.Flat.prefix_utility plc)
        in
        consuming := (i, d, plc, scaled) :: !consuming
      end)
    t.threads;
  let consuming = Array.of_list (List.rev !consuming) in
  let budget = float_of_int t.servers *. t.capacities.(r) in
  let res =
    Plc_greedy.allocate ~exhaust:false ~budget (Array.map (fun (_, _, _, s) -> s) consuming)
  in
  let rates = Array.make (n_threads t) 0.0 in
  Array.iteri
    (fun pos (i, d, _, _) -> rates.(i) <- res.alloc.(pos) /. d)
    consuming;
  Array.iteri
    (fun i th -> if th.demand.(r) <= 0.0 then rates.(i) <- rate_cap t th)
    t.threads;
  (res.utility +. !free, rates)

let superopt_bound ?samples t =
  let best = ref Float.infinity in
  for r = 0 to resources t - 1 do
    let v, _ = relaxation ?samples t r in
    if v < !best then best := v
  done;
  !best

type result = { server : int array; rates : float array; total : float; bound : float }

let finish ?samples t server =
  let m = t.servers in
  let rates = Array.make (n_threads t) 0.0 in
  let total = ref 0.0 in
  for j = 0 to m - 1 do
    let ids = ref [] in
    for i = n_threads t - 1 downto 0 do
      if server.(i) = j then ids := i :: !ids
    done;
    if !ids <> [] then begin
      let a = allocate_server ?samples t !ids in
      List.iteri (fun pos i -> rates.(i) <- a.rates.(pos)) !ids;
      total := !total +. a.utility
    end
  done;
  { server; rates; total = !total; bound = superopt_bound ?samples t }

let round_robin ?samples t =
  let server = Array.init (n_threads t) (fun i -> i mod t.servers) in
  finish ?samples t server

let solve_informed ?samples t =
  let n = n_threads t in
  let m = t.servers in
  let nr = resources t in
  (* linearize against the tightest relaxation's pooled rates *)
  let tight = ref (Float.infinity, [||]) in
  for r = 0 to nr - 1 do
    let v, rates = relaxation ?samples t r in
    if v < fst !tight then tight := (v, rates)
  done;
  let _, chat = !tight in
  let peak = Array.mapi (fun i th -> Utility.eval th.rate_utility chat.(i)) t.threads in
  let slope =
    Array.mapi
      (fun i p -> if chat.(i) > 0.0 then p /. chat.(i) else if p > 0.0 then Float.infinity else 0.0)
      peak
  in
  let idx = Array.make n 0 in
  Algo2.order_keys ~m ~peak ~slope idx;
  let remaining = Array.init m (fun _ -> Array.copy t.capacities) in
  let server = Array.make n (-1) in
  Array.iter
    (fun i ->
      let d = t.threads.(i).demand in
      (* server with the most headroom for this thread's demand shape *)
      let score j =
        let best = ref Float.infinity in
        for r = 0 to nr - 1 do
          if d.(r) > 0.0 then best := Float.min !best (remaining.(j).(r) /. d.(r))
        done;
        !best
      in
      let j = Util.argmax score (Array.init m Fun.id) in
      server.(i) <- j;
      let grant = Float.min chat.(i) (score j) in
      for r = 0 to nr - 1 do
        remaining.(j).(r) <- Float.max 0.0 (remaining.(j).(r) -. (grant *. d.(r)))
      done)
    idx;
  (* portfolio: with several resource types the relaxation-guided
     placement can lose to a plain balanced spread, so keep the better
     of the two (both use the same per-server allocator) *)
  let informed = finish ?samples t server in
  let rr = round_robin ?samples t in
  if informed.total >= rr.total then informed else rr

let solve ?samples t = solve_informed ?samples t

