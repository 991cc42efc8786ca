(* The load generator: one process, one thread, one [select] loop over
   at most [min 2 nproc] connections to the daemon.

   - Open loop at a fixed rate: request [k] is due at [t0 + k / rate] on
     connection [k mod conns], and is sent as soon as the loop reaches
     it. Latency runs from the due time, not the send time, so a stall
     (in the daemon or in this loop) is charged to every request queued
     behind it, and how late the generator ran is reported on its own.
   - Closed loop with a pipelining window: every connection keeps
     [window] requests in flight and sends the next one when a reply
     arrives. Latency runs from the send time.

   After the timed section no new request is sent; the in-flight ones
   are drained. A request never answered — connection closed, or still
   pending at the drain deadline — or answered with a reply that does
   not match it counts as failed: its latency is infinite. *)

type record = {
  conn : int;
  req : Traffic.req;
  due_ns : int;
  send_ns : int;
  mutable recv_ns : int;  (** -1 until answered *)
  mutable ok : bool;
  mutable result_id : int;  (** the id the reply names, -1 if none *)
}

type mode = Open of float  (** requests per second *) | Closed of int  (** window per connection *)

type result = {
  records : record array;  (** in send order *)
  t0_ns : int;
  t_end_ns : int;  (** end of the timed section *)
  window_ns : int;
  last_ns : int;  (** the last reply received *)
  samples : float array;  (** [sample ()] at t0 and at each window boundary *)
  bad_replies : string list;  (** the first few replies that failed their check *)
  unsolicited : int;  (** replies with no request waiting for them *)
}

let due_ns ~t0_ns ~rate k = t0_ns + int_of_float (Float.of_int k *. 1e9 /. rate)

let latency_ms r =
  if r.recv_ns < 0 || not r.ok then Float.infinity else Float.of_int (r.recv_ns - r.due_ns) /. 1e6

let late_ms r = Float.of_int (r.send_ns - r.due_ns) /. 1e6

(* Time the client saw from its own send to the reply. *)
let rtt_us r =
  if r.recv_ns < 0 || not r.ok then Float.infinity else Float.of_int (r.recv_ns - r.send_ns) /. 1e3

let failed r = r.recv_ns < 0 || not r.ok

type conn = { fd : Unix.file_descr; buf : Buffer.t; inflight : record Queue.t; mutable dead : bool }

let drain_timeout_s = 30.0

(* The timed section is cut into windows of half a second (or one
   window, if shorter); the reported rates and medians are medians over
   windows, so a SNAPSHOT or a stall in a shared machine's background
   load moves one window, not the run. *)
let max_window_ns = 500_000_000

let run ?(sample = fun () -> 0.0) ~fds ~traffic ~mode ~duration_s () =
  let conns =
    Array.map (fun fd -> { fd; buf = Buffer.create 4096; inflight = Queue.create (); dead = false }) fds
  in
  let n = Array.length conns in
  let records = ref [] and bad = ref [] and nbad = ref 0 and unsolicited = ref 0 in
  let last_ns = ref 0 in
  let t0_ns = Proc.now_ns () in
  let t_end = t0_ns + int_of_float (duration_s *. 1e9) in
  let drain_deadline = t_end + int_of_float (drain_timeout_s *. 1e9) in
  let window_ns = max 1 (min max_window_ns (t_end - t0_ns)) in
  let samples = ref [ sample () ] and next_sample = ref (t0_ns + window_ns) in
  let kill c =
    c.dead <- true;
    Queue.clear c.inflight
  in
  let send ci due =
    let c = conns.(ci) in
    let req = Traffic.next traffic ci in
    let r = { conn = ci; req; due_ns = due; send_ns = Proc.now_ns (); recv_ns = -1; ok = false; result_id = -1 } in
    let r = if due < 0 then { r with due_ns = r.send_ns } else r in
    records := r :: !records;
    if not c.dead then
      match Aa_net.Frame.write_all c.fd (Aa_net.Frame.encode req.payload) with
      | () -> Queue.push r c.inflight
      | exception Unix.Unix_error _ -> kill c
  in
  let on_line ci line =
    let c = conns.(ci) in
    match Queue.take_opt c.inflight with
    | None ->
        if !nbad < 5 then bad := ("unsolicited: " ^ line) :: !bad;
        incr nbad;
        incr unsolicited
    | Some r ->
        let now = Proc.now_ns () in
        r.recv_ns <- now;
        last_ns := now;
        (match Aa_net.Frame.decode line with
        | Ok m -> (
            match Traffic.reply traffic ci r.req m.payload with
            | Ok id ->
                r.ok <- true;
                r.result_id <- id
            | Error e ->
                if !nbad < 5 then bad := (r.req.payload ^ " -> " ^ e) :: !bad;
                incr nbad)
        | Error e ->
            if !nbad < 5 then bad := ("bad frame: " ^ e) :: !bad;
            incr nbad);
        match mode with Closed _ when now < t_end && not c.dead -> send ci (-1) | _ -> ()
  in
  let chunk = Bytes.create 65536 in
  let on_readable ci =
    let c = conns.(ci) in
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 -> kill c
    | exception Unix.Unix_error _ -> kill c
    | got ->
        Buffer.add_subbytes c.buf chunk 0 got;
        let s = Buffer.contents c.buf in
        let rec lines start =
          match String.index_from_opt s start '\n' with
          | Some i ->
              on_line ci (String.sub s start (i - start));
              lines (i + 1)
          | None ->
              Buffer.clear c.buf;
              Buffer.add_substring c.buf s start (String.length s - start)
        in
        lines 0
  in
  let inflight () = Array.fold_left (fun a c -> a + Queue.length c.inflight) 0 conns in
  let next_k = ref 0 in
  (match mode with
  | Closed window ->
      for _ = 1 to window do
        for ci = 0 to n - 1 do
          send ci (-1)
        done
      done
  | Open _ -> ());
  let rec loop () =
    let now = Proc.now_ns () in
    if now >= !next_sample && !next_sample <= t_end then begin
      samples := sample () :: !samples;
      next_sample := !next_sample + window_ns
    end;
    (match mode with
    | Open rate ->
        let rec due_now () =
          let d = due_ns ~t0_ns ~rate !next_k in
          if d <= now && d < t_end then begin
            send (!next_k mod n) d;
            incr next_k;
            due_now ()
          end
        in
        due_now ()
    | Closed _ -> ());
    if (now >= t_end && inflight () = 0) || now >= drain_deadline then ()
    else begin
      let timeout_ns =
        match mode with
        | Open rate when now < t_end -> max 0 (min 50_000_000 (due_ns ~t0_ns ~rate !next_k - Proc.now_ns ()))
        | _ -> 50_000_000
      in
      let timeout_ns = if !next_sample <= t_end then min timeout_ns (max 0 (!next_sample - now)) else timeout_ns in
      let live = List.filter (fun ci -> not conns.(ci).dead) (List.init n Fun.id) in
      let fds = List.map (fun ci -> conns.(ci).fd) live in
      (match Unix.select fds [] [] (Float.of_int timeout_ns /. 1e9) with
      | readable, _, _ ->
          List.iter (fun ci -> if List.mem conns.(ci).fd readable then on_readable ci) live
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ();
  {
    records = Array.of_list (List.rev !records);
    t0_ns;
    t_end_ns = t_end;
    window_ns;
    last_ns = !last_ns;
    samples = Array.of_list (List.rev !samples);
    bad_replies = List.rev !bad;
    unsolicited = !unsolicited;
  }

let completed res = Array.fold_left (fun a r -> if failed r then a else a + 1) 0 res.records
let n_failed res = Array.length res.records - completed res + res.unsolicited

(* Completed requests per second over the timed section plus its drain. *)
let throughput res =
  let dt = Float.of_int (res.last_ns - res.t0_ns) /. 1e9 in
  Float.of_int (completed res) /. dt

(* ---- per-window views of the timed section (full windows only) ---- *)

let n_windows res = max 1 ((res.t_end_ns - res.t0_ns) / res.window_ns)

let bucket res ~time =
  let n = n_windows res in
  let b = Array.make n [] in
  Array.iter
    (fun r ->
      let w = (time r - res.t0_ns) / res.window_ns in
      if w >= 0 && w < n then b.(w) <- r :: b.(w))
    res.records;
  b

let completed_by_window res =
  Array.map
    (fun rs -> List.length (List.filter (fun r -> not (failed r)) rs))
    (bucket res ~time:(fun r -> if r.recv_ns < 0 then max_int else r.recv_ns))

(* Completed requests per second in each window. *)
let window_rates res =
  Array.map (fun c -> Float.of_int c /. (Float.of_int res.window_ns /. 1e9)) (completed_by_window res)

(* Growth of the sampled value per completed request in each window
   (daemon CPU seconds per request, with a CPU-time sampler). *)
let window_per_op res =
  let c = completed_by_window res in
  Array.init
    (min (Array.length c) (Array.length res.samples - 1))
    (fun w -> (res.samples.(w + 1) -. res.samples.(w)) /. Float.of_int (max 1 c.(w)))

(* Growth of the sampled value per completed request over the whole
   timed section: at a fixed offered rate, the daemon's CPU cost per
   request at that operating point. *)
let per_op res =
  let n = Array.length res.samples in
  (res.samples.(n - 1) -. res.samples.(0)) /. Float.of_int (max 1 (Array.fold_left ( + ) 0 (completed_by_window res)))

(* Median latency of the requests due in each window. *)
let window_latency_medians res =
  Array.map (fun rs -> Pct.median (Array.of_list (List.map latency_ms rs))) (bucket res ~time:(fun r -> r.due_ns))
