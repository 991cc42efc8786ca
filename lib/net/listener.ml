open Aa_service

(* Socket front end: an accept loop feeding per-connection reader and
   writer threads around a {!Shard.t}. The reader parses each incoming
   line and posts it to the shard dispatch immediately (no await), the
   writer awaits the tickets in arrival order — so one connection can
   keep many requests in flight and the shard workers see real queue
   depth to group-commit over, while responses still come back in
   request order as the protocol promises.

   Threads, not domains: connection work is parse-and-block, the
   compute happens on the shard's worker domains. Systhreads share
   Mutex/Condition with domains in OCaml 5, so the ticket handoff needs
   nothing special. *)

type pending =
  | P_ticket of Shard.ticket * bool (* awaiting dispatch; bool = framed *)
  | P_done of Shard.outcome * bool
  | P_raw of string (* pre-rendered bytes (HTTP ops responses) *)
  | P_close

type conn_queue = {
  q_lock : Mutex.t;
  q_cond : Condition.t;
  q : pending Queue.t;
}

let q_push cq p =
  Mutex.lock cq.q_lock;
  Queue.push p cq.q;
  Condition.signal cq.q_cond;
  Mutex.unlock cq.q_lock

let q_pop cq =
  Mutex.lock cq.q_lock;
  while Queue.is_empty cq.q do
    Condition.wait cq.q_cond cq.q_lock
  done;
  let p = Queue.pop cq.q in
  Mutex.unlock cq.q_lock;
  p

type t = {
  fd : Unix.file_descr;
  shard : Shard.t;
  on_crash : string -> unit;
  access_log : Access_log.t option;
  sockpath : string option; (* unix-domain path, unlinked on stop *)
  mutable accept_thread : Thread.t option;
}

(* Connection ids tag request contexts and access-log records; 0 is the
   daemon's stdin pseudo-connection, so sockets start at 1. *)
let conn_ids = Atomic.make 1

let bad_request message = Protocol.Err { code = Protocol.Bad_request; message }

let safe_close fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* ---------- HTTP ops surface ---------- *)

(* A plain-text protocol line never starts with "GET " (verbs are
   single upper-case words), so an HTTP request line is detected inside
   the existing raw/framed auto-detection at zero cost to the normal
   path. One request per connection, [Connection: close] — the ops
   surface is for curl and scrapers, not keep-alive browsers. *)

let http_response ~status ~content_type body =
  Printf.sprintf
    "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
    status content_type (String.length body) body

let healthz shard =
  let rows = Shard.health shard in
  let crashed = Shard.crashed shard in
  let degraded = Array.exists (fun h -> h.Shard.h_degraded) rows in
  let status =
    match crashed with Some _ -> "crashed" | None -> if degraded then "degraded" else "ok"
  in
  let b = Buffer.create 256 in
  Printf.bprintf b "{\"status\":\"%s\"" status;
  (match crashed with
  | Some name -> Printf.bprintf b ",\"crash\":\"%s\"" (String.escaped name)
  | None -> ());
  Printf.bprintf b ",\"shards\":%d,\"shard_health\":[" (Array.length rows);
  Array.iteri
    (fun i h ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b
        "{\"shard\":%d,\"active\":%d,\"degraded\":%b,\"journal_bytes\":%d,\"journal_lag\":%d}"
        i h.Shard.h_active h.Shard.h_degraded h.Shard.h_journal_bytes h.Shard.h_journal_lag)
    rows;
  Buffer.add_string b "]}";
  (crashed = None && not degraded, Buffer.contents b)

let ops_response shard target =
  match target with
  | "/metrics" ->
      http_response ~status:"200 OK" ~content_type:"text/plain; version=0.0.4"
        (Aa_obs.Registry.expose ())
  | "/healthz" ->
      let live, body = healthz shard in
      http_response
        ~status:(if live then "200 OK" else "503 Service Unavailable")
        ~content_type:"application/json" body
  | "/tracez" ->
      http_response ~status:"200 OK" ~content_type:"text/plain" (Aa_obs.Rctx.slow_text ())
  | _ -> http_response ~status:"404 Not Found" ~content_type:"text/plain" "not found\n"

let serve_http r shard cq request_line =
  let target =
    match String.split_on_char ' ' request_line with
    | "GET" :: target :: _ -> target
    | _ -> "/"
  in
  (* drain the header block; a torn or oversized header just ends it *)
  (try
     let rec drain () =
       match Frame.read_line r with None | Some "" -> () | Some _ -> drain ()
     in
     drain ()
   with Failure _ -> ());
  q_push cq (P_raw (ops_response shard target));
  q_push cq P_close

let reader_loop shard ~conn fd cq =
  let r = Frame.reader fd in
  let rec go () =
    match Frame.read_msg r with
    | None -> q_push cq P_close
    | Some (Error e) ->
        (* a broken frame was an attempt at framing: mirror it back *)
        q_push cq (P_done (Shard.Reply (bad_request e), true));
        go ()
    | Some (Ok { payload; framed = false })
      when String.length payload >= 4 && String.sub payload 0 4 = "GET " ->
        serve_http r shard cq payload
    | Some (Ok { payload; framed }) -> (
        match Shard.post_line ~conn shard payload with
        | `Blank -> go ()
        | `Ticket tk ->
            q_push cq (P_ticket (tk, framed));
            go ()
        | `Immediate out ->
            q_push cq (P_done (out, framed));
            go ())
    | exception Failure e ->
        q_push cq (P_done (Shard.Reply (bad_request e), false));
        q_push cq P_close
  in
  go ()

let writer_loop t fd cq =
  (* the wire bytes written, or [Dropped] for a crash *)
  let send framed out =
    match out with
    | Shard.Reply resp ->
        let text = Protocol.print_response resp in
        let wire = if framed then Frame.encode text else text ^ "\n" in
        Frame.write_all fd wire;
        Shard.Sent (String.length wire)
    | Shard.Crashed name ->
        (* the simulated process death: the client sees its connection
           drop with the ack withheld, exactly like a real crash *)
        safe_close fd;
        t.on_crash name;
        Shard.Dropped
  in
  let rec go () =
    match q_pop cq with
    | P_close -> safe_close fd
    | P_raw bytes ->
        (try Frame.write_all fd bytes with Unix.Unix_error _ -> ());
        go ()
    | P_ticket (tk, framed) ->
        let out = Shard.await t.shard tk in
        let delivery =
          (* client went away mid-write: the request still ran *)
          try send framed out with Unix.Unix_error _ -> Shard.Dropped
        in
        (* exactly once per ticket — the writer is its only consumer *)
        Shard.finish t.access_log tk out delivery;
        (match delivery with Shard.Sent _ -> go () | Shard.Dropped -> safe_close fd)
    | P_done (out, framed) -> (
        match send framed out with
        | Shard.Sent _ -> go ()
        | Shard.Dropped | (exception Unix.Unix_error _) -> safe_close fd)
  in
  go ()

let serve_conn t fd =
  let cq = { q_lock = Mutex.create (); q_cond = Condition.create (); q = Queue.create () } in
  let conn = Atomic.fetch_and_add conn_ids 1 in
  let _reader = Thread.create (fun () -> reader_loop t.shard ~conn fd cq) () in
  let _writer = Thread.create (fun () -> writer_loop t fd cq) () in
  ()

let accept_loop t () =
  let rec go () =
    match Unix.accept t.fd with
    | fd, _peer ->
        serve_conn t fd;
        go ()
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL | Unix.ECONNABORTED), _, _) ->
        (* EBADF/EINVAL: [stop] closed the listening socket *)
        ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* "unix:PATH" | "HOST:PORT" | ":PORT" (loopback). *)
let parse_addr s =
  match String.index_opt s ':' with
  | None -> Error (Printf.sprintf "bad listen address %S (want HOST:PORT, :PORT or unix:PATH)" s)
  | Some i -> (
      let head = String.sub s 0 i in
      let tail = String.sub s (i + 1) (String.length s - i - 1) in
      if head = "unix" then
        if tail = "" then Error "unix: needs a socket path" else Ok (Unix.ADDR_UNIX tail)
      else
        match int_of_string_opt tail with
        | None -> Error (Printf.sprintf "bad port %S" tail)
        | Some port when port < 0 || port > 65535 -> Error (Printf.sprintf "bad port %d" port)
        | Some port -> (
            let host = if head = "" then "127.0.0.1" else head in
            match Unix.inet_addr_of_string host with
            | ip -> Ok (Unix.ADDR_INET (ip, port))
            | exception Failure _ -> (
                match Unix.gethostbyname host with
                | { Unix.h_addr_list = [||]; _ } ->
                    Error (Printf.sprintf "host %S has no address" host)
                | { Unix.h_addr_list; _ } -> Ok (Unix.ADDR_INET (h_addr_list.(0), port))
                | exception Not_found -> Error (Printf.sprintf "unknown host %S" host))))

let serve ?(backlog = 64) ?(on_crash = fun _ -> ()) ?access_log ~addr shard =
  (* a client closing mid-write must surface as EPIPE, not kill us *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let domain, sockpath =
    match addr with
    | Unix.ADDR_UNIX path ->
        (* a previous daemon's stale socket file blocks bind *)
        (match Unix.stat path with
        | { Unix.st_kind = Unix.S_SOCK; _ } -> (try Unix.unlink path with Unix.Unix_error _ -> ())
        | _ -> ()
        | exception Unix.Unix_error _ -> ());
        (Unix.PF_UNIX, Some path)
    | Unix.ADDR_INET _ -> (Unix.PF_INET, None)
  in
  match Unix.socket domain Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | fd -> (
      match
        (if sockpath = None then Unix.setsockopt fd Unix.SO_REUSEADDR true);
        Unix.bind fd addr;
        Unix.listen fd backlog
      with
      | () ->
          let t = { fd; shard; on_crash; access_log; sockpath; accept_thread = None } in
          t.accept_thread <- Some (Thread.create (accept_loop t) ());
          Ok t
      | exception Unix.Unix_error (e, fn, _) ->
          safe_close fd;
          Error (Printf.sprintf "%s: %s" fn (Unix.error_message e)))

let sockaddr t = Unix.getsockname t.fd

let stop t =
  (* closing an fd does not wake a thread blocked in accept(2) on
     Linux; shutdown(2) does — accept fails with EINVAL and the loop
     exits, making the join below safe *)
  (try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  safe_close t.fd;
  (match t.sockpath with
  | Some p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
  | None -> ());
  match t.accept_thread with
  | Some th ->
      Thread.join th;
      t.accept_thread <- None
  | None -> ()
