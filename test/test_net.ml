(* Tests for the socket transport (Aa_net.Frame / Aa_net.Listener) and
   the sharded dispatch behind it (Aa_service.Shard): framing, routing
   arithmetic, n=1 wire identity, concurrent in-process clients, and an
   end-to-end aa_serve --listen session with two clients. *)

open Aa_utility
open Aa_service
module Frame = Aa_net.Frame
module Listener = Aa_net.Listener

let cap = 10.0
let u_pow = Utility.Shapes.power ~cap ~coeff:4.0 ~beta:0.5
let or_fail = function Ok v -> v | Error e -> Alcotest.fail e

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
  at 0

(* ---------- framing ---------- *)

let test_frame_codec () =
  Alcotest.(check string) "encode" "5 STATS\n" (Frame.encode "STATS");
  (match Frame.decode "5 STATS" with
  | Ok { payload = "STATS"; framed = true } -> ()
  | Ok _ | Error _ -> Alcotest.fail "framed decode");
  (* a line whose first token is not a number is raw, verbatim *)
  (match Frame.decode "ADMIT power 4 0.5" with
  | Ok { payload = "ADMIT power 4 0.5"; framed = false } -> ()
  | Ok _ | Error _ -> Alcotest.fail "raw decode");
  (* declared length must match exactly *)
  (match Frame.decode "4 STATS" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a length mismatch");
  (match Frame.decode "6 STATS" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a length mismatch");
  (* a bare number is neither a frame nor a protocol verb *)
  (match Frame.decode "123" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a bare number");
  (* round trip, including a payload that itself starts with digits *)
  List.iter
    (fun payload ->
      let line = Frame.encode payload in
      let line = String.sub line 0 (String.length line - 1) in
      match Frame.decode line with
      | Ok { payload = p; framed = true } when p = payload -> ()
      | Ok _ | Error _ -> Alcotest.failf "%S did not round-trip" payload)
    [ "STATS"; "42 is not a length"; ""; "QUERY 7" ]

let test_frame_reader () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Frame.write_all b "alpha\r\nbeta\n";
  Frame.write_all b "gam";
  Frame.write_all b "ma\nfinal-no-newline";
  Unix.close b;
  let r = Frame.reader a in
  Alcotest.(check (list (option string)))
    "lines, \\r\\n stripped, torn tail still delivered"
    [ Some "alpha"; Some "beta"; Some "gamma"; Some "final-no-newline"; None ]
    (List.init 5 (fun _ -> Frame.read_line r));
  Unix.close a

(* ---------- shard routing ---------- *)

let test_server_counts () =
  Alcotest.(check (array int)) "7 over 3" [| 3; 2; 2 |]
    (Shard.server_counts ~servers:7 ~shards:3);
  Alcotest.(check (array int)) "4 over 1" [| 4 |]
    (Shard.server_counts ~servers:4 ~shards:1);
  Alcotest.(check (array int)) "8 over 4" [| 2; 2; 2; 2 |]
    (Shard.server_counts ~servers:8 ~shards:4);
  match Shard.server_counts ~servers:2 ~shards:3 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted fewer servers than shards"

let make_shard ?window_s ~servers ~shards () =
  let counts = Shard.server_counts ~servers ~shards in
  Shard.create ?window_s
    (Array.init shards (fun k ->
         Engine.create ~servers:counts.(k) ~capacity:cap ()))

let submit_ok sh req =
  match Shard.submit sh req with
  | Shard.Reply (Protocol.Err { message; _ }) -> Alcotest.fail message
  | Shard.Reply r -> r
  | Shard.Crashed name -> Alcotest.failf "crashed at %s" name

let test_shard_routing () =
  let sh = make_shard ~servers:4 ~shards:2 () in
  Fun.protect ~finally:(fun () -> Shard.shutdown sh) @@ fun () ->
  Alcotest.(check int) "shards accessor" 2 (Shard.shards sh);
  Alcotest.(check int) "one engine per shard" 2
    (Array.length (Shard.engines sh));
  Alcotest.(check bool) "no crash yet" true (Shard.crashed sh = None);
  (* the pipelining interface: post returns a ticket, await resolves it *)
  (match Shard.await sh (Shard.post sh Protocol.Stats) with
  | Shard.Reply (Protocol.Stats_report _) -> ()
  | _ -> Alcotest.fail "post/await did not yield a STATS report");
  (* ADMITs round-robin: ids are dense and interleave the shards
     (g = l*n + s), servers land in the owning shard's block *)
  List.iteri
    (fun i (want_id, lo, hi) ->
      match submit_ok sh (Protocol.Admit u_pow) with
      | Protocol.Admitted { id; server } ->
          Alcotest.(check int) (Printf.sprintf "admit %d id" i) want_id id;
          if server < lo || server >= hi then
            Alcotest.failf "admit %d server %d outside shard block [%d,%d)" i
              server lo hi
      | r -> Alcotest.failf "unexpected %s" (Protocol.print_response r))
    [ (0, 0, 2); (1, 2, 4); (2, 0, 2); (3, 2, 4) ];
  (* point requests route by id arithmetic *)
  (match submit_ok sh (Protocol.Query 3) with
  | Protocol.Thread_info { id = 3; server; _ } ->
      if server < 2 then Alcotest.failf "thread 3 reported server %d" server
  | r -> Alcotest.failf "unexpected %s" (Protocol.print_response r));
  (match submit_ok sh (Protocol.Depart 1) with
  | Protocol.Departed { id = 1 } -> ()
  | r -> Alcotest.failf "unexpected %s" (Protocol.print_response r));
  (* an unknown id still routes somewhere and errs with the shard named *)
  (match Shard.submit sh (Protocol.Query 999) with
  | Shard.Reply (Protocol.Err { message; _ }) ->
      if not (contains ~needle:"[shard 1]" message) then
        Alcotest.failf "error does not name shard 1: %s" message
  | o ->
      Alcotest.failf "unexpected %s"
        (match o with Shard.Reply r -> Protocol.print_response r | _ -> "crash"));
  (* STATS is an aggregated consistent cut with per-shard entries *)
  (match submit_ok sh Protocol.Stats with
  | Protocol.Stats_report kvs ->
      let get k =
        match List.assoc_opt k kvs with
        | Some v -> v
        | None -> Alcotest.failf "STATS missing %s" k
      in
      Alcotest.(check string) "shards" "2" (get "shards");
      Alcotest.(check string) "admitted" "4" (get "admitted");
      Alcotest.(check string) "active" "3" (get "active");
      Alcotest.(check string) "shard.0.admitted" "2" (get "shard.0.admitted");
      Alcotest.(check string) "shard.1.admitted" "2" (get "shard.1.admitted")
  | r -> Alcotest.failf "unexpected %s" (Protocol.print_response r));
  match submit_ok sh Protocol.Rebalance with
  | Protocol.Rebalance_report { online; _ } ->
      if not (online > 0.0) then Alcotest.fail "online utility should be > 0"
  | r -> Alcotest.failf "unexpected %s" (Protocol.print_response r)

let test_single_shard_wire_identity () =
  (* with n = 1 every mapping is the identity: the sharded daemon's
     wire output is byte-identical to the plain engine's (STATS and
     TRACE excluded — latency metrics are schedule-dependent) *)
  let script =
    [
      "ADMIT power 4 0.5"; "ADMIT log 3 1"; "# a comment"; "QUERY 1";
      "UPDATE 0 power 2 0.5"; "DEPART 1"; ""; "QUERY 1"; "SNAPSHOT";
      "REBALANCE"; "DEPART 99"; "frob";
    ]
  in
  let plain = Engine.create ~servers:3 ~capacity:cap () in
  let sh = make_shard ~servers:3 ~shards:1 () in
  Fun.protect ~finally:(fun () -> Shard.shutdown sh) @@ fun () ->
  List.iter
    (fun line ->
      let want =
        Option.map Protocol.print_response (Helpers.engine_line plain line)
      in
      let got =
        match Shard.handle_line sh line with
        | None -> None
        | Some (Shard.Reply r) -> Some (Protocol.print_response r)
        | Some (Shard.Crashed name) -> Alcotest.failf "crashed at %s" name
      in
      Alcotest.(check (option string)) line want got)
    script

(* ---------- in-process listener, concurrent clients ---------- *)

let with_client addr f =
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd addr;
      f fd (Frame.reader fd))

(* One request, one reply, framed or raw — the reply must mirror the
   request's framing. *)
let roundtrip ~framed fd r line =
  Frame.write_all fd (if framed then Frame.encode line else line ^ "\n");
  match Frame.read_msg r with
  | Some (Ok m) ->
      Alcotest.(check bool)
        (Printf.sprintf "reply framing mirrors request (%s)" line)
        framed m.framed;
      m.payload
  | Some (Error e) -> Alcotest.failf "bad reply to %S: %s" line e
  | None -> Alcotest.failf "connection closed before reply to %S" line

let test_listener_concurrent_clients () =
  let sh = make_shard ~window_s:0.002 ~servers:4 ~shards:2 () in
  let l =
    or_fail
      (Listener.serve ~addr:(Unix.ADDR_INET (Unix.inet_addr_loopback, 0)) sh)
  in
  Fun.protect
    ~finally:(fun () ->
      Listener.stop l;
      Shard.shutdown sh)
  @@ fun () ->
  let addr = Listener.sockaddr l in
  let n_each = 8 in
  let errors = Mutex.create () and errs = ref [] in
  (* two clients admit concurrently — one raw, one framed — and each
     pipelines its burst in a single write so the shard queues actually
     see depth (the group-commit path, minus the journal) *)
  let client framed () =
    try
      with_client addr @@ fun fd r ->
      let lines = List.init n_each (fun _ -> "ADMIT power 4 0.5") in
      String.concat ""
        (List.map
           (fun s -> if framed then Frame.encode s else s ^ "\n")
           lines)
      |> Frame.write_all fd;
      List.iter
        (fun _ ->
          match Frame.read_msg r with
          | Some (Ok m) ->
              if m.framed <> framed then failwith "framing not mirrored";
              if not (contains ~needle:"OK admit" m.payload) then
                failwith ("not an ack: " ^ m.payload)
          | Some (Error e) -> failwith e
          | None -> failwith "closed early")
        lines
    with e ->
      Mutex.lock errors;
      errs := Printexc.to_string e :: !errs;
      Mutex.unlock errors
  in
  let t1 = Thread.create (client false) () in
  let t2 = Thread.create (client true) () in
  Thread.join t1;
  Thread.join t2;
  (match !errs with [] -> () | e :: _ -> Alcotest.fail e);
  (* a third connection observes everything both clients did *)
  with_client addr @@ fun fd r ->
  let reply = roundtrip ~framed:false fd r "STATS" in
  if not (contains ~needle:(Printf.sprintf "admitted=%d" (2 * n_each)) reply)
  then Alcotest.failf "STATS after 2 clients x %d admits: %s" n_each reply

(* ---------- rid-linked cross-shard traces ---------- *)

let test_rebalance_rid_trace () =
  (* a REBALANCE over 4 shards is one request context shared by all
     barrier workers: every per-shard rebalance span must carry the
     same rid while naming its own shard *)
  let module Trace = Aa_obs.Trace in
  Aa_obs.Control.set_enabled true;
  Aa_obs.Rctx.set_enabled true;
  Trace.clear ();
  Fun.protect
    ~finally:(fun () ->
      Aa_obs.Rctx.set_enabled false;
      Aa_obs.Control.set_enabled false;
      Trace.clear ())
  @@ fun () ->
  let sh = make_shard ~servers:8 ~shards:4 () in
  for _ = 1 to 8 do
    ignore (submit_ok sh (Protocol.Admit u_pow))
  done;
  (match submit_ok sh Protocol.Rebalance with
  | Protocol.Rebalance_report _ -> ()
  | r -> Alcotest.failf "unexpected %s" (Protocol.print_response r));
  (* shutdown joins the worker domains: the rings are quiescent *)
  Shard.shutdown sh;
  let evs =
    List.filter
      (fun (e : Trace.event) -> e.name = "rebalance" && e.is_begin)
      (Trace.events ())
  in
  if List.length evs < 4 then
    Alcotest.failf "want >= 4 per-shard rebalance spans, got %d"
      (List.length evs);
  let uniq f = List.sort_uniq compare (List.map f evs) in
  (match uniq (fun (e : Trace.event) -> e.rid) with
  | [ rid ] when rid >= 0 -> ()
  | rids ->
      Alcotest.failf "rebalance spans carry %d distinct rids, want 1"
        (List.length rids));
  let shards_seen = uniq (fun (e : Trace.event) -> e.shard) in
  if List.length shards_seen < 2 then
    Alcotest.failf "rebalance trace names %d shard(s), want >= 2"
      (List.length shards_seen)

(* ---------- end-to-end: aa_serve --listen ---------- *)

let serve_bin =
  List.find_opt Sys.file_exists
    [ "../bin/aa_serve.exe"; "_build/default/bin/aa_serve.exe" ]
  |> Option.value ~default:"../bin/aa_serve.exe"

(* Spawn the daemon with stdin held open on a pipe (closing it is the
   shutdown signal), run [f] against its unix socket, return the exit
   status. Bounded waits everywhere — a wedged daemon fails the test,
   it does not hang the suite. *)
let with_daemon ?(faults = []) args f =
  let sock = Filename.temp_file "aa_net_e2e" ".sock" in
  Sys.remove sock;
  let err_path = Filename.temp_file "aa_net_e2e" ".err" in
  (* cloexec: the daemon must not inherit the write end of its own
     stdin pipe, or closing it here would never deliver EOF *)
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
  let err_fd =
    Unix.openfile err_path [ Unix.O_WRONLY; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o600
  in
  let argv =
    Array.of_list
      ((serve_bin :: "--listen" :: ("unix:" ^ sock) :: args) @ faults)
  in
  let pid = Unix.create_process serve_bin argv stdin_r devnull err_fd in
  Unix.close stdin_r;
  Unix.close devnull;
  Unix.close err_fd;
  let addr = Unix.ADDR_UNIX sock in
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec wait_sock () =
    if Unix.gettimeofday () > deadline then begin
      Unix.kill pid Sys.sigkill;
      Alcotest.fail "daemon did not open its socket within 10s"
    end
    else if not (Sys.file_exists sock) then begin
      Thread.delay 0.02;
      wait_sock ()
    end
  in
  wait_sock ();
  let close_stdin () =
    try Unix.close stdin_w with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:close_stdin (fun () -> f addr close_stdin);
  let rec reap tries =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if tries = 0 then begin
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          Alcotest.fail "daemon did not exit within 10s of stdin closing"
        end
        else begin
          Thread.delay 0.02;
          reap (tries - 1)
        end
    | _, Unix.WEXITED code -> code
    | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
        Alcotest.failf "daemon killed by signal %d" s
  in
  let code = reap 500 in
  let err = In_channel.with_open_text err_path In_channel.input_all in
  if Sys.file_exists sock then Sys.remove sock;
  Sys.remove err_path;
  (code, err)

let test_e2e_two_clients () =
  let code, err =
    with_daemon [ "-m"; "4"; "-C"; "10"; "--shards"; "2" ]
      (fun addr _close ->
        let done1 = ref false and done2 = ref false in
        let client flag framed () =
          with_client addr @@ fun fd r ->
          let a = roundtrip ~framed fd r "ADMIT power 4 0.5" in
          let b = roundtrip ~framed fd r "ADMIT log 3 1" in
          if contains ~needle:"OK admit" a
             && contains ~needle:"OK admit" b
          then flag := true
        in
        let t1 = Thread.create (client done1 false) () in
        let t2 = Thread.create (client done2 true) () in
        Thread.join t1;
        Thread.join t2;
        Alcotest.(check bool) "raw client served" true !done1;
        Alcotest.(check bool) "framed client served" true !done2;
        with_client addr @@ fun fd r ->
        let reply = roundtrip ~framed:false fd r "STATS" in
        if not (contains ~needle:"admitted=4" reply) then
          Alcotest.failf "STATS: %s" reply)
  in
  Alcotest.(check int) "clean exit on stdin close" 0 code;
  if not (contains ~needle:"listening on unix:" err) then
    Alcotest.failf "startup banner missing: %s" err

(* ---------- end-to-end: HTTP ops surface ---------- *)

(* One-shot HTTP GET against the daemon's protocol port: write the
   request, read to EOF (the ops surface closes after one response),
   return (status code, header block, body). *)
let http_get addr target =
  with_client addr @@ fun fd _r ->
  Frame.write_all fd
    (Printf.sprintf "GET %s HTTP/1.1\r\nHost: aa\r\nAccept: */*\r\n\r\n" target);
  let b = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes b chunk 0 n;
        drain ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()
  in
  drain ();
  let resp = Buffer.contents b in
  let split = "\r\n\r\n" in
  let cut =
    let n = String.length split and h = String.length resp in
    let rec at i =
      if i + n > h then
        Alcotest.failf "no header/body split in %S" (String.sub resp 0 (min h 80))
      else if String.sub resp i n = split then i
      else at (i + 1)
    in
    at 0
  in
  let head = String.sub resp 0 cut in
  let body = String.sub resp (cut + 4) (String.length resp - cut - 4) in
  let code =
    match String.split_on_char ' ' head with
    | "HTTP/1.1" :: c :: _ -> int_of_string c
    | _ -> Alcotest.failf "bad status line: %S" head
  in
  (code, head, body)

(* Minimal Prometheus text-format check: every line is a # comment or
   [name value] with a sane metric name and a parseable value. *)
let check_prometheus_exposition body =
  String.split_on_char '\n' body
  |> List.iter (fun line ->
         if line <> "" && line.[0] <> '#' then
           match String.split_on_char ' ' line with
           | [ name; value ] ->
               let name_ok =
                 name <> ""
                 && String.for_all
                      (function
                        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '{'
                        | '}' | '=' | '"' | '+' | '.' | '-' ->
                            true
                        | _ -> false)
                      name
               in
               if not name_ok then Alcotest.failf "bad metric name: %S" line;
               if float_of_string_opt value = None then
                 Alcotest.failf "unparseable sample value: %S" line
           | _ -> Alcotest.failf "not a [name value] sample line: %S" line)

let test_e2e_ops_endpoints () =
  let code, _err =
    with_daemon
      [ "-m"; "4"; "-C"; "10"; "--shards"; "2"; "--trace"; "--coarsen"; "0.1" ]
      (fun addr _close ->
        (* populate, then REBALANCE so the certified gauges are live *)
        (with_client addr @@ fun fd r ->
         for i = 0 to 3 do
           let reply =
             roundtrip ~framed:false fd r "ADMIT power 4 0.5"
           in
           if not (contains ~needle:"OK admit" reply) then
             Alcotest.failf "admit %d: %s" i reply
         done;
         let reply = roundtrip ~framed:false fd r "REBALANCE" in
         if not (contains ~needle:"OK rebalance" reply) then
           Alcotest.failf "REBALANCE: %s" reply);
        (* /metrics: Prometheus exposition with the utility-interval
           gauges, scraped over the same port as the protocol *)
        let code, head, body = http_get addr "/metrics" in
        Alcotest.(check int) "/metrics status" 200 code;
        if not (contains ~needle:"Content-Type: text/plain" head) then
          Alcotest.failf "/metrics content type: %s" head;
        check_prometheus_exposition body;
        List.iter
          (fun needle ->
            if not (contains ~needle body) then
              Alcotest.failf "/metrics missing %s" needle)
          [
            "# TYPE aa_engine_utility gauge"; "aa_engine_utility_lower";
            "aa_engine_utility_upper"; "aa_engine_alpha_bound_gap";
            "aa_obs_trace_overwritten";
          ];
        String.split_on_char '\n' body
        |> List.iter (fun line ->
               match String.split_on_char ' ' line with
               | [ "aa_engine_utility"; v ] ->
                   if not (float_of_string v > 0.0) then
                     Alcotest.failf "utility gauge not live: %s" line
               | _ -> ());
        (* /healthz: liveness JSON with per-shard rows *)
        let code, head, body = http_get addr "/healthz" in
        Alcotest.(check int) "/healthz status" 200 code;
        if not (contains ~needle:"application/json" head) then
          Alcotest.failf "/healthz content type: %s" head;
        List.iter
          (fun needle ->
            if not (contains ~needle body) then
              Alcotest.failf "/healthz missing %s: %s" needle body)
          [ "\"status\":\"ok\""; "\"shards\":2"; "\"shard_health\"" ];
        (* /tracez always answers, even with nothing captured *)
        let code, _, _ = http_get addr "/tracez" in
        Alcotest.(check int) "/tracez status" 200 code;
        let code, _, _ = http_get addr "/nope" in
        Alcotest.(check int) "unknown path" 404 code)
  in
  Alcotest.(check int) "clean exit" 0 code

(* ---------- end-to-end: access log ---------- *)

let alog_keys =
  [
    "\"ts\":"; "\"rid\":"; "\"conn\":"; "\"kind\":"; "\"shard\":";
    "\"outcome\":"; "\"bytes\":"; "\"total_ns\":"; "\"validate_ns\":";
    "\"journal_ns\":"; "\"apply_ns\":"; "\"commit_wait_ns\":";
  ]

let alog_int_field line key =
  let tag = "\"" ^ key ^ "\":" in
  let n = String.length tag and h = String.length line in
  let rec at i =
    if i + n > h then Alcotest.failf "no %s in %S" key line
    else if String.sub line i n = tag then i + n
    else at (i + 1)
  in
  let start = at 0 in
  let stop = ref start in
  while
    !stop < h && (match line.[!stop] with '0' .. '9' | '-' -> true | _ -> false)
  do
    incr stop
  done;
  int_of_string (String.sub line start (!stop - start))

let test_e2e_access_log () =
  let log_path = Filename.temp_file "aa_net_alog" ".jsonl" in
  let n_each = 8 in
  let code, _err =
    with_daemon
      [ "-m"; "4"; "-C"; "10"; "--shards"; "2"; "--access-log"; log_path ]
      (fun addr _close ->
        let errors = Mutex.create () and errs = ref [] in
        (* two clients pipeline their bursts concurrently — the log must
           still come out one complete record per acked request *)
        let client framed () =
          try
            with_client addr @@ fun fd r ->
            let lines = List.init n_each (fun _ -> "ADMIT power 4 0.5") in
            String.concat ""
              (List.map
                 (fun s -> if framed then Frame.encode s else s ^ "\n")
                 lines)
            |> Frame.write_all fd;
            List.iter
              (fun _ ->
                match Frame.read_msg r with
                | Some (Ok m) ->
                    if not (contains ~needle:"OK admit" m.payload) then
                      failwith ("not an ack: " ^ m.payload)
                | Some (Error e) -> failwith e
                | None -> failwith "closed early")
              lines
          with e ->
            Mutex.lock errors;
            errs := Printexc.to_string e :: !errs;
            Mutex.unlock errors
        in
        let t1 = Thread.create (client false) () in
        let t2 = Thread.create (client true) () in
        Thread.join t1;
        Thread.join t2;
        (match !errs with [] -> () | e :: _ -> Alcotest.fail e);
        with_client addr @@ fun fd r ->
        let reply = roundtrip ~framed:false fd r "STATS" in
        if not (contains ~needle:(Printf.sprintf "admitted=%d" (2 * n_each)) reply)
        then Alcotest.failf "STATS: %s" reply)
  in
  Alcotest.(check int) "clean exit" 0 code;
  let raw = In_channel.with_open_text log_path In_channel.input_all in
  Sys.remove log_path;
  (* JSONL with a tolerated torn tail: complete records are exactly the
     newline-terminated lines; anything after the last newline is a torn
     fragment a crash may leave and readers must skip *)
  let records =
    String.split_on_char '\n' raw
    |> List.filteri (fun i line ->
           let complete = contains ~needle:"}" line in
           if (not complete) && line <> "" then begin
             let n_lines = List.length (String.split_on_char '\n' raw) in
             if i <> n_lines - 1 then
               Alcotest.failf "torn record not at the tail: %S" line
           end;
           complete)
  in
  Alcotest.(check int) "one record per acked request"
    ((2 * n_each) + 1)
    (List.length records);
  List.iter
    (fun line ->
      if line.[0] <> '{' || line.[String.length line - 1] <> '}' then
        Alcotest.failf "not a JSON object line: %S" line;
      List.iter
        (fun key ->
          if not (contains ~needle:key line) then
            Alcotest.failf "record missing %s: %S" key line)
        alog_keys;
      if not (contains ~needle:"\"outcome\":\"ok\"" line) then
        Alcotest.failf "outcome not ok: %S" line;
      if alog_int_field line "total_ns" <= 0 then
        Alcotest.failf "total_ns not stamped: %S" line)
    records;
  let rids = List.map (fun l -> alog_int_field l "rid") records in
  Alcotest.(check int) "rids unique"
    (List.length rids)
    (List.length (List.sort_uniq compare rids));
  let kinds k =
    List.length (List.filter (contains ~needle:(Printf.sprintf "\"kind\":%S" k)) records)
  in
  Alcotest.(check int) "admit records" (2 * n_each) (kinds "admit");
  Alcotest.(check int) "stats records" 1 (kinds "stats")

let test_e2e_group_commit_crash_exits_70 () =
  (* a crash failpoint inside the group-commit window: the daemon dies
     with acks withheld and the injected-crash status, exactly like the
     single-engine --faults path *)
  let journal = Filename.temp_file "aa_net_e2e" ".log" in
  Sys.remove journal;
  let code, err =
    with_daemon
      ~faults:[ "--faults"; "journal.group.fsync=nth:1" ]
      [
        "-m"; "4"; "-C"; "10"; "--shards"; "2"; "--journal"; journal;
        "--group-commit-window"; "0.2";
      ]
      (fun addr _close ->
        with_client addr @@ fun fd r ->
        (* one pipelined burst of 3 — the 0.2 s window guarantees the
           worker drains them as one group, which trips the failpoint *)
        Frame.write_all fd
          "ADMIT power 4 0.5\nADMIT power 4 0.5\nADMIT power 4 0.5\n";
        match Frame.read_msg r with
        | None -> () (* connection dropped, acks withheld — the point *)
        | Some (Ok m) -> Alcotest.failf "got an ack: %s" m.payload
        | Some (Error e) -> Alcotest.failf "bad reply: %s" e)
  in
  Alcotest.(check int) "injected-crash exit" 70 code;
  if not (contains ~needle:"injected crash at failpoint journal.group.fsync" err)
  then Alcotest.failf "crash not reported on stderr: %s" err;
  (* every shard journal replays cleanly (torn group tail repaired) *)
  List.iter
    (fun k ->
      let path = Printf.sprintf "%s.shard%d" journal k in
      (match Engine.of_journal ~fsync:Journal.Never ~path () with
      | Ok e -> (
          match Engine.journal e with Some j -> Journal.close j | None -> ())
      | Error m -> Alcotest.failf "shard %d replay: %s" k m);
      Sys.remove path)
    [ 0; 1 ]

let () =
  Alcotest.run "net"
    [
      ( "frame",
        [
          Alcotest.test_case "codec" `Quick test_frame_codec;
          Alcotest.test_case "reader" `Quick test_frame_reader;
        ] );
      ( "shard",
        [
          Alcotest.test_case "server counts" `Quick test_server_counts;
          Alcotest.test_case "routing" `Quick test_shard_routing;
          Alcotest.test_case "n=1 wire identity" `Quick
            test_single_shard_wire_identity;
          Alcotest.test_case "rebalance rid-linked trace" `Quick
            test_rebalance_rid_trace;
        ] );
      ( "listener",
        [
          Alcotest.test_case "concurrent clients" `Quick
            test_listener_concurrent_clients;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "two clients e2e" `Quick test_e2e_two_clients;
          Alcotest.test_case "ops endpoints over the socket" `Quick
            test_e2e_ops_endpoints;
          Alcotest.test_case "access log e2e" `Quick test_e2e_access_log;
          Alcotest.test_case "group-commit crash exits 70" `Quick
            test_e2e_group_commit_crash_exits_70;
        ] );
    ]
