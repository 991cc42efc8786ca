(* aa_serve — the long-running allocation daemon: an Online placer
   behind a line-oriented request/response protocol, on stdin/stdout
   and/or a socket, with optional write-ahead journaling, crash
   recovery, engine sharding and group commit.

   A stdin session is one request per line, one response line per
   request (blank and #-comment lines get none), until EOF:

     $ printf 'ADMIT power 4 0.5\nQUERY 0\nSTATS\n' | aa_serve -m 2 -C 10

   Every session runs through one Shard dispatcher. With --listen the
   same protocol is served to concurrent socket clients (framed or raw
   lines, see doc/service-protocol.md) while stdin remains one more
   connection — and closing stdin remains the way to stop the daemon.
   --shards N partitions servers and threads across N engines, each
   with its own journal (<path>.shardK) and worker domain. *)

open Cmdliner
open Aa_numerics
open Aa_service

let fail fmt =
  Printf.ksprintf
    (fun m ->
      Printf.eprintf "aa_serve: %s\n" m;
      exit 1)
    fmt

(* Fault schedules come from --faults and the AA_FAULTS environment
   variable (comma-joined, CLI last so it wins on a same-name clash);
   see doc/fault-injection.md for the spec grammar. *)
let arm_faults spec =
  let env = Sys.getenv_opt "AA_FAULTS" in
  let joined =
    match (env, spec) with
    | None, None -> None
    | Some s, None | None, Some s -> Some s
    | Some e, Some s -> Some (e ^ "," ^ s)
  in
  match joined with
  | None -> ()
  | Some s -> (
      match Aa_fault.Failpoint.arm_spec s with
      | Ok () -> ()
      | Error e -> fail "--faults: %s" e)

(* An armed crash failpoint simulates a power cut: die without closing
   the journal (exit 70 = EX_SOFTWARE), so the next --replay exercises
   the real recovery path. *)
let crash name =
  Printf.eprintf "aa_serve: injected crash at failpoint %s\n%!" name;
  exit 70

let string_of_sockaddr = function
  | Unix.ADDR_UNIX p -> "unix:" ^ p
  | Unix.ADDR_INET (ip, port) ->
      Printf.sprintf "%s:%d" (Unix.string_of_inet_addr ip) port

(* Engines are built one per shard — servers split in contiguous
   blocks, journals at <path>.shardK (the bare path for one shard) —
   then a Shard dispatcher serves stdin and, with --listen, every
   socket client concurrently. *)
let serve servers capacity journal replay fsync faults trace listen shards window
    access_log slow_ms coarsen rebalance_policy drift_frac =
  if trace then Aa_obs.Control.set_enabled true;
  (* request contexts ride along with any of the telemetry surfaces *)
  if trace || access_log <> None || slow_ms <> None then Aa_obs.Rctx.set_enabled true;
  Option.iter Aa_obs.Rctx.set_slow_ms slow_ms;
  arm_faults faults;
  if shards < 1 then fail "--shards must be >= 1";
  if window < 0.0 then fail "--group-commit-window must be >= 0";
  let coarsen_eps = Option.value coarsen ~default:0.0 in
  if coarsen_eps < 0.0 || not (Float.is_finite coarsen_eps) then
    fail "--coarsen must be a finite non-negative eps";
  if not (drift_frac >= 0.0 && drift_frac <= 1.0) then
    fail "--drift-frac must be in [0, 1]";
  let policy =
    match rebalance_policy with
    | "incremental" -> Aa_core.Online.Incremental
    | "auto" -> Aa_core.Online.Auto { frac = drift_frac }
    | s -> fail "--rebalance-policy: unknown policy %S (expected incremental|auto)" s
  in
  let fsync =
    match Journal.fsync_of_string fsync with
    | Ok p -> p
    | Error e -> fail "--fsync: %s" e
  in
  let alog =
    match access_log with
    | None -> None
    | Some path -> (
        match Access_log.create ~path with
        | Ok al -> Some al
        | Error e -> fail "--access-log %s: %s" path e)
  in
  let shard_path path k =
    if shards = 1 then path else Printf.sprintf "%s.shard%d" path k
  in
  let counts () =
    try Shard.server_counts ~servers:(Option.value servers ~default:8) ~shards
    with Invalid_argument e -> fail "%s" e
  in
  let capacity_or_default = Option.value capacity ~default:1000.0 in
  let engines =
    match (journal, replay) with
    | None, true -> fail "--replay requires --journal"
    | None, false ->
        let counts = counts () in
        Array.init shards (fun k ->
            Engine.create ~coarsen_eps ~policy ~servers:counts.(k)
              ~capacity:capacity_or_default ())
    | Some path, true ->
        Array.init shards (fun k ->
            match Engine.of_journal ~fsync ~coarsen_eps ~policy ~path:(shard_path path k) () with
            | Ok e -> e
            | Error e -> fail "%s" e)
    | Some path, false ->
        let counts = counts () in
        Array.init shards (fun k ->
            match
              Journal.create ~fsync ~path:(shard_path path k) ~servers:counts.(k)
                ~capacity:capacity_or_default ()
            with
            | Ok j ->
                Engine.create ~journal:j ~coarsen_eps ~policy ~servers:counts.(k)
                  ~capacity:capacity_or_default ()
            | Error e -> fail "%s" e)
  in
  if replay then begin
    (match servers with
    | Some m ->
        let total = Array.fold_left (fun a e -> a + Engine.servers e) 0 engines in
        if m <> total then
          fail "--servers %d disagrees with the journal header (%d)" m total
    | None -> ());
    match capacity with
    | Some c when Util.fne_rel ~rel:1e-9 c (Engine.capacity engines.(0)) ->
        fail "--capacity %g disagrees with the journal header (%g)" c
          (Engine.capacity engines.(0))
    | Some _ | None -> ()
  end;
  let shard = Shard.create ~window_s:window engines in
  Printf.eprintf
    "aa_serve: %d server(s), capacity %g, %d shard(s)%s, %d thread(s) active\n%!"
    (Shard.servers shard) (Shard.capacity shard) shards
    (match journal with
    | None -> ""
    | Some p -> Printf.sprintf ", journal %s%s" p (if shards = 1 then "" else ".shardK"))
    (Array.fold_left (fun a e -> a + Engine.n_active e) 0 engines);
  let listener =
    match listen with
    | None -> None
    | Some addrstr -> (
        match Aa_net.Listener.parse_addr addrstr with
        | Error e -> fail "--listen: %s" e
        | Ok addr -> (
            match Aa_net.Listener.serve ~on_crash:crash ?access_log:alog ~addr shard with
            | Error e -> fail "--listen %s: %s" addrstr e
            | Ok l ->
                Printf.eprintf "aa_serve: listening on %s\n%!"
                  (string_of_sockaddr (Aa_net.Listener.sockaddr l));
                Some l))
  in
  (* stdin is connection 0, one request at a time *)
  let reply resp =
    let text = Protocol.print_response resp in
    print_endline text;
    flush stdout;
    String.length text + 1
  in
  let rec loop () =
    match In_channel.input_line In_channel.stdin with
    | None -> ()
    | Some line ->
        (match Shard.post_line ~conn:0 shard line with
        | `Blank -> ()
        | `Ticket tk -> (
            match Shard.await shard tk with
            | Shard.Reply resp as out -> Shard.finish alog tk out (Shard.Sent (reply resp))
            | Shard.Crashed name as out ->
                Shard.finish alog tk out Shard.Dropped;
                crash name)
        | `Immediate (Shard.Reply resp) -> ignore (reply resp)
        | `Immediate (Shard.Crashed name) -> crash name);
        loop ()
  in
  loop ();
  (match Shard.crashed shard with Some name -> crash name | None -> ());
  Option.iter Aa_net.Listener.stop listener;
  Shard.shutdown shard;
  Option.iter Access_log.close alog

let main_cmd =
  let servers =
    Arg.(
      value
      & opt (some int) None
      & info [ "m"; "servers" ] ~docv:"M"
          ~doc:"Number of servers (default 8; with --replay the journal header wins).")
  in
  let capacity =
    Arg.(
      value
      & opt (some float) None
      & info [ "C"; "capacity" ] ~docv:"C"
          ~doc:"Resource per server (default 1000; with --replay the journal header wins).")
  in
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Write-ahead journal: every accepted mutation is appended to $(docv) \
             before it is applied; SNAPSHOT compacts the file. Without --replay \
             the file is created; an existing non-empty journal is refused \
             (pass --replay to recover it).")
  in
  let replay =
    Arg.(
      value & flag
      & info [ "replay" ]
          ~doc:
            "Recover state by replaying the journal before serving (the file must \
             exist); new mutations keep appending to it.")
  in
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:
            "Enable span tracing and counters at startup, so the TRACE request \
             returns per-request phase spans instead of an empty array.")
  in
  let fsync =
    Arg.(
      value & opt string "always"
      & info [ "fsync" ] ~docv:"POLICY"
          ~doc:
            "Journal durability policy: $(b,always) (fsync every append), \
             $(b,interval) (fsync at most every 0.1 s — a crash can lose up to \
             that window of acknowledged mutations), or $(b,never) (flush to \
             the OS only).")
  in
  let faults =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Arm fault-injection schedules, e.g. \
             $(b,journal.append=nth:3,journal.sys=p:0.01:seed:42). Also read \
             from the AA_FAULTS environment variable; testing only. See \
             doc/fault-injection.md.")
  in
  let listen =
    Arg.(
      value
      & opt (some string) None
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:
            "Serve concurrent socket clients on $(docv): $(b,HOST:PORT), \
             $(b,:PORT) (loopback; port 0 picks an ephemeral port, printed \
             to stderr) or $(b,unix:PATH). Requests are protocol lines, \
             optionally length-prefix framed (replies mirror the request's \
             framing). stdin/stdout keeps working as one more connection, \
             and closing stdin still stops the daemon.")
  in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Partition servers and threads across $(docv) engine shards, each \
             with its own journal ($(b,FILE.shardK)) and worker domain. \
             Requires at least one server per shard.")
  in
  let window =
    Arg.(
      value & opt float 0.0
      & info [ "group-commit-window" ] ~docv:"SECONDS"
          ~doc:
            "Let each shard worker wait $(docv) after waking so concurrent \
             mutations accumulate into one journal write + fsync (group \
             commit). 0 (default) batches only what is already queued — no \
             added latency, amortization only under load.")
  in
  let access_log =
    Arg.(
      value
      & opt (some string) None
      & info [ "access-log" ] ~docv:"FILE"
          ~doc:
            "Append one JSON line per acked request to $(docv): rid, kind, \
             shard, outcome, reply bytes, total and per-phase latencies \
             (validate/journal/apply) and group-commit wait. Written by the \
             acking thread, flushed per line; see doc/observability.md.")
  in
  let slow_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "Capture any request slower than $(docv) milliseconds into a \
             bounded keep-list: the SLOW request returns it as JSON, TRACE \
             splices the kept spans into its export, and GET /tracez renders \
             it as text. 0 captures every request.")
  in
  let coarsen =
    Arg.(
      value
      & opt (some float) None
      & info [ "coarsen" ] ~docv:"EPS"
          ~doc:
            "Solve REBALANCE on an $(docv)-coarsened copy of the active \
             instance (certified: each utility drops by at most $(docv)). \
             STATS and /metrics then carry the guaranteed utility interval \
             [utility_lower, utility_upper] and the alpha_bound_gap gauge.")
  in
  let rebalance_policy =
    Arg.(
      value & opt string "incremental"
      & info [ "rebalance-policy" ] ~docv:"POLICY"
          ~doc:
            "Online maintenance strategy: $(b,incremental) (default — splice \
             piece orders between requests) or $(b,auto) (incremental plus a \
             certified drift trigger: once the online utility decays below \
             --drift-frac of the certified bound, re-solve the active set \
             with Algorithm 2, migrating threads).")
  in
  let drift_frac =
    Arg.(
      value & opt float 0.5
      & info [ "drift-frac" ] ~docv:"FRAC"
          ~doc:
            "Re-solve trigger fraction for --rebalance-policy auto, in \
             [0, 1] (default 0.5): re-solve when the online utility U \
             falls below $(docv) * (U + drift_bound). 0 never re-solves; \
             1 re-solves on any certified loss.")
  in
  Cmd.v
    (Cmd.info "aa_serve" ~version:"1.0.0"
       ~doc:"stateful AA allocation daemon (stdin/stdout and socket request loop)")
    Term.(
      const serve $ servers $ capacity $ journal $ replay $ fsync $ faults
      $ trace $ listen $ shards $ window $ access_log $ slow_ms $ coarsen
      $ rebalance_policy $ drift_frac)

let () = exit (Cmd.eval main_cmd)
