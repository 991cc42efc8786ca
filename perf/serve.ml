(* The daemon workloads, driven over the real socket.

   A run pre-fills a journal with [prefill] ADMIT entries (uniform and
   power-law specs alternating, 128-point PCHIP envelopes printed as
   PLC breakpoints), then runs each phase on a fresh daemon restarted
   with --replay from a copy of that journal:

   - open: a fixed rate for half the run, latency from each due time;
   - closed: a window of 16 per connection for the other half, giving
     throughput, daemon CPU per request and peak RSS, then a final
     REBALANCE + STATS for solution quality;
   - a third restart measures set-up only.

   Set-up time is spawn to the first reply, i.e. the restart: journal
   replay, rewrite and listen. The closed phase's final journal is
   replayed in-process afterwards and must reproduce the last STATS, so
   every acknowledged mutation is durable. *)

open Aa_service
module Frame = Aa_net.Frame

let capacity = 1000.0
let servers = 8
let window = 16

let conns () = max 1 (min 2 (Domain.recommended_domain_count ()))

type shape = {
  mix : Traffic.mix;
  rate : float;  (** open-loop requests per second *)
  prefill : int;
  pool : int;  (** distinct ADMIT/UPDATE specs *)
  snapshot_every : int;  (** requests between SNAPSHOTs (churn), 0 = none *)
}

let fail fmt = Printf.ksprintf failwith fmt

let utilities ~seed ~n =
  let rng = Aa_numerics.Rng.create ~seed () in
  Array.init n (fun i ->
      let d = if i mod 2 = 0 then Aa_workload.Gen.Uniform else Aa_workload.Gen.Power_law { alpha = 2.0 } in
      Aa_workload.Gen.utility rng ~cap:capacity d)

let write_prefill ~path ~servers ~capacity utils =
  match Journal.create ~fsync:Journal.Never ~path ~servers ~capacity () with
  | Error e -> fail "prefill journal: %s" e
  | Ok j ->
      Array.iter
        (fun u -> match Journal.append j (Journal.Admit u) with Ok () -> () | Error e -> fail "prefill: %s" e)
        utils;
      Journal.close j

let copy_file src dst =
  let s = Proc.read_file src in
  Out_channel.with_open_bin dst (fun oc -> Out_channel.output_string oc s)

type session = {
  d : Daemon.t;
  ctl : Unix.file_descr;
  ctl_r : Frame.reader;
  journal : string;
  setup_s : float;
}

(* Set by --inject-failure: the smoke test's way to fail a run while a
   daemon is up, to prove nothing outlives it. *)
let fail_after_start = ref false

(* Restart a daemon from a copy of [prefill]; set-up ends at the reply
   to the first request. *)
let start ~serve_bin ~prefill ~traced ~tag =
  let journal = Filename.concat (Proc.run_dir ()) (tag ^ ".journal") in
  copy_file prefill journal;
  let t0 = Proc.now_s () in
  let d = Daemon.spawn ~serve_bin ~journal ~traced ~tag in
  let ctl = Daemon.connect_when_ready ~timeout_s:120.0 d in
  let ctl_r = Frame.reader ctl in
  let reply = Daemon.roundtrip ctl ctl_r "QUERY 0" in
  let setup_s = Proc.now_s () -. t0 in
  if not (Traffic.has_prefix "OK query id 0 " reply) then fail "first reply: %s" reply;
  if !fail_after_start then fail "injected failure with aa_serve pid %d running" d.pid;
  { d; ctl; ctl_r; journal; setup_s }

let ask s line = Daemon.roundtrip s.ctl s.ctl_r line

let stop s =
  (try Unix.close s.ctl with Unix.Unix_error _ -> ());
  Daemon.stop s.d

(* Drive the daemon on fresh connections, sampling its CPU seconds at
   every window boundary. *)
let load s ~traffic ~mode ~duration_s =
  let fds = Array.init (conns ()) (fun _ -> Daemon.connect s.d) in
  Fun.protect
    ~finally:(fun () -> Array.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) fds)
    (fun () -> Loadgen.run ~sample:(fun () -> Daemon.cpu_s s.d) ~fds ~traffic ~mode ~duration_s ())

(* Solution quality after a final REBALANCE: the online utility over
   the certified superopt bound, U / (U + alpha_gap). *)
let final_stats s =
  let r = ask s "REBALANCE" in
  if not (Traffic.has_prefix "OK rebalance " r) then fail "final REBALANCE: %s" r;
  let kv = Daemon.stats_kv (ask s "STATS") in
  let f k = match List.assoc_opt k kv with Some v -> float_of_string v | None -> fail "STATS lacks %s" k in
  (kv, f "utility" /. (f "utility" +. f "alpha_gap"))

(* acked ⊆ durable: replaying the final journal must reproduce the last
   STATS the daemon answered. *)
let check_durable ~journal kv =
  match Engine.of_journal ~fsync:Journal.Never ~path:journal () with
  | Error e -> Error ("replay of the final journal: " ^ e)
  | Ok e ->
      Option.iter Journal.close (Engine.journal e);
      let want k = List.assoc_opt k kv |> Option.value ~default:"?" in
      let admitted = string_of_int (Engine.n_admitted e) and active = string_of_int (Engine.n_active e) in
      let u = Engine.total_utility e in
      let u_ok =
        match float_of_string_opt (want "utility") with
        | Some w -> Float.abs (u -. w) <= 1e-8 *. Float.max 1.0 (Float.abs w)
        | None -> false
      in
      if admitted = want "admitted" && active = want "active" && u_ok then Ok ()
      else
        Error
          (Printf.sprintf "replayed journal has admitted=%s active=%s utility=%.9g, STATS said %s/%s/%s" admitted
             active u (want "admitted") (want "active") (want "utility"))

type inputs = { prefill_path : string; specs : string array; n_prefill : int }

(* [prefill] defaults to [shape.prefill] generated threads; the solver
   workloads pass their own instance's threads instead. *)
let make_inputs ?prefill ~seed shape =
  let utils = match prefill with Some u -> u | None -> utilities ~seed ~n:shape.prefill in
  let prefill_path = Filename.concat (Proc.run_dir ()) "prefill.journal" in
  write_prefill ~path:prefill_path ~servers ~capacity utils;
  let specs = Array.map Aa_io.Format_text.print_thread_spec (utilities ~seed:(seed + 1) ~n:shape.pool) in
  { prefill_path; specs; n_prefill = Array.length utils }

let traffic ~seed ~mix ~shape inputs =
  Traffic.create ~mix ~seed ~conns:(conns ()) ~specs:inputs.specs ~prefill:inputs.n_prefill
    ~snapshot_every:shape.snapshot_every

type e2e = {
  open_res : Loadgen.result;
  closed_res : Loadgen.result;
  setups : float list;
  rss_mb : float;
  quality : float;
  durable : (unit, string) result;
}

let run_e2e ~serve_bin ~seed ~seconds shape =
  let inputs = make_inputs ~seed shape in
  let half = seconds /. 2.0 in
  let s1 = start ~serve_bin ~prefill:inputs.prefill_path ~traced:false ~tag:"open" in
  let open_res =
    load s1 ~traffic:(traffic ~seed:(seed + 2) ~mix:shape.mix ~shape inputs) ~mode:(Loadgen.Open shape.rate)
      ~duration_s:half
  in
  stop s1;
  let s2 = start ~serve_bin ~prefill:inputs.prefill_path ~traced:false ~tag:"closed" in
  let closed_res =
    load s2 ~traffic:(traffic ~seed:(seed + 3) ~mix:shape.mix ~shape inputs) ~mode:(Loadgen.Closed window)
      ~duration_s:half
  in
  let kv, quality = final_stats s2 in
  let rss_mb = Daemon.peak_rss_mb s2.d in
  stop s2;
  let durable = check_durable ~journal:s2.journal kv in
  let s3 = start ~serve_bin ~prefill:inputs.prefill_path ~traced:false ~tag:"setup" in
  stop s3;
  { open_res; closed_res; setups = [ s1.setup_s; s2.setup_s; s3.setup_s ]; rss_mb; quality; durable }

(* ---- traced session: the per-layer view of one daemon ---- *)

type traced = {
  t_open : Loadgen.result;
  t_closed : Loadgen.result;
  probe : Loadgen.record array;
  access : Json.t list;  (** access-log records *)
  exposition : string;  (** GET /metrics at the end *)
  t_durable : (unit, string) result;
}

let session_records t = Array.concat [ t.t_open.records; t.t_closed.records; t.probe ]

(* A few requests of every kind on the control connection, so each
   per-kind layer metric has samples whatever the workload's mix:
   ADMIT, UPDATE and QUERY of the probe's own threads, STATS,
   REBALANCE, SNAPSHOT, then DEPART of those threads. Each group is
   pipelined in one write, so the mutations share group commits. *)
let probe s ~specs ~n =
  let tr = Traffic.create ~mix:Traffic.Churn ~seed:0 ~conns:1 ~specs ~prefill:0 ~snapshot_every:0 in
  let send_group (reqs : Traffic.req list) =
    let t = Proc.now_ns () in
    Frame.write_all s.ctl (String.concat "" (List.map (fun (r : Traffic.req) -> Frame.encode r.payload) reqs));
    List.map
      (fun (req : Traffic.req) ->
        let r =
          { Loadgen.conn = 0; req; due_ns = t; send_ns = t; recv_ns = -1; ok = false; result_id = -1 }
        in
        (match Frame.read_msg s.ctl_r with
        | Some (Ok m) -> (
            r.recv_ns <- Proc.now_ns ();
            match Traffic.reply tr 0 req m.payload with
            | Ok id ->
                r.ok <- true;
                r.result_id <- id
            | Error e -> Printf.eprintf "perf: probe %s -> %s\n%!" req.payload e)
        | Some (Error e) -> Printf.eprintf "perf: probe %s -> %s\n%!" req.payload e
        | None -> fail "the daemon closed the control connection");
        r)
      reqs
  in
  let simple k p = { Traffic.kind = k; payload = p; id = -1; spec = -1 } in
  let spec i = i mod Array.length specs in
  let admits =
    send_group
      (List.init n (fun i -> { Traffic.kind = Admit; payload = "ADMIT " ^ specs.(spec i); id = -1; spec = spec i }))
  in
  let ids = List.map (fun (r : Loadgen.record) -> r.result_id) admits in
  let updates_queries =
    send_group
      (List.concat_map
         (fun id ->
           let k = spec (id + 1) in
           [
             { Traffic.kind = Update; payload = Printf.sprintf "UPDATE %d %s" id specs.(k); id; spec = k };
             { kind = Query; payload = Printf.sprintf "QUERY %d" id; id; spec = -1 };
           ])
         ids)
  in
  let stats = send_group (List.init 3 (fun _ -> simple Stats "STATS")) in
  let rebalances = send_group (List.init 3 (fun _ -> simple Rebalance "REBALANCE")) in
  let snapshot = send_group [ simple Snapshot "SNAPSHOT" ] in
  let departs =
    send_group
      (List.map (fun id -> { Traffic.kind = Depart; payload = Printf.sprintf "DEPART %d" id; id; spec = -1 }) ids)
  in
  Array.of_list (List.concat [ admits; updates_queries; stats; rebalances; snapshot; departs ])

let read_access_log path =
  String.split_on_char '\n' (Proc.read_file path) |> List.filter_map (fun l -> if l = "" then None else Json.parse_opt l)

(* One traced daemon: --trace and --access-log on, an open then a closed
   section, the probe, a /metrics scrape, STATS, a clean stop and the
   durability replay. *)
let run_traced ~serve_bin ~seed ~open_s ~closed_s ~probe_n shape inputs =
  let s = start ~serve_bin ~prefill:inputs.prefill_path ~traced:true ~tag:"traced" in
  (* one traffic source for both sections: thread ownership carries over *)
  let traffic = traffic ~seed:(seed + 4) ~mix:shape.mix ~shape inputs in
  let t_open = load s ~traffic ~mode:(Loadgen.Open shape.rate) ~duration_s:open_s in
  let t_closed = load s ~traffic ~mode:(Loadgen.Closed window) ~duration_s:closed_s in
  let probe = probe s ~specs:inputs.specs ~n:probe_n in
  let exposition = Daemon.http_get s.d "/metrics" in
  let kv = Daemon.stats_kv (ask s "STATS") in
  stop s;
  let access = match s.d.access_log with Some p -> read_access_log p | None -> [] in
  { t_open; t_closed; probe; access; exposition; t_durable = check_durable ~journal:s.journal kv }

(* The untraced closed phase a traced run compares against. *)
let run_untraced_closed ~serve_bin ~seed ~duration_s shape inputs =
  let s = start ~serve_bin ~prefill:inputs.prefill_path ~traced:false ~tag:"untraced" in
  let res =
    load s ~traffic:(traffic ~seed:(seed + 3) ~mix:shape.mix ~shape inputs) ~mode:(Loadgen.Closed window)
      ~duration_s
  in
  stop s;
  res
