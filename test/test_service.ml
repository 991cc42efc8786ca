(* Tests for the aa_service subsystem: wire protocol, metrics, journal,
   engine dispatch, crash recovery at every request boundary, the
   malformed-input fuzz loop, and the aa_serve daemon binary. *)

open Aa_numerics
open Aa_utility
open Aa_core
open Aa_service

let cap = 10.0

(* ---------- protocol ---------- *)

let parse s = Protocol.parse_request ~cap s

let check_err expect s =
  match parse s with
  | Ok _ -> Alcotest.failf "accepted %S" s
  | Error (Protocol.Err { code; _ }) ->
      Alcotest.(check string) s expect (Protocol.code_name code)
  | Error r -> Alcotest.failf "%S: non-Err rejection %s" s (Protocol.print_response r)

let test_request_roundtrip () =
  let reqs =
    [
      Protocol.Admit (Utility.Shapes.power ~cap ~coeff:4.0 ~beta:0.5);
      Protocol.Admit (Utility.Shapes.saturating ~cap ~limit:8.0 ~halfway:2.0);
      Protocol.Admit (Utility.Shapes.linear ~cap ~slope:1.5);
      Protocol.Depart 3;
      Protocol.Update (2, Utility.Shapes.log_utility ~cap ~coeff:3.0 ~rate:1.0);
      Protocol.Query 7;
      Protocol.Stats;
      Protocol.Snapshot;
      Protocol.Rebalance;
      Protocol.Trace;
      Protocol.Slow;
    ]
  in
  List.iter
    (fun r ->
      let wire = Protocol.print_request r in
      match parse wire with
      | Error _ -> Alcotest.failf "rejected own output %S" wire
      | Ok r2 -> Alcotest.(check string) wire wire (Protocol.print_request r2))
    reqs

let test_request_errors () =
  List.iter
    (fun (code, s) -> check_err code s)
    [
      ("bad-request", "");
      ("bad-request", "FROB 1");
      ("bad-request", "admit power 4 0.5");
      ("bad-request", "ADMIT");
      ("bad-request", "DEPART");
      ("bad-request", "DEPART x");
      ("bad-request", "DEPART 1 2");
      ("bad-request", "QUERY");
      ("bad-request", "STATS now");
      ("bad-request", "TRACE all");
      ("bad-request", "SLOW now");
      ("bad-request", "SNAPSHOT --force");
      ("bad-request", "UPDATE 0");
      ("bad-request", "UPDATE x linear 1");
      ("bad-spec", "ADMIT wat 1");
      ("bad-spec", "ADMIT power x 1");
      ("bad-spec", "ADMIT plc 0 0 1");
      ("bad-spec", "UPDATE 0 plc 5 1 2 0");
    ]

let test_response_print () =
  Alcotest.(check string) "admit" "OK admit id 4 server 1"
    (Protocol.print_response (Protocol.Admitted { id = 4; server = 1 }));
  Alcotest.(check string) "newlines flattened" "ERR bad-request a b"
    (Protocol.print_response
       (Protocol.Err { code = Protocol.Bad_request; message = "a\nb" }));
  Alcotest.(check string) "empty stats" "OK stats"
    (Protocol.print_response (Protocol.Stats_report []));
  Alcotest.(check string) "stats kvs" "OK stats a=1 b=2"
    (Protocol.print_response (Protocol.Stats_report [ ("a", "1"); ("b", "2") ]));
  Alcotest.(check string) "trace dump is one line"
    "OK trace events 2 [{\"ph\":\"B\"} {\"ph\":\"E\"}]"
    (Protocol.print_response
       (Protocol.Trace_dump { events = 2; json = "[{\"ph\":\"B\"}\n{\"ph\":\"E\"}]" }));
  Alcotest.(check string) "slow dump" "OK slow count 2 [{},{}]"
    (Protocol.print_response (Protocol.Slow_dump { count = 2; json = "[{},{}]" }))

let prop_parse_total =
  QCheck2.Test.make ~name:"parse_request is total on arbitrary input" ~count:500
    QCheck2.Gen.(string_size ~gen:printable (int_range 0 60))
    (fun s ->
      match Protocol.parse_request ~cap s with Ok _ -> true | Error _ -> true)

(* ---------- metrics ---------- *)

let test_histogram_quantiles () =
  let h = Metrics.Histogram.create () in
  Helpers.check_float "empty" 0.0 (Metrics.Histogram.quantile h 0.5);
  for i = 1 to 1000 do
    (* 0.1 ms .. 100 ms, uniformly *)
    Metrics.Histogram.add h (float_of_int i *. 1e-4)
  done;
  Alcotest.(check int) "count" 1000 (Metrics.Histogram.count h);
  let check q expect =
    let got = Metrics.Histogram.quantile h q in
    if Float.abs (got -. expect) > 0.15 *. expect then
      Alcotest.failf "q%g: got %g, want ~%g (log-bucket error should be <15%%)" q got
        expect
  in
  check 0.5 0.05;
  check 0.95 0.095;
  check 0.99 0.099

let test_histogram_extremes () =
  let h = Metrics.Histogram.create () in
  Metrics.Histogram.add h 0.0;
  Metrics.Histogram.add h 1e-12;
  Metrics.Histogram.add h 1e9;
  Alcotest.(check int) "count" 3 (Metrics.Histogram.count h);
  Helpers.check_le "tiny stays tiny" (Metrics.Histogram.quantile h 0.01) 2e-9;
  Helpers.check_ge "huge clamps to the last bucket" (Metrics.Histogram.quantile h 0.99)
    100.0

let test_metrics_report () =
  let m = Metrics.create () in
  Metrics.record m ~kind:"admit" ~ok:true ~latency:1e-4;
  Metrics.record m ~kind:"admit" ~ok:true ~latency:2e-4;
  Metrics.record m ~kind:"query" ~ok:false ~latency:1e-5;
  Metrics.note_gap m 0.97;
  Alcotest.(check int) "requests" 3 (Metrics.requests m);
  let r = Metrics.report m in
  let get k =
    match List.assoc_opt k r with
    | Some v -> v
    | None -> Alcotest.failf "missing key %s" k
  in
  Alcotest.(check string) "ok" "2" (get "ok");
  Alcotest.(check string) "err" "1" (get "err");
  Alcotest.(check string) "admit.ok" "2" (get "admit.ok");
  Alcotest.(check string) "admit.err" "0" (get "admit.err");
  Alcotest.(check string) "query.err" "1" (get "query.err");
  Alcotest.(check string) "gap" "0.970000" (get "rebalance.gap");
  ignore (get "p50");
  ignore (get "p95");
  ignore (get "p99");
  ignore (get "admit.p99")

(* ---------- journal ---------- *)

let u_pow = Utility.Shapes.power ~cap ~coeff:4.0 ~beta:0.5
let u_log = Utility.Shapes.log_utility ~cap ~coeff:3.0 ~rate:1.0

let or_fail = function Ok v -> v | Error e -> Alcotest.fail e
let unit_or_fail (r : (unit, string) result) = or_fail r

let test_journal_roundtrip () =
  let path = Filename.temp_file "aa_journal" ".log" in
  let entries =
    [
      Journal.Admit u_pow;
      Journal.Admit u_log;
      Journal.Depart 0;
      Journal.Update (1, u_pow);
      Journal.Place { id = 0; server = 1; active = false; u = u_pow };
      Journal.Place { id = 1; server = 0; active = true; u = u_log };
    ]
  in
  let j = or_fail (Journal.create ~path ~servers:2 ~capacity:cap ()) in
  List.iter (fun e -> unit_or_fail (Journal.append j e)) entries;
  Journal.close j;
  let h, got = or_fail (Journal.load ~path) in
  Alcotest.(check int) "servers" 2 h.Journal.servers;
  Helpers.check_float "capacity" cap h.Journal.capacity;
  Alcotest.(check (list string)) "entries survive the round trip"
    (List.map Journal.print_entry entries)
    (List.map Journal.print_entry got);
  Sys.remove path

let test_journal_torn_tail () =
  let path = Filename.temp_file "aa_journal" ".log" in
  let j = or_fail (Journal.create ~path ~servers:2 ~capacity:cap ()) in
  unit_or_fail (Journal.append j (Journal.Admit u_pow));
  Journal.close j;
  (* simulate a crash mid-append: a partial final line, no newline *)
  let oc = Out_channel.open_gen [ Open_append; Open_wronly; Open_text ] 0o644 path in
  Out_channel.output_string oc "admit pow";
  Out_channel.close oc;
  (match Journal.load ~path with
  | Error e -> Alcotest.failf "torn tail not tolerated: %s" e
  | Ok (_, got) -> Alcotest.(check int) "torn line dropped" 1 (List.length got));
  (* the recovery open rewrites the file, so appends after it are clean *)
  let j, got = or_fail (Journal.append_to ~path ()) in
  Alcotest.(check int) "recovered entries" 1 (List.length got);
  unit_or_fail (Journal.append j (Journal.Depart 0));
  Journal.close j;
  let _, got = or_fail (Journal.load ~path) in
  Alcotest.(check (list string)) "clean after reopen"
    [ Journal.print_entry (Journal.Admit u_pow); "depart 0" ]
    (List.map Journal.print_entry got);
  Sys.remove path

let test_journal_rejects_garbage () =
  let path = Filename.temp_file "aa_journal" ".log" in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc "not a journal\n");
  (match Journal.load ~path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad header accepted");
  (* a malformed line that is NOT a torn tail (newline-terminated) is an error *)
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc
        "aa-journal 2 servers 2 capacity 10\nfrob 1\nadmit linear 1\n");
  (match Journal.load ~path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mid-file garbage accepted");
  (match Journal.load ~path:"/nonexistent/dir/j.log" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file loaded");
  (match Journal.parse_entry ~cap "  # comment only" with
  | Ok None -> ()
  | Ok (Some _) | Error _ -> Alcotest.fail "comment line should parse to None");
  Sys.remove path

(* ---------- engine ---------- *)

let send e line =
  match Helpers.engine_line e line with
  | Some r -> r
  | None -> Alcotest.failf "no response to %S" line

let expect_ok e line =
  match send e line with
  | Protocol.Err { message; _ } -> Alcotest.failf "%S failed: %s" line message
  | r -> r

let expect_err code e line =
  match send e line with
  | Protocol.Err { code = c; _ } ->
      Alcotest.(check string) line code (Protocol.code_name c)
  | r -> Alcotest.failf "%S succeeded: %s" line (Protocol.print_response r)

let test_engine_session () =
  let e = Engine.create ~servers:2 ~capacity:cap () in
  (match expect_ok e "ADMIT capped 1 10" with
  | Protocol.Admitted { id; _ } -> Alcotest.(check int) "first id" 0 id
  | r -> Alcotest.failf "unexpected %s" (Protocol.print_response r));
  ignore (expect_ok e "ADMIT capped 1 10");
  (* two identical full-capacity threads spread across both servers *)
  Helpers.check_float "utility" 20.0 (Engine.total_utility e);
  (match expect_ok e "QUERY 0" with
  | Protocol.Thread_info { alloc; value; active; _ } ->
      Helpers.check_float "alloc" 10.0 alloc;
      Helpers.check_float "value" 10.0 value;
      Alcotest.(check bool) "active" true active
  | r -> Alcotest.failf "unexpected %s" (Protocol.print_response r));
  (match expect_ok e "REBALANCE" with
  | Protocol.Rebalance_report { online; offline; gap } ->
      Helpers.check_float "online" 20.0 online;
      Helpers.check_float "offline" 20.0 offline;
      Helpers.check_float "gap" 1.0 gap
  | r -> Alcotest.failf "unexpected %s" (Protocol.print_response r));
  ignore (expect_ok e "DEPART 0");
  Alcotest.(check int) "one active" 1 (Engine.n_active e);
  (match expect_ok e "QUERY 0" with
  | Protocol.Thread_info { alloc; active; _ } ->
      Helpers.check_float "departed holds nothing" 0.0 alloc;
      Alcotest.(check bool) "inactive" false active
  | r -> Alcotest.failf "unexpected %s" (Protocol.print_response r));
  match expect_ok e "STATS" with
  | Protocol.Stats_report kvs ->
      let get k =
        match List.assoc_opt k kvs with
        | Some v -> v
        | None -> Alcotest.failf "missing stats key %s" k
      in
      Alcotest.(check string) "admitted" "2" (get "admitted");
      Alcotest.(check string) "active" "1" (get "active")
  | r -> Alcotest.failf "unexpected %s" (Protocol.print_response r)

(* The request metrics live in the dispatcher: the same session through
   a one-engine Shard reports per-kind counts, the malformed line and
   the REBALANCE gap next to the engine's gauges. *)
let test_shard_request_metrics () =
  let sh = Shard.create [| Engine.create ~servers:2 ~capacity:cap () |] in
  Fun.protect ~finally:(fun () -> Shard.shutdown sh) @@ fun () ->
  let send line =
    match Shard.handle_line sh line with
    | Some (Shard.Reply r) -> r
    | Some (Shard.Crashed name) -> Alcotest.failf "%S crashed at %s" line name
    | None -> Alcotest.failf "no response to %S" line
  in
  List.iter
    (fun line -> ignore (send line))
    [ "ADMIT capped 1 10"; "ADMIT capped 1 10"; "REBALANCE"; "NOPE"; "DEPART 0" ];
  match send "STATS" with
  | Protocol.Stats_report kvs ->
      let get k =
        match List.assoc_opt k kvs with
        | Some v -> v
        | None -> Alcotest.failf "missing stats key %s" k
      in
      Alcotest.(check string) "admitted" "2" (get "admitted");
      Alcotest.(check string) "policy" "incremental" (get "policy");
      Alcotest.(check string) "admit.ok" "2" (get "admit.ok");
      Alcotest.(check string) "malformed.err" "1" (get "malformed.err");
      Alcotest.(check string) "requests" "5" (get "requests");
      Alcotest.(check string) "rebalance gap" "1.000000" (get "rebalance.gap")
  | r -> Alcotest.failf "unexpected %s" (Protocol.print_response r)

let test_engine_errors () =
  let e = Engine.create ~servers:2 ~capacity:cap () in
  expect_err "bad-spec" e "ADMIT plc 0 0 5 5";
  (* a plc spec carrying the wrong domain cap *)
  expect_err "no-thread" e "DEPART 0";
  expect_err "no-thread" e "QUERY 3";
  ignore (expect_ok e "ADMIT linear 1");
  ignore (expect_ok e "DEPART 0");
  expect_err "no-thread" e "DEPART 0";
  expect_err "no-thread" e "UPDATE 0 linear 2";
  expect_err "bad-request" e "NOPE";
  expect_err "bad-request" e "DEPART many";
  (* rebalancing an empty active set is fine *)
  match expect_ok e "REBALANCE" with
  | Protocol.Rebalance_report { gap; _ } -> Helpers.check_float "gap" 1.0 gap
  | r -> Alcotest.failf "unexpected %s" (Protocol.print_response r)

let test_engine_rebalance_gap () =
  (* an adversarial arrival order the greedy placer handles suboptimally:
     the REBALANCE gap must report online <= offline and stay sane *)
  let rng = Rng.create ~seed:11 () in
  let e = Engine.create ~servers:3 ~capacity:cap () in
  for _ = 1 to 18 do
    let spec = Aa_io.Format_text.print_thread_spec (Helpers.plc_u rng) in
    ignore (expect_ok e ("ADMIT " ^ spec))
  done;
  match expect_ok e "REBALANCE" with
  | Protocol.Rebalance_report { online; offline; gap } ->
      Helpers.check_ge "online positive" online 0.0;
      Helpers.check_ge "some quality" gap 0.5;
      Helpers.check_float ~eps:1e-9 "gap consistent" (online /. offline) gap
  | r -> Alcotest.failf "unexpected %s" (Protocol.print_response r)

let test_engine_policy_and_drift_stats () =
  let e = Engine.create ~servers:2 ~capacity:cap () in
  ignore (expect_ok e "ADMIT linear 1");
  ignore (expect_ok e "ADMIT linear 1");
  (match expect_ok e "STATS" with
  | Protocol.Stats_report kvs ->
      let get k =
        match List.assoc_opt k kvs with
        | Some v -> v
        | None -> Alcotest.failf "STATS missing %s" k
      in
      Alcotest.(check string) "policy" "incremental" (get "policy");
      Alcotest.(check string) "no auto re-solves" "0" (get "incremental.resolves");
      Alcotest.(check bool) "splices counted" true
        (int_of_string (get "incremental.splices") >= 2);
      Alcotest.(check bool) "drift bound exported" true (get "drift_bound" <> "")
  | r -> Alcotest.failf "unexpected %s" (Protocol.print_response r));
  Alcotest.(check bool) "policy field" true ((Engine.stats e).policy = Online.Incremental);
  (* a Full-policy engine reaches the identical state *)
  let ef = Engine.create ~policy:Online.Full ~servers:2 ~capacity:cap () in
  ignore (expect_ok ef "ADMIT linear 1");
  ignore (expect_ok ef "ADMIT linear 1");
  Helpers.check_float "bit-identical totals" (Engine.total_utility ef)
    (Engine.total_utility e);
  (* REBALANCE re-certifies the published drift bound; this placement is
     offline-optimal, so the certificate closes completely *)
  ignore (expect_ok e "REBALANCE");
  Helpers.check_float ~eps:1e-9 "bound closed by rebalance" 0.0 (Engine.stats e).drift

let test_engine_auto_policy_replay () =
  let path = Filename.temp_file "aa_auto" ".log" in
  let policy = Online.Auto { frac = 0.9 } in
  let j = or_fail (Journal.create ~path ~servers:2 ~capacity:cap ()) in
  let e = Engine.create ~journal:j ~policy ~servers:2 ~capacity:cap () in
  (* a steep full-capacity arrival starves a resident, and a departure
     strands a server: the decayed-value trigger re-solves and migrates *)
  ignore (expect_ok e "ADMIT capped 1 10");
  ignore (expect_ok e "ADMIT capped 1 10");
  ignore (expect_ok e "ADMIT capped 2 10");
  ignore (expect_ok e "DEPART 1");
  Alcotest.(check bool) "auto re-solved" true ((Engine.stats e).resolves >= 1);
  Helpers.check_float "regret recovered" 30.0 (Engine.total_utility e);
  (* recovery under the same policy replays the same re-solve points:
     counts, placements and totals all reproduce *)
  (match Engine.of_journal ~policy ~path () with
  | Error msg -> Alcotest.failf "replay: %s" msg
  | Ok e2 ->
      Alcotest.(check int) "replayed re-solves" (Engine.stats e).resolves
        (Engine.stats e2).resolves;
      Helpers.check_float "replayed total" (Engine.total_utility e)
        (Engine.total_utility e2);
      let ol = Engine.online e and ol2 = Engine.online e2 in
      for i = 0 to Engine.n_admitted e - 1 do
        Alcotest.(check int)
          (Printf.sprintf "server of %d" i)
          (Online.server_of ol i) (Online.server_of ol2 i)
      done);
  Journal.close j;
  Sys.remove path

let test_engine_slow_verb () =
  let module Rctx = Aa_obs.Rctx in
  Rctx.slow_clear ();
  Rctx.set_slow_ms 0.0;
  Fun.protect
    ~finally:(fun () ->
      Rctx.set_slow_ms (-1.0);
      Rctx.slow_clear ())
    (fun () ->
      let e = Engine.create ~servers:2 ~capacity:cap () in
      (match Engine.handle e Protocol.Slow with
      | Protocol.Slow_dump { count = 0; json = "[]" } -> ()
      | Protocol.Slow_dump { count; json } ->
          Alcotest.failf "expected an empty dump, got count %d json %s" count json
      | r -> Alcotest.failf "unexpected %s" (Protocol.print_response r));
      (* a request dispatched under a context and finished lands in the
         keep-list (threshold 0 captures everything) *)
      let c = Rctx.create ~kind:"admit" ~conn:0 in
      (match Engine.handle_batch ~ctxs:[| Some c |] e [ Protocol.Admit u_pow ] with
      | [ Protocol.Admitted _ ] -> ()
      | rs ->
          Alcotest.failf "unexpected batch: %s"
            (String.concat " / " (List.map Protocol.print_response rs)));
      ignore (Rctx.finish c ~outcome:"ok");
      match Engine.handle e Protocol.Slow with
      | Protocol.Slow_dump { count; json } ->
          Alcotest.(check int) "captured" 1 count;
          Alcotest.(check bool) "phase spans kept" true (Helpers.contains json "validate");
          Alcotest.(check bool) "kind recorded" true (Helpers.contains json "admit")
      | r -> Alcotest.failf "unexpected %s" (Protocol.print_response r))

let test_engine_coarsen_interval () =
  let e = Engine.create ~servers:2 ~capacity:cap ~coarsen_eps:0.25 () in
  Alcotest.(check bool)
    "no interval before REBALANCE" true
    (Engine.utility_interval e = None);
  for _ = 1 to 6 do
    ignore (expect_ok e "ADMIT power 2 0.5")
  done;
  (match expect_ok e "REBALANCE" with
  | Protocol.Rebalance_report { offline; _ } -> (
      match Engine.utility_interval e with
      | None -> Alcotest.fail "interval missing after REBALANCE"
      | Some (lo, hi, alpha) ->
          (* the exact utility of the coarse-solved assignment sits in
             the certified envelope, whose width is n_active * eps *)
          Helpers.check_ge "offline >= lower" offline (lo -. 1e-9);
          Helpers.check_ge "upper >= offline" hi (offline -. 1e-9);
          Helpers.check_float ~eps:1e-9 "width = n_active * eps" (6.0 *. 0.25) (hi -. lo);
          Helpers.check_ge "alpha gap >= 0" alpha (-1e-6))
  | r -> Alcotest.failf "unexpected %s" (Protocol.print_response r));
  (match expect_ok e "STATS" with
  | Protocol.Stats_report kvs ->
      List.iter
        (fun k ->
          if List.assoc_opt k kvs = None then Alcotest.failf "STATS missing %s" k)
        [ "utility_lower"; "utility_upper"; "alpha_gap" ]
  | r -> Alcotest.failf "unexpected %s" (Protocol.print_response r));
  (* eps = 0 (the default) degenerates to the exact point interval *)
  let e0 = Engine.create ~servers:2 ~capacity:cap () in
  ignore (expect_ok e0 "ADMIT capped 1 10");
  (match expect_ok e0 "REBALANCE" with
  | Protocol.Rebalance_report { offline; _ } -> (
      match Engine.utility_interval e0 with
      | Some (lo, hi, _) ->
          Helpers.check_float ~eps:1e-9 "lower = exact" offline lo;
          Helpers.check_float ~eps:1e-9 "upper = exact" offline hi
      | None -> Alcotest.fail "interval missing")
  | r -> Alcotest.failf "unexpected %s" (Protocol.print_response r));
  Alcotest.check_raises "negative eps rejected"
    (Invalid_argument "Engine.create: coarsen_eps must be finite and >= 0") (fun () ->
      ignore (Engine.create ~servers:2 ~capacity:cap ~coarsen_eps:(-1.0) ()))

(* ---------- malformed-input fuzz ---------- *)

let garbage_line rng =
  let n = 1 + Rng.int rng 30 in
  String.init n (fun _ -> Char.chr (32 + Rng.int rng 96))

let test_fuzz_never_kills_engine () =
  let rng = Rng.create ~seed:99 () in
  let path = Filename.temp_file "aa_fuzz" ".log" in
  let j = or_fail (Journal.create ~path ~servers:2 ~capacity:cap ()) in
  let e = Engine.create ~journal:j ~servers:2 ~capacity:cap () in
  ignore (expect_ok e "ADMIT power 4 0.5");
  let mutated = ref 1 in
  let errs = ref 0 in
  for _ = 1 to 1600 do
    let line =
      match Rng.int rng 5 with
      | 0 -> garbage_line rng
      | 1 -> "ADMIT " ^ garbage_line rng
      | 2 -> "DEPART " ^ garbage_line rng
      | 3 -> "UPDATE 0 " ^ garbage_line rng
      | _ -> "\t " ^ garbage_line rng
    in
    match Helpers.engine_line e line with
    | None -> ()
    | Some (Protocol.Err _) -> incr errs
    | Some (Protocol.Admitted _ | Protocol.Departed _ | Protocol.Updated _) ->
        (* vanishingly rare: garbage that happens to be well-formed *)
        incr mutated
    | Some _ -> ()
  done;
  Helpers.check_ge "at least 1000 rejected garbage lines" (float_of_int !errs) 1000.0;
  (* the engine is still alive and serving *)
  (match expect_ok e "ADMIT power 2 0.5" with
  | Protocol.Admitted _ -> incr mutated
  | r -> Alcotest.failf "unexpected %s" (Protocol.print_response r));
  (* and the journal holds exactly the accepted mutations, nothing else *)
  let _, entries = or_fail (Journal.load ~path) in
  Alcotest.(check int) "journal uncorrupted" !mutated (List.length entries);
  (match Engine.of_journal ~path () with
  | Error msg -> Alcotest.failf "replay after fuzz: %s" msg
  | Ok e2 ->
      Helpers.check_float "state survives" (Engine.total_utility e)
        (Engine.total_utility e2);
      (match Engine.journal e2 with Some j2 -> Journal.close j2 | None -> ()));
  Journal.close j;
  Sys.remove path

(* ---------- crash recovery at every request boundary ---------- *)

type state = {
  n : int;
  where : int array;
  allocs : float array;
  total : float;
}

let state_of e =
  let ol = Engine.online e in
  let n = Online.n_admitted ol in
  {
    n;
    where = Array.init n (Online.server_of ol);
    allocs = Array.init n (Online.alloc_of ol);
    total = Online.total_utility ol;
  }

let check_state msg a b =
  Alcotest.(check int) (msg ^ ": n_admitted") a.n b.n;
  Alcotest.(check (array int)) (msg ^ ": servers") a.where b.where;
  Array.iteri
    (fun i x ->
      Helpers.check_float ~eps:1e-9 (Printf.sprintf "%s: alloc of %d" msg i) x
        b.allocs.(i))
    a.allocs;
  Helpers.check_float ~eps:1e-9 (msg ^ ": total utility") a.total b.total

let random_spec rng =
  match Rng.int rng 4 with
  | 0 ->
      Printf.sprintf "power %.17g %.17g"
        (Rng.uniform rng ~lo:0.5 ~hi:5.0)
        (Rng.uniform rng ~lo:0.3 ~hi:1.0)
  | 1 ->
      Printf.sprintf "log %.17g %.17g"
        (Rng.uniform rng ~lo:0.5 ~hi:5.0)
        (Rng.uniform rng ~lo:0.1 ~hi:2.0)
  | 2 ->
      Printf.sprintf "capped %.17g %.17g"
        (Rng.uniform rng ~lo:0.2 ~hi:4.0)
        (Rng.uniform rng ~lo:1.0 ~hi:cap)
  | _ -> Aa_io.Format_text.print_thread_spec (Helpers.plc_u rng)

(* Drive [steps] scripted requests (admits, departs, updates, queries,
   periodic REBALANCE and journal-compacting SNAPSHOT); after every
   request record the journal bytes and the engine state. *)
let scripted_session e rng steps =
  let journal_path =
    match Engine.journal e with
    | Some j -> Journal.path j
    | None -> Alcotest.fail "scripted_session needs a journaled engine"
  in
  let active = ref [] in
  let boundaries = ref [] in
  for step = 1 to steps do
    let line =
      if step mod 67 = 0 then "SNAPSHOT"
      else if step mod 41 = 0 then "REBALANCE"
      else if !active = [] || Rng.float rng 1.0 < 0.5 then
        "ADMIT " ^ random_spec rng
      else begin
        let pick () = List.nth !active (Rng.int rng (List.length !active)) in
        match Rng.int rng 4 with
        | 0 | 1 -> Printf.sprintf "DEPART %d" (pick ())
        | 2 -> Printf.sprintf "UPDATE %d %s" (pick ()) (random_spec rng)
        | _ -> Printf.sprintf "QUERY %d" (pick ())
      end
    in
    (match Helpers.engine_line e line with
    | Some (Protocol.Admitted { id; _ }) -> active := id :: !active
    | Some (Protocol.Departed { id }) ->
        active := List.filter (fun x -> x <> id) !active
    | Some (Protocol.Err { message; _ }) ->
        Alcotest.failf "step %d %S: %s" step line message
    | Some _ -> ()
    | None -> ());
    let bytes = In_channel.with_open_bin journal_path In_channel.input_all in
    boundaries := (bytes, state_of e) :: !boundaries
  done;
  List.rev !boundaries

let test_crash_recovery_every_prefix () =
  let rng = Rng.create ~seed:2024 () in
  let path = Filename.temp_file "aa_crash" ".log" in
  let replay_path = Filename.temp_file "aa_replay" ".log" in
  let j = or_fail (Journal.create ~path ~servers:3 ~capacity:cap ()) in
  let e = Engine.create ~journal:j ~servers:3 ~capacity:cap () in
  let boundaries = scripted_session e rng 200 in
  Alcotest.(check int) "200 request boundaries" 200 (List.length boundaries);
  List.iteri
    (fun k (bytes, st) ->
      (* the journal as a crash at this boundary would leave it *)
      Out_channel.with_open_bin replay_path (fun oc ->
          Out_channel.output_string oc bytes);
      match Engine.of_journal ~path:replay_path () with
      | Error msg -> Alcotest.failf "boundary %d: replay failed: %s" k msg
      | Ok e2 ->
          check_state (Printf.sprintf "boundary %d" k) st (state_of e2);
          (match Engine.journal e2 with
          | Some j2 -> Journal.close j2
          | None -> ()))
    boundaries;
  Journal.close j;
  Sys.remove path;
  Sys.remove replay_path

(* ---------- the daemon binary, end to end ---------- *)

let serve_bin =
  List.find_opt Sys.file_exists
    [ "../bin/aa_serve.exe"; "_build/default/bin/aa_serve.exe" ]
  |> Option.value ~default:"../bin/aa_serve.exe"

let run_serve ?(expect = 0) args input =
  Out_channel.with_open_text "serve_in.txt" (fun oc ->
      Out_channel.output_string oc input);
  let cmd = Filename.quote_command serve_bin args in
  let code = Sys.command (cmd ^ " < serve_in.txt > serve_out.txt 2> serve_err.txt") in
  if code <> expect then begin
    let err = In_channel.with_open_text "serve_err.txt" In_channel.input_all in
    Alcotest.failf "aa_serve %s: exit %d (expected %d)\nstderr: %s"
      (String.concat " " args) code expect err
  end;
  In_channel.with_open_text "serve_out.txt" In_channel.input_all

let response_lines out =
  String.split_on_char '\n' out |> List.filter (fun l -> l <> "")

let check_prefix what prefix line =
  if not (String.starts_with ~prefix line) then
    Alcotest.failf "%s: %S should start with %S" what line prefix

let test_daemon_session () =
  let out =
    run_serve [ "-m"; "2"; "-C"; "10" ]
      "ADMIT power 4 0.5\n# a comment\n\nQUERY 0\nNOPE\nSTATS\n"
  in
  match response_lines out with
  | [ l1; l2; l3; l4 ] ->
      check_prefix "admit" "OK admit id 0 server" l1;
      check_prefix "query" "OK query id 0" l2;
      check_prefix "garbage" "ERR bad-request" l3;
      check_prefix "stats" "OK stats" l4;
      Alcotest.(check bool) "stats counts the garbage" true
        (Helpers.contains l4 "malformed.err=1")
  | ls -> Alcotest.failf "expected 4 responses, got %d:\n%s" (List.length ls) out

let test_daemon_journal_replay () =
  let path = Filename.temp_file "aa_daemon" ".log" in
  let _ =
    run_serve
      [ "-m"; "2"; "-C"; "10"; "--journal"; path ]
      "ADMIT capped 1 10\nADMIT capped 1 10\nDEPART 0\n"
  in
  (* second process: recover, snapshot-compact, keep mutating *)
  let out =
    run_serve [ "--journal"; path; "--replay" ]
      "QUERY 0\nQUERY 1\nSNAPSHOT\nADMIT linear 2\n"
  in
  (match response_lines out with
  | [ q0; q1; snap; admit ] ->
      Alcotest.(check bool) "0 departed" true (Helpers.contains q0 "active 0");
      Alcotest.(check bool) "1 alive with the full server" true
        (Helpers.contains q1 "alloc 10");
      check_prefix "snapshot" "OK snapshot active 1 admitted 2" snap;
      Alcotest.(check bool) "journal compacted" true
        (Helpers.contains snap "compacted 1");
      check_prefix "admit keeps counting ids" "OK admit id 2" admit
  | ls -> Alcotest.failf "expected 4 responses, got %d:\n%s" (List.length ls) out);
  (* third process: replay over the compacted journal *)
  let out2 = run_serve [ "--journal"; path; "--replay" ] "STATS\n" in
  (match response_lines out2 with
  | [ stats ] ->
      Alcotest.(check bool) "admitted=3" true (Helpers.contains stats "admitted=3");
      Alcotest.(check bool) "active=2" true (Helpers.contains stats "active=2")
  | ls -> Alcotest.failf "expected 1 response, got %d" (List.length ls));
  Sys.remove path

let test_daemon_telemetry_flags () =
  (* --slow-ms routes through the sharded dispatch (wire-identical for
     n = 1) and arms the keep-list the SLOW verb reads back *)
  let out =
    run_serve
      [ "-m"; "2"; "-C"; "10"; "--slow-ms"; "0" ]
      "ADMIT capped 1 10\nSLOW\n"
  in
  (match response_lines out with
  | [ admit; slow ] ->
      check_prefix "admit" "OK admit id 0" admit;
      check_prefix "slow" "OK slow count 1" slow
  | ls -> Alcotest.failf "expected 2 responses, got %d:\n%s" (List.length ls) out);
  (* --coarsen: REBALANCE certifies, STATS reports the interval *)
  let out =
    run_serve
      [ "-m"; "2"; "-C"; "10"; "--coarsen"; "0.1" ]
      "ADMIT capped 1 10\nREBALANCE\nSTATS\n"
  in
  (match response_lines out with
  | [ _; _; stats ] ->
      Alcotest.(check bool) "lower bound" true (Helpers.contains stats "utility_lower=");
      Alcotest.(check bool) "upper bound" true (Helpers.contains stats "utility_upper=");
      Alcotest.(check bool) "alpha gap" true (Helpers.contains stats "alpha_gap=")
  | ls -> Alcotest.failf "expected 3 responses, got %d:\n%s" (List.length ls) out);
  ignore (run_serve ~expect:1 [ "--coarsen=-0.5" ] "");
  (* --access-log: one JSONL record per acked request *)
  let log = Filename.temp_file "aa_access" ".jsonl" in
  let _ =
    run_serve
      [ "-m"; "2"; "-C"; "10"; "--access-log"; log ]
      "ADMIT capped 1 10\nQUERY 0\nNOPE\nSTATS\n"
  in
  let records =
    In_channel.with_open_text log In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  (* NOPE is rejected at parse (no ticket, no record): 3 acked requests *)
  Alcotest.(check int) "one record per acked request" 3 (List.length records);
  List.iter
    (fun r ->
      List.iter
        (fun key ->
          if not (Helpers.contains r key) then
            Alcotest.failf "record %s missing %s" r key)
        [ "\"rid\":"; "\"kind\":"; "\"shard\":"; "\"outcome\":"; "\"total_ns\":" ])
    records;
  Sys.remove log

let test_daemon_rebalance_policy_flags () =
  let out = run_serve [ "-m"; "2"; "-C"; "10" ] "ADMIT capped 1 10\nSTATS\n" in
  (match response_lines out with
  | [ _; stats ] ->
      Alcotest.(check bool) "default policy reported" true
        (Helpers.contains stats "policy=incremental")
  | ls -> Alcotest.failf "expected 2 responses, got %d:\n%s" (List.length ls) out);
  let out =
    run_serve
      [ "-m"; "2"; "-C"; "10"; "--rebalance-policy"; "auto"; "--drift-frac"; "0.8" ]
      "ADMIT capped 1 10\nSTATS\n"
  in
  (match response_lines out with
  | [ _; stats ] ->
      Alcotest.(check bool) "auto reported" true (Helpers.contains stats "policy=auto");
      Alcotest.(check bool) "drift bound exported" true
        (Helpers.contains stats "drift_bound=")
  | ls -> Alcotest.failf "expected 2 responses, got %d:\n%s" (List.length ls) out);
  (* the sharded dispatcher aggregates the certificate across the fleet *)
  let out =
    run_serve
      [ "-m"; "2"; "-C"; "10"; "--shards"; "2" ]
      "ADMIT capped 1 10\nADMIT capped 1 10\nSTATS\n"
  in
  (match response_lines out with
  | [ _; _; stats ] ->
      Alcotest.(check bool) "fleet drift" true (Helpers.contains stats "drift_bound=");
      Alcotest.(check bool) "fleet splices" true
        (Helpers.contains stats "incremental.splices=");
      Alcotest.(check bool) "fleet resolves" true
        (Helpers.contains stats "incremental.resolves=")
  | ls -> Alcotest.failf "expected 3 responses, got %d:\n%s" (List.length ls) out);
  ignore (run_serve ~expect:1 [ "--rebalance-policy"; "sometimes" ] "");
  (* the from-scratch reference path is a test oracle, not a daemon mode *)
  ignore (run_serve ~expect:1 [ "--rebalance-policy"; "full" ] "");
  ignore (run_serve ~expect:1 [ "--drift-frac"; "1.5" ] "")

(* Every stdin session runs through the sharded dispatcher, so STATS
   carries the engines' policy, the dispatcher's request metrics and the
   summed REBALANCE gap at any shard count. *)
let test_daemon_stats_keys () =
  List.iter
    (fun shards ->
      let out =
        run_serve
          [ "-m"; "2"; "-C"; "10"; "--shards"; shards ]
          "ADMIT linear 1\nNOPE\nREBALANCE\nSTATS\n"
      in
      match response_lines out with
      | [ _; _; _; stats ] ->
          List.iter
            (fun key ->
              if not (Helpers.contains stats key) then
                Alcotest.failf "--shards %s: STATS lacks %s: %s" shards key stats)
            [
              "policy=incremental"; "rebalance.gap=1.000000"; "shards=" ^ shards;
              "malformed.err=1";
            ]
      | ls -> Alcotest.failf "expected 4 responses, got %d:\n%s" (List.length ls) out)
    [ "1"; "2" ]

let test_daemon_flag_validation () =
  ignore (run_serve ~expect:1 [ "--replay" ] "");
  let path = Filename.temp_file "aa_daemon" ".log" in
  let _ = run_serve [ "-m"; "2"; "-C"; "10"; "--journal"; path ] "ADMIT linear 1\n" in
  (* flags that contradict the journal header must be refused *)
  ignore (run_serve ~expect:1 [ "-m"; "3"; "--journal"; path; "--replay" ] "");
  ignore (run_serve ~expect:1 [ "-C"; "99"; "--journal"; path; "--replay" ] "");
  (* matching flags are fine *)
  let out = run_serve [ "-m"; "2"; "-C"; "10"; "--journal"; path; "--replay" ] "STATS\n" in
  Alcotest.(check int) "one response" 1 (List.length (response_lines out));
  Sys.remove path

let () =
  Alcotest.run "service"
    [
      ( "protocol",
        [
          Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
          Alcotest.test_case "request errors" `Quick test_request_errors;
          Alcotest.test_case "response printing" `Quick test_response_print;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantiles;
          Alcotest.test_case "histogram extremes" `Quick test_histogram_extremes;
          Alcotest.test_case "report" `Quick test_metrics_report;
        ] );
      ( "journal",
        [
          Alcotest.test_case "roundtrip" `Quick test_journal_roundtrip;
          Alcotest.test_case "torn tail" `Quick test_journal_torn_tail;
          Alcotest.test_case "rejects garbage" `Quick test_journal_rejects_garbage;
        ] );
      ( "engine",
        [
          Alcotest.test_case "session" `Quick test_engine_session;
          Alcotest.test_case "errors" `Quick test_engine_errors;
          Alcotest.test_case "rebalance gap" `Quick test_engine_rebalance_gap;
          Alcotest.test_case "policy + drift stats" `Quick
            test_engine_policy_and_drift_stats;
          Alcotest.test_case "auto policy replay" `Quick test_engine_auto_policy_replay;
          Alcotest.test_case "SLOW verb" `Quick test_engine_slow_verb;
          Alcotest.test_case "coarsen interval" `Quick test_engine_coarsen_interval;
          Alcotest.test_case "malformed fuzz" `Quick test_fuzz_never_kills_engine;
        ] );
      ("shard", [ Alcotest.test_case "request metrics" `Quick test_shard_request_metrics ]);
      ( "recovery",
        [
          Alcotest.test_case "every prefix replays" `Slow
            test_crash_recovery_every_prefix;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "session" `Quick test_daemon_session;
          Alcotest.test_case "journal + replay" `Quick test_daemon_journal_replay;
          Alcotest.test_case "telemetry flags" `Quick test_daemon_telemetry_flags;
          Alcotest.test_case "rebalance policy flags" `Quick
            test_daemon_rebalance_policy_flags;
          Alcotest.test_case "STATS keys at 1 and 2 shards" `Quick test_daemon_stats_keys;
          Alcotest.test_case "flag validation" `Quick test_daemon_flag_validation;
        ] );
      Helpers.qsuite "properties" [ prop_parse_total ];
    ]
