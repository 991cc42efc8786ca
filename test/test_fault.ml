(* Tests for the crash-fault injection harness (Aa_fault.Failpoint) and
   the durability hardening it exercises: v2 journal framing + CRC,
   create-clobber refusal, compact-failure recovery, torn-tail repair,
   engine degraded mode, the aa_serve --faults surface, and the
   crash-at-every-failpoint recovery sweep. *)

open Aa_numerics
open Aa_utility
open Aa_service
module Failpoint = Aa_fault.Failpoint

let cap = 10.0
let u_pow = Utility.Shapes.power ~cap ~coeff:4.0 ~beta:0.5
let u_log = Utility.Shapes.log_utility ~cap ~coeff:3.0 ~rate:1.0
let or_fail = function Ok v -> v | Error e -> Alcotest.fail e
let unit_or_fail (r : (unit, string) result) = or_fail r

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
  at 0

(* Every armed schedule must be torn down, whatever the test did:
   failpoints are process-global and Alcotest runs suites in-process. *)
let with_faults f =
  Fun.protect ~finally:(fun () -> Failpoint.disarm_all ()) f

(* ---------- failpoint schedules ---------- *)

let fires p n = List.init n (fun _ -> Failpoint.fire p)

let test_off_switch () =
  let p = Failpoint.register "t.off" in
  Alcotest.(check bool) "switch off" false (Failpoint.active ());
  Alcotest.(check (list bool)) "unarmed never fires" [ false; false; false ]
    (fires p 3);
  Alcotest.(check int) "unarmed hits are not even counted" 0
    (Failpoint.hits "t.off")

let test_nth_schedule () =
  with_faults @@ fun () ->
  let p = Failpoint.register "t.nth" in
  Failpoint.arm "t.nth" (Failpoint.Nth 3);
  Alcotest.(check bool) "switch on" true (Failpoint.active ());
  Alcotest.(check (list bool)) "fails exactly on the 3rd hit, once"
    [ false; false; true; false; false ]
    (fires p 5);
  Alcotest.(check int) "hits" 5 (Failpoint.hits "t.nth");
  Alcotest.(check int) "fired" 1 (Failpoint.fired "t.nth");
  Failpoint.disarm "t.nth";
  Alcotest.(check bool) "switch back off" false (Failpoint.active ())

let test_every_schedule () =
  with_faults @@ fun () ->
  let p = Failpoint.register "t.every" in
  Failpoint.arm "t.every" (Failpoint.Every 2);
  Alcotest.(check (list bool)) "every 2nd hit"
    [ false; true; false; true; false; true ]
    (fires p 6);
  Alcotest.(check int) "fired" 3 (Failpoint.fired "t.every")

let test_bernoulli_replays () =
  with_faults @@ fun () ->
  let p = Failpoint.register "t.bern" in
  let sched = Failpoint.Bernoulli { p = 0.3; seed = 11 } in
  Failpoint.arm "t.bern" sched;
  let first = fires p 200 in
  Failpoint.arm "t.bern" sched (* re-arm resets the hit counter *);
  Alcotest.(check (list bool)) "seeded coin replays bit-identically" first
    (fires p 200);
  let k = List.length (List.filter Fun.id first) in
  if k < 20 || k > 120 then
    Alcotest.failf "p=0.3 over 200 hits fired %d times (want ~60)" k;
  Failpoint.arm "t.bern" (Failpoint.Bernoulli { p = 0.0; seed = 11 });
  Alcotest.(check (list bool)) "p=0 never fires" [ false; false ] (fires p 2);
  Failpoint.arm "t.bern" (Failpoint.Bernoulli { p = 1.0; seed = 11 });
  Alcotest.(check (list bool)) "p=1 always fires" [ true; true ] (fires p 2)

let test_crash_if () =
  with_faults @@ fun () ->
  let p = Failpoint.register "t.crash" in
  Failpoint.arm "t.crash" (Failpoint.Every 1);
  (match Failpoint.crash_if p with
  | () -> Alcotest.fail "armed crash_if did not raise"
  | exception Failpoint.Crash name ->
      Alcotest.(check string) "crash names its point" "t.crash" name);
  Failpoint.disarm_all ();
  Failpoint.crash_if p (* disarmed: must not raise *)

let test_spec_parsing () =
  with_faults @@ fun () ->
  (match Failpoint.parse_spec "journal.append=nth:3, engine.dispatch=every:2" with
  | Ok [ ("journal.append", Failpoint.Nth 3); ("engine.dispatch", Failpoint.Every 2) ]
    -> ()
  | Ok _ -> Alcotest.fail "parsed into the wrong clauses"
  | Error e -> Alcotest.fail e);
  (* print_schedule round-trips through the parser *)
  List.iter
    (fun s ->
      match Failpoint.parse_spec ("x=" ^ Failpoint.print_schedule s) with
      | Ok [ ("x", s') ] when s' = s -> ()
      | Ok _ | Error _ ->
          Alcotest.failf "%S did not round-trip" (Failpoint.print_schedule s))
    [
      Failpoint.Nth 7;
      Failpoint.Every 1;
      Failpoint.Bernoulli { p = 0.25; seed = 9 };
    ];
  List.iter
    (fun bad ->
      match Failpoint.parse_spec bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted bad spec %S" bad)
    [ ""; "noequals"; "x=wat:1"; "x=nth:0"; "x=p:1.5:seed:2"; "=nth:1" ];
  unit_or_fail (Failpoint.arm_spec "t.spec=nth:2");
  Alcotest.(check bool) "arm_spec arms" true (Failpoint.active ())

let test_registered_lists_production_points () =
  (* Journal and Engine register their points at module init; the
     recovery sweep below iterates this list, so a new failpoint in
     either module gets crash-tested without editing the sweep. *)
  let names = Failpoint.registered () in
  List.iter
    (fun n ->
      if not (List.mem n names) then Alcotest.failf "%s not registered" n)
    [
      "journal.sys"; "journal.append"; "journal.append.torn"; "journal.rewrite";
      "journal.compact"; "journal.group.append"; "journal.group.fsync";
      "engine.dispatch"; "engine.apply";
    ]

(* ---------- crc32 ---------- *)

let test_crc32_known_answer () =
  (* the IEEE 802.3 check value: crc32("123456789") = 0xCBF43926 *)
  Alcotest.(check int) "check value" 0xCBF43926 (Crc32.string "123456789");
  Alcotest.(check string) "hex form" "cbf43926"
    (Crc32.to_hex (Crc32.string "123456789"));
  Alcotest.(check int) "empty string" 0 (Crc32.string "");
  if Crc32.string "depart 12" = Crc32.string "depart 1" then
    Alcotest.fail "prefix collision: the framing check would be useless"

(* ---------- journal durability ---------- *)

let test_create_refuses_clobber () =
  let path = Filename.temp_file "aa_fault_clobber" ".log" in
  (* an existing *empty* file (the temp_file idiom) is fine *)
  let j = or_fail (Journal.create ~path ~servers:2 ~capacity:cap ()) in
  unit_or_fail (Journal.append j (Journal.Admit u_pow));
  Journal.close j;
  (match Journal.create ~path ~servers:2 ~capacity:cap () with
  | Ok _ -> Alcotest.fail "create silently clobbered an existing journal"
  | Error e ->
      if not (contains ~needle:"--replay" e) then
        Alcotest.failf "refusal should point at --replay, said: %s" e);
  (* and the refusal really did leave the file alone *)
  let _, entries = or_fail (Journal.load ~path) in
  Alcotest.(check (list string)) "history preserved"
    [ Journal.print_entry (Journal.Admit u_pow) ]
    (List.map Journal.print_entry entries);
  Sys.remove path

let test_compact_failure_keeps_appending () =
  with_faults @@ fun () ->
  let path = Filename.temp_file "aa_fault_compact" ".log" in
  let j = or_fail (Journal.create ~path ~servers:2 ~capacity:cap ()) in
  unit_or_fail (Journal.append j (Journal.Admit u_pow));
  unit_or_fail (Journal.append j (Journal.Admit u_log));
  Failpoint.arm "journal.rewrite" (Failpoint.Every 1);
  (match
     Journal.compact j
       [ Journal.Place { id = 0; server = 0; active = true; u = u_pow } ]
   with
  | Ok () -> Alcotest.fail "compact should fail under journal.rewrite"
  | Error _ -> ());
  Failpoint.disarm_all ();
  (* the regression: a failed compact used to leave a closed channel
     here, wedging every later append *)
  unit_or_fail (Journal.append j (Journal.Depart 0));
  let _, entries = or_fail (Journal.load ~path) in
  Alcotest.(check int) "full history survives the failed compact" 3
    (List.length entries);
  (* and compaction itself still works once the fault clears *)
  unit_or_fail
    (Journal.compact j
       [ Journal.Place { id = 0; server = 1; active = false; u = u_pow } ]);
  unit_or_fail (Journal.append j (Journal.Admit u_log));
  Journal.close j;
  let _, entries = or_fail (Journal.load ~path) in
  Alcotest.(check (list string)) "compacted state + later appends"
    [ "place 0 1 departed " ^ Aa_io.Format_text.print_thread_spec u_pow;
      Journal.print_entry (Journal.Admit u_log) ]
    (List.map Journal.print_entry entries);
  Sys.remove path

(* The hazard the v2 framing exists for: a torn final line of
   [depart 12] read back by the unframed v1 format as the valid, wrong
   entry [depart 1]. With length+CRC framing the torn line cannot pass
   its checks and is dropped as a tail; the recovery open's rewrite then
   removes the torn bytes from disk. *)
let test_torn_tail_cannot_masquerade () =
  let path = Filename.temp_file "aa_fault_torn" ".log" in
  let j = or_fail (Journal.create ~path ~servers:2 ~capacity:cap ()) in
  unit_or_fail (Journal.append j (Journal.Admit u_pow));
  unit_or_fail (Journal.append j (Journal.Depart 12));
  Journal.close j;
  (* tear the last two bytes off ("2\n"): the remaining payload is the
     parseable-but-wrong "depart 1" *)
  let bytes = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (String.sub bytes 0 (String.length bytes - 2)));
  let _, entries = or_fail (Journal.load ~path) in
  Alcotest.(check (list string)) "torn depart dropped, not misread"
    [ Journal.print_entry (Journal.Admit u_pow) ]
    (List.map Journal.print_entry entries);
  let j, recovered = or_fail (Journal.append_to ~fsync:Journal.Never ~path ()) in
  Journal.close j;
  (* framed lines really are framed: line 2 must equal frame_entry *)
  (match
     String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all)
   with
  | [ _header; l2; "" ] ->
      Alcotest.(check string) "line is <len> <crc> <payload>"
        (Journal.frame_entry (List.hd recovered))
        l2
  | lines -> Alcotest.failf "rewrite kept %d line(s), want 2" (List.length lines - 1));
  (* the unframed v1 format is refused outright, naming the version *)
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc
        "aa-journal 1 servers 2 capacity 10\ndepart 1");
  (match Journal.load ~path with
  | Ok _ -> Alcotest.fail "v1 journal accepted"
  | Error e ->
      if not (contains ~needle:"version \"1\"" e) then
        Alcotest.failf "v1 refusal should name the version: %s" e);
  Sys.remove path

let test_append_failure_repairs_tail () =
  with_faults @@ fun () ->
  let path = Filename.temp_file "aa_fault_tail" ".log" in
  let j = or_fail (Journal.create ~path ~servers:2 ~capacity:cap ()) in
  unit_or_fail (Journal.append j (Journal.Admit u_pow));
  Failpoint.arm "journal.append.torn" (Failpoint.Nth 1);
  (match Journal.append j (Journal.Depart 0) with
  | Ok () -> Alcotest.fail "torn append should report failure"
  | Error _ -> ());
  (* the next append truncates the torn fragment before writing, so the
     retried entry appears exactly once and the file parses cleanly *)
  unit_or_fail (Journal.append j (Journal.Depart 0));
  Journal.close j;
  let _, entries = or_fail (Journal.load ~path) in
  Alcotest.(check (list string)) "no duplicate, no corruption"
    [ Journal.print_entry (Journal.Admit u_pow); "depart 0" ]
    (List.map Journal.print_entry entries);
  Sys.remove path

let test_fsync_policy_strings () =
  List.iter
    (fun (s, p) ->
      Alcotest.(check string) s s (Journal.fsync_to_string p);
      match Journal.fsync_of_string s with
      | Ok p' when p' = p -> ()
      | Ok _ | Error _ -> Alcotest.failf "%s did not round-trip" s)
    [ ("always", Journal.Always); ("never", Journal.Never) ];
  (match Journal.fsync_of_string "interval" with
  | Ok (Journal.Interval s) -> Helpers.check_float "interval window" 0.1 s
  | Ok _ | Error _ -> Alcotest.fail "interval policy");
  match Journal.fsync_of_string "frob" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted bad fsync policy"

let test_group_commit_amortizes_fsyncs () =
  let path = Filename.temp_file "aa_fault_group" ".log" in
  let j =
    or_fail (Journal.create ~fsync:Journal.Always ~path ~servers:2 ~capacity:cap ())
  in
  unit_or_fail (Journal.begin_group j);
  Alcotest.(check bool) "group open" true (Journal.in_group j);
  (match Journal.begin_group j with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "nested begin_group accepted");
  let before = Journal.fsyncs j in
  unit_or_fail (Journal.append j (Journal.Admit u_pow));
  unit_or_fail (Journal.append j (Journal.Admit u_log));
  unit_or_fail (Journal.append j (Journal.Depart 0));
  Alcotest.(check int) "no fsync while buffering" before (Journal.fsyncs j);
  (match Journal.commit_group j with
  | Ok n -> Alcotest.(check bool) "bytes committed" true (n > 0)
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "one fsync for the whole batch — not three"
    (before + 1) (Journal.fsyncs j);
  Alcotest.(check bool) "group closed" false (Journal.in_group j);
  (* an empty batch must not touch the file at all *)
  unit_or_fail (Journal.begin_group j);
  (match Journal.commit_group j with
  | Ok 0 -> ()
  | Ok n -> Alcotest.failf "empty commit wrote %d bytes" n
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "empty commit does not fsync" (before + 1)
    (Journal.fsyncs j);
  Journal.close j;
  let _, entries = or_fail (Journal.load ~path) in
  Alcotest.(check (list string)) "all three entries durable, in order"
    (List.map Journal.print_entry
       [ Journal.Admit u_pow; Journal.Admit u_log; Journal.Depart 0 ])
    (List.map Journal.print_entry entries);
  Sys.remove path

(* ---------- engine: cap tolerance + degraded mode ---------- *)

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

let admit e u = Engine.handle e (Protocol.Admit u)

let test_cap_tolerance_boundaries () =
  (* feq_rel itself *)
  Alcotest.(check bool) "exact zero" true (Util.feq_rel 0.0 0.0);
  Alcotest.(check bool) "2e-9 vs 1e-9 differs" true (Util.fne_rel 1e-9 2e-9);
  Alcotest.(check bool) "1e12 vs 1e12+1 equal at rel 1e-9" true
    (Util.feq_rel 1e12 (1e12 +. 1.0));
  (* tiny capacity: the old absolute eps 1e-9 accepted a cap 2x off *)
  let tiny = Engine.create ~servers:2 ~capacity:1e-9 () in
  (match admit tiny (Utility.Shapes.power ~cap:2e-9 ~coeff:1.0 ~beta:0.5) with
  | Protocol.Err { code; _ } ->
      Alcotest.(check string) "2x cap at 1e-9 scale rejected" "bad-spec"
        (Protocol.code_name code)
  | r -> Alcotest.failf "accepted: %s" (Protocol.print_response r));
  (match admit tiny (Utility.Shapes.power ~cap:1e-9 ~coeff:1.0 ~beta:0.5) with
  | Protocol.Admitted _ -> ()
  | r -> Alcotest.failf "exact tiny cap rejected: %s" (Protocol.print_response r));
  (* huge capacity: one part in 1e12 is within tolerance, 1e-6 is not *)
  let big = Engine.create ~servers:2 ~capacity:1e12 () in
  (match admit big (Utility.Shapes.power ~cap:(1e12 *. (1. +. 1e-12)) ~coeff:1.0 ~beta:0.5) with
  | Protocol.Admitted _ -> ()
  | r -> Alcotest.failf "1e-12 off at 1e12 rejected: %s" (Protocol.print_response r));
  match admit big (Utility.Shapes.power ~cap:(1e12 *. (1. +. 1e-6)) ~coeff:1.0 ~beta:0.5) with
  | Protocol.Err { code; _ } ->
      Alcotest.(check string) "1e-6 off at 1e12 rejected" "bad-spec"
        (Protocol.code_name code)
  | r -> Alcotest.failf "accepted: %s" (Protocol.print_response r)

let counter_value name =
  Option.value ~default:0 (List.assoc_opt name (Aa_obs.Registry.counters ()))

let stats_gauge e key =
  match expect_ok e "STATS" with
  | Protocol.Stats_report kvs -> (
      match List.assoc_opt key kvs with
      | Some v -> v
      | None -> Alcotest.failf "STATS has no %s gauge" key)
  | r -> Alcotest.failf "unexpected %s" (Protocol.print_response r)

let test_degraded_lifecycle () =
  Aa_obs.Control.with_enabled true @@ fun () ->
  with_faults @@ fun () ->
  let path = Filename.temp_file "aa_fault_degraded" ".log" in
  let j = or_fail (Journal.create ~fsync:Journal.Never ~path ~servers:2 ~capacity:cap ()) in
  let e =
    Engine.create ~journal:j ~journal_retries:1 ~retry_backoff_s:1e-6
      ~servers:2 ~capacity:cap ()
  in
  ignore (expect_ok e "ADMIT power 4 0.5");
  let enter0 = counter_value "engine.degraded.enter" in
  let reject0 = counter_value "engine.degraded.rejected" in
  let exit0 = counter_value "engine.degraded.exit" in
  let retry0 = counter_value "engine.journal.retries" in
  Failpoint.arm "journal.append" (Failpoint.Every 1);
  (* retries exhaust (1 retry), engine degrades, request is refused *)
  expect_err "degraded" e "ADMIT power 2 0.5";
  Alcotest.(check bool) "degraded" true (Engine.degraded e);
  Alcotest.(check int) "one retry burned" (retry0 + 1)
    (counter_value "engine.journal.retries");
  Alcotest.(check int) "append attempted twice" 2 (Failpoint.hits "journal.append");
  (* later mutations are rejected without touching the journal *)
  expect_err "degraded" e "DEPART 0";
  Alcotest.(check int) "no further journal traffic" 2
    (Failpoint.hits "journal.append");
  (* read traffic keeps flowing *)
  (match expect_ok e "QUERY 0" with
  | Protocol.Thread_info { active; _ } ->
      Alcotest.(check bool) "thread still there" true active
  | r -> Alcotest.failf "unexpected %s" (Protocol.print_response r));
  Alcotest.(check string) "STATS exposes the mode" "1" (stats_gauge e "degraded");
  Alcotest.(check int) "enter counted once" (enter0 + 1)
    (counter_value "engine.degraded.enter");
  Alcotest.(check int) "rejection counted" (reject0 + 1)
    (counter_value "engine.degraded.rejected");
  (* the journal recovers; SNAPSHOT compaction heals the engine *)
  Failpoint.disarm_all ();
  (match expect_ok e "SNAPSHOT" with
  | Protocol.Snapshot_done { compacted; _ } ->
      Alcotest.(check bool) "compacted" true compacted
  | r -> Alcotest.failf "unexpected %s" (Protocol.print_response r));
  Alcotest.(check bool) "healed" false (Engine.degraded e);
  Alcotest.(check string) "gauge back to 0" "0" (stats_gauge e "degraded");
  Alcotest.(check int) "exit counted" (exit0 + 1)
    (counter_value "engine.degraded.exit");
  ignore (expect_ok e "ADMIT power 2 0.5");
  (* the journal holds exactly the surviving state *)
  let replayed = or_fail (Engine.of_journal ~fsync:Journal.Never ~path ()) in
  Helpers.check_float "replay sees the healed state" (Engine.total_utility e)
    (Engine.total_utility replayed);
  (match Engine.journal replayed with Some j2 -> Journal.close j2 | None -> ());
  Journal.close j;
  Sys.remove path

let test_transient_fault_absorbed_by_retry () =
  with_faults @@ fun () ->
  let path = Filename.temp_file "aa_fault_retry" ".log" in
  let j = or_fail (Journal.create ~fsync:Journal.Never ~path ~servers:2 ~capacity:cap ()) in
  let e =
    Engine.create ~journal:j ~journal_retries:2 ~retry_backoff_s:1e-6
      ~servers:2 ~capacity:cap ()
  in
  Failpoint.arm "journal.append" (Failpoint.Nth 1);
  (match expect_ok e "ADMIT power 4 0.5" with
  | Protocol.Admitted _ -> ()
  | r -> Alcotest.failf "unexpected %s" (Protocol.print_response r));
  Alcotest.(check bool) "not degraded" false (Engine.degraded e);
  Alcotest.(check int) "first attempt failed, retry landed" 2
    (Failpoint.hits "journal.append");
  Failpoint.disarm_all ();
  let _, entries = or_fail (Journal.load ~path) in
  Alcotest.(check int) "entry written exactly once" 1 (List.length entries);
  Journal.close j;
  Sys.remove path

let test_snapshot_failure_is_not_fatal () =
  with_faults @@ fun () ->
  let path = Filename.temp_file "aa_fault_snap" ".log" in
  let j = or_fail (Journal.create ~fsync:Journal.Never ~path ~servers:2 ~capacity:cap ()) in
  let e = Engine.create ~journal:j ~servers:2 ~capacity:cap () in
  ignore (expect_ok e "ADMIT power 4 0.5");
  Failpoint.arm "journal.rewrite" (Failpoint.Every 1);
  expect_err "journal" e "SNAPSHOT";
  Failpoint.disarm_all ();
  (* a failed compaction must not cost the engine its append capability *)
  ignore (expect_ok e "ADMIT power 2 0.5");
  (match expect_ok e "SNAPSHOT" with
  | Protocol.Snapshot_done { compacted; _ } ->
      Alcotest.(check bool) "compacts once the fault clears" true compacted
  | r -> Alcotest.failf "unexpected %s" (Protocol.print_response r));
  Journal.close j;
  Sys.remove path

(* ---------- the crash-at-every-failpoint recovery sweep ---------- *)

type state = { n : int; where : int array; allocs : float array; total : float }

let state_of e =
  let ol = Engine.online e in
  let n = Aa_core.Online.n_admitted ol in
  {
    n;
    where = Array.init n (Aa_core.Online.server_of ol);
    allocs = Array.init n (Aa_core.Online.alloc_of ol);
    total = Aa_core.Online.total_utility ol;
  }

let check_state msg a b =
  Alcotest.(check int) (msg ^ ": n_admitted") a.n b.n;
  Alcotest.(check (array int)) (msg ^ ": servers") a.where b.where;
  Array.iteri
    (fun i x ->
      Helpers.check_float ~eps:1e-9
        (Printf.sprintf "%s: alloc of %d" msg i)
        x b.allocs.(i))
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

(* Drive up to [steps] scripted requests into a journaled engine armed
   with a crash schedule. The run stops at the first simulated process
   death: a [Crash] escaping dispatch, or the engine reporting that its
   journal is gone (degraded / failed compaction) — with retries at 0
   either means the durable prefix ends here. Returns the number of
   ADMITs that were acknowledged before death. *)
let drive e rng steps =
  let acked = ref 0 in
  let active = ref [] in
  (try
     for step = 1 to steps do
       let line =
         if step mod 67 = 0 then "SNAPSHOT"
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
       match Helpers.engine_line e line with
       | Some (Protocol.Admitted { id; _ }) ->
           incr acked;
           active := id :: !active
       | Some (Protocol.Departed { id }) ->
           active := List.filter (fun x -> x <> id) !active
       | Some (Protocol.Err { code; message }) -> (
           match Protocol.code_name code with
           | "degraded" | "journal" -> raise Exit
           | _ -> Alcotest.failf "step %d %S: %s" step line message)
       | Some _ | None -> ()
     done
   with
  | Exit -> ()
  | Failpoint.Crash _ -> ());
  !acked

let test_crash_at_every_failpoint () =
  with_faults @@ fun () ->
  let points =
    List.filter
      (fun n ->
        String.length n >= 7
        && (String.sub n 0 7 = "journal" || String.sub n 0 6 = "engine"))
      (Failpoint.registered ())
  in
  Alcotest.(check bool) "sweep covers the production points" true
    (List.length points >= 7);
  List.iter
    (fun point ->
      List.iter
        (fun k ->
          let msg = Printf.sprintf "%s nth:%d" point k in
          Failpoint.disarm_all ();
          let path = Filename.temp_file "aa_fault_sweep" ".log" in
          let j = or_fail (Journal.create ~path ~servers:3 ~capacity:cap ()) in
          let e =
            Engine.create ~journal:j ~journal_retries:0 ~retry_backoff_s:1e-6
              ~servers:3 ~capacity:cap ()
          in
          let rng = Rng.create ~seed:(Hashtbl.hash (point, k)) () in
          Failpoint.arm point (Failpoint.Nth k);
          let acked = drive e rng 300 in
          (* the process is dead; whatever reached the file is the truth *)
          Failpoint.disarm_all ();
          Journal.close j;
          let _, durable = or_fail (Journal.load ~path) in
          (* recovery must agree with a clean replay of the durable prefix *)
          let recovered =
            match Engine.of_journal ~fsync:Journal.Never ~path () with
            | Ok e2 -> e2
            | Error m -> Alcotest.failf "%s: recovery failed: %s" msg m
          in
          let clean = Engine.create ~servers:3 ~capacity:cap () in
          List.iteri
            (fun i ent ->
              match Engine.apply clean ent with
              | Ok () -> ()
              | Error m -> Alcotest.failf "%s: clean replay entry %d: %s" msg i m)
            durable;
          check_state msg (state_of clean) (state_of recovered);
          (* durability bound: every acknowledged ADMIT survived, and at
             most the single in-flight one may appear unacknowledged *)
          let n = Engine.n_admitted recovered in
          if n < acked || n > acked + 1 then
            Alcotest.failf "%s: %d admits acked but %d recovered" msg acked n;
          (match Engine.journal recovered with
          | Some j2 -> Journal.close j2
          | None -> ());
          Sys.remove path)
        [ 1; 3; 17 ])
    points

(* The sweep above drives one request at a time, which never opens a
   journal group — so the group-commit failpoints pass it vacuously.
   This variant feeds the same script through {!Engine.handle_batch} in
   bursts, the way a shard worker drains its queue, and tracks the
   burst in flight at the crash: its acks were withheld, but complete
   journal lines of the half-written group may legally survive.
   Returns [(acked, pending)] — ADMITs acknowledged before death, and
   ADMITs of the in-flight burst. *)
let drive_batch e rng steps =
  let acked = ref 0 and active = ref [] and pending = ref 0 in
  (try
     let step = ref 0 in
     while !step < steps do
       let burst = 2 + Rng.int rng 7 in
       (* ids usable by this burst: acked actives, minus burst-local
          departs (the engine applies in order, so a second DEPART of
          the same id inside one burst would be a script bug) *)
       let avail = ref !active in
       let reqs = ref [] in
       for _ = 1 to burst do
         incr step;
         let line =
           if !step mod 67 = 0 then "SNAPSHOT"
           else if !avail = [] || Rng.float rng 1.0 < 0.5 then
             "ADMIT " ^ random_spec rng
           else begin
             let pick () = List.nth !avail (Rng.int rng (List.length !avail)) in
             match Rng.int rng 4 with
             | 0 | 1 ->
                 let id = pick () in
                 avail := List.filter (fun x -> x <> id) !avail;
                 Printf.sprintf "DEPART %d" id
             | 2 -> Printf.sprintf "UPDATE %d %s" (pick ()) (random_spec rng)
             | _ -> Printf.sprintf "QUERY %d" (pick ())
           end
         in
         match Protocol.parse_request ~cap line with
         | Ok r -> reqs := r :: !reqs
         | Error r ->
             Alcotest.failf "script line %S rejected: %s" line
               (Protocol.print_response r)
       done;
       let reqs = List.rev !reqs in
       pending :=
         List.length
           (List.filter (function Protocol.Admit _ -> true | _ -> false) reqs);
       let resps = Engine.handle_batch e reqs in
       pending := 0;
       List.iter
         (fun resp ->
           match resp with
           | Protocol.Admitted { id; _ } ->
               incr acked;
               active := id :: !active
           | Protocol.Departed { id } ->
               active := List.filter (fun x -> x <> id) !active
           | Protocol.Err { code; message } -> (
               match Protocol.code_name code with
               | "degraded" | "journal" -> raise Exit
               | _ -> Alcotest.failf "batch step %d: %s" !step message)
           | _ -> ())
         resps
     done
   with
  | Exit -> ()
  | Failpoint.Crash _ -> ());
  (!acked, !pending)

let test_crash_at_group_commit_failpoints () =
  with_faults @@ fun () ->
  List.iter
    (fun point ->
      List.iter
        (fun k ->
          let msg = Printf.sprintf "%s nth:%d (batched)" point k in
          Failpoint.disarm_all ();
          let path = Filename.temp_file "aa_fault_group_sweep" ".log" in
          let j = or_fail (Journal.create ~path ~servers:3 ~capacity:cap ()) in
          let e =
            Engine.create ~journal:j ~journal_retries:0 ~retry_backoff_s:1e-6
              ~servers:3 ~capacity:cap ()
          in
          let rng = Rng.create ~seed:(Hashtbl.hash (point, k)) () in
          Failpoint.arm point (Failpoint.Nth k);
          let acked, pending = drive_batch e rng 300 in
          (* the batched path must actually reach the group failpoint —
             a vacuous pass here would hide a regression in batching *)
          Alcotest.(check int) (msg ^ ": failpoint fired") 1
            (Failpoint.fired point);
          Failpoint.disarm_all ();
          Journal.close j;
          let _, durable = or_fail (Journal.load ~path) in
          let recovered =
            match Engine.of_journal ~fsync:Journal.Never ~path () with
            | Ok e2 -> e2
            | Error m -> Alcotest.failf "%s: recovery failed: %s" msg m
          in
          let clean = Engine.create ~servers:3 ~capacity:cap () in
          List.iteri
            (fun i ent ->
              match Engine.apply clean ent with
              | Ok () -> ()
              | Error m -> Alcotest.failf "%s: clean replay entry %d: %s" msg i m)
            durable;
          check_state msg (state_of clean) (state_of recovered);
          (* acked-durable / unacked-absent: every acknowledged ADMIT
             survived, and only the crashed burst's may appear beyond *)
          let n = Engine.n_admitted recovered in
          if n < acked then
            Alcotest.failf "%s: %d admits acked but only %d recovered" msg
              acked n;
          if n > acked + pending then
            Alcotest.failf
              "%s: %d recovered admits exceed %d acked + %d in flight" msg n
              acked pending;
          (match Engine.journal recovered with
          | Some j2 -> Journal.close j2
          | None -> ());
          Sys.remove path)
        [ 1; 2; 5 ])
    [ "journal.group.append"; "journal.group.fsync" ]

(* ---------- the daemon's fault surface ---------- *)

let serve_bin =
  List.find_opt Sys.file_exists
    [ "../bin/aa_serve.exe"; "_build/default/bin/aa_serve.exe" ]
  |> Option.value ~default:"../bin/aa_serve.exe"

let run_serve ?env ~expect args input =
  Out_channel.with_open_text "fault_serve_in.txt" (fun oc ->
      Out_channel.output_string oc input);
  let cmd = Filename.quote_command serve_bin args in
  let cmd = match env with None -> cmd | Some kv -> kv ^ " " ^ cmd in
  let code =
    Sys.command
      (cmd ^ " < fault_serve_in.txt > fault_serve_out.txt 2> fault_serve_err.txt")
  in
  let out = In_channel.with_open_text "fault_serve_out.txt" In_channel.input_all in
  let err = In_channel.with_open_text "fault_serve_err.txt" In_channel.input_all in
  if code <> expect then
    Alcotest.failf "aa_serve exited %d (want %d); stderr:\n%s" code expect err;
  (out, err)

let count_lines ~prefix s =
  String.split_on_char '\n' s
  |> List.filter (fun l ->
         String.length l >= String.length prefix
         && String.sub l 0 (String.length prefix) = prefix)
  |> List.length

let test_serve_crash_exits_70 () =
  let out, err =
    run_serve ~expect:70
      [ "--servers"; "2"; "--capacity"; "10"; "--faults"; "engine.dispatch=nth:2" ]
      "ADMIT power 4 0.5\nADMIT power 2 0.5\nSTATS\n"
  in
  Alcotest.(check int) "first request answered" 1 (count_lines ~prefix:"OK" out);
  if not (contains ~needle:"injected crash at failpoint engine.dispatch" err)
  then Alcotest.failf "crash not reported on stderr: %s" err

let test_serve_faults_from_env () =
  let _, err =
    run_serve ~env:"AA_FAULTS=engine.dispatch=nth:1" ~expect:70
      [ "--servers"; "2"; "--capacity"; "10" ]
      "QUERY 0\n"
  in
  if not (contains ~needle:"engine.dispatch" err) then
    Alcotest.failf "env-armed crash not reported: %s" err

let test_serve_flag_errors () =
  let _, err =
    run_serve ~expect:1
      [ "--faults"; "frob" ]
      ""
  in
  if not (contains ~needle:"--faults" err) then
    Alcotest.failf "bad --faults not diagnosed: %s" err;
  let _, err = run_serve ~expect:1 [ "--fsync"; "frob" ] "" in
  if not (contains ~needle:"--fsync" err) then
    Alcotest.failf "bad --fsync not diagnosed: %s" err

let test_serve_refuses_journal_clobber () =
  let path = Filename.temp_file "aa_fault_serve" ".log" in
  ignore
    (run_serve ~expect:0
       [ "-m"; "2"; "-C"; "10"; "--journal"; path; "--fsync"; "never" ]
       "ADMIT power 4 0.5\n");
  (* a second fresh run against the same journal must refuse, not wipe *)
  let _, err =
    run_serve ~expect:1
      [ "-m"; "2"; "-C"; "10"; "--journal"; path; "--fsync"; "never" ]
      "ADMIT power 4 0.5\n"
  in
  if not (contains ~needle:"--replay" err) then
    Alcotest.failf "clobber refusal should mention --replay: %s" err;
  (* and --replay recovers it *)
  let out, _ =
    run_serve ~expect:0
      [ "--journal"; path; "--replay"; "--fsync"; "never" ]
      "QUERY 0\n"
  in
  Alcotest.(check int) "recovered thread answers" 1
    (count_lines ~prefix:"OK query" out);
  Sys.remove path

let () =
  Alcotest.run "fault"
    [
      ( "failpoint",
        [
          Alcotest.test_case "off switch" `Quick test_off_switch;
          Alcotest.test_case "nth schedule" `Quick test_nth_schedule;
          Alcotest.test_case "every schedule" `Quick test_every_schedule;
          Alcotest.test_case "bernoulli replays" `Quick test_bernoulli_replays;
          Alcotest.test_case "crash_if" `Quick test_crash_if;
          Alcotest.test_case "spec parsing" `Quick test_spec_parsing;
          Alcotest.test_case "registered points" `Quick
            test_registered_lists_production_points;
        ] );
      ("crc32", [ Alcotest.test_case "known answer" `Quick test_crc32_known_answer ]);
      ( "journal",
        [
          Alcotest.test_case "create refuses clobber" `Quick
            test_create_refuses_clobber;
          Alcotest.test_case "compact failure keeps appending" `Quick
            test_compact_failure_keeps_appending;
          Alcotest.test_case "torn tail cannot masquerade" `Quick
            test_torn_tail_cannot_masquerade;
          Alcotest.test_case "append failure repairs tail" `Quick
            test_append_failure_repairs_tail;
          Alcotest.test_case "fsync policy strings" `Quick
            test_fsync_policy_strings;
          Alcotest.test_case "group commit amortizes fsyncs" `Quick
            test_group_commit_amortizes_fsyncs;
        ] );
      ( "engine",
        [
          Alcotest.test_case "cap tolerance boundaries" `Quick
            test_cap_tolerance_boundaries;
          Alcotest.test_case "degraded lifecycle" `Quick test_degraded_lifecycle;
          Alcotest.test_case "transient fault absorbed" `Quick
            test_transient_fault_absorbed_by_retry;
          Alcotest.test_case "snapshot failure not fatal" `Quick
            test_snapshot_failure_is_not_fatal;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "crash at every failpoint" `Quick
            test_crash_at_every_failpoint;
          Alcotest.test_case "crash at group-commit failpoints" `Quick
            test_crash_at_group_commit_failpoints;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "crash exits 70" `Quick test_serve_crash_exits_70;
          Alcotest.test_case "AA_FAULTS env" `Quick test_serve_faults_from_env;
          Alcotest.test_case "flag errors" `Quick test_serve_flag_errors;
          Alcotest.test_case "journal clobber refused" `Quick
            test_serve_refuses_journal_clobber;
        ] );
    ]
