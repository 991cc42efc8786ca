(* Unit tests of the benchmark's own arithmetic: the order statistics,
   the load generator's latency accounting, and the compare rule. *)

open Aa_perf

let near = Alcotest.(check (float 1e-9))

(* ---- order statistics ---- *)

let test_tail_rule () =
  let ramp n = Array.init n (fun i -> Float.of_int (i + 1)) in
  let q n = fst (Pct.tail (ramp n)) in
  near "1000 samples: p99 has 10 beyond" 0.99 (q 1000);
  near "999 samples: p99 has 9 beyond, p90 is reported" 0.9 (q 999);
  near "20 samples: only the median has 10 beyond" 0.5 (q 20);
  near "19 samples: nothing qualifies, the max is reported" 1.0 (q 19);
  near "19 samples: max value" 19.0 (snd (Pct.tail (ramp 19)));
  near "10000 samples under a p99.9 cap" 0.999 (fst (Pct.tail ~cap:0.999 (ramp 10000)));
  near "p99 of 1000 is the 990th" 990.0 (snd (Pct.tail (ramp 1000)))

let test_failures_are_infinite () =
  let ok = Array.init 990 (fun i -> Float.of_int (i + 1)) in
  let with_fail k = Array.append ok (Array.make k Float.infinity) in
  Alcotest.(check bool) "11 failures in 1001 push p99 to infinity" true
    (snd (Pct.tail (with_fail 11)) = Float.infinity);
  Alcotest.(check bool) "10 failures in 1000 leave p99 finite" true (Float.is_finite (snd (Pct.tail (with_fail 10))));
  Alcotest.(check bool) "the median stays finite" true (Float.is_finite (Pct.median (with_fail 11)));
  Alcotest.(check bool) "one failure makes the max infinite" true (Pct.percentile (with_fail 1) 1.0 = Float.infinity)

let test_quartiles_match_python () =
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Pct.quartiles (Array.init 10 (fun i -> Float.of_int (i + 1))) in
  near "q1" 2.75 q1;
  near "q2" 5.5 q2;
  near "q3" 8.25 q3;
  (* statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0] *)
  let q1, q2, q3 = Pct.quartiles [| 3.0; 1.0; 2.0 |] in
  near "q1 of 3" 1.0 q1;
  near "q2 of 3" 2.0 q2;
  near "q3 of 3" 3.0 q3

(* ---- load generator arithmetic ---- *)

let query = { Traffic.kind = Query; payload = "QUERY 0"; id = 0; spec = -1 }

let record ~due ~send ~recv =
  let ms x = int_of_float (x *. 1e6) in
  { Loadgen.conn = 0; req = query; due_ns = ms due; send_ns = ms send; recv_ns = ms recv; ok = true; result_id = 0 }

let test_latency_from_due () =
  (* the generator itself stalled: requests due at 0, 1 and 2 ms all went
     out at 5 ms and were answered at 6 ms *)
  let rs = [ record ~due:0.0 ~send:0.0 ~recv:6.0; record ~due:1.0 ~send:5.0 ~recv:6.0; record ~due:2.0 ~send:5.0 ~recv:6.0 ] in
  List.iter2
    (fun r want -> near "latency from the due time" want (Loadgen.latency_ms r))
    rs [ 6.0; 5.0; 4.0 ];
  List.iter2 (fun r want -> near "lateness" want (Loadgen.late_ms r)) rs [ 0.0; 4.0; 3.0 ];
  near "a request never answered has infinite latency" Float.infinity
    (Loadgen.latency_ms { (record ~due:0.0 ~send:0.0 ~recv:0.0) with recv_ns = -1 });
  near "a wrong reply has infinite latency" Float.infinity
    (Loadgen.latency_ms { (record ~due:0.0 ~send:0.0 ~recv:1.0) with ok = false })

let test_due_schedule () =
  Alcotest.(check int) "request 0 is due at t0" 7 (Loadgen.due_ns ~t0_ns:7 ~rate:1000.0 0);
  Alcotest.(check int) "request 250 at 1000/s is due 250 ms later" (7 + 250_000_000)
    (Loadgen.due_ns ~t0_ns:7 ~rate:1000.0 250)

(* A stand-in daemon on a socketpair: answers every QUERY/STATS/REBALANCE
   line with a well-formed reply, but holds every reply until [stall_s]
   after the first request arrived, and hangs up after [answer_limit]
   replies. *)
let fake_daemon fd ~stall_s ~answer_limit =
  let reader = Aa_net.Frame.reader fd in
  let answered = ref 0 in
  let reply line =
    match String.split_on_char ' ' line with
    | [ "QUERY"; id ] -> Printf.sprintf "OK query id %s server 0 alloc 0 value 0 active 1" id
    | [ "STATS" ] -> "OK stats"
    | _ -> "OK rebalance online 0 offline 0 gap 0"
  in
  let first = ref Float.nan in
  let rec loop pending =
    match Aa_net.Frame.read_msg reader with
    | None -> ()
    | Some (Error _) -> ()
    | Some (Ok m) ->
        let now = Unix.gettimeofday () in
        if Float.is_nan !first then first := now;
        let pending = m.payload :: pending in
        if now -. !first < stall_s then loop pending
        else begin
          List.iter
            (fun p ->
              if !answered < answer_limit then begin
                incr answered;
                Aa_net.Frame.write_all fd (Aa_net.Frame.encode (reply p))
              end
              else Unix.shutdown fd Unix.SHUTDOWN_ALL)
            (List.rev pending);
          loop []
        end
  in
  (try loop [] with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let open_loop ~stall_s ~answer_limit ~rate ~duration_s =
  let ours, theirs = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let th = Thread.create (fun () -> fake_daemon theirs ~stall_s ~answer_limit) () in
  let traffic = Traffic.create ~mix:Traffic.Read ~seed:3 ~conns:1 ~specs:[| "linear 1" |] ~prefill:10 ~snapshot_every:0 in
  let res = Loadgen.run ~fds:[| ours |] ~traffic ~mode:(Loadgen.Open rate) ~duration_s () in
  Unix.close ours;
  Thread.join th;
  res

let test_stall_charges_queue () =
  (* requests every 5 ms for 100 ms; the daemon sits on every reply until
     80 ms after the first request reached it, so request k waits at
     least (80 - 5k) ms from its due time, however short its round trip
     from its own send *)
  let res = open_loop ~stall_s:0.08 ~answer_limit:max_int ~rate:200.0 ~duration_s:0.1 in
  Alcotest.(check int) "nothing failed" 0 (Loadgen.n_failed res);
  Array.iter
    (fun (r : Loadgen.record) ->
      let due_ms = Float.of_int (r.due_ns - res.t0_ns) /. 1e6 in
      if due_ms < 70.0 then begin
        let floor_ms = 79.5 -. due_ms in
        if Loadgen.latency_ms r < floor_ms then
          Alcotest.failf "request due at %.1f ms reads %.1f ms, less than the stall left (%.1f ms)" due_ms
            (Loadgen.latency_ms r) floor_ms
      end)
    res.records;
  let first = res.records.(0) and later = res.records.(4) in
  Alcotest.(check bool) "an earlier request waited longer" true (Loadgen.latency_ms first > Loadgen.latency_ms later)

let test_missing_replies_fail () =
  let res = open_loop ~stall_s:0.0 ~answer_limit:3 ~rate:200.0 ~duration_s:0.05 in
  let n = Array.length res.records in
  Alcotest.(check bool) "more requests than answers" true (n > 3);
  Alcotest.(check int) "every request after the third failed" (n - 3) (Loadgen.n_failed res);
  Alcotest.(check bool) "the tail is infinite" true (Pct.percentile (Array.map Loadgen.latency_ms res.records) 1.0 = Float.infinity)

(* ---- compare ---- *)

let dir = "compare-fixtures"

let write_run ~side ~i ~workload ~started metrics =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (Printf.sprintf "%s-%s-%d.json" side workload i) in
  let j =
    Json.Obj
      [
        ("workload", Json.Str workload);
        ("seed", Json.Num (Float.of_int i));
        ("trace", Json.Num 0.0);
        ("started_unix", Json.Num started);
        ( "metrics",
          Json.Obj (List.map (fun (k, v) -> (k, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str "x") ])) metrics) );
      ]
  in
  Out_channel.with_open_bin path (fun oc -> output_string oc (Json.to_string j));
  match Compare.load_run path with Ok r -> r | Error e -> Alcotest.fail e

let bench =
  Json.parse
    {|{"end_to_end": [
        {"name": "throughput", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}],
       "per_layer": [{"name": "frame.decode_ns", "unit": "ns", "better": "lower"}]}|}

(* [n] pairs; pair i starts with the parent when [parent_first i]. *)
let sides ?(n_parent = 10) ?(n_change = 10) ?(parent_first = fun i -> i mod 2 = 0) ~parent ~change () =
  let run side i metrics first = write_run ~side ~i ~workload:"w" ~started:(Float.of_int (10 * i) +. if first then 0.0 else 1.0) metrics in
  let p = List.init n_parent (fun i -> run "p" i (parent i) (parent_first i)) in
  let c = List.init n_change (fun i -> run "c" i (change i) (not (parent_first i))) in
  Compare.compare ~specs:(Compare.specs_of_benchmark bench) p c

let verdict rows metric =
  match List.find_opt (fun (r : Compare.row) -> r.metric = metric) rows with
  | Some r -> Compare.verdict_name r.verdict
  | None -> Alcotest.failf "no row for %s" metric

let wobble i = if i mod 2 = 0 then 1.0 else -1.0
let parent i = [ ("throughput", 100.0 +. wobble i); ("latency_p50_ms", 10.0 +. (0.1 *. wobble i)); ("frame.decode_ns", 50.0) ]

let test_compare_win () =
  let rows = sides ~parent ~change:(fun i -> [ ("throughput", 120.0 +. wobble i); ("latency_p50_ms", 10.0); ("frame.decode_ns", 40.0 +. wobble i) ]) () in
  Alcotest.(check string) "throughput wins" "win" (verdict rows "throughput");
  Alcotest.(check string) "per-layer metrics can win" "win" (verdict rows "frame.decode_ns");
  Alcotest.(check string) "flat latency is unresolved" "unresolved" (verdict rows "latency_p50_ms")

let test_compare_regression () =
  let rows = sides ~parent ~change:(fun i -> [ ("throughput", 100.0 +. wobble i); ("latency_p50_ms", 12.0); ("frame.decode_ns", 500.0) ]) () in
  Alcotest.(check string) "latency 20% worse than a 10% bound" "regression" (verdict rows "latency_p50_ms");
  Alcotest.(check string) "no bound, no regression" "unresolved" (verdict rows "frame.decode_ns");
  Alcotest.(check string) "noise is unresolved" "unresolved" (verdict rows "throughput")

let test_compare_unresolved () =
  (* within the parent's IQR, and wins in only half of the pairs *)
  let rows = sides ~parent ~change:(fun i -> [ ("throughput", 100.5 -. wobble i); ("latency_p50_ms", 10.05); ("frame.decode_ns", 50.0) ]) () in
  Alcotest.(check string) "throughput" "unresolved" (verdict rows "throughput");
  Alcotest.(check string) "latency within bound" "unresolved" (verdict rows "latency_p50_ms");
  (* a big gain over too few pairs, or pairs that never alternate *)
  let big i = [ ("throughput", 150.0 +. wobble i); ("latency_p50_ms", 10.0); ("frame.decode_ns", 50.0) ] in
  Alcotest.(check string) "5 pairs cannot win" "unresolved" (verdict (sides ~n_parent:5 ~n_change:5 ~parent ~change:big ()) "throughput");
  Alcotest.(check string) "parent always first cannot win" "unresolved"
    (verdict (sides ~parent_first:(fun _ -> true) ~parent ~change:big ()) "throughput")

let test_compare_unequal_pairs () =
  let change i = [ ("throughput", 150.0 +. wobble i); ("latency_p50_ms", 13.0); ("frame.decode_ns", 50.0) ] in
  let rows = sides ~n_change:9 ~parent ~change () in
  let r = List.find (fun (r : Compare.row) -> r.metric = "throughput") rows in
  Alcotest.(check string) "unpaired runs cannot win" "unresolved" (Compare.verdict_name r.verdict);
  Alcotest.(check int) "no pairs formed" 0 r.pairs;
  Alcotest.(check bool) "the note says why" true (String.length r.note > 0 && String.sub r.note 0 7 = "unequal");
  Alcotest.(check string) "medians still expose a regression" "regression" (verdict rows "latency_p50_ms")

let test_json_roundtrip () =
  let src = {|{"a": [1, 2.5, "x\"y"], "b": {"c": true, "d": null}}|} in
  Alcotest.(check string) "reprint" src (Json.to_string (Json.parse src));
  List.iter
    (fun f -> Alcotest.(check bool) "every digit kept" true (Json.parse (Json.num_to_string f) = Json.Num f))
    [ 0.1; 1.0 /. 3.0; 1e-300; 123456789.123456789 ];
  Alcotest.(check string) "non-finite prints null" "null" (Json.num_to_string Float.nan)

let () =
  (* a peer hanging up must surface as EPIPE, not kill the test *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Alcotest.run "perf"
    [
      ( "pct",
        [
          Alcotest.test_case "tail: highest percentile with 10 beyond" `Quick test_tail_rule;
          Alcotest.test_case "failures count as infinite" `Quick test_failures_are_infinite;
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles_match_python;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "latency from the due time" `Quick test_latency_from_due;
          Alcotest.test_case "due schedule" `Quick test_due_schedule;
          Alcotest.test_case "a stalled reply charges the queue behind it" `Quick test_stall_charges_queue;
          Alcotest.test_case "missing replies fail" `Quick test_missing_replies_fail;
        ] );
      ( "compare",
        [
          Alcotest.test_case "win" `Quick test_compare_win;
          Alcotest.test_case "regression" `Quick test_compare_regression;
          Alcotest.test_case "unresolved" `Quick test_compare_unresolved;
          Alcotest.test_case "unequal pair counts" `Quick test_compare_unequal_pairs;
        ] );
      ("json", [ Alcotest.test_case "round trip" `Quick test_json_roundtrip ]);
    ]
