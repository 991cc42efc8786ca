(* Tests for Aa_obs: the clock, the histogram (incl. the merged-stream
   quantile contract), the counter/gauge registry and its determinism
   contract across pool sizes, and span recording with well-formed
   Chrome trace export — including spans recorded from several domains
   at once. *)

open Aa_obs
open Aa_parallel

(* Every test starts from a clean, enabled observability state and
   leaves the switch off; span buffers persist per domain, so clear
   them too. *)
let reset_rctx () =
  Rctx.set_enabled false;
  Rctx.set_slow_ms (-1.0);
  Rctx.slow_clear ();
  Rctx.set_slow_keep 64

let with_obs f () =
  Control.set_enabled false;
  Registry.reset ();
  Trace.clear ();
  reset_rctx ();
  Fun.protect
    ~finally:(fun () ->
      Control.set_enabled false;
      Registry.reset ();
      Trace.clear ();
      reset_rctx ())
    (fun () ->
      Control.set_enabled true;
      f ())

(* ---------- clock ---------- *)

let test_clock_monotonic () =
  let prev = ref (Clock.now_ns ()) in
  for _ = 1 to 10_000 do
    let t = Clock.now_ns () in
    if t < !prev then Alcotest.failf "clock went backwards: %d < %d" t !prev;
    prev := t
  done;
  let s = Clock.now_s () in
  Alcotest.(check bool) "now_s positive" true (s >= 0.0);
  (* wall_s is an absolute epoch timestamp: after 2020, before 2100 *)
  let w = Clock.wall_s () in
  Alcotest.(check bool) "wall_s epoch range" true (w > 1.5e9 && w < 4.2e9)

(* ---------- histogram ---------- *)

let test_histogram_empty_quantiles () =
  let h = Histogram.create () in
  Alcotest.(check int) "count" 0 (Histogram.count h);
  List.iter
    (fun q ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "empty q=%g" q)
        0.0 (Histogram.quantile h q))
    [ 0.0; 0.5; 1.0 ]

let test_histogram_invalid_q () =
  let h = Histogram.create () in
  Histogram.add h 1e-3;
  List.iter
    (fun q ->
      match Histogram.quantile h q with
      | (_ : float) -> Alcotest.failf "q=%g should raise" q
      | exception Invalid_argument _ -> ())
    [ -0.1; 1.1; Float.nan ]

let test_histogram_single_bucket () =
  let h = Histogram.create () in
  for _ = 1 to 5 do
    Histogram.add h 1e-3
  done;
  (* all mass in one bucket: every quantile is that bucket's midpoint,
     within the scheme's ~±6% bucketing error *)
  let q50 = Histogram.quantile h 0.5 and q100 = Histogram.quantile h 1.0 in
  Alcotest.(check (float 0.0)) "q50 = q100" q100 q50;
  Alcotest.(check bool)
    "midpoint near sample" true
    (Float.abs (q50 -. 1e-3) /. 1e-3 < 0.12)

let test_histogram_merge_equals_combined () =
  let a = Histogram.create () and b = Histogram.create () and c = Histogram.create () in
  let samples_a = [ 1e-6; 3e-6; 1e-4; 0.5 ] in
  let samples_b = [ 2e-6; 5e-5; 5e-5; 0.02; 7.0; 900.0 ] in
  List.iter (fun x -> Histogram.add a x; Histogram.add c x) samples_a;
  List.iter (fun x -> Histogram.add b x; Histogram.add c x) samples_b;
  let m = Histogram.merge a b in
  Alcotest.(check int)
    "merged count"
    (List.length samples_a + List.length samples_b)
    (Histogram.count m);
  List.iter
    (fun q ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "q=%g of merge = q of combined stream" q)
        (Histogram.quantile c q) (Histogram.quantile m q))
    [ 0.0; 0.25; 0.5; 0.75; 0.95; 1.0 ];
  (* merge must not alias its inputs *)
  Histogram.add a 1.0;
  Alcotest.(check int)
    "merge unaffected by later adds"
    (List.length samples_a + List.length samples_b)
    (Histogram.count m)

let test_metrics_histogram_is_obs_histogram () =
  (* the re-export is the same module: values flow across freely *)
  let h : Aa_service.Metrics.Histogram.t = Histogram.create () in
  Histogram.add h 0.5;
  Alcotest.(check int) "shared type" 1 (Aa_service.Metrics.Histogram.count h)

(* ---------- registry ---------- *)

let test_counter_basics () =
  let c = Registry.counter "test.basics" in
  Alcotest.(check int) "starts at 0" 0 (Registry.Counter.value c);
  Registry.Counter.incr c;
  Registry.Counter.add c 41;
  Alcotest.(check int) "42" 42 (Registry.Counter.value c);
  Alcotest.(check string) "name" "test.basics" (Registry.Counter.name c);
  let c' = Registry.counter "test.basics" in
  Registry.Counter.incr c';
  Alcotest.(check int) "same handle for same name" 43 (Registry.Counter.value c)

let test_counter_disabled_is_noop () =
  let c = Registry.counter "test.disabled" in
  Control.with_enabled false (fun () ->
      Registry.Counter.incr c;
      Registry.Counter.add c 100);
  Alcotest.(check int) "no effect while off" 0 (Registry.Counter.value c)

let test_gauge_basics () =
  let g = Registry.gauge "test.gauge" in
  Registry.Gauge.set g 2.5;
  Alcotest.(check (float 0.0)) "set" 2.5 (Registry.Gauge.value g);
  Control.with_enabled false (fun () -> Registry.Gauge.set g 9.0);
  Alcotest.(check (float 0.0)) "no set while off" 2.5 (Registry.Gauge.value g);
  Alcotest.(check string) "name" "test.gauge" (Registry.Gauge.name g);
  Alcotest.(check (float 0.0)) "in gauges snapshot" 2.5
    (List.assoc "test.gauge" (Registry.gauges ()))

let test_hist_basics () =
  let h = Registry.histogram ~edges:[| 1.0; 2.0; 4.0 |] "test.hist" in
  Registry.Hist.observe h 0.5;
  Registry.Hist.observe h 2.0;
  Registry.Hist.observe h 3.0;
  Registry.Hist.observe h 100.0;
  Control.with_enabled false (fun () -> Registry.Hist.observe h 9.0);
  Alcotest.(check int) "count" 4 (Registry.Hist.count h);
  Alcotest.(check string) "name" "test.hist" (Registry.Hist.name h);
  Alcotest.(check bool) "in histograms snapshot" true
    (List.mem_assoc "test.hist" (Registry.histograms ()));
  let s = Registry.Hist.snapshot h in
  (* cumulative per-edge counts; the 100.0 observation lands past the
     last edge and shows only in count / the implied +Inf bucket *)
  Alcotest.(check (list (pair (float 0.0) int)))
    "cumulative buckets"
    [ (1.0, 1); (2.0, 2); (4.0, 3) ]
    s.Registry.Hist.le;
  Alcotest.(check int) "snapshot count" 4 s.Registry.Hist.count;
  Alcotest.(check (float 1e-9)) "sum" 105.5 s.Registry.Hist.total;
  let h' = Registry.histogram ~edges:[| 1.0; 2.0; 4.0 |] "test.hist" in
  Registry.Hist.observe h' 0.1;
  Alcotest.(check int) "same handle for same name" 5 (Registry.Hist.count h);
  Alcotest.check_raises "empty edges rejected"
    (Invalid_argument "Registry.histogram: empty edges") (fun () ->
      ignore (Registry.histogram ~edges:[||] "test.hist-bad"));
  Alcotest.check_raises "non-increasing edges rejected"
    (Invalid_argument "Registry.histogram: edges not increasing") (fun () ->
      ignore (Registry.histogram ~edges:[| 2.0; 2.0 |] "test.hist-bad"))

let test_registry_snapshots_sorted () =
  ignore (Registry.counter "test.zz");
  ignore (Registry.counter "test.aa");
  let names = List.map fst (Registry.counters ()) in
  Alcotest.(check (list string)) "sorted" (List.sort compare names) names

let test_expose_format () =
  let c = Registry.counter "test.expose-me" in
  Registry.Counter.add c 7;
  let g = Registry.gauge "test.gauge/odd name" in
  Registry.Gauge.set g 1.5;
  let h = Registry.histogram ~edges:[| 1.0; 8.0 |] "test.expose-hist" in
  Registry.Hist.observe h 3.0;
  let text = Registry.expose () in
  let contains s =
    let n = String.length text and k = String.length s in
    let rec at i = i + k <= n && (String.sub text i k = s || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool)
    "counter TYPE line" true
    (contains "# TYPE aa_test_expose_me counter");
  Alcotest.(check bool) "counter value line" true (contains "aa_test_expose_me 7");
  Alcotest.(check bool)
    "gauge sanitized" true
    (contains "# TYPE aa_test_gauge_odd_name gauge");
  Alcotest.(check bool)
    "histogram TYPE line" true
    (contains "# TYPE aa_test_expose_hist histogram");
  Alcotest.(check bool)
    "histogram bucket line" true
    (contains "aa_test_expose_hist_bucket{le=\"8\"} 1");
  Alcotest.(check bool)
    "histogram +Inf bucket" true
    (contains "aa_test_expose_hist_bucket{le=\"+Inf\"} 1");
  Alcotest.(check bool)
    "histogram count line" true
    (contains "aa_test_expose_hist_count 1");
  (* exposition must never contain unsanitized metric characters; the
     brace/equals/double-quote label syntax of histogram buckets and
     the backslash of HELP-text escaping are the sanctioned
     exceptions *)
  String.iter
    (fun ch ->
      match ch with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ' ' | '\n' | '#' | '.'
      | '-' | '+' | '{' | '}' | '=' | '"' | '\\' ->
          ()
      | _ -> Alcotest.failf "unexpected character %C in exposition" ch)
    text

let contains_in hay s =
  let n = String.length hay and k = String.length s in
  let rec at i = i + k <= n && (String.sub hay i k = s || at (i + 1)) in
  at 0

let test_help_lines_and_escaping () =
  ignore (Registry.counter ~help:"plain help text" "test.help-c");
  let text = Registry.expose () in
  Alcotest.(check bool)
    "HELP precedes TYPE" true
    (contains_in text "# HELP aa_test_help_c plain help text\n# TYPE aa_test_help_c counter");
  (* first registration wins, like histogram edges *)
  ignore (Registry.counter ~help:"usurper" "test.help-c");
  Alcotest.(check bool)
    "first help wins" true
    (contains_in (Registry.expose ()) "# HELP aa_test_help_c plain help text");
  Alcotest.(check bool) "no usurper" false (contains_in (Registry.expose ()) "usurper");
  (* no help registered -> no HELP line *)
  ignore (Registry.counter "test.help-none");
  Alcotest.(check bool)
    "helpless metric has no HELP line" false
    (contains_in (Registry.expose ()) "# HELP aa_test_help_none")

let test_help_hostile_text () =
  (* backslashes and newlines in help must be escaped per the
     Prometheus text format: \\ first, then \n — the exposition stays
     one logical line per HELP *)
  ignore (Registry.gauge ~help:"back\\slash\nsecond line" "test.help-hostile");
  let text = Registry.expose () in
  Alcotest.(check bool)
    "escaped backslash then newline" true
    (contains_in text "# HELP aa_test_help_hostile back\\\\slash\\nsecond line\n");
  (* hostile metric NAME is sanitized in the HELP line too *)
  ignore (Registry.counter ~help:"odd name" "test.help oh/no");
  Alcotest.(check bool)
    "sanitized name in HELP" true
    (contains_in (Registry.expose ()) "# HELP aa_test_help_oh_no odd name")

let test_gauge_fn () =
  let v = ref 2.5 in
  Registry.gauge_fn ~help:"callback gauge" "test.fn-gauge" (fun () -> !v);
  let lookup () = List.assoc_opt "test.fn-gauge" (Registry.gauges ()) in
  Alcotest.(check (option (float 0.0))) "sampled" (Some 2.5) (lookup ());
  v := 7.0;
  Alcotest.(check (option (float 0.0))) "live" (Some 7.0) (lookup ());
  (* reset clears stored gauges but cannot clear a callback *)
  Registry.reset ();
  Alcotest.(check (option (float 0.0))) "survives reset" (Some 7.0) (lookup ());
  (* re-registration replaces *)
  Registry.gauge_fn "test.fn-gauge" (fun () -> 1.0);
  Alcotest.(check (option (float 0.0))) "replaced" (Some 1.0) (lookup ());
  Alcotest.(check bool)
    "exposed as a gauge" true
    (contains_in (Registry.expose ()) "# TYPE aa_test_fn_gauge gauge")

(* ---------- solver counters: deterministic across job counts ---------- *)

let run_fig ~jobs =
  match Aa_experiments.Figures.find "fig1a" with
  | None -> Alcotest.fail "fig1a spec missing"
  | Some spec ->
      Registry.reset ();
      let series = spec.run ~jobs ~trials:12 ~seed:7 () in
      (series, Registry.counters ())

let test_counters_reproducible_across_jobs () =
  let series1, counters1 = run_fig ~jobs:1 in
  let series4, counters4 = run_fig ~jobs:4 in
  (* sanity: the sweep actually exercised the instrumented paths *)
  let total = List.fold_left (fun acc (_, v) -> acc + v) 0 counters1 in
  Alcotest.(check bool) "counters saw work" true (total > 0);
  Alcotest.(check bool)
    "series identical" true
    (List.length series1.points = List.length series4.points);
  List.iter2
    (fun (n1, v1) (n4, v4) ->
      Alcotest.(check string) "same counter set" n1 n4;
      Alcotest.(check int) (Printf.sprintf "counter %s" n1) v1 v4)
    counters1 counters4

(* ---------- spans ---------- *)

let test_span_nesting_and_text_tree () =
  Trace.span "outer" (fun () ->
      Trace.span "inner" (fun () -> ignore (Sys.opaque_identity 1));
      Trace.span "inner2" (fun () -> ignore (Sys.opaque_identity 2)));
  Alcotest.(check int) "balanced" 0 (Trace.unbalanced ());
  Alcotest.(check int) "3 spans = 6 events" 6 (Trace.n_events ());
  let tree = Trace.to_text_tree () in
  let contains s =
    let n = String.length tree and k = String.length s in
    let rec at i = i + k <= n && (String.sub tree i k = s || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "outer at depth 0" true (contains "\n  outer");
  Alcotest.(check bool) "inner indented" true (contains "\n    inner")

let test_ring_overwrite_counter () =
  Alcotest.(check int) "starts at zero" 0 (Trace.overwritten ());
  (* capacity spans = 2*capacity events into a capacity-slot ring:
     oldest overwritten *)
  for _ = 1 to Trace.capacity do
    Trace.span "w" (fun () -> ())
  done;
  Alcotest.(check bool) "counts overwrites" true (Trace.overwritten () > 0);
  (* the registry mirrors the total through a callback gauge *)
  (match List.assoc_opt "obs.trace.overwritten" (Registry.gauges ()) with
  | Some v -> Alcotest.(check bool) "gauge mirrors count" true (v > 0.0)
  | None -> Alcotest.fail "obs.trace.overwritten gauge missing");
  Alcotest.(check bool)
    "in the exposition" true
    (contains_in (Registry.expose ()) "# TYPE aa_obs_trace_overwritten gauge");
  Trace.clear ();
  Alcotest.(check int) "clear resets" 0 (Trace.overwritten ())

let test_ring_capacity_of () =
  let cap s = Trace.ring_capacity_of s in
  Alcotest.(check int) "unset = default" 32768 (cap None);
  Alcotest.(check int) "garbage = default" 32768 (cap (Some "lots"));
  Alcotest.(check int) "zero = default" 32768 (cap (Some "0"));
  Alcotest.(check int) "negative = default" 32768 (cap (Some "-4"));
  Alcotest.(check int) "floor 16" 16 (cap (Some "3"));
  Alcotest.(check int) "rounded up to a power of two" 4096 (cap (Some "3000"));
  Alcotest.(check int) "exact power kept" 65536 (cap (Some "65536"));
  Alcotest.(check int) "whitespace tolerated" 1024 (cap (Some " 1024 "));
  Alcotest.(check int) "clamped to 2^26" (1 lsl 26) (cap (Some "999999999999"));
  Alcotest.(check bool)
    "live capacity is a power of two" true
    (Trace.capacity >= 16 && Trace.capacity land (Trace.capacity - 1) = 0)

let test_span_exception_safe () =
  (match Trace.span "boom" (fun () -> failwith "x") with
  | () -> Alcotest.fail "expected the exception to escape"
  | exception Failure _ -> ());
  Alcotest.(check int) "closed on exception" 0 (Trace.unbalanced ())

let test_span_disabled_records_nothing () =
  Control.with_enabled false (fun () ->
      Trace.span "ghost" (fun () -> ());
      Trace.begin_span "ghost2";
      Trace.end_span ());
  Alcotest.(check int) "nothing recorded" 0 (Trace.n_events ())

let test_open_span_synthesized_end () =
  Trace.begin_span "open-at-dump";
  Alcotest.(check int) "one open span" 1 (Trace.unbalanced ());
  let events = Trace.events () in
  let begins = List.filter (fun (e : Trace.event) -> e.is_begin) events in
  let ends = List.filter (fun (e : Trace.event) -> not e.is_begin) events in
  Alcotest.(check int) "export balanced anyway" (List.length begins) (List.length ends);
  (match ends with
  | [ e ] -> Alcotest.(check string) "synthesized end name" "open-at-dump" e.name
  | _ -> Alcotest.fail "expected exactly one end");
  Trace.end_span ();
  Alcotest.(check int) "closed" 0 (Trace.unbalanced ())

let test_orphan_end_ignored () =
  Trace.end_span ();
  (* an end with no begin must neither crash nor corrupt accounting *)
  Alcotest.(check int) "no negative depth" 0 (Trace.unbalanced ());
  Trace.span "after" (fun () -> ());
  Alcotest.(check int) "subsequent spans fine" 2 (Trace.n_events ())

(* A tiny JSON validator: enough for the flat array-of-objects shape of
   Chrome trace events (strings with escapes, numbers, the three
   keywords), so the test fails on any malformed export. *)
let validate_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = Alcotest.failf "invalid JSON at byte %d: %s" !pos msg in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let next () =
    match peek () with
    | Some c ->
        incr pos;
        c
    | None -> fail "unexpected end"
  in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\n' | '\t' | '\r') ->
        incr pos;
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    skip_ws ();
    let got = next () in
    if got <> c then fail (Printf.sprintf "expected %C, got %C" c got)
  in
  let parse_string () =
    expect '"';
    let rec go () =
      match next () with
      | '"' -> ()
      | '\\' -> (
          match next () with
          | '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' -> go ()
          | 'u' ->
              for _ = 1 to 4 do
                match next () with
                | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> ()
                | c -> fail (Printf.sprintf "bad unicode escape %C" c)
              done;
              go ()
          | c -> fail (Printf.sprintf "bad escape %C" c))
      | c when Char.code c < 0x20 -> fail "raw control character in string"
      | _ -> go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> num_char c | None -> false) do
      incr pos
    done;
    if !pos = start then fail "expected a number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some _ -> ()
    | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> parse_string ()
    | Some '{' -> parse_object ()
    | Some '[' -> parse_array ()
    | Some ('t' | 'f' | 'n') ->
        let kw = [ "true"; "false"; "null" ] in
        let ok =
          List.exists
            (fun w ->
              let k = String.length w in
              if !pos + k <= n && String.sub s !pos k = w then begin
                pos := !pos + k;
                true
              end
              else false)
            kw
        in
        if not ok then fail "bad keyword"
    | _ -> parse_number ()
  and parse_object () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then incr pos
    else
      let rec members () =
        skip_ws ();
        parse_string ();
        expect ':';
        parse_value ();
        skip_ws ();
        match next () with
        | ',' -> members ()
        | '}' -> ()
        | c -> fail (Printf.sprintf "expected , or } in object, got %C" c)
      in
      members ()
  and parse_array () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then incr pos
    else
      let rec elements () =
        parse_value ();
        skip_ws ();
        match next () with
        | ',' -> elements ()
        | ']' -> ()
        | c -> fail (Printf.sprintf "expected , or ] in array, got %C" c)
      in
      elements ()
  in
  parse_value ();
  skip_ws ();
  if !pos <> n then fail "trailing garbage"

let test_chrome_json_escaping () =
  Trace.span "we\"ird\\name\nwith\tcontrols" (fun () -> ());
  let json = Trace.to_chrome_json () in
  validate_json json;
  validate_json (Trace.to_chrome_json ~compact:true ())

let test_spans_across_pool_domains () =
  let domains = 4 in
  let seen = Array.make 64 0 in
  let run_once () =
    Pool.with_pool ~domains (fun pool ->
        Pool.run pool ~n:512 ~chunk:4 (fun ~lo ~hi ->
            Trace.span "work" (fun () ->
                (* spread real work so several domains claim chunks *)
                let acc = ref 0.0 in
                for i = lo to hi - 1 do
                  for k = 0 to 5_000 do
                    acc := !acc +. Float.of_int (i + k)
                  done
                done;
                ignore (Sys.opaque_identity !acc);
                let d = (Domain.self () :> int) in
                seen.(d mod 64) <- 1)))
  in
  let module IS = Set.Make (Int) in
  let domains_seen () =
    List.fold_left
      (fun s (e : Trace.event) -> IS.add e.domain s)
      IS.empty (Trace.events ())
  in
  (* On a loaded 1-core box the caller can occasionally drain all 128
     chunks before any worker domain wakes; retry a few times — the
     events accumulate in the ring, so one multi-domain run suffices. *)
  let attempts = ref 0 in
  run_once ();
  while IS.cardinal (domains_seen ()) < 2 && !attempts < 4 do
    incr attempts;
    run_once ()
  done;
  Alcotest.(check int) "balanced at quiescence" 0 (Trace.unbalanced ());
  let json = Trace.to_chrome_json () in
  validate_json json;
  let events = Trace.events () in
  let doms =
    List.fold_left (fun s (e : Trace.event) -> IS.add e.domain s) IS.empty events
  in
  (* the pool had 4 slots and 128 chunks of real work; at least two
     domains must have recorded spans (the caller always participates) *)
  Alcotest.(check bool)
    (Printf.sprintf "spans from >= 2 domains (got %d)" (IS.cardinal doms))
    true (IS.cardinal doms >= 2);
  (* per domain, begins and ends pair up *)
  IS.iter
    (fun d ->
      let mine = List.filter (fun (e : Trace.event) -> e.domain = d) events in
      let b = List.length (List.filter (fun (e : Trace.event) -> e.is_begin) mine) in
      let e = List.length (List.filter (fun (e : Trace.event) -> not e.is_begin) mine) in
      Alcotest.(check int) (Printf.sprintf "domain %d balanced" d) b e)
    doms

let test_pool_stats_and_utilization () =
  Pool.with_pool ~domains:2 (fun pool ->
      Pool.run pool ~n:100 ~chunk:5 (fun ~lo ~hi ->
          let acc = ref 0 in
          for i = lo to hi - 1 do
            for k = 0 to 20_000 do
              acc := !acc + i + k
            done
          done;
          ignore (Sys.opaque_identity !acc));
      let stats = Pool.stats pool in
      Alcotest.(check int) "one stat per slot" 2 (Array.length stats);
      let chunks = Array.fold_left (fun acc (s : Pool.stat) -> acc + s.chunks) 0 stats in
      Alcotest.(check int) "all 20 chunks attributed" 20 chunks;
      Array.iter
        (fun (s : Pool.stat) ->
          if s.chunks > 0 && s.busy_ns <= 0 then
            Alcotest.failf "slot %d claimed %d chunks but busy_ns = %d" s.slot
              s.chunks s.busy_ns)
        stats;
      let report = Pool.utilization pool in
      Alcotest.(check bool) "report mentions slots" true
        (String.length report > 0 && String.sub report 0 5 = "pool:"));
  (* registry counters saw the run: 20 chunks in a fixed partition *)
  Alcotest.(check int) "pool.chunks" 20
    (Registry.Counter.value (Registry.counter "pool.chunks"));
  Alcotest.(check int) "pool.runs" 1
    (Registry.Counter.value (Registry.counter "pool.runs"))

let test_pool_stats_zero_when_disabled () =
  Control.with_enabled false (fun () ->
      Pool.with_pool ~domains:2 (fun pool ->
          Pool.run pool ~n:50 ~chunk:5 (fun ~lo:_ ~hi:_ -> ());
          let chunks =
            Array.fold_left (fun acc (s : Pool.stat) -> acc + s.chunks) 0 (Pool.stats pool)
          in
          Alcotest.(check int) "no attribution while off" 0 chunks))

(* ---------- request contexts ---------- *)

let test_rctx_rid_monotonic () =
  let a = Rctx.create ~kind:"admit" ~conn:1 in
  let b = Rctx.create ~kind:"stats" ~conn:2 in
  let c = Rctx.create ~kind:"query" ~conn:1 in
  Alcotest.(check bool) "rids strictly increase" true
    (Rctx.rid a < Rctx.rid b && Rctx.rid b < Rctx.rid c);
  Alcotest.(check string) "kind kept" "stats" (Rctx.kind b);
  Alcotest.(check int) "conn kept" 2 (Rctx.conn b);
  Alcotest.(check int) "unrouted shard" (-1) (Rctx.shard a);
  Rctx.set_shard a 3;
  Alcotest.(check int) "routed shard" 3 (Rctx.shard a)

let test_rctx_phase_accumulation () =
  let c = Rctx.create ~kind:"admit" ~conn:0 in
  (* the clock has ~1 us resolution: spin until it advances so every
     phase measures strictly positive *)
  let spin () =
    let t0 = Aa_obs.Clock.now_ns () in
    while Aa_obs.Clock.now_ns () - t0 = 0 do
      ignore (Sys.opaque_identity 1)
    done
  in
  Rctx.with_current c (fun () ->
      Rctx.phase "validate" spin;
      Rctx.phase "apply" spin;
      Rctx.phase "validate" spin);
  Alcotest.(check bool) "repeat phases accumulate" true (Rctx.phase_ns c "validate" > 0);
  Alcotest.(check bool) "apply timed" true (Rctx.phase_ns c "apply" > 0);
  Alcotest.(check int) "unentered phase is 0" 0 (Rctx.phase_ns c "journal");
  Alcotest.(check (list string))
    "phases sorted by name" [ "apply"; "validate" ]
    (List.map fst (Rctx.phases c));
  (* without a scoped context, phase is exactly Trace.span *)
  Rctx.phase "solo" (fun () -> ());
  let names =
    List.filter_map
      (fun (e : Trace.event) -> if e.is_begin then Some e.name else None)
      (Trace.events ())
  in
  Alcotest.(check bool) "ctx-less phase still spans" true (List.mem "solo" names)

let test_rctx_scoping_and_span_tags () =
  Alcotest.(check bool) "no current at rest" true (Rctx.current () = None);
  let outer = Rctx.create ~kind:"stats" ~conn:7 in
  let inner = Rctx.create ~kind:"admit" ~conn:8 in
  Rctx.with_current ~shard:2 outer (fun () ->
      Trace.span "outer-span" (fun () -> ());
      Rctx.with_current ~shard:5 inner (fun () ->
          Alcotest.(check bool) "inner is current" true (Rctx.current () = Some inner);
          Trace.span "inner-span" (fun () -> ()));
      Alcotest.(check bool) "outer restored" true (Rctx.current () = Some outer);
      Trace.span "outer-again" (fun () -> ()));
  Alcotest.(check bool) "scope cleared" true (Rctx.current () = None);
  Trace.span "untagged" (fun () -> ());
  let find name =
    match
      List.find_opt
        (fun (e : Trace.event) -> e.is_begin && e.name = name)
        (Trace.events ())
    with
    | Some e -> e
    | None -> Alcotest.failf "span %s not recorded" name
  in
  let o = find "outer-span" and i = find "inner-span" in
  Alcotest.(check int) "outer rid" (Rctx.rid outer) o.rid;
  Alcotest.(check int) "outer shard tag" 2 o.shard;
  Alcotest.(check int) "outer conn" 7 o.conn;
  Alcotest.(check int) "inner rid" (Rctx.rid inner) i.rid;
  Alcotest.(check int) "inner shard tag" 5 i.shard;
  let oa = find "outer-again" in
  Alcotest.(check int) "outer ctx restored on ring" (Rctx.rid outer) oa.rid;
  Alcotest.(check int) "untagged rid is -1" (-1) (find "untagged").rid;
  (* exception safety: the scope must unwind *)
  (match Rctx.with_current outer (fun () -> failwith "boom") with
  | () -> Alcotest.fail "expected escape"
  | exception Failure _ -> ());
  Alcotest.(check bool) "cleared after exception" true (Rctx.current () = None)

let test_rctx_commit_wait () =
  let c = Rctx.create ~kind:"admit" ~conn:0 in
  Alcotest.(check int) "no wait before marks" 0 (Rctx.commit_wait_ns c);
  Rctx.mark_handled c;
  Rctx.mark_committed c;
  Alcotest.(check bool) "wait stamped" true (Rctx.commit_wait_ns c >= 0);
  (* mark_committed without mark_handled must not go negative *)
  let d = Rctx.create ~kind:"query" ~conn:0 in
  Rctx.mark_committed d;
  Alcotest.(check int) "no handled, no wait" 0 (Rctx.commit_wait_ns d)

let test_rctx_slow_capture () =
  Alcotest.(check bool) "disarmed by default" false (Rctx.slow_armed ());
  Rctx.set_slow_ms 0.0;
  Alcotest.(check bool) "0 arms" true (Rctx.slow_armed ());
  let run kind =
    let c = Rctx.create ~kind ~conn:4 in
    Rctx.set_shard c 1;
    Rctx.with_current c (fun () ->
        Rctx.phase "validate" (fun () -> ignore (Sys.opaque_identity 1)));
    ignore (Rctx.finish c ~outcome:"ok")
  in
  run "admit";
  Alcotest.(check int) "captured" 1 (Rctx.slow_count ());
  let json = Rctx.slow_json () in
  validate_json json;
  Alcotest.(check bool) "has the span" true (contains_in json "\"name\":\"validate\"");
  Alcotest.(check bool) "has the kind" true (contains_in json "\"kind\":\"admit\"");
  Alcotest.(check bool) "has the outcome" true (contains_in json "\"outcome\":\"ok\"");
  String.iter (fun ch -> if ch = '\n' then Alcotest.fail "newline in slow json") json;
  (* chrome splice fragment must be valid events when bracketed *)
  let frag = Rctx.slow_chrome_events () in
  Alcotest.(check bool) "fragment non-empty" true (String.length frag > 0);
  validate_json ("[" ^ frag ^ "]");
  (* text rendering for /tracez *)
  let txt = Rctx.slow_text () in
  Alcotest.(check bool) "text mentions the rid" true (contains_in txt "rid ");
  Alcotest.(check bool) "text mentions shard tag" true (contains_in txt "[shard 1]");
  (* the keep-list is bounded, oldest first out *)
  Rctx.set_slow_keep 2;
  run "depart";
  run "update";
  run "query";
  Alcotest.(check int) "bounded" 2 (Rctx.slow_count ());
  Alcotest.(check bool) "newest kept" true (contains_in (Rctx.slow_json ()) "query");
  Alcotest.(check bool) "oldest dropped" false (contains_in (Rctx.slow_json ()) "admit");
  Rctx.slow_clear ();
  Alcotest.(check int) "clear empties" 0 (Rctx.slow_count ());
  Alcotest.(check string) "empty json" "[]" (Rctx.slow_json ());
  Alcotest.(check string) "empty fragment" "" (Rctx.slow_chrome_events ());
  (* threshold actually filters: nothing finishes above 10 minutes *)
  Rctx.set_slow_ms 600_000.0;
  run "admit";
  Alcotest.(check int) "fast request not kept" 0 (Rctx.slow_count ());
  Rctx.set_slow_ms (-1.0);
  Alcotest.(check bool) "negative disarms" false (Rctx.slow_armed ())

(* ---------- engine phase spans ---------- *)

let test_engine_phase_spans () =
  let engine = Aa_service.Engine.create ~servers:2 ~capacity:10.0 () in
  let resp = Aa_service.Engine.handle engine (Aa_service.Protocol.Admit
    (Aa_utility.Utility.Shapes.power ~cap:10.0 ~coeff:1.0 ~beta:0.5)) in
  (match resp with
  | Aa_service.Protocol.Admitted _ -> ()
  | r -> Alcotest.failf "unexpected response %s" (Aa_service.Protocol.print_response r));
  let names =
    List.filter_map
      (fun (e : Trace.event) -> if e.is_begin then Some e.name else None)
      (Trace.events ())
  in
  List.iter
    (fun expected ->
      if not (List.mem expected names) then
        Alcotest.failf "missing span %S (got: %s)" expected (String.concat ", " names))
    [ "admit"; "validate"; "journal"; "apply" ];
  Alcotest.(check int) "balanced" 0 (Trace.unbalanced ())

let test_engine_trace_request () =
  let engine = Aa_service.Engine.create ~servers:2 ~capacity:10.0 () in
  ignore
    (Aa_service.Engine.handle engine
       (Aa_service.Protocol.Admit
          (Aa_utility.Utility.Shapes.power ~cap:10.0 ~coeff:1.0 ~beta:0.5)));
  match Aa_service.Engine.handle engine Aa_service.Protocol.Trace with
  | Aa_service.Protocol.Trace_dump { events; json } ->
      Alcotest.(check bool) "has events" true (events > 0);
      validate_json json;
      (* the wire form is a single line *)
      String.iter (fun c -> if c = '\n' then Alcotest.fail "newline in wire JSON") json
  | r -> Alcotest.failf "unexpected response %s" (Aa_service.Protocol.print_response r)

let test_trace_request_disabled () =
  Control.set_enabled false;
  let engine = Aa_service.Engine.create ~servers:2 ~capacity:10.0 () in
  match Aa_service.Engine.handle engine Aa_service.Protocol.Trace with
  | Aa_service.Protocol.Trace_dump { events; json } ->
      Alcotest.(check int) "no events" 0 events;
      Alcotest.(check string) "empty array" "[]" json
  | r -> Alcotest.failf "unexpected response %s" (Aa_service.Protocol.print_response r)

let () =
  let t name f = Alcotest.test_case name `Quick (with_obs f) in
  Alcotest.run "obs"
    [
      ("clock", [ t "monotonic" test_clock_monotonic ]);
      ( "histogram",
        [
          t "empty quantiles pinned" test_histogram_empty_quantiles;
          t "invalid q raises" test_histogram_invalid_q;
          t "single bucket" test_histogram_single_bucket;
          t "merge = combined stream" test_histogram_merge_equals_combined;
          t "metrics re-export" test_metrics_histogram_is_obs_histogram;
        ] );
      ( "registry",
        [
          t "counter basics" test_counter_basics;
          t "counter disabled no-op" test_counter_disabled_is_noop;
          t "gauge basics" test_gauge_basics;
          t "histogram basics" test_hist_basics;
          t "snapshots sorted" test_registry_snapshots_sorted;
          t "prometheus exposition" test_expose_format;
          t "HELP lines" test_help_lines_and_escaping;
          t "HELP hostile text" test_help_hostile_text;
          t "callback gauges" test_gauge_fn;
          t "reproducible across jobs" test_counters_reproducible_across_jobs;
        ] );
      ( "spans",
        [
          t "nesting and text tree" test_span_nesting_and_text_tree;
          t "exception safe" test_span_exception_safe;
          t "ring overwrite counter" test_ring_overwrite_counter;
          t "ring capacity env grammar" test_ring_capacity_of;
          t "disabled records nothing" test_span_disabled_records_nothing;
          t "open span synthesized end" test_open_span_synthesized_end;
          t "orphan end ignored" test_orphan_end_ignored;
          t "chrome json escaping" test_chrome_json_escaping;
          t "across pool domains" test_spans_across_pool_domains;
        ] );
      ( "pool",
        [
          t "stats and utilization" test_pool_stats_and_utilization;
          t "stats zero when disabled" test_pool_stats_zero_when_disabled;
        ] );
      ( "rctx",
        [
          t "rid monotonic" test_rctx_rid_monotonic;
          t "phase accumulation" test_rctx_phase_accumulation;
          t "scoping and span tags" test_rctx_scoping_and_span_tags;
          t "commit wait marks" test_rctx_commit_wait;
          t "slow capture" test_rctx_slow_capture;
        ] );
      ( "engine",
        [
          t "phase spans" test_engine_phase_spans;
          t "TRACE request" test_engine_trace_request;
          t "TRACE while disabled" test_trace_request_disabled;
        ] );
    ]
