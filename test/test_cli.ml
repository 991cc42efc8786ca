(* Integration tests for the `aa` command-line tool: drive the real
   binary end to end (generate -> solve -> eval) through a shell. *)

(* `dune runtest` runs tests from their build directory; `dune exec`
   from the project root — accept either. *)
let cli =
  List.find_opt Sys.file_exists [ "../bin/aa_cli.exe"; "_build/default/bin/aa_cli.exe" ]
  |> Option.value ~default:"../bin/aa_cli.exe"

let run ?(expect = 0) args =
  let cmd = Filename.quote_command cli args in
  let code = Sys.command (cmd ^ " > cli_stdout.txt 2> cli_stderr.txt") in
  if code <> expect then begin
    let err = In_channel.with_open_text "cli_stderr.txt" In_channel.input_all in
    Alcotest.failf "%s: exit %d (expected %d)\nstderr: %s" (String.concat " " args) code
      expect err
  end;
  In_channel.with_open_text "cli_stdout.txt" In_channel.input_all

let test_exists () =
  if not (Sys.file_exists cli) then Alcotest.failf "CLI binary missing at %s" cli

let test_generate_solve_eval () =
  let _ =
    run [ "generate"; "--dist"; "uniform"; "-n"; "6"; "-m"; "2"; "-C"; "10"; "-o"; "inst.aa" ]
  in
  Alcotest.(check bool) "instance written" true (Sys.file_exists "inst.aa");
  List.iter
    (fun algo ->
      let _ = run [ "solve"; "--algo"; algo; "inst.aa"; "-o"; "sol.aa" ] in
      let out = run [ "eval"; "inst.aa"; "sol.aa" ] in
      let feasible =
        String.length out >= 8 && String.sub out 0 8 = "feasible"
      in
      if not feasible then Alcotest.failf "%s: eval said %S" algo out)
    [ "algo1"; "algo2"; "uu"; "ur"; "ru"; "rr"; "online"; "ls"; "exact" ]

let test_solve_unknown_algo_fails () =
  ignore (run ~expect:124 [ "solve"; "--algo"; "nope"; "inst.aa" ])

let test_eval_rejects_corrupt_solution () =
  Out_channel.with_open_text "bad.aa" (fun oc ->
      Out_channel.output_string oc "assign 0 0 1e9\nassign 1 0 0\nassign 2 0 0\nassign 3 0 0\nassign 4 0 0\nassign 5 0 0\n");
  ignore (run ~expect:1 [ "eval"; "inst.aa"; "bad.aa" ])

let test_generate_all_distributions () =
  List.iter
    (fun dist ->
      let out =
        run
          [ "generate"; "--dist"; dist; "-n"; "3"; "-m"; "2"; "-C"; "50"; "--seed"; "9" ]
      in
      if String.length out < 20 then Alcotest.failf "%s: output too short" dist)
    [ "uniform"; "normal"; "powerlaw"; "discrete" ]

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub haystack i nn = needle || scan (i + 1)) in
  nn = 0 || scan 0

let test_online_subcommand () =
  let _ =
    run
      [ "generate"; "--dist"; "uniform"; "-n"; "8"; "-m"; "3"; "-C"; "20"; "--seed"; "5";
        "-o"; "inst_online.aa" ]
  in
  let _ = run [ "online"; "inst_online.aa"; "-o"; "sol_online.aa" ] in
  let err = In_channel.with_open_text "cli_stderr.txt" In_channel.input_all in
  List.iter
    (fun needle ->
      if not (contains err needle) then
        Alcotest.failf "online summary %S missing %S" err needle)
    [ "online utility:"; "offline algo2:"; "gap (online/algo2):" ];
  let out = run [ "eval"; "inst_online.aa"; "sol_online.aa" ] in
  if not (String.length out >= 8 && String.sub out 0 8 = "feasible") then
    Alcotest.failf "online assignment not feasible: %S" out

let test_figures_lists () =
  let out = run [ "figures" ] in
  List.iter
    (fun id ->
      if not (contains out id) then Alcotest.failf "missing %s in figures output" id)
    [ "fig1a"; "fig3c" ]

(* Every solver or curve-construction change must leave these sweeps'
   stdout byte-identical. fig2a (power law): the 19 lines below are its
   output (md5 42ff3c464b5f78b3aab98c641d2e1657). *)
let fig2a_trials50 =
  String.concat ""
    (List.map
       (fun l -> l ^ "\n")
       [
         "# fig2a — power law (alpha=2), ratio vs beta";
         "# ratios are Algo2 utility / comparator utility (mean over trials)";
         "beta          vs_SO      vs_UU      vs_UR      vs_RU      vs_RR  worst_vs_SO   Algo1_SO   viol";
         "1            1.0000     1.0000     1.0000     1.2517     1.2964       1.0000     1.0000      0";
         "2            0.9979     1.0780     1.4060     1.2531     1.4441       0.9870     0.9956      0";
         "3            0.9990     1.2360     1.5443     1.3882     1.7821       0.9966     0.9977      0";
         "4            0.9989     1.4357     2.3208     1.6089     2.0150       0.9968     0.9977      0";
         "5            0.9989     1.6544     2.1466     1.8255     2.5447       0.9955     0.9979      0";
         "6            0.9987     1.8704     2.3552     2.0011     2.5570       0.9949     0.9976      0";
         "7            0.9988     2.1297     2.5432     2.2601     3.1438       0.9945     0.9977      0";
         "8            0.9988     2.3610     4.7899     2.4491     3.1858       0.9908     0.9974      0";
         "9            0.9985     2.5651     2.7546     2.5867     3.3780       0.9925     0.9971      0";
         "10           0.9987     2.8661     3.4505     2.8976     4.2387       0.9918     0.9980      0";
         "11           0.9990     3.0807     3.4957     3.1939     4.0589       0.9949     0.9979      0";
         "12           0.9990     3.2972     4.0338     3.3518     4.0431       0.9960     0.9979      0";
         "13           0.9991     3.5211     4.1050     3.5756     4.3982       0.9942     0.9980      0";
         "14           0.9994     3.8797     5.0232     3.9531     4.7131       0.9971     0.9985      0";
         "15           0.9991     3.9532     4.0111     4.1328     5.3678       0.9952     0.9979      0";
         "";
       ])

(* aa sweep fig1a --trials 20: the uniform distribution
   (md5 8494013ecdcde9ce6c787d2772f194da). *)
let fig1a_trials20 =
  String.concat ""
    (List.map
       (fun l -> l ^ "\n")
       [
         "# fig1a — uniform distribution, ratio vs beta";
         "# ratios are Algo2 utility / comparator utility (mean over trials)";
         "beta          vs_SO      vs_UU      vs_UR      vs_RU      vs_RR  worst_vs_SO   Algo1_SO   viol";
         "1            1.0000     1.0000     1.0000     1.3947     1.3724       1.0000     1.0000      0";
         "2            0.9978     1.1374     1.2484     1.3269     1.4242       0.9941     0.9966      0";
         "3            0.9986     1.1469     1.3003     1.2140     1.3454       0.9961     0.9989      0";
         "4            0.9993     1.1975     1.3112     1.2778     1.3458       0.9982     0.9993      0";
         "5            0.9996     1.2007     1.2908     1.2466     1.3333       0.9991     0.9995      0";
         "6            0.9996     1.2208     1.3160     1.2397     1.3086       0.9990     0.9995      0";
         "7            0.9996     1.2567     1.3042     1.2559     1.3355       0.9986     0.9996      0";
         "8            0.9998     1.2616     1.3259     1.2792     1.3290       0.9992     0.9998      0";
         "9            0.9998     1.2859     1.3364     1.2900     1.3353       0.9995     0.9998      0";
         "10           0.9998     1.2900     1.3164     1.2930     1.3381       0.9995     0.9999      0";
         "11           0.9998     1.2924     1.3295     1.2915     1.3376       0.9994     0.9999      0";
         "12           0.9999     1.3179     1.3525     1.3139     1.3611       0.9996     0.9999      0";
         "13           0.9999     1.3163     1.3551     1.3219     1.3702       0.9997     0.9999      0";
         "14           0.9999     1.3423     1.3856     1.3421     1.3682       0.9997     0.9999      0";
         "15           0.9999     1.3513     1.3743     1.3498     1.3690       0.9998     0.9999      0";
         "";
       ])

(* aa sweep fig1b --trials 20: the normal distribution
   (md5 7b9aee53210c1617334430fede3dd1ed). *)
let fig1b_trials20 =
  String.concat ""
    (List.map
       (fun l -> l ^ "\n")
       [
         "# fig1b — normal(1,1) distribution, ratio vs beta";
         "# ratios are Algo2 utility / comparator utility (mean over trials)";
         "beta          vs_SO      vs_UU      vs_UR      vs_RU      vs_RR  worst_vs_SO   Algo1_SO   viol";
         "1            1.0000     1.0000     1.0000     1.3407     1.4914       1.0000     1.0000      0";
         "2            0.9972     1.1279     1.2013     1.3630     1.4637       0.9936     0.9957      0";
         "3            0.9988     1.1690     1.2947     1.2993     1.4168       0.9966     0.9980      0";
         "4            0.9991     1.2107     1.3095     1.2756     1.4033       0.9961     0.9987      0";
         "5            0.9994     1.2778     1.3555     1.3173     1.4091       0.9987     0.9994      0";
         "6            0.9997     1.2872     1.3542     1.3070     1.3886       0.9992     0.9995      0";
         "7            0.9997     1.3338     1.3686     1.3450     1.4442       0.9988     0.9995      0";
         "8            0.9997     1.3813     1.4430     1.3991     1.4761       0.9993     0.9995      0";
         "9            0.9997     1.3857     1.4751     1.3912     1.4981       0.9991     0.9997      0";
         "10           0.9998     1.4189     1.4718     1.4238     1.5058       0.9990     0.9996      0";
         "11           0.9998     1.4448     1.4666     1.4499     1.4895       0.9993     0.9997      0";
         "12           0.9998     1.4700     1.5186     1.4766     1.5412       0.9992     0.9997      0";
         "13           0.9997     1.5071     1.5376     1.5107     1.5783       0.9987     0.9997      0";
         "14           0.9999     1.5011     1.5387     1.4930     1.5528       0.9996     0.9997      0";
         "15           0.9998     1.5089     1.5353     1.5156     1.5299       0.9994     0.9998      0";
         "";
       ])

(* aa sweep fig3a --trials 20: the discrete distribution, whose collinear curves collapse to two points
   (md5 d42e459fbb2f58701ea5cc260eb89975). *)
let fig3a_trials20 =
  String.concat ""
    (List.map
       (fun l -> l ^ "\n")
       [
         "# fig3a — discrete (gamma=0.85, theta=5), ratio vs beta";
         "# ratios are Algo2 utility / comparator utility (mean over trials)";
         "beta          vs_SO      vs_UU      vs_UR      vs_RU      vs_RR  worst_vs_SO   Algo1_SO   viol";
         "1            1.0000     1.0000     1.0000     1.4055     1.4123       1.0000     1.0000      0";
         "2            0.9909     1.0840     1.1855     1.2606     1.3729       0.9815     0.9861      0";
         "3            0.9866     1.2365     1.3938     1.2875     1.4892       0.9766     0.9823      0";
         "4            0.9807     1.3883     1.5202     1.4811     1.5459       0.9675     0.9767      0";
         "5            0.9807     1.5763     1.7081     1.6488     1.8024       0.9675     0.9775      0";
         "6            0.9829     1.7538     1.9204     1.8009     1.9058       0.9675     0.9810      0";
         "7            0.9864     1.9480     2.0547     1.9284     2.0814       0.9718     0.9856      0";
         "8            0.9887     2.1062     2.2819     2.1416     2.2817       0.9675     0.9881      0";
         "9            0.9901     2.1524     2.2552     2.1803     2.2404       0.9762     0.9898      0";
         "10           0.9942     2.2023     2.2351     2.2218     2.2571       0.9786     0.9938      0";
         "11           0.9946     2.2323     2.2911     2.2252     2.3286       0.9797     0.9941      0";
         "12           0.9954     2.3814     2.4611     2.3564     2.5329       0.9805     0.9948      0";
         "13           0.9968     2.3249     2.4548     2.3545     2.4874       0.9943     0.9962      0";
         "14           0.9970     2.3924     2.4899     2.3797     2.4372       0.9945     0.9965      0";
         "15           0.9977     2.4370     2.5020     2.4405     2.4295       0.9945     0.9973      0";
         "";
       ])

let test_sweep_runs () =
  let out = run [ "sweep"; "fig3b"; "--trials"; "2" ] in
  if String.length out < 100 then Alcotest.fail "sweep output too short";
  Alcotest.(check string) "aa sweep fig2a --trials 50" fig2a_trials50
    (run [ "sweep"; "fig2a"; "--trials"; "50" ]);
  List.iter
    (fun (fig, expected) ->
      Alcotest.(check string) ("aa sweep " ^ fig ^ " --trials 20") expected
        (run [ "sweep"; fig; "--trials"; "20" ]))
    [ ("fig1a", fig1a_trials20); ("fig1b", fig1b_trials20); ("fig3a", fig3a_trials20) ]

let test_sweep_jobs_flag () =
  let a = run [ "sweep"; "fig3c"; "--trials"; "2"; "--jobs"; "1" ] in
  let b = run [ "sweep"; "fig3c"; "--trials"; "2"; "--jobs"; "2" ] in
  if String.length a < 100 then Alcotest.fail "sweep --jobs output too short";
  Alcotest.(check string) "job count never changes the series" a b

let test_sweep_rejects_bad_jobs () =
  (* zero or garbage pool sizes are CLI errors (typed conv), like
     aa_serve's flag validation — not mid-run crashes *)
  ignore (run ~expect:124 [ "sweep"; "fig3c"; "--trials"; "2"; "--jobs"; "0" ]);
  ignore (run ~expect:124 [ "sweep"; "fig3c"; "--trials"; "2"; "--jobs=-3" ]);
  ignore (run ~expect:124 [ "sweep"; "fig3c"; "--trials"; "2"; "--jobs"; "two" ])

let test_sweep_trace_export () =
  (* tracing must not perturb the numbers: stdout is bit-identical with
     and without --trace, and the trace file is a Chrome-style JSON
     array with events from more than one domain *)
  let plain = run [ "sweep"; "fig3c"; "--trials"; "2"; "--jobs"; "2" ] in
  let traced =
    run
      [ "sweep"; "fig3c"; "--trials"; "2"; "--jobs"; "2"; "--trace"; "sweep_trace.json";
        "--counters" ]
  in
  Alcotest.(check string) "stdout unchanged by --trace" plain traced;
  let err = In_channel.with_open_text "cli_stderr.txt" In_channel.input_all in
  Alcotest.(check bool) "counters on stderr" true (contains err "algo2.solves");
  Alcotest.(check bool) "trace note on stderr" true (contains err "wrote trace:");
  let doc = In_channel.with_open_text "sweep_trace.json" In_channel.input_all in
  Alcotest.(check bool) "trace nonempty" true (String.length doc > 2);
  Alcotest.(check bool) "starts as a JSON array" true (doc.[0] = '[');
  Alcotest.(check bool) "has begin and end events" true
    (contains doc "\"ph\":\"B\"" && contains doc "\"ph\":\"E\"");
  Alcotest.(check bool) "events from a worker domain" true
    (contains doc "\"tid\":1" || contains doc "\"tid\":2" || contains doc "\"tid\":3")

let test_sweep_svg_export () =
  let _ = run [ "sweep"; "fig3c"; "--trials"; "2"; "--svg"; "fig.svg" ] in
  let doc = In_channel.with_open_text "fig.svg" In_channel.input_all in
  Alcotest.(check bool) "svg written" true (contains doc "</svg>")

let () =
  Alcotest.run "cli"
    [
      ( "cli",
        [
          Alcotest.test_case "binary exists" `Quick test_exists;
          Alcotest.test_case "generate/solve/eval" `Quick test_generate_solve_eval;
          Alcotest.test_case "unknown algo" `Quick test_solve_unknown_algo_fails;
          Alcotest.test_case "corrupt solution" `Quick test_eval_rejects_corrupt_solution;
          Alcotest.test_case "all distributions" `Quick test_generate_all_distributions;
          Alcotest.test_case "online subcommand" `Quick test_online_subcommand;
          Alcotest.test_case "figures" `Quick test_figures_lists;
          Alcotest.test_case "sweep" `Quick test_sweep_runs;
          Alcotest.test_case "sweep --jobs" `Quick test_sweep_jobs_flag;
          Alcotest.test_case "sweep bad --jobs" `Quick test_sweep_rejects_bad_jobs;
          Alcotest.test_case "sweep --trace" `Quick test_sweep_trace_export;
          Alcotest.test_case "sweep svg" `Quick test_sweep_svg_export;
        ] );
    ]
