(* `main.exe smoke`: every workload at tiny sizes, untraced and traced,
   as separate processes. Fails if a run exits non-zero, trips a
   correctness gate, or prints a workload, metric or unit that differs
   from BENCHMARK.json; then fails a run on purpose with a daemon up and
   checks that neither the daemon nor its run directory outlives it. *)

let fail_list = ref []
let check ok fmt = Printf.ksprintf (fun m -> if not ok then fail_list := m :: !fail_list) fmt

let entries b key =
  List.filter_map
    (fun e ->
      match Option.bind (Json.member "name" e) Json.to_str with
      | Some n -> Some (n, Option.bind (Json.member "unit" e) Json.to_str)
      | None -> None)
    (Option.fold ~none:[] ~some:Json.to_list (Json.member key b))

let run_exe ~exe ~env ~dir args =
  let out = Filename.concat dir "stdout" and err = Filename.concat dir "stderr" in
  let open_w p = Unix.openfile p [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let ofd = open_w out and efd = open_w err in
  let pid = Unix.create_process_env exe (Array.of_list (exe :: args)) env Unix.stdin ofd efd in
  Unix.close ofd;
  Unix.close efd;
  let code =
    match Proc.wait_exit ~timeout_s:60.0 pid with
    | Some (Unix.WEXITED c) -> c
    | Some _ -> -1
    | None ->
        Proc.kill_and_reap pid;
        -2
  in
  (code, Proc.read_file out, Proc.read_file err)

let last_line s =
  match List.rev (List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' s)) with
  | l :: _ -> l
  | [] -> ""

let sorted l = List.sort compare l

let run ~exe ~bench ~serve_bin =
  let t0 = Proc.now_s () in
  let b = Json.parse (Json.read_file bench) in
  let dir = Filename.concat (Sys.getcwd ()) "perf-smoke-out" in
  Proc.rm_rf dir;
  Proc.mkdir_p dir;
  let env = Array.append [| "AA_PERF_OUT=" ^ dir |] (Unix.environment ()) in
  let run args = run_exe ~exe ~env ~dir args in
  let workloads = List.map fst (entries b "workloads") in
  let code, listed, _ = run [ "--list" ] in
  check (code = 0) "--list exited %d" code;
  let listed = List.filter (( <> ) "") (String.split_on_char '\n' listed) in
  check (sorted listed = sorted workloads) "workloads: program has [%s], BENCHMARK.json has [%s]"
    (String.concat " " listed) (String.concat " " workloads);
  let no_run_dirs () =
    Array.for_all (fun e -> not (String.length e > 4 && String.sub e 0 4 = "run-")) (Sys.readdir dir)
  in
  List.iter
    (fun w ->
      List.iter
        (fun (trace, key) ->
          let code, out, err =
            run [ "--workload"; w; "--seed"; "1"; "--seconds"; "1"; "--trace"; trace; "--smoke"; "--serve"; serve_bin ]
          in
          let what = Printf.sprintf "%s --trace %s" w trace in
          check (code = 0) "%s exited %d: %s" what code (last_line err);
          match Json.parse_opt (last_line out) with
          | Some (Json.Obj kvs as j) ->
              check
                (sorted (List.map fst kvs) = sorted [ "correct"; "attempted"; "failed"; "metrics" ])
                "%s: result keys [%s]" what (String.concat " " (List.map fst kvs));
              check (Json.member "correct" j = Some (Json.Bool true)) "%s: not correct" what;
              check
                (match Option.bind (Json.member "attempted" j) Json.to_num with Some a -> a >= 1.0 | None -> false)
                "%s: attempted < 1" what;
              let printed =
                match Json.member "metrics" j with
                | Some (Json.Obj ms) ->
                    List.map (fun (n, v) -> (n, Option.bind (Json.member "unit" v) Json.to_str)) ms
                | _ -> []
              in
              let want = entries b key in
              List.iter
                (fun (n, u) ->
                  match List.assoc_opt n printed with
                  | None -> check false "%s: metric %s missing" what n
                  | Some pu -> check (pu = u && u <> None) "%s: %s has unit %s, BENCHMARK.json says %s" what n
                                 (Option.value pu ~default:"(none)") (Option.value u ~default:"(none)"))
                want;
              List.iter
                (fun (n, _) -> check (List.mem_assoc n want) "%s: metric %s not in BENCHMARK.json %s" what n key)
                printed
          | _ -> check false "%s: last stdout line is not a JSON object" what)
        [ ("0", "end_to_end"); ("1", "per_layer") ])
    workloads;
  check (no_run_dirs ()) "a run directory was left behind";
  (* a run that fails while its daemon is up *)
  let code, out, err =
    run [ "--workload"; "daemon-churn"; "--seed"; "1"; "--smoke"; "--serve"; serve_bin; "--inject-failure" ]
  in
  check (code <> 0) "the injected failure exited 0";
  check (Json.parse_opt (last_line out) = None) "the injected failure printed a result";
  let pids =
    String.split_on_char '\n' err
    |> List.filter_map (fun l -> try Scanf.sscanf l "perf: spawned aa_serve pid %d" Option.some with _ -> None)
  in
  check (pids <> []) "the injected failure spawned no daemon";
  List.iter
    (fun pid ->
      check
        (match Unix.kill pid 0 with () -> false | exception Unix.Unix_error (Unix.ESRCH, _, _) -> true)
        "aa_serve pid %d outlived the failed run" pid)
    pids;
  check (no_run_dirs ()) "the failed run left its run directory behind";
  Proc.rm_rf dir;
  let dt = Proc.now_s () -. t0 in
  match List.rev !fail_list with
  | [] -> Printf.printf "perf smoke: %d workloads x 2 modes ok, cleanup ok (%.1f s)\n" (List.length workloads) dt
  | fs ->
      List.iter (fun m -> Printf.printf "perf smoke: FAIL %s\n" m) fs;
      exit 1
