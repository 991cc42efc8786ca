(* aa — command-line front end: generate random AA instances, solve them
   with the paper's algorithms or baselines, and rerun the paper's
   experiment sweeps. *)

open Cmdliner
open Aa_numerics
open Aa_core
open Aa_workload

let read_instance path =
  match Aa_io.Format_text.load_instance path with
  | Ok inst -> inst
  | Error e ->
      Printf.eprintf "error: %s\n" e;
      exit 1

let write_output out contents =
  match out with
  | None -> print_string contents
  | Some path -> (
      match Aa_io.Format_text.save path contents with
      | Ok () -> ()
      | Error e ->
          Printf.eprintf "error: %s\n" e;
          exit 1)

(* ---- common options ---- *)

let seed_t =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let output_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write to $(docv) instead of stdout.")

(* ---- observability options ---- *)

let trace_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Enable span tracing and write a Chrome trace (JSON array, loadable in \
           Perfetto or chrome://tracing) to $(docv). Numeric output is unchanged.")

let counters_t =
  Arg.(
    value & flag
    & info [ "counters" ]
        ~doc:"Enable solver/pool counters and dump their totals to stderr on exit.")

(* Obs output goes to stderr and the trace file only, never stdout: the
   assignment/series output must stay byte-identical with and without
   instrumentation (the CLI e2e test pins this). *)
let with_obs ~trace ~counters f =
  if trace <> None || counters then Aa_obs.Control.set_enabled true;
  let r = f () in
  (match trace with
  | None -> ()
  | Some path -> (
      match Aa_io.Format_text.save path (Aa_obs.Trace.to_chrome_json ()) with
      | Ok () ->
          Format.eprintf "wrote trace: %s (%d events)@." path
            (Aa_obs.Trace.n_events ())
      | Error e ->
          Printf.eprintf "error: %s\n" e;
          exit 1));
  if counters then
    List.iter
      (fun (k, v) -> Printf.eprintf "%s %s\n" k v)
      (Aa_obs.Registry.dump ());
  r

(* ---- generate ---- *)

let distribution_t =
  let dist =
    Arg.(
      value
      & opt (enum [ ("uniform", `U); ("normal", `N); ("powerlaw", `P); ("discrete", `D) ]) `U
      & info [ "dist" ] ~docv:"DIST"
          ~doc:"Utility distribution: uniform, normal, powerlaw or discrete.")
  in
  let alpha =
    Arg.(value & opt float 2.0 & info [ "alpha" ] ~doc:"Power-law exponent.")
  in
  let gamma =
    Arg.(
      value & opt float 0.85 & info [ "gamma" ] ~doc:"Discrete: probability of the low value.")
  in
  let theta =
    Arg.(value & opt float 5.0 & info [ "theta" ] ~doc:"Discrete: high/low value ratio.")
  in
  let mu = Arg.(value & opt float 1.0 & info [ "mu" ] ~doc:"Normal: mean.") in
  let sigma =
    Arg.(value & opt float 1.0 & info [ "sigma" ] ~doc:"Normal: standard deviation.")
  in
  let make d alpha gamma theta mu sigma =
    match d with
    | `U -> Gen.Uniform
    | `N -> Gen.Normal { mu; sigma }
    | `P -> Gen.Power_law { alpha }
    | `D -> Gen.Discrete { gamma; theta }
  in
  Term.(const make $ dist $ alpha $ gamma $ theta $ mu $ sigma)

let generate_cmd =
  let servers =
    Arg.(value & opt int 8 & info [ "m"; "servers" ] ~doc:"Number of servers.")
  in
  let capacity =
    Arg.(value & opt float 1000.0 & info [ "C"; "capacity" ] ~doc:"Resource per server.")
  in
  let threads =
    Arg.(value & opt int 40 & info [ "n"; "threads" ] ~doc:"Number of threads.")
  in
  let run dist servers capacity threads seed out =
    let rng = Rng.create ~seed () in
    let inst = Gen.instance rng ~servers ~capacity ~threads dist in
    write_output out (Aa_io.Format_text.print_instance inst)
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a random AA instance (paper §VII workloads).")
    Term.(const run $ distribution_t $ servers $ capacity $ threads $ seed_t $ output_t)

(* ---- solve ---- *)

let solve_cmd =
  let algo_conv =
    let parse s =
      match Solver.of_name s with
      | Some a -> Ok (`Algo a)
      | None -> (
          match String.lowercase_ascii s with
          | "exact" -> Ok `Exact
          | "online" -> Ok `Online
          | "ls" -> Ok `Local_search
          | _ -> Error (`Msg (Printf.sprintf "unknown algorithm %S" s)))
    in
    let print ppf = function
      | `Algo a -> Format.pp_print_string ppf (Solver.name a)
      | `Exact -> Format.pp_print_string ppf "exact"
      | `Online -> Format.pp_print_string ppf "online"
      | `Local_search -> Format.pp_print_string ppf "ls"
    in
    Arg.conv (parse, print)
  in
  let algo =
    Arg.(
      value
      & opt algo_conv (`Algo Solver.Algo2)
      & info [ "algo" ] ~docv:"ALGO"
          ~doc:
            "One of algo1, algo2, uu, ur, ru, rr, online (threads admitted in file order), \
             ls (algo2 + refill + local search), exact (exponential; small n only).")
  in
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"INSTANCE" ~doc:"Instance file.")
  in
  let run algo refine coarsen_eps file seed out trace counters =
    with_obs ~trace ~counters @@ fun () ->
    let inst = read_instance file in
    let rng = Rng.create ~seed () in
    (* Optionally solve a certified eps-coarsened copy (each utility's
       PLC with near-collinear breakpoints dropped); the result is then
       checked and certified against the ORIGINAL instance, so the
       printed ratio reflects any coarsening loss honestly. *)
    let work_inst =
      if coarsen_eps > 0.0 then
        Instance.create ~servers:inst.servers ~capacity:inst.capacity
          (Array.map
             (fun u ->
               Aa_utility.Utility.of_plc
                 (Aa_utility.Plc.coarsen ~eps:coarsen_eps (Aa_utility.Utility.to_plc u)))
             inst.utilities)
      else inst
    in
    (* Without coarsening, Algorithms 1 and 2 and the certificate share
       one pooled solve: the Superopt inside [Linearized.make]. *)
    let linearized =
      if coarsen_eps > 0.0 then None
      else
        match algo with
        | `Algo (Solver.Algo1 | Solver.Algo2) | `Local_search -> Some (Linearized.make inst)
        | `Algo _ | `Exact | `Online -> None
    in
    let assignment, label =
      match algo with
      | `Algo a -> (Solver.solve ~rng ?linearized a work_inst, Solver.name a)
      | `Exact -> ((Exact.solve work_inst).assignment, "exact")
      | `Online ->
          (* threads are admitted in file order, placed without migration *)
          ( Online.solve_sequence ~servers:work_inst.servers ~capacity:work_inst.capacity
              work_inst.utilities,
            "online" )
      | `Local_search ->
          let a = Refine.per_server work_inst (Algo2.solve ?linearized work_inst) in
          (fst (Local_search.improve work_inst a), "algo2+refill+local-search")
    in
    let assignment =
      if refine then Refine.per_server work_inst assignment else assignment
    in
    (match Assignment.check inst assignment with
    | Ok () -> ()
    | Error e ->
        Printf.eprintf "internal error: infeasible assignment: %s\n" e;
        exit 2);
    let so =
      match linearized with
      | Some (lin : Linearized.t) -> lin.superopt
      | None -> Superopt.compute inst
    in
    let cert = Bounds.certify inst so assignment in
    Format.eprintf "%s utility: %.6g (upper bound %.6g, ratio %.4f)@." label cert.achieved
      cert.superopt cert.ratio;
    write_output out (Aa_io.Format_text.print_assignment assignment)
  in
  let refine =
    Arg.(
      value & flag
      & info [ "refine" ]
          ~doc:"Re-divide each server's capacity optimally after assignment (never hurts).")
  in
  let coarsen_eps =
    Arg.(
      value & opt float 0.0
      & info [ "coarsen" ] ~docv:"EPS"
          ~doc:
            "Solve an eps-coarsened copy of the instance: drop PLC breakpoints whose \
             removal changes any utility by at most $(docv) (certified pointwise bound). \
             The assignment is still checked and certified against the original \
             instance. 0 disables coarsening.")
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Solve an AA instance; assignment goes to stdout/-o, summary to stderr.")
    Term.(const run $ algo $ refine $ coarsen_eps $ file $ seed_t $ output_t $ trace_t $ counters_t)

(* ---- online ---- *)

let online_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"INSTANCE" ~doc:"Instance file.")
  in
  let run file out =
    let inst = read_instance file in
    let assignment =
      Online.solve_sequence ~servers:inst.servers ~capacity:inst.capacity inst.utilities
    in
    (match Assignment.check inst assignment with
    | Ok () -> ()
    | Error e ->
        Printf.eprintf "internal error: infeasible assignment: %s\n" e;
        exit 2);
    let online_u = Assignment.utility inst assignment in
    let offline_u = Assignment.utility inst (Algo2.solve inst) in
    let gap = if offline_u > 0.0 then online_u /. offline_u else 1.0 in
    Format.eprintf
      "online utility: %.6g   offline algo2: %.6g   gap (online/algo2): %.4f@." online_u
      offline_u gap;
    write_output out (Aa_io.Format_text.print_assignment assignment)
  in
  Cmd.v
    (Cmd.info "online"
       ~doc:
         "Admit threads one at a time in file order (no migration, intra-server \
          re-allocation only) and report the gap to offline Algorithm 2.")
    Term.(const run $ file $ output_t)

(* ---- eval ---- *)

let eval_cmd =
  let inst_file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"INSTANCE" ~doc:"Instance file.")
  in
  let sol_file =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"SOLUTION" ~doc:"Assignment file.")
  in
  let run inst_file sol_file =
    let inst = read_instance inst_file in
    match
      In_channel.with_open_text sol_file In_channel.input_all
      |> Aa_io.Format_text.parse_assignment
    with
    | Error e ->
        Printf.eprintf "error: %s\n" e;
        exit 1
    | Ok assignment -> (
        match Assignment.check inst assignment with
        | Error e ->
            Printf.printf "INFEASIBLE: %s\n" e;
            exit 1
        | Ok () ->
            let so = Superopt.compute inst in
            let cert = Bounds.certify inst so assignment in
            Format.printf "feasible; utility %.6g, upper bound %.6g, ratio %.4f@."
              cert.achieved cert.superopt cert.ratio)
  in
  Cmd.v
    (Cmd.info "eval" ~doc:"Check feasibility and score a saved assignment.")
    Term.(const run $ inst_file $ sol_file)

(* ---- sweep / figures ---- *)

(* Pool size for experiment-driving commands. Typed validation at parse
   time: a zero or negative count is a CLI error (exit 124), matching
   aa_serve's up-front flag validation rather than a mid-run crash. *)
let jobs_conv =
  let parse s =
    match int_of_string_opt (String.trim s) with
    | Some j when j >= 1 -> Ok j
    | Some j -> Error (`Msg (Printf.sprintf "JOBS must be >= 1, got %d" j))
    | None -> Error (`Msg (Printf.sprintf "JOBS must be a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let jobs_t =
  Arg.(
    value
    & opt (some jobs_conv) None
    & info [ "j"; "jobs" ] ~docv:"JOBS"
        ~doc:
          "Domain-pool size for the sweep (default: $(b,AA_JOBS) or the runtime's \
           recommended domain count). Results are bit-identical for every value.")

let sweep_cmd =
  let figure =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FIGURE" ~doc:"Figure id (fig1a fig1b fig2a fig2b fig3a fig3b fig3c).")
  in
  let trials =
    Arg.(value & opt int 1000 & info [ "trials" ] ~doc:"Random trials per sweep point.")
  in
  let svg_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "svg" ] ~docv:"FILE" ~doc:"Also render the series as an SVG figure.")
  in
  let run figure trials seed jobs svg trace counters =
    with_obs ~trace ~counters @@ fun () ->
    match Aa_experiments.Figures.find figure with
    | None ->
        Printf.eprintf "unknown figure %S; try the 'figures' command\n" figure;
        exit 1
    | Some spec -> (
        let series = spec.run ?jobs ~trials ~seed () in
        Format.printf "%a@." Aa_experiments.Run.pp_series series;
        match svg with
        | None -> ()
        | Some path -> (
            let doc = Aa_experiments.Svg.render (Aa_experiments.Svg.of_series series) in
            match Aa_io.Format_text.save path doc with
            | Ok () -> Format.eprintf "wrote %s@." path
            | Error e ->
                Printf.eprintf "error: %s\n" e;
                exit 1))
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Rerun one of the paper's experiment sweeps.")
    Term.(const run $ figure $ trials $ seed_t $ jobs_t $ svg_out $ trace_t $ counters_t)

let figures_cmd =
  let run () =
    List.iter
      (fun (s : Aa_experiments.Figures.spec) ->
        Format.printf "%-7s %-12s %s@." s.id s.paper s.description)
      Aa_experiments.Figures.all
  in
  Cmd.v (Cmd.info "figures" ~doc:"List the reproducible paper figures.") Term.(const run $ const ())

let main_cmd =
  let doc = "utility-maximizing thread assignment and resource allocation (IPDPS 2016)" in
  Cmd.group (Cmd.info "aa" ~version:"1.0.0" ~doc)
    [ generate_cmd; solve_cmd; online_cmd; eval_cmd; sweep_cmd; figures_cmd ]

let () = exit (Cmd.eval main_cmd)
