(* Run hygiene and process measurements.

   Everything a run writes goes under the output directory: [perf/out]
   relative to the working directory, or [$AA_PERF_OUT]. Temporary
   journals, sockets and logs live in a private [run-<pid>] directory
   inside it, which is removed when the process exits, also on failure.
   Every child process is registered on spawn; on exit any child still
   registered is killed and reaped, so an error can never leave an
   orphaned daemon behind. *)

let now_s () = Aa_obs.Clock.now_s ()
let now_ns () = Aa_obs.Clock.now_ns ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.is_directory dir -> ()
  end

let rec rm_rf path =
  match (Unix.lstat path).st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let out_dir () =
  let d = Option.value (Sys.getenv_opt "AA_PERF_OUT") ~default:(Filename.concat "perf" "out") in
  mkdir_p d;
  d

let children : (int, unit) Hashtbl.t = Hashtbl.create 4
let run_dir_path = ref None

let run_dir () =
  match !run_dir_path with
  | Some d -> d
  | None ->
      let d = Filename.concat (out_dir ()) (Printf.sprintf "run-%d" (Unix.getpid ())) in
      rm_rf d;
      mkdir_p d;
      run_dir_path := Some d;
      d

let register pid = Hashtbl.replace children pid ()
let unregister pid = Hashtbl.remove children pid

let kill_and_reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let cleanup () =
  Hashtbl.iter (fun pid _ -> kill_and_reap pid) children;
  Hashtbl.reset children;
  Option.iter (fun d -> try rm_rf d with Unix.Unix_error _ | Sys_error _ -> ()) !run_dir_path;
  run_dir_path := None

let install () =
  (* a daemon that dies mid-write must surface as EPIPE, not kill us *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit cleanup;
  let on_signal s = Sys.Signal_handle (fun _ -> exit (128 + s)) in
  Sys.set_signal Sys.sigint (on_signal 2);
  Sys.set_signal Sys.sigterm (on_signal 15)

(* Wait for [pid] to exit, polling, for at most [timeout_s]. *)
let wait_exit ~timeout_s pid =
  let deadline = now_s () +. timeout_s in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now_s () > deadline -> None
    | 0, _ ->
        Unix.sleepf 0.005;
        go ()
    | _, st -> Some st
  in
  go ()

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* utime + stime of a live process, in seconds. /proc reports clock
   ticks, which Linux fixes at 100 per second for this interface. *)
let proc_cpu_s pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* fields after the parenthesised command name, which may hold spaces *)
  let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (* rest starts at field 3 (state); utime and stime are fields 14, 15 *)
  (float_of_string f.(11) +. float_of_string f.(12)) /. 100.0

(* Peak resident set size (VmHWM) in MiB of the live process named by
   its /proc entry: a pid, or "self". *)
let vm_hwm_mb entry =
  let s = read_file (Printf.sprintf "/proc/%s/status" entry) in
  let line =
    List.find (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:") (String.split_on_char '\n' s)
  in
  let kb = Scanf.sscanf line "VmHWM: %d kB" Fun.id in
  float_of_int kb /. 1024.0

let self_cpu_s () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime

(* The filesystem type holding [dir], from the longest matching mount
   point: sandbox filesystems often make fsync nearly free, which
   changes what the journal numbers mean. *)
let fs_type dir =
  try
    let real = Unix.realpath dir in
    let best = ref ("?", -1) in
    String.split_on_char '\n' (read_file "/proc/mounts")
    |> List.iter (fun l ->
           match String.split_on_char ' ' l with
           | _ :: mnt :: ty :: _ ->
               let n = String.length mnt in
               let prefix =
                 mnt = "/" || (String.length real >= n && String.sub real 0 n = mnt
                              && (String.length real = n || real.[n] = '/'))
               in
               if prefix && n > snd !best then best := (ty, n)
           | _ -> ());
    fst !best
  with Unix.Unix_error _ | Sys_error _ | Not_found -> "?"
