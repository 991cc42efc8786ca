(* One aa_serve child process, driven from outside over a unix socket.

   The daemon runs [--shards 1 --fsync always] with the default
   group-commit window, journal and socket in the run directory. Its
   stdin is a pipe held by the benchmark: closing it is the clean
   shutdown signal, after which the daemon must exit 0. *)

type t = {
  pid : int;
  stdin_w : Unix.file_descr;
  sock : string;
  err_path : string;
  access_log : string option;
  mutable alive : bool;
}

let addr t = Unix.ADDR_UNIX t.sock

let fail fmt = Printf.ksprintf failwith fmt

let spawn ~serve_bin ~journal ~traced ~tag =
  let dir = Proc.run_dir () in
  let sock = Filename.concat dir (tag ^ ".sock") in
  if String.length sock > 100 then fail "socket path %s is too long for a unix socket" sock;
  let err_path = Filename.concat dir (tag ^ ".err") in
  let access_log = if traced then Some (Filename.concat dir (tag ^ ".access.jsonl")) else None in
  let args =
    [ "--listen"; "unix:" ^ sock; "--journal"; journal; "--replay"; "--shards"; "1"; "--fsync"; "always" ]
    @ (match access_log with Some p -> [ "--trace"; "--access-log"; p ] | None -> [])
  in
  (* cloexec: the child must not inherit the write end of its own stdin,
     or closing it here would never deliver EOF *)
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
  let err_fd = Unix.openfile err_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o600 in
  let pid = Unix.create_process serve_bin (Array.of_list (serve_bin :: args)) stdin_r devnull err_fd in
  Proc.register pid;
  Printf.eprintf "perf: spawned aa_serve pid %d (%s)\n%!" pid tag;
  Unix.close stdin_r;
  Unix.close devnull;
  Unix.close err_fd;
  { pid; stdin_w; sock; err_path; access_log; alive = true }

let stderr_text t = try Proc.read_file t.err_path with Sys_error _ -> ""

let connect t =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_close_on_exec fd;
  (match Unix.connect fd (addr t) with
  | () -> ()
  | exception e ->
      Unix.close fd;
      raise e);
  fd

(* Poll until the daemon accepts a connection (replay runs first), for
   at most [timeout_s]. *)
let connect_when_ready ~timeout_s t =
  let deadline = Proc.now_s () +. timeout_s in
  let rec go () =
    (match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ -> ()
    | _ ->
        t.alive <- false;
        Proc.unregister t.pid;
        fail "aa_serve exited during start-up: %s" (stderr_text t));
    match connect t with
    | fd -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        if Proc.now_s () > deadline then fail "aa_serve did not listen within %.0f s" timeout_s;
        Unix.sleepf 0.002;
        go ()
  in
  go ()

(* One framed request, one framed reply, blocking. *)
let roundtrip fd reader line =
  Aa_net.Frame.write_all fd (Aa_net.Frame.encode line);
  match Aa_net.Frame.read_msg reader with
  | Some (Ok m) -> m.payload
  | Some (Error e) -> fail "bad reply to %S: %s" line e
  | None -> fail "connection closed before the reply to %S" line

(* A one-shot HTTP GET on the protocol port (the ops surface); returns
   the body. *)
let http_get t target =
  let fd = connect t in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Aa_net.Frame.write_all fd (Printf.sprintf "GET %s HTTP/1.1\r\nHost: aa\r\n\r\n" target);
      let b = Buffer.create 8192 and chunk = Bytes.create 8192 in
      let rec drain () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes b chunk 0 n;
            drain ()
      in
      drain ();
      let s = Buffer.contents b in
      let rec body i =
        if i + 4 > String.length s then ""
        else if String.sub s i 4 = "\r\n\r\n" then String.sub s (i + 4) (String.length s - i - 4)
        else body (i + 1)
      in
      body 0)

let cpu_s t = Proc.proc_cpu_s t.pid
let peak_rss_mb t = Proc.vm_hwm_mb (string_of_int t.pid)

(* Close stdin and require a clean exit 0. *)
let stop t =
  if t.alive then begin
    t.alive <- false;
    (try Unix.close t.stdin_w with Unix.Unix_error _ -> ());
    let st = Proc.wait_exit ~timeout_s:30.0 t.pid in
    Proc.unregister t.pid;
    match st with
    | Some (Unix.WEXITED 0) -> ()
    | Some (Unix.WEXITED c) -> fail "aa_serve exited %d: %s" c (stderr_text t)
    | Some (Unix.WSIGNALED s | Unix.WSTOPPED s) -> fail "aa_serve killed by signal %d" s
    | None ->
        Proc.kill_and_reap t.pid;
        fail "aa_serve did not exit within 30 s of stdin closing"
  end

(* The STATS reply as key=value pairs. *)
let stats_kv payload =
  String.split_on_char ' ' payload
  |> List.filter_map (fun tok ->
         match String.index_opt tok '=' with
         | Some i -> Some (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1))
         | None -> None)

(* Value of [name] in a Prometheus text exposition. *)
let prom_value body name =
  String.split_on_char '\n' body
  |> List.find_map (fun l ->
         match String.split_on_char ' ' l with
         | [ k; v ] when k = name -> float_of_string_opt v
         | _ -> None)
