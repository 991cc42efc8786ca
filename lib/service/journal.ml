open Aa_utility
module Failpoint = Aa_fault.Failpoint

let ( let* ) = Result.bind

type entry =
  | Admit of Utility.t
  | Depart of int
  | Update of int * Utility.t
  | Place of { id : int; server : int; active : bool; u : Utility.t }

type header = { servers : int; capacity : float }
type fsync_policy = Always | Interval of float | Never

type t = {
  path : string;
  header : header;
  fsync : fsync_policy;
  mutable oc : Out_channel.t;
  mutable good_pos : int;
      (* byte offset just past the last fully durable entry; anything
         beyond it is a torn/failed append awaiting [repair_tail] *)
  mutable dirty_tail : bool;
  mutable last_sync : float; (* Clock.now_s of the last fsync (Interval) *)
  mutable group : Buffer.t option;
      (* open group-commit batch: framed lines accumulate here instead
         of the file; [commit_group] lands them in one write + fsync *)
  mutable fsyncs : int; (* data-file fsync syscalls issued via this handle *)
}

(* Failpoints of the storage layer, registered at module init so the
   recovery sweep in test_fault.ml enumerates them via
   [Failpoint.registered]. Unarmed cost: one atomic load per site. *)
let fp_sys = Failpoint.register "journal.sys"
let fp_append = Failpoint.register "journal.append"
let fp_append_torn = Failpoint.register "journal.append.torn"
let fp_rewrite = Failpoint.register "journal.rewrite"
let fp_compact = Failpoint.register "journal.compact"

(* Crash sites of the group-commit window, both [crash]-style (the
   process dies, unlike the error-style points above): [.append] tears
   the batch write itself in half, [.fsync] kills the process after the
   batch is fully written but before it is synced. *)
let fp_group_append = Failpoint.register "journal.group.append"
let fp_group_fsync = Failpoint.register "journal.group.fsync"

let magic = "aa-journal 2"

let header_line h =
  Printf.sprintf "%s servers %d capacity %.17g" magic h.servers h.capacity

let print_entry = function
  | Admit u -> "admit " ^ Aa_io.Format_text.print_thread_spec u
  | Depart i -> Printf.sprintf "depart %d" i
  | Update (i, u) ->
      Printf.sprintf "update %d %s" i (Aa_io.Format_text.print_thread_spec u)
  | Place { id; server; active; u } ->
      Printf.sprintf "place %d %d %s %s" id server
        (if active then "active" else "departed")
        (Aa_io.Format_text.print_thread_spec u)

(* v2 framing: [<len> <crc32> <payload>] — length and CRC of the payload
   text. A torn tail that still tokenizes as a valid entry (the v1
   hazard: "depart 12" losing its last byte reads as "depart 1") cannot
   pass both checks. *)
let frame_entry e =
  let payload = print_entry e in
  Printf.sprintf "%d %s %s" (String.length payload) (Crc32.string payload |> Crc32.to_hex) payload

let parse_entry ~cap line =
  let spec_of toks k =
    match Aa_io.Format_text.parse_thread_spec ~cap (String.concat " " toks) with
    | Ok u -> k u
    | Error e -> Error e
  in
  let int_of what tok k =
    match int_of_string_opt tok with
    | Some i -> k i
    | None -> Error (Printf.sprintf "%s: %S is not an integer" what tok)
  in
  match Protocol.tokens line with
  | [] -> Ok None
  | "admit" :: (_ :: _ as toks) -> spec_of toks (fun u -> Ok (Some (Admit u)))
  | [ "depart"; tok ] -> int_of "depart" tok (fun i -> Ok (Some (Depart i)))
  | "update" :: tok :: (_ :: _ as toks) ->
      int_of "update" tok (fun i ->
          spec_of toks (fun u -> Ok (Some (Update (i, u)))))
  | "place" :: id :: server :: status :: (_ :: _ as toks) ->
      int_of "place id" id (fun id ->
          int_of "place server" server (fun server ->
              match status with
              | "active" ->
                  spec_of toks (fun u ->
                      Ok (Some (Place { id; server; active = true; u })))
              | "departed" ->
                  spec_of toks (fun u ->
                      Ok (Some (Place { id; server; active = false; u })))
              | s -> Error (Printf.sprintf "place: bad status %S" s)))
  | verb :: _ -> Error ("unknown journal entry: " ^ verb)

(* Unframe one v2 line: [Ok None] for blank/comment lines, [Error] when
   the framing (length or CRC) does not check out. The caller decides
   whether a framing error is a droppable torn tail (final line) or
   hard corruption (anywhere else). *)
let unframe line =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let is_blank =
    let rec go i =
      i >= String.length line || ((line.[i] = ' ' || line.[i] = '\t') && go (i + 1))
    in
    go 0
  in
  if is_blank then Ok None
  else if line.[0] = '#' then Ok None
  else
    match String.index_opt line ' ' with
    | None -> fail "unframed journal line"
    | Some i -> (
        match int_of_string_opt (String.sub line 0 i) with
        | None -> fail "bad length prefix %S" (String.sub line 0 i)
        | Some len -> (
            match String.index_from_opt line (i + 1) ' ' with
            | None -> fail "missing crc field"
            | Some j ->
                let crc_hex = String.sub line (i + 1) (j - i - 1) in
                let payload = String.sub line (j + 1) (String.length line - j - 1) in
                if String.length payload <> len then
                  fail "length mismatch: frame says %d bytes, line has %d" len
                    (String.length payload)
                else if not (String.equal (Crc32.to_hex (Crc32.string payload)) crc_hex)
                then fail "crc mismatch (torn or corrupt entry)"
                else Ok (Some payload)))

let parse_header line =
  match Protocol.tokens line with
  | [ "aa-journal"; "2"; "servers"; m; "capacity"; c ] -> (
      match (int_of_string_opt m, float_of_string_opt c) with
      | Some servers, Some capacity when servers >= 1 && capacity > 0.0 ->
          Ok { servers; capacity }
      | _, _ -> Error "malformed journal header")
  | "aa-journal" :: v :: _ when v <> "2" ->
      Error (Printf.sprintf "unsupported journal version %S (this build reads version 2)" v)
  | _ -> Error "not an aa journal (bad header line)"

(* Convert a spontaneous [Unix_error] (fsync, ftruncate, directory
   opens) into the [Sys_error] that [sys_guard] reports, so every
   storage failure surfaces through one channel. *)
let unix_to_sys f =
  try f ()
  with Unix.Unix_error (e, fn, arg) ->
    let what = if arg = "" then fn else fn ^ " " ^ arg in
    raise (Sys_error (what ^ ": " ^ Unix.error_message e))

let sys_guard f =
  if Failpoint.fire fp_sys then Error "injected fault: journal.sys"
  else match f () with v -> Ok v | exception Sys_error e -> Error e

let fsync_oc oc =
  unix_to_sys (fun () ->
      Out_channel.flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc))

(* Durability of [rename] itself: fsync the parent directory so the new
   directory entry survives a power cut. Some filesystems refuse
   directory fds; that is a capability miss, not a write failure. *)
let fsync_dir path =
  let dir = Filename.dirname path in
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let maybe_sync t =
  match t.fsync with
  | Never -> ()
  | Always ->
      fsync_oc t.oc;
      t.fsyncs <- t.fsyncs + 1
  | Interval s ->
      let now = Aa_obs.Clock.now_s () in
      if now -. t.last_sync >= s then begin
        fsync_oc t.oc;
        t.fsyncs <- t.fsyncs + 1;
        t.last_sync <- now
      end

let file_size path = match Unix.stat path with
  | st -> st.Unix.st_size
  | exception Unix.Unix_error _ -> 0

let create ?(fsync = Always) ~path ~servers ~capacity () =
  if Sys.file_exists path && file_size path > 0 then
    Error
      (Printf.sprintf
         "%s: journal already exists; pass --replay to recover it (refusing \
          to overwrite a journal)"
         path)
  else
    let header = { servers; capacity } in
    sys_guard (fun () ->
        let oc =
          Out_channel.open_gen
            [ Open_wronly; Open_creat; Open_trunc; Open_text ]
            0o644 path
        in
        let hline = header_line header ^ "\n" in
        Out_channel.output_string oc hline;
        Out_channel.flush oc;
        if fsync = Always then fsync_oc oc;
        {
          path;
          header;
          fsync;
          oc;
          good_pos = String.length hline;
          dirty_tail = false;
          last_sync = 0.0;
          group = None;
          fsyncs = 0;
        })

let load ~path =
  let parse text =
    match String.split_on_char '\n' text with
    | [] -> Error "empty journal"
    | hline :: rest ->
        let* header = parse_header hline in
        let ends_with_newline =
          String.length text > 0 && text.[String.length text - 1] = '\n'
        in
        (* Is a failure on this line a droppable torn tail? Only on the
           final line, and only when the crash left no trailing newline
           — a newline-terminated line that fails its checks is
           corruption, not a tear, and replay refuses to guess. *)
        let torn_tail tail = tail = [] && not ends_with_newline in
        let entry_of line =
          match unframe line with
          | Ok None -> Ok None
          | Error e -> Error e
          | Ok (Some payload) -> (
              (* a framed payload with a valid CRC that still fails to
                 parse is corruption, never a tear — always hard *)
              match parse_entry ~cap:header.capacity payload with
              | Ok ent -> Ok ent
              | Error e -> Error ("framed entry: " ^ e))
        in
        let rec go lineno acc = function
          | [] -> Ok (header, List.rev acc)
          | line :: tail -> (
              match entry_of line with
              | Ok None -> go (lineno + 1) acc tail
              | Ok (Some e) -> go (lineno + 1) (e :: acc) tail
              | Error e ->
                  if torn_tail tail then
                    (* torn final append from a crash mid-write: drop it *)
                    Ok (header, List.rev acc)
                  else Error (Printf.sprintf "%s:%d: %s" path lineno e))
        in
        go 2 [] rest
  in
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse text
  | exception Sys_error e -> Error e

(* Atomically rewrite [path] as header + entries and return a channel
   open for appending. The tmp file is flushed, fsynced (policy
   permitting) and closed before the rename; the directory is fsynced
   after it, so a crash leaves either the old journal or the complete
   new one. *)
let rewrite ~fsync ~path ~header entries =
  let tmp = path ^ ".tmp" in
  if Failpoint.fire fp_rewrite then Error "injected fault: journal.rewrite"
  else
    sys_guard (fun () ->
        let oc = Out_channel.open_text tmp in
        (match
           ( Out_channel.output_string oc (header_line header);
             Out_channel.output_char oc '\n';
             List.iter
               (fun e ->
                 Out_channel.output_string oc (frame_entry e);
                 Out_channel.output_char oc '\n')
               entries;
             Out_channel.flush oc;
             if fsync <> Never then fsync_oc oc )
         with
        | () -> Out_channel.close oc
        | exception e ->
            (* don't leak the tmp handle or the tmp file on a failed write *)
            (match Out_channel.close oc with
            | () -> ()
            | exception Sys_error _ -> ());
            (match Sys.remove tmp with
            | () -> ()
            | exception Sys_error _ -> ());
            raise e);
        unix_to_sys (fun () -> Sys.rename tmp path);
        if fsync <> Never then fsync_dir path;
        Out_channel.open_gen [ Open_append; Open_wronly; Open_text ] 0o644 path)

let handle_of ~path ~header ~fsync oc =
  {
    path;
    header;
    fsync;
    oc;
    good_pos = file_size path;
    dirty_tail = false;
    last_sync = 0.0;
    group = None;
    fsyncs = 0;
  }

let append_to ?(fsync = Always) ~path () =
  let* header, entries = load ~path in
  let* oc = rewrite ~fsync ~path ~header entries in
  Ok (handle_of ~path ~header ~fsync oc, entries)

(* A previous append failed after possibly writing part of its line.
   Those bytes are not durable state — recovery would drop them as a
   torn tail — so physically truncate back to the last known-good
   offset before writing anything else. Without this, a retried append
   would concatenate onto the torn fragment and corrupt the line. *)
let repair_tail t =
  if t.dirty_tail then begin
    Out_channel.flush t.oc;
    unix_to_sys (fun () ->
        Unix.ftruncate (Unix.descr_of_out_channel t.oc) t.good_pos);
    Out_channel.seek t.oc (Int64.of_int t.good_pos);
    t.dirty_tail <- false
  end

let append t entry =
  if Failpoint.fire fp_append then Error "injected fault: journal.append"
  else
    let line = frame_entry entry ^ "\n" in
    match t.group with
    | Some buf ->
        (* group mode: no file I/O here — the entry only reaches the OS
           at [commit_group]. The torn-write hazard of a single append
           does not exist (there is no write); journal.append.torn still
           fires as a plain error so an armed schedule covering every
           point keeps exercising this path. *)
        if Failpoint.fire fp_append_torn then
          Error "injected fault: journal.append.torn"
        else begin
          Buffer.add_string buf line;
          Ok ()
        end
    | None ->
    if Failpoint.fire fp_append_torn then begin
      (* simulate a crash mid-write: half the framed line reaches the
         file, the request errors, and the tail is marked for repair *)
      (match
         (Out_channel.output_string t.oc
            (String.sub line 0 (String.length line / 2));
          Out_channel.flush t.oc)
       with
      | () -> ()
      | exception Sys_error _ -> ());
      t.dirty_tail <- true;
      Error "injected fault: journal.append.torn"
    end
    else
      sys_guard (fun () ->
          repair_tail t;
          t.dirty_tail <- true;
          Out_channel.output_string t.oc line;
          Out_channel.flush t.oc;
          maybe_sync t;
          t.good_pos <- t.good_pos + String.length line;
          t.dirty_tail <- false)

(* ---------- group commit ---------- *)

let in_group t = t.group <> None

let begin_group t =
  match t.group with
  | Some _ -> Error "journal.group: a group is already open"
  | None ->
      sys_guard (fun () ->
          (* repair up front so the batch write below starts at the
             durable offset even if the last single append tore *)
          repair_tail t;
          t.group <- Some (Buffer.create 256))

(* Land the whole open batch as one write + flush + (policy) one fsync,
   and return the number of bytes committed. Acks must be withheld until
   this returns [Ok]: the single fsync here is the durability barrier
   for every entry in the batch. An empty batch commits for free. *)
let commit_group t =
  match t.group with
  | None -> Error "journal.group: no open group"
  | Some buf ->
      t.group <- None;
      let data = Buffer.contents buf in
      let len = String.length data in
      if len = 0 then Ok 0
      else if Failpoint.fire fp_group_append then begin
        (* the process dies partway through the batch write: a prefix of
           the batch — generally ending mid-line — reaches the file.
           Recovery must drop the torn final line and replay only the
           complete entries, none of which were ever acked. *)
        (match
           (Out_channel.output_string t.oc (String.sub data 0 ((len + 1) / 2));
            Out_channel.flush t.oc)
         with
        | () -> ()
        | exception Sys_error _ -> ());
        t.dirty_tail <- true;
        raise (Failpoint.Crash "journal.group.append")
      end
      else
        sys_guard (fun () ->
            repair_tail t;
            t.dirty_tail <- true;
            Out_channel.output_string t.oc data;
            Out_channel.flush t.oc;
            (* fully written, not yet synced: an fsync-window crash may
               keep or lose the tail entries — both replay consistently,
               and no ack was released either way *)
            Failpoint.crash_if fp_group_fsync;
            maybe_sync t;
            t.good_pos <- t.good_pos + len;
            t.dirty_tail <- false;
            len)

let reopen_append ~path =
  sys_guard (fun () ->
      Out_channel.open_gen [ Open_append; Open_wronly; Open_text ] 0o644 path)

let safe_close oc =
  match Out_channel.close oc with () -> () | exception Sys_error _ -> ()

let compact t entries =
  if Failpoint.fire fp_compact then Error "injected fault: journal.compact"
  else
    match rewrite ~fsync:t.fsync ~path:t.path ~header:t.header entries with
    | Ok oc ->
        (* the old handle now points at the unlinked pre-compaction
           inode; swap first, then close it *)
        safe_close t.oc;
        t.oc <- oc;
        t.good_pos <- file_size t.path;
        t.dirty_tail <- false;
        if t.fsync <> Never then t.fsyncs <- t.fsyncs + 1;
        (* a batch buffered before this compaction is superseded by it:
           the snapshot captures the caller's current in-memory state,
           which (entries being applied as they are buffered) already
           includes those mutations. Committing them afterwards would
           replay them twice. Reset to an empty open group; the pending
           commit_group then acks against the snapshot's durability. *)
        if t.group <> None then t.group <- Some (Buffer.create 256);
        Ok ()
    | Error e ->
        (* Rewrite failed at an unknown point (before or, in principle,
           after its rename). Reattach to whatever file currently lives
           at the path so the handle keeps its write capability — the
           old regression left a closed channel here and wedged every
           later append. On a reattach failure keep the old handle:
           it is still open and may outlive a transient error. *)
        (match reopen_append ~path:t.path with
        | Ok oc ->
            safe_close t.oc;
            t.oc <- oc;
            t.good_pos <- file_size t.path;
            t.dirty_tail <- false
        | Error _ -> ());
        Error ("compact: " ^ e)

let header t = t.header
let path t = t.path
let fsync_policy t = t.fsync
let fsyncs t = t.fsyncs
let bytes t = t.good_pos
let pending_bytes t = match t.group with Some b -> Buffer.length b | None -> 0
let close t = safe_close t.oc

let fsync_of_string = function
  | "always" -> Ok Always
  | "never" -> Ok Never
  | "interval" -> Ok (Interval 0.1)
  | s -> Error (Printf.sprintf "unknown fsync policy %S (want always, interval or never)" s)

let fsync_to_string = function
  | Always -> "always"
  | Never -> "never"
  | Interval _ -> "interval"
