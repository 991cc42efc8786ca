open Aa_utility

type request =
  | Admit of Utility.t
  | Depart of int
  | Update of int * Utility.t
  | Query of int
  | Stats
  | Snapshot
  | Rebalance
  | Trace
  | Slow

type error_code = Bad_request | Bad_spec | No_thread | Journal_failed | Degraded

type response =
  | Admitted of { id : int; server : int }
  | Departed of { id : int }
  | Updated of { id : int; server : int }
  | Thread_info of {
      id : int;
      server : int;
      alloc : float;
      value : float;
      active : bool;
    }
  | Stats_report of (string * string) list
  | Snapshot_done of {
      active : int;
      admitted : int;
      utility : float;
      compacted : bool;
    }
  | Rebalance_report of { online : float; offline : float; gap : float }
  | Trace_dump of { events : int; json : string }
  | Slow_dump of { count : int; json : string }
  | Err of { code : error_code; message : string }

let code_name = function
  | Bad_request -> "bad-request"
  | Bad_spec -> "bad-spec"
  | No_thread -> "no-thread"
  | Journal_failed -> "journal"
  | Degraded -> "degraded"

let tokens line =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

let parse_request ~cap line =
  let fail code fmt =
    Printf.ksprintf (fun message -> Result.Error (Err { code; message })) fmt
  in
  let spec_of toks k =
    match Aa_io.Format_text.parse_thread_spec ~cap (String.concat " " toks) with
    | Ok u -> k u
    | Error e -> fail Bad_spec "%s" e
  in
  let id_of verb tok k =
    match int_of_string_opt tok with
    | Some i -> k i
    | None -> fail Bad_request "%s: %S is not a thread id" verb tok
  in
  match tokens line with
  | [] -> fail Bad_request "empty request"
  | [ "STATS" ] -> Ok Stats
  | [ "SNAPSHOT" ] -> Ok Snapshot
  | [ "REBALANCE" ] -> Ok Rebalance
  | [ "TRACE" ] -> Ok Trace
  | [ "SLOW" ] -> Ok Slow
  | "ADMIT" :: (_ :: _ as spec) -> spec_of spec (fun u -> Ok (Admit u))
  | [ "ADMIT" ] -> fail Bad_request "usage: ADMIT <utility-spec>"
  | [ "DEPART"; tok ] -> id_of "DEPART" tok (fun i -> Ok (Depart i))
  | "DEPART" :: _ -> fail Bad_request "usage: DEPART <id>"
  | "UPDATE" :: tok :: (_ :: _ as spec) ->
      id_of "UPDATE" tok (fun i -> spec_of spec (fun u -> Ok (Update (i, u))))
  | "UPDATE" :: _ -> fail Bad_request "usage: UPDATE <id> <utility-spec>"
  | [ "QUERY"; tok ] -> id_of "QUERY" tok (fun i -> Ok (Query i))
  | "QUERY" :: _ -> fail Bad_request "usage: QUERY <id>"
  | ("STATS" | "SNAPSHOT" | "REBALANCE" | "TRACE" | "SLOW") :: _ ->
      fail Bad_request "STATS, SNAPSHOT, REBALANCE, TRACE and SLOW take no arguments"
  | verb :: _ -> fail Bad_request "unknown request: %s" verb

let print_request = function
  | Admit u -> "ADMIT " ^ Aa_io.Format_text.print_thread_spec u
  | Depart i -> Printf.sprintf "DEPART %d" i
  | Update (i, u) ->
      Printf.sprintf "UPDATE %d %s" i (Aa_io.Format_text.print_thread_spec u)
  | Query i -> Printf.sprintf "QUERY %d" i
  | Stats -> "STATS"
  | Snapshot -> "SNAPSHOT"
  | Rebalance -> "REBALANCE"
  | Trace -> "TRACE"
  | Slow -> "SLOW"

let kind_of = function
  | Admit _ -> "admit"
  | Depart _ -> "depart"
  | Update _ -> "update"
  | Query _ -> "query"
  | Stats -> "stats"
  | Snapshot -> "snapshot"
  | Rebalance -> "rebalance"
  | Trace -> "trace"
  | Slow -> "slow"

let one_line s = String.map (fun c -> if c = '\n' || c = '\r' then ' ' else c) s
let flag b = if b then 1 else 0

let print_response = function
  | Admitted { id; server } -> Printf.sprintf "OK admit id %d server %d" id server
  | Departed { id } -> Printf.sprintf "OK depart id %d" id
  | Updated { id; server } -> Printf.sprintf "OK update id %d server %d" id server
  | Thread_info { id; server; alloc; value; active } ->
      Printf.sprintf "OK query id %d server %d alloc %.17g value %.17g active %d" id
        server alloc value (flag active)
  | Stats_report [] -> "OK stats"
  | Stats_report kvs ->
      "OK stats " ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) kvs)
  | Snapshot_done { active; admitted; utility; compacted } ->
      Printf.sprintf "OK snapshot active %d admitted %d utility %.17g compacted %d"
        active admitted utility (flag compacted)
  | Rebalance_report { online; offline; gap } ->
      Printf.sprintf "OK rebalance online %.17g offline %.17g gap %.6f" online
        offline gap
  | Trace_dump { events; json } ->
      Printf.sprintf "OK trace events %d %s" events (one_line json)
  | Slow_dump { count; json } ->
      Printf.sprintf "OK slow count %d %s" count (one_line json)
  | Err { code; message } ->
      Printf.sprintf "ERR %s %s" (code_name code) (one_line message)
