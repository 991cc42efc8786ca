open Aa_numerics
open Aa_utility
open Aa_core
module Failpoint = Aa_fault.Failpoint

let ( let* ) = Result.bind

type stats = {
  admitted : int;
  active : int;
  utility : float;
  degraded : bool;
  policy : Online.policy;
  drift : float;
  splices : int;
  resolves : int;
  interval : (float * float * float) option;
}

type t = {
  online : Online.t;
  journal : Journal.t option;
  journal_retries : int;
  retry_backoff_s : float;
  coarsen_eps : float;  (* REBALANCE coarsening budget; 0 = full resolution *)
  mutable degraded : bool;
  mutable interval : (float * float * float) option;
      (* last REBALANCE's certified (lower, upper, alpha_gap): the
         coarsened solution's exact utility F(x') lies in
         [F'(x'), F'(x') + n_active*eps]; alpha_gap = F̂ - online
         (distance of the serving allocation from the superopt
         certificate). Reported in STATS and the engine.* gauges. *)
}

(* Crash points of the dispatch path: [engine.dispatch] fires before a
   request touches anything, [engine.apply] in the WAL window — after
   the entry is durable but before the in-memory mutation. *)
let fp_dispatch = Failpoint.register "engine.dispatch"
let fp_apply = Failpoint.register "engine.apply"

(* Degradation telemetry, under the Aa_obs determinism contract: these
   only move on journal failures, which are a pure function of the
   armed fault schedule (or of real I/O errors — and then determinism
   across job counts is moot anyway). *)
let c_retry = Aa_obs.Registry.counter "engine.journal.retries"
let c_degraded_enter = Aa_obs.Registry.counter "engine.degraded.enter"
let c_degraded_reject = Aa_obs.Registry.counter "engine.degraded.rejected"
let c_degraded_exit = Aa_obs.Registry.counter "engine.degraded.exit"

(* Certified-quality gauges, refreshed by REBALANCE (and by the sharded
   barrier aggregate, which overwrites them with the global sums).
   Schedule-dependent — the active set depends on arrival order — so
   gauges, never counters. *)
let g_utility = Aa_obs.Registry.gauge ~help:"Online utility of the serving allocation at the last REBALANCE" "engine.utility"
let g_ulower = Aa_obs.Registry.gauge ~help:"Certified lower bound on the offline re-solve utility" "engine.utility_lower"
let g_uupper = Aa_obs.Registry.gauge ~help:"Certified upper bound on the offline re-solve utility" "engine.utility_upper"
let g_alpha = Aa_obs.Registry.gauge ~help:"Superopt certificate utility minus online utility at the last REBALANCE" "engine.alpha_bound_gap"

(* Incremental-engine telemetry: the drift certificate and maintenance
   volumes depend on the arrival order, so gauges, never counters. *)
let g_drift = Aa_obs.Registry.gauge ~help:"Certified upper bound on superopt utility minus online utility" "engine.drift_bound"
let g_splices = Aa_obs.Registry.gauge ~help:"Incremental piece-order splices performed by the online placer" "engine.incremental.splices"
let g_resolves = Aa_obs.Registry.gauge ~help:"Full re-solves performed by the online placer" "engine.incremental.resolves"

let publish_incremental ol =
  Aa_obs.Registry.Gauge.set g_drift (Online.drift_bound ol);
  Aa_obs.Registry.Gauge.set g_splices (float_of_int (Online.splices ol));
  Aa_obs.Registry.Gauge.set g_resolves (float_of_int (Online.resolves ol))

let policy_name : Online.policy -> string = function
  | Online.Full -> "full"
  | Online.Incremental -> "incremental"
  | Online.Auto _ -> "auto"

let create ?journal ?(journal_retries = 2)
    ?(retry_backoff_s = 1e-3) ?(coarsen_eps = 0.0) ?policy ~servers ~capacity () =
  if coarsen_eps < 0.0 || not (Float.is_finite coarsen_eps) then
    invalid_arg "Engine.create: coarsen_eps must be finite and >= 0";
  {
    online = Online.create ?policy ~servers ~capacity ();
    journal;
    journal_retries;
    retry_backoff_s;
    coarsen_eps;
    degraded = false;
    interval = None;
  }

let servers t = Online.servers t.online
let capacity t = Online.capacity t.online
let online t = t.online
let journal t = t.journal
let degraded t = t.degraded
let n_admitted t = Online.n_admitted t.online
let n_active t = Online.n_active t.online
let total_utility t = Online.total_utility t.online
let utility_interval t = t.interval

let stats t : stats =
  let ol = t.online in
  {
    admitted = Online.n_admitted ol;
    active = Online.n_active ol;
    utility = Online.total_utility ol;
    degraded = t.degraded;
    policy = Online.policy ol;
    drift = Online.drift_bound ol;
    splices = Online.splices ol;
    resolves = Online.resolves ol;
    interval = t.interval;
  }

let stats_report (s : stats) =
  let gauges =
    [
      ("admitted", string_of_int s.admitted);
      ("active", string_of_int s.active);
      ("utility", Printf.sprintf "%.9g" s.utility);
      ("degraded", if s.degraded then "1" else "0");
      ("policy", policy_name s.policy);
      ("drift_bound", Printf.sprintf "%.9g" s.drift);
      ("incremental.splices", string_of_int s.splices);
      ("incremental.resolves", string_of_int s.resolves);
    ]
  in
  match s.interval with
  | None -> gauges
  | Some (lo, hi, alpha) ->
      gauges
      @ [
          ("utility_lower", Printf.sprintf "%.9g" lo);
          ("utility_upper", Printf.sprintf "%.9g" hi);
          ("alpha_gap", Printf.sprintf "%.9g" alpha);
        ]

let err code fmt =
  Printf.ksprintf (fun message -> Protocol.Err { code; message }) fmt

(* Relative tolerance: an absolute eps (the old [feq ~eps:1e-9]) is
   meaningless across capacity scales — at C=1e-9 it accepts caps 2x
   off (the absolute branch swallows the difference), at C=1e12 its
   absolute branch demands bit equality from values hundreds of ulps
   wide. One part in 1e9 of the capacity is the intent. *)
let cap_ok t u = Util.feq_rel ~rel:1e-9 (Utility.cap u) (capacity t)

let cap_err t u =
  err Bad_spec "utility domain cap %.17g must equal the server capacity %.17g"
    (Utility.cap u) (capacity t)

let thread_err t i =
  if i < 0 || i >= n_admitted t then
    err No_thread "no thread %d (admitted so far: %d)" i (n_admitted t)
  else err No_thread "thread %d already departed" i

(* Write-ahead append with bounded-backoff retries: transient storage
   hiccups (and [Nth]-scheduled injected faults) are absorbed here;
   only an error that survives every retry reaches dispatch, which then
   degrades the engine instead of failing each mutation independently. *)
let journal_append t entry =
  Aa_obs.Rctx.phase "journal" @@ fun () ->
  match t.journal with
  | None -> Ok ()
  | Some j ->
      let rec go attempt =
        match Journal.append j entry with
        | Ok () -> Ok ()
        | Error _ when attempt < t.journal_retries ->
            Aa_obs.Registry.Counter.incr c_retry;
            Unix.sleepf (t.retry_backoff_s *. float_of_int (1 lsl attempt));
            go (attempt + 1)
        | Error e -> Error e
      in
      go 0

(* An exhausted journal: flip to degraded read-only mode. The WAL
   discipline makes this safe — the failed mutation was never applied,
   so memory still equals the journal, and read traffic (QUERY, STATS,
   REBALANCE, TRACE) keeps being served from it. *)
let enter_degraded t e =
  t.degraded <- true;
  Aa_obs.Registry.Counter.incr c_degraded_enter;
  err Degraded
    "journal append failed after %d attempt(s): %s — engine is read-only; \
     SNAPSHOT to attempt recovery"
    (1 + t.journal_retries) e

let reject_degraded _t =
  Aa_obs.Registry.Counter.incr c_degraded_reject;
  err Degraded
    "engine is in degraded read-only mode (journal unavailable); mutation \
     rejected — SNAPSHOT to attempt recovery"

let snapshot_entries t =
  let ol = t.online in
  List.init (Online.n_admitted ol) (fun i ->
      Journal.Place
        {
          id = i;
          server = Online.server_of ol i;
          active = Online.is_active ol i;
          u = Online.thread_utility ol i;
        })

let dispatch t (req : Protocol.request) : Protocol.response =
  Failpoint.crash_if fp_dispatch;
  let ol = t.online in
  (* The mutating requests trace their three phases — validate (admission
     checks), journal (write-ahead append, inside [journal_append]) and
     apply (the placer mutation) — so a TRACE dump shows where a slow
     request spent its time. *)
  match req with
  | (Admit _ | Depart _ | Update _) when t.degraded -> reject_degraded t
  | Admit u ->
      if not (Aa_obs.Rctx.phase "validate" (fun () -> cap_ok t u)) then
        cap_err t u
      else begin
        match journal_append t (Journal.Admit u) with
        | Error e -> enter_degraded t e
        | Ok () ->
            Failpoint.crash_if fp_apply;
            Aa_obs.Rctx.phase "apply" @@ fun () ->
            let server = Online.admit ol u in
            publish_incremental ol;
            Protocol.Admitted { id = Online.n_admitted ol - 1; server }
      end
  | Depart i ->
      if not (Aa_obs.Rctx.phase "validate" (fun () -> Online.is_active ol i))
      then thread_err t i
      else begin
        match journal_append t (Journal.Depart i) with
        | Error e -> enter_degraded t e
        | Ok () ->
            Failpoint.crash_if fp_apply;
            Aa_obs.Rctx.phase "apply" @@ fun () ->
            Online.depart ol i;
            publish_incremental ol;
            Protocol.Departed { id = i }
      end
  | Update (i, u) ->
      let valid =
        Aa_obs.Rctx.phase "validate" @@ fun () ->
        if not (Online.is_active ol i) then `No_thread
        else if not (cap_ok t u) then `Bad_cap
        else `Ok
      in
      (match valid with
      | `No_thread -> thread_err t i
      | `Bad_cap -> cap_err t u
      | `Ok -> (
          match journal_append t (Journal.Update (i, u)) with
          | Error e -> enter_degraded t e
          | Ok () ->
              Failpoint.crash_if fp_apply;
              Aa_obs.Rctx.phase "apply" @@ fun () ->
              Online.update_utility ol i u;
              publish_incremental ol;
              Protocol.Updated { id = i; server = Online.server_of ol i }))
  | Query i ->
      if i < 0 || i >= Online.n_admitted ol then thread_err t i
      else begin
        let alloc = Online.alloc_of ol i in
        Thread_info
          {
            id = i;
            server = Online.server_of ol i;
            alloc;
            value = Utility.eval (Online.thread_utility ol i) alloc;
            active = Online.is_active ol i;
          }
      end
  | Stats -> Stats_report (stats_report (stats t))
  | Snapshot -> begin
      let done_ compacted =
        Protocol.Snapshot_done
          {
            active = Online.n_active ol;
            admitted = Online.n_admitted ol;
            utility = Online.total_utility ol;
            compacted;
          }
      in
      match t.journal with
      | None -> done_ false
      | Some j -> (
          (* served even in degraded mode: compaction rewrites the whole
             file from in-memory state (which the WAL discipline keeps
             equal to the durable state), so a successful SNAPSHOT is
             the recovery path out of degradation *)
          match Journal.compact j (snapshot_entries t) with
          | Ok () ->
              if t.degraded then begin
                t.degraded <- false;
                Aa_obs.Registry.Counter.incr c_degraded_exit
              end;
              done_ true
          | Error e -> err Journal_failed "%s" e)
    end
  | Rebalance ->
      if Online.n_active ol = 0 then begin
        t.interval <- Some (0.0, 0.0, 0.0);
        (* the empty set's pooled bound is 0, so the certificate closes *)
        Online.note_bound ol ~upper:0.0;
        publish_incremental ol;
        Rebalance_report { online = 0.0; offline = 0.0; gap = 1.0 }
      end
      else begin
        let inst = Online.active_instance ol in
        let online_u = Assignment.utility inst (Online.active_assignment ol) in
        (* Offline re-solve, optionally on a certified eps-coarsened copy
           of the instance (Plc.coarsen guarantees 0 <= f - f' <= eps
           pointwise). The reported utility is always the EXACT utility
           of the solved assignment, so coarsening loss is reflected
           honestly; the certified interval brackets it:
           F'(x') <= F(x') <= F'(x') + n_active*eps. *)
        let x', lower =
          if t.coarsen_eps > 0.0 then begin
            let coarse =
              Instance.create ~servers:inst.servers ~capacity:inst.capacity
                (Array.map
                   (fun u ->
                     Utility.of_plc
                       (Plc.coarsen ~eps:t.coarsen_eps (Utility.to_plc u)))
                   inst.utilities)
            in
            let x' = Algo2.solve coarse in
            (x', Assignment.utility coarse x')
          end
          else begin
            let x' = Algo2.solve inst in
            (x', Assignment.utility inst x')
          end
        in
        let offline_u = Assignment.utility inst x' in
        let upper = lower +. (float_of_int (Online.n_active ol) *. t.coarsen_eps) in
        (* Superopt's F̂ upper-bounds ANY assignment's utility (Lemma
           V.2): how far the serving allocation sits from that
           certificate. *)
        let fhat = (Superopt.compute inst).Superopt.utility in
        let alpha_gap = fhat -. online_u in
        (* the freshly computed pooled bound re-certifies the drift gauge
           (tightening only — Auto re-solve points stay replay-exact) *)
        Online.note_bound ol ~upper:fhat;
        publish_incremental ol;
        t.interval <- Some (lower, upper, alpha_gap);
        Aa_obs.Registry.Gauge.set g_utility online_u;
        Aa_obs.Registry.Gauge.set g_ulower lower;
        Aa_obs.Registry.Gauge.set g_uupper upper;
        Aa_obs.Registry.Gauge.set g_alpha alpha_gap;
        let gap = if offline_u > 0.0 then online_u /. offline_u else 1.0 in
        Rebalance_report { online = online_u; offline = offline_u; gap }
      end
  | Trace ->
      (* count then dump: a span recorded between the two calls can make
         the count lag the array by an entry — harmless for telemetry *)
      let events = Aa_obs.Trace.n_events () in
      let json = Aa_obs.Trace.to_chrome_json ~compact:true () in
      (* splice the preserved slow-request subtrees (complete events,
         pid 2) into the array: a dump holds both the live ring and the
         keep-list. "[]" stays "[]" when neither has anything. *)
      let slow = Aa_obs.Rctx.slow_chrome_events () in
      let json =
        if slow = "" then json
        else if json = "[]" then "[" ^ slow ^ "]"
        else String.sub json 0 (String.length json - 1) ^ "," ^ slow ^ "]"
      in
      Trace_dump { events; json }
  | Slow ->
      Slow_dump { count = Aa_obs.Rctx.slow_count (); json = Aa_obs.Rctx.slow_json () }

let handle t req =
  (* belt and braces: a validation hole below must surface as a typed
     error response, never kill the session loop *)
  match Aa_obs.Trace.span (Protocol.kind_of req) (fun () -> dispatch t req) with
  | resp -> resp
  | exception Invalid_argument m -> err Bad_request "rejected: %s" m

(* Batch size distribution of the group-commit path. A histogram, not a
   counter: how many mutations share one fsync depends on arrival
   timing, so the values are schedule-dependent and quarantined from
   the counter determinism contract (like gauges / Pool.stats). *)
let h_batch = Aa_obs.Registry.histogram "engine.group_commit.batch_size"

let is_mut_ok : Protocol.response -> bool = function
  | Admitted _ | Departed _ | Updated _ -> true
  | _ -> false

(* Process a batch of requests under one journal group commit: every
   mutating entry is buffered by [Journal.append] (requests still run
   strictly in order, so intra-batch dependencies — DEPART of an id
   ADMITted earlier in the same batch — behave exactly as sequential
   dispatch), then [commit_group] lands them in one write + one fsync.
   Responses must not be released to clients before this returns: the
   group fsync is the batch's durability barrier.

   If the commit fails, the applied-but-unjournaled mutations leave
   memory ahead of the durable state; the engine degrades (read-only)
   and every mutating OK in the batch is rewritten to a Degraded error
   — nothing is acked that the journal does not hold. A successful
   SNAPSHOT re-syncs the journal from memory and heals, exactly as for
   single-append failures. A [Failpoint.Crash] inside the commit window
   propagates: the process dies with every ack for the batch withheld. *)
let handle_batch ?ctxs t (reqs : Protocol.request list) : Protocol.response list =
  let ctx i =
    match ctxs with Some a when i < Array.length a -> a.(i) | Some _ | None -> None
  in
  (* Dispatch one request inside its context scope: spans recorded
     during the dispatch are tagged (rid, shard, conn), and the
     handled-mark opens the request's group-commit wait. *)
  let run i req =
    match ctx i with
    | None -> handle t req
    | Some c ->
        Aa_obs.Rctx.with_current c (fun () ->
            let r = handle t req in
            Aa_obs.Rctx.mark_handled c;
            r)
  in
  let run_all () = List.mapi run reqs in
  let mark_committed () =
    match ctxs with
    | None -> ()
    | Some a ->
        Array.iter
          (function Some c -> Aa_obs.Rctx.mark_committed c | None -> ())
          a
  in
  let multi = match reqs with [] | [ _ ] -> false | _ -> true in
  match t.journal with
  | None -> run_all ()
  | Some _ when t.degraded || not multi -> run_all ()
  | Some j -> (
      match Journal.begin_group j with
      | Error e ->
          ignore (enter_degraded t e : Protocol.response);
          run_all ()
      | Ok () -> (
          let resps = run_all () in
          let n_mut =
            List.fold_left (fun n r -> if is_mut_ok r then n + 1 else n) 0 resps
          in
          match Journal.commit_group j with
          | Ok _bytes ->
              mark_committed ();
              if n_mut > 0 then
                Aa_obs.Registry.Hist.observe h_batch (float_of_int n_mut);
              resps
          | Error e ->
              let derr = enter_degraded t e in
              List.map (fun r -> if is_mut_ok r then derr else r) resps))

let apply t entry =
  let ol = t.online in
  match entry with
  | Journal.Admit u ->
      if not (cap_ok t u) then Error "admit: utility domain cap mismatch"
      else begin
        ignore (Online.admit ol u);
        Ok ()
      end
  | Journal.Depart i ->
      if not (Online.is_active ol i) then
        Error (Printf.sprintf "depart: unknown or departed thread %d" i)
      else begin
        Online.depart ol i;
        Ok ()
      end
  | Journal.Update (i, u) ->
      if not (Online.is_active ol i) then
        Error (Printf.sprintf "update: unknown or departed thread %d" i)
      else if not (cap_ok t u) then Error "update: utility domain cap mismatch"
      else begin
        Online.update_utility ol i u;
        Ok ()
      end
  | Journal.Place { id; server; active; u } ->
      if id <> Online.n_admitted ol then
        Error
          (Printf.sprintf "place: expected id %d, got %d" (Online.n_admitted ol)
             id)
      else if server < 0 || server >= Online.servers ol then
        Error (Printf.sprintf "place: server %d out of range" server)
      else if not (cap_ok t u) then Error "place: utility domain cap mismatch"
      else begin
        let i = Online.admit_to ol ~server u in
        if not active then Online.depart ol i;
        Ok ()
      end

let of_journal ?fsync ?journal_retries ?retry_backoff_s ?coarsen_eps
    ?policy ~path () =
  let* j, entries = Journal.append_to ?fsync ~path () in
  let h = Journal.header j in
  let t =
    create ?journal_retries ?retry_backoff_s ?coarsen_eps ?policy
      ~journal:j ~servers:h.servers ~capacity:h.capacity ()
  in
  let rec go n = function
    | [] -> Ok t
    | e :: rest -> (
        match apply t e with
        | Ok () -> go (n + 1) rest
        | Error msg -> Error (Printf.sprintf "%s: entry %d: %s" path n msg))
  in
  go 1 entries
