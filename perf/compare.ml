(* The decision rule for comparing a parent commit with a change, per
   workload and metric:

   - win: at least [min_pairs] pairs of runs, alternating which side ran
     first; the change is better in at least nine tenths of the pairs
     (ties count for neither side); and the medians differ, in the
     change's favour, by more than the parent's inter-quartile range.
   - regression: the change's median is worse than the parent's by more
     than the metric's bound (a share of the parent's median). Metrics
     without a bound (per-layer diagnostics) never regress.
   - unresolved: anything else. *)

type run = {
  workload : string;
  traced : bool;
  seed : int;
  started : float;  (** Unix time the run started, to check alternation *)
  metrics : (string * float) list;
}

type metric_spec = { lower_is_better : bool; bound : float option }

type verdict = Win | Regression | Unresolved

type row = {
  r_workload : string;
  r_traced : bool;
  metric : string;
  verdict : verdict;
  parent_median : float;
  change_median : float;
  parent_iqr : float;
  worse_frac : float;  (** (change - parent) / |parent| toward worse; < 0 is better *)
  wins : int;
  pairs : int;
  note : string;
}

let min_pairs = 10

let verdict_name = function Win -> "win" | Regression -> "regression" | Unresolved -> "unresolved"

let run_of_json j =
  let ( let* ) = Option.bind in
  let* workload = Option.bind (Json.member "workload" j) Json.to_str in
  let* seed = Option.bind (Json.member "seed" j) Json.to_num in
  let* trace = Option.bind (Json.member "trace" j) Json.to_num in
  let* started = Option.bind (Json.member "started_unix" j) Json.to_num in
  let* metrics = Json.member "metrics" j in
  let metrics =
    match metrics with
    | Json.Obj kvs ->
        List.filter_map
          (fun (k, v) -> Option.map (fun f -> (k, f)) (Option.bind (Json.member "value" v) Json.to_num))
          kvs
    | _ -> []
  in
  Some { workload; traced = trace > 0.5; seed = int_of_float seed; started; metrics }

let load_run path =
  match Json.parse_opt (Json.read_file path) with
  | None -> Error (path ^ ": not JSON")
  | Some j -> (
      match run_of_json j with
      | Some r -> Ok r
      | None -> Error (path ^ ": not a benchmark result file"))

(* Metric directions and bounds from BENCHMARK.json. *)
let specs_of_benchmark j =
  let entries key =
    List.filter_map
      (fun e ->
        match (Option.bind (Json.member "name" e) Json.to_str, Option.bind (Json.member "better" e) Json.to_str) with
        | Some name, Some better ->
            Some
              ( name,
                {
                  lower_is_better = better = "lower";
                  bound = Option.bind (Json.member "bound" e) Json.to_num;
                } )
        | _ -> None)
      (Option.fold ~none:[] ~some:Json.to_list (Json.member key j))
  in
  entries "end_to_end" @ entries "per_layer"

let compare_metric ~spec ~metric (parent : run list) (change : run list) =
  let value r = List.assoc metric r.metrics in
  let pv = Array.of_list (List.map value parent) in
  let cv = Array.of_list (List.map value change) in
  let np = Array.length pv and nc = Array.length cv in
  let pm = Pct.median pv and cm = Pct.median cv in
  let iqr =
    if np >= 2 then
      let q1, _, q3 = Pct.quartiles pv in
      q3 -. q1
    else Float.nan
  in
  let worse a b = if spec.lower_is_better then a -. b else b -. a in
  let better c p = worse c p < 0.0 in
  let pairs = if np = nc then np else 0 in
  let wins = ref 0 in
  for i = 0 to pairs - 1 do
    if better cv.(i) pv.(i) then incr wins
  done;
  let first_is_parent i = (List.nth parent i).started < (List.nth change i).started in
  let alternating =
    pairs >= 2 && List.for_all (fun i -> first_is_parent i <> first_is_parent (i + 1)) (List.init (pairs - 1) Fun.id)
  in
  let gap = worse cm pm in
  let worse_frac = gap /. Float.abs pm in
  let verdict, note =
    match spec.bound with
    | Some b when worse_frac > b -> (Regression, Printf.sprintf "worse by more than the bound %g" b)
    | _ ->
        if np <> nc then (Unresolved, Printf.sprintf "unequal run counts (%d parent, %d change)" np nc)
        else if pairs < min_pairs then (Unresolved, Printf.sprintf "%d pairs, a gain needs %d" pairs min_pairs)
        else if not alternating then (Unresolved, "pairs do not alternate which side ran first")
        else if 10 * !wins < 9 * pairs then (Unresolved, Printf.sprintf "change won %d of %d pairs" !wins pairs)
        else if not (-.gap > iqr) then (Unresolved, "median gap within the parent's IQR")
        else (Win, "")
  in
  {
    r_workload = (List.hd parent).workload;
    r_traced = (List.hd parent).traced;
    metric;
    verdict;
    parent_median = pm;
    change_median = cm;
    parent_iqr = iqr;
    worse_frac;
    wins = !wins;
    pairs;
    note;
  }

(* Group by (workload, traced), order each side's runs by start time,
   and compare every metric both sides report and BENCHMARK.json
   names. *)
let compare ~specs (parent : run list) (change : run list) =
  let key r = (r.workload, r.traced) in
  let keys = List.sort_uniq compare (List.map key parent) in
  List.concat_map
    (fun k ->
      let side l =
        List.filter (fun r -> key r = k) l |> List.sort (fun a b -> Float.compare a.started b.started)
      in
      let p = side parent and c = side change in
      if c = [] then []
      else
        let has m r = List.mem_assoc m r.metrics in
        List.filter_map
          (fun (metric, spec) ->
            if List.for_all (has metric) p && List.for_all (has metric) c then
              Some (compare_metric ~spec ~metric p c)
            else None)
          specs)
    keys

let print_rows rows =
  Printf.printf "%-12s %-5s %-34s %-11s %14s %14s %12s %9s %6s  %s\n" "workload" "trace" "metric" "verdict"
    "parent_med" "change_med" "parent_iqr" "worse" "wins" "note";
  List.iter
    (fun r ->
      Printf.printf "%-12s %-5s %-34s %-11s %14.6g %14.6g %12.4g %8.2f%% %3d/%-2d  %s\n" r.r_workload
        (if r.r_traced then "1" else "0")
        r.metric (verdict_name r.verdict) r.parent_median r.change_median r.parent_iqr (100.0 *. r.worse_frac)
        r.wins r.pairs r.note)
    rows
