(* Shared helpers and QCheck generators for the test suites. *)

open Aa_numerics
open Aa_utility

let check_float ?(eps = 1e-9) msg expected actual =
  if not (Util.approx_equal ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let check_le ?(eps = 1e-9) msg a b =
  if a > b +. (eps *. Float.max 1.0 (Float.abs b)) then
    Alcotest.failf "%s: %.12g should be <= %.12g" msg a b

let check_ge ?(eps = 1e-9) msg a b = check_le ~eps msg b a

let qsuite name props =
  (name, List.map (QCheck_alcotest.to_alcotest ~verbose:false) props)

(* --- generators --- *)

(* A random concave nondecreasing PLC on [0, cap]: decreasing positive
   slopes with random segment lengths. *)
let gen_plc_parts =
  QCheck2.Gen.(
    let* cap = float_range 1.0 100.0 in
    let* k = int_range 1 6 in
    let* raw_slopes = list_repeat k (float_range 0.01 10.0) in
    let* raw_lens = list_repeat k (float_range 0.05 1.0) in
    let* y0 = float_range 0.0 2.0 in
    return (cap, raw_slopes, raw_lens, y0))

let plc_of_parts (cap, raw_slopes, raw_lens, y0) =
  let slopes = List.sort (fun a b -> compare b a) raw_slopes in
  let total_len = List.fold_left ( +. ) 0.0 raw_lens in
  let scale = cap /. total_len in
  let pts = ref [ (0.0, y0) ] in
  let x = ref 0.0 and y = ref y0 in
  List.iter2
    (fun s l ->
      x := !x +. (l *. scale);
      y := !y +. (s *. l *. scale);
      pts := (!x, !y) :: !pts)
    slopes raw_lens;
  (* force the exact endpoint to avoid float drift *)
  let pts =
    match !pts with (_, y) :: rest -> (cap, y) :: rest | [] -> assert false
  in
  Plc.create (Array.of_list (List.rev pts))

let gen_plc = QCheck2.Gen.map plc_of_parts gen_plc_parts

(* Random utilities of all representations sharing one cap. *)
let gen_utility_with_cap cap =
  QCheck2.Gen.(
    let* choice = int_range 0 5 in
    match choice with
    | 0 ->
        let* parts = gen_plc_parts in
        let cap', s, l, y0 = parts in
        ignore cap';
        return (Utility.of_plc (plc_of_parts (cap, s, l, y0)))
    | 1 ->
        let* coeff = float_range 0.1 10.0 in
        let* beta = float_range 0.2 1.0 in
        return (Utility.Shapes.power ~cap ~coeff ~beta)
    | 2 ->
        let* coeff = float_range 0.1 10.0 in
        let* rate = float_range 0.05 3.0 in
        return (Utility.Shapes.log_utility ~cap ~coeff ~rate)
    | 3 ->
        let* limit = float_range 0.5 20.0 in
        let* halfway = float_range (cap /. 50.0) cap in
        return (Utility.Shapes.saturating ~cap ~limit ~halfway)
    | 4 ->
        let* limit = float_range 0.5 20.0 in
        let* rate = float_range (0.2 /. cap) (10.0 /. cap) in
        return (Utility.Shapes.exp_saturating ~cap ~limit ~rate)
    | _ ->
        let* slope = float_range 0.0 5.0 in
        let* knee = float_range 0.0 cap in
        return (Utility.Shapes.capped_linear ~cap ~slope ~knee))

(* A random AA instance: m in 1..5, n in 1..12, mixed utility shapes. *)
let gen_instance =
  QCheck2.Gen.(
    let* servers = int_range 1 5 in
    let* n = int_range 1 12 in
    let* cap = float_range 1.0 50.0 in
    let* utilities = list_repeat n (gen_utility_with_cap cap) in
    return (Aa_core.Instance.create ~servers ~capacity:cap (Array.of_list utilities)))

(* Small instances that the exact solver can handle comfortably. *)
let gen_small_instance =
  QCheck2.Gen.(
    let* servers = int_range 1 3 in
    let* n = int_range 1 7 in
    let* cap = float_range 1.0 20.0 in
    let* utilities = list_repeat n (gen_utility_with_cap cap) in
    return (Aa_core.Instance.create ~servers ~capacity:cap (Array.of_list utilities)))

let print_instance inst = Format.asprintf "%a" Aa_core.Instance.pp inst
let rng_of_seed seed = Rng.create ~seed ()

(* Replace every utility by its exact PLC form so that the exact solver,
   the super-optimal bound and assignment evaluation all agree on the
   same function (no smooth-vs-sampled gap in comparisons). *)
let plc_instance (inst : Aa_core.Instance.t) =
  Aa_core.Instance.create ~servers:inst.servers ~capacity:inst.capacity
    (Array.map (fun u -> Utility.of_plc (Utility.to_plc u)) inst.utilities)

(* Quick random PLC utility from an explicit rng (for tests that stream
   arrivals rather than use QCheck generators). *)
let plc_u ?(cap = 10.0) rng =
  let k = 1 + Rng.int rng 4 in
  let slopes = Array.init k (fun _ -> Rng.uniform rng ~lo:0.1 ~hi:5.0) in
  Array.sort (fun a b -> compare b a) slopes;
  let pts = Array.make (k + 1) (0.0, 0.0) in
  let x = ref 0.0 and y = ref 0.0 in
  for i = 0 to k - 1 do
    x := (if i = k - 1 then cap else !x +. (cap /. float_of_int k));
    y := !y +. (slopes.(i) *. (cap /. float_of_int k));
    pts.(i + 1) <- (!x, !y)
  done;
  Utility.of_plc (Plc.create pts)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub haystack i nn = needle || scan (i + 1)) in
  nn = 0 || scan 0

let count_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  if nn = 0 then 0
  else begin
    let acc = ref 0 in
    for i = 0 to nh - nn do
      if String.sub haystack i nn = needle then incr acc
    done;
    !acc
  end

(* One wire line through a bare engine, no dispatcher:
   [Protocol.parse_request], then [Engine.handle]. [None] for
   blank/comment lines; a malformed line yields its parse error. *)
let engine_line e line =
  let open Aa_service in
  match Aa_io.Format_text.tokens line with
  | [] -> None
  | _ :: _ -> (
      match Protocol.parse_request ~cap:(Engine.capacity e) line with
      | Ok req -> Some (Engine.handle e req)
      | Error resp -> Some resp)
