open Aa_utility
open Aa_core

let ( let* ) = Result.bind

(* Runs of characters other than ' ' and '\t' before the first '#' (a
   comment), scanned right to left so the list comes out in order. *)
let tokens line =
  let stop = match String.index_opt line '#' with Some i -> i | None -> String.length line in
  let acc = ref [] and j = ref stop in
  for i = stop - 1 downto -1 do
    if i < 0 || line.[i] = ' ' || line.[i] = '\t' then begin
      if !j > i + 1 then acc := String.sub line (i + 1) (!j - i - 1) :: !acc;
      j := i
    end
  done;
  !acc

let float_of tok =
  try Ok (float_of_string tok) with Failure _ -> Error (tok ^ ": not a number")

let int_of tok =
  try Ok (int_of_string tok) with Failure _ -> Error (tok ^ ": not an integer")

(* [plc x0 y0 x1 y1 ...] straight into the constructor's two arrays:
   the first token that is not a number is the error, then an odd
   count is. *)
let plc_of nums =
  let n = List.length nums in
  let xs = Array.make ((n + 1) / 2) 0.0 and ys = Array.make ((n + 1) / 2) 0.0 in
  let rec fill i = function
    | [] -> Ok ()
    | tok :: rest -> (
        match float_of_string_opt tok with
        | None -> Error (tok ^ ": not a number")
        | Some v ->
            if i land 1 = 0 then xs.(i lsr 1) <- v else ys.(i lsr 1) <- v;
            fill (i + 1) rest)
  in
  let* () = fill 0 nums in
  if n land 1 = 1 then Error "odd number of breakpoint values"
  else Ok (Utility.of_plc (Plc.of_arrays ~xs ~ys))

(* The single-utility grammar of `thread …` lines, shared with the
   service wire protocol (ADMIT/UPDATE carry one spec each). *)
let parse_thread ~cap args =
  try
    match args with
    | "plc" :: nums -> plc_of nums
    | [ "power"; c; b ] ->
        let* c = float_of c in
        let* b = float_of b in
        Ok (Utility.Shapes.power ~cap ~coeff:c ~beta:b)
    | [ "log"; c; r ] ->
        let* c = float_of c in
        let* r = float_of r in
        Ok (Utility.Shapes.log_utility ~cap ~coeff:c ~rate:r)
    | [ "saturating"; l; h ] ->
        let* l = float_of l in
        let* h = float_of h in
        Ok (Utility.Shapes.saturating ~cap ~limit:l ~halfway:h)
    | [ "expsat"; l; r ] ->
        let* l = float_of l in
        let* r = float_of r in
        Ok (Utility.Shapes.exp_saturating ~cap ~limit:l ~rate:r)
    | [ "capped"; s; k ] ->
        let* s = float_of s in
        let* k = float_of k in
        Ok (Utility.Shapes.capped_linear ~cap ~slope:s ~knee:k)
    | [ "linear"; s ] ->
        let* s = float_of s in
        Ok (Utility.Shapes.linear ~cap ~slope:s)
    | kind :: _ -> Error ("unknown thread kind: " ^ kind)
    | [] -> Error "empty thread declaration"
  with Invalid_argument msg -> Error msg

let parse_thread_spec ~cap spec = parse_thread ~cap (tokens spec)

let parse_instance text =
  let lines = String.split_on_char '\n' text in
  let servers = ref None in
  let capacity = ref None in
  let threads = ref [] in
  let err lineno msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
  let rec go lineno = function
    | [] -> Ok ()
    | line :: rest -> (
        match tokens line with
        | [] -> go (lineno + 1) rest
        | [ "servers"; n ] -> (
            match int_of n with
            | Ok n ->
                servers := Some n;
                go (lineno + 1) rest
            | Error e -> err lineno e)
        | [ "capacity"; c ] -> (
            match float_of c with
            | Ok c ->
                capacity := Some c;
                go (lineno + 1) rest
            | Error e -> err lineno e)
        | "thread" :: args -> (
            match !capacity with
            | None -> err lineno "capacity must be declared before threads"
            | Some cap -> (
                match parse_thread ~cap args with
                | Ok u ->
                    threads := u :: !threads;
                    go (lineno + 1) rest
                | Error e -> err lineno e))
        | tok :: _ -> err lineno ("unknown directive: " ^ tok))
  in
  let* () = go 1 lines in
  match (!servers, !capacity, List.rev !threads) with
  | None, _, _ -> Error "missing 'servers' declaration"
  | _, None, _ -> Error "missing 'capacity' declaration"
  | _, _, [] -> Error "no threads declared"
  | Some m, Some c, ts -> (
      try Ok (Instance.create ~servers:m ~capacity:c (Array.of_list ts))
      with Invalid_argument msg -> Error msg)

let plc_spec p =
  let xs = Plc.Flat.breakpoints p and ys = Plc.Flat.prefix_utility p in
  let buf = Buffer.create (4 + (48 * Array.length xs)) in
  Buffer.add_string buf "plc";
  Array.iteri (fun i x -> Printf.bprintf buf " %.17g %.17g" x ys.(i)) xs;
  Buffer.contents buf

(* Shapes-constructed utilities carry their parameters; anything else
   falls back to PLC breakpoints. *)
let print_thread_spec u =
  match u with
  | Utility.Plc p -> plc_spec p
  | Utility.Smooth s -> (
      match s.spec with
      | Some (Utility.Spec_power { coeff; beta }) ->
          Printf.sprintf "power %.17g %.17g" coeff beta
      | Some (Utility.Spec_log { coeff; rate }) ->
          Printf.sprintf "log %.17g %.17g" coeff rate
      | Some (Utility.Spec_saturating { limit; halfway }) ->
          Printf.sprintf "saturating %.17g %.17g" limit halfway
      | Some (Utility.Spec_exp_saturating { limit; rate }) ->
          Printf.sprintf "expsat %.17g %.17g" limit rate
      | None -> plc_spec (Utility.to_plc u))

let print_instance (inst : Instance.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "servers %d\n" inst.servers);
  Buffer.add_string buf (Printf.sprintf "capacity %.17g\n" inst.capacity);
  Array.iter
    (fun u ->
      Buffer.add_string buf "thread ";
      Buffer.add_string buf (print_thread_spec u);
      Buffer.add_char buf '\n')
    inst.utilities;
  Buffer.contents buf

let parse_assignment text =
  let lines = String.split_on_char '\n' text in
  let rows = ref [] in
  let err lineno msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
  let rec go lineno = function
    | [] -> Ok ()
    | line :: rest -> (
        match tokens line with
        | [] -> go (lineno + 1) rest
        | [ "assign"; i; j; c ] -> (
            match (int_of i, int_of j, float_of c) with
            | Ok i, Ok j, Ok c ->
                rows := (i, j, c) :: !rows;
                go (lineno + 1) rest
            | Error e, _, _ | _, Error e, _ | _, _, Error e -> err lineno e)
        | tok :: _ -> err lineno ("unknown directive: " ^ tok))
  in
  let* () = go 1 lines in
  let rows = List.sort compare (List.rev !rows) in
  let n = List.length rows in
  if n = 0 then Error "no assignments"
  else begin
    let server = Array.make n 0 and alloc = Array.make n 0.0 in
    let ok = ref (Ok ()) in
    List.iteri
      (fun expect (i, j, c) ->
        if i <> expect && !ok = Ok () then
          ok := Error (Printf.sprintf "thread ids must be 0..%d without gaps" (n - 1))
        else begin
          server.(expect) <- j;
          alloc.(expect) <- c
        end)
      rows;
    let* () = !ok in
    Ok (Assignment.make ~server ~alloc)
  end

let print_assignment (a : Assignment.t) =
  let buf = Buffer.create 256 in
  Array.iteri
    (fun i j -> Buffer.add_string buf (Printf.sprintf "assign %d %d %.17g\n" i j a.alloc.(i)))
    a.server;
  Buffer.contents buf

let load_instance path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse_instance text
  | exception Sys_error e -> Error e

let save path contents =
  match Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc contents) with
  | () -> Ok ()
  | exception Sys_error e -> Error e
