(* Table-driven CRC-32 (reflected, polynomial 0xEDB88320) in plain int
   arithmetic: every intermediate fits comfortably in OCaml's 63-bit
   native int, so no boxed Int32 round trips on the journal hot path.

   The table is built at module initialization, not lazily: shard
   workers on different domains reach their first journal append at
   the same moment, and a lazy forced concurrently from two domains
   raises [Lazy.Undefined] in one of them. *)

let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let string s =
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF

let to_hex c = Printf.sprintf "%08x" (c land 0xFFFFFFFF)
