(* CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) over strings.

   Used to frame every demo file, the demo MANIFEST and each campaign
   journal line. A plain table-driven byte-at-a-time implementation is
   plenty: framing is computed once per saved file / journal entry,
   never on the per-operation hot path (test/test_alloc.ml budgets the
   demo save/load cost separately). *)

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1)
           else c := !c lsr 1
         done;
         !c))

let update crc s pos len =
  let t = Lazy.force table in
  let c = ref (crc lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    c := t.((!c lxor Char.code (String.unsafe_get s i)) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let string s = update 0 s 0 (String.length s)
let to_hex crc = Printf.sprintf "%08X" (crc land 0xFFFFFFFF)

let of_hex s =
  if String.length s <> 8 then None
  else
    match int_of_string_opt ("0x" ^ s) with
    | Some v when v >= 0 -> Some v
    | _ -> None
