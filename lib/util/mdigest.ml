(* Marshal's unshared encoding, streamed: see the .mli. The byte
   codes and the header layout are those of the runtime's intext.h;
   the rules for choosing them mirror extern.c. *)

module Md5 = struct
  type t = bytes

  external create : unit -> t = "t11r_md5_init"

  external unsafe_feed : t -> string -> int -> int -> unit = "t11r_md5_update"
  [@@noalloc]

  external finish : t -> Digest.t = "t11r_md5_final"

  let feed m s pos len =
    if pos < 0 || len < 0 || pos > String.length s - len then
      invalid_arg "Mdigest.Md5.feed";
    unsafe_feed m s pos len
end

(* Where the bytes go: nowhere (the first pass counts only), into the
   MD5 a chunk at a time, or into a growing buffer (a memo entry being
   built). *)
type mode = Count | Hash of Md5.t | Capture

type sink = {
  mode : mode;
  mutable buf : Bytes.t;
  mutable pos : int;  (* bytes of [buf] written and not yet fed *)
  mutable len : int;
  mutable size_32 : int;
  mutable size_64 : int;
}

(* A hash sink feeds the MD5 in chunks of this size: the small parts
   (block headers, ints) cost a store each, not a C call. Its buffer
   stays below the minor heap's largest block (256 words), so a digest
   allocates nothing straight into the major heap: a campaign of small
   digests (one per guided hunt) would grow the heap by its buffers. *)
let chunk = 1024

let two32 = 1 lsl 32
let magic_small = 0x8495A6BEl
let magic_big = 0x8495A6BFl
let small_header = 20

let header ~len ~size_32 ~size_64 =
  if len >= two32 || size_32 >= two32 || size_64 >= two32 then begin
    let b = Bytes.make 32 '\000' in
    Bytes.set_int32_be b 0 magic_big;
    Bytes.set_int64_be b 8 (Int64.of_int len);
    Bytes.set_int64_be b 24 (Int64.of_int size_64);
    Bytes.unsafe_to_string b
  end
  else begin
    let b = Bytes.make small_header '\000' in
    Bytes.set_int32_be b 0 magic_small;
    Bytes.set_int32_be b 4 (Int32.of_int len);
    Bytes.set_int32_be b 12 (Int32.of_int size_32);
    Bytes.set_int32_be b 16 (Int32.of_int size_64);
    Bytes.unsafe_to_string b
  end

let flush s m =
  Md5.unsafe_feed m (Bytes.unsafe_to_string s.buf) 0 s.pos;
  s.pos <- 0

(* Make room for [n] more bytes at [s.pos]. A counting sink writes
   over its scratch; a hash sink feeds what it holds; a capture sink
   grows. *)
let make_room s n =
  match s.mode with
  | Count -> s.pos <- 0
  | Hash m -> flush s m
  | Capture ->
      let b = Bytes.create (max (2 * Bytes.length s.buf) (s.pos + n)) in
      Bytes.blit s.buf 0 b 0 s.pos;
      s.buf <- b

(* The offset at which to store [n] (at most 9) bytes. *)
let[@inline] reserve s n =
  if s.pos + n > Bytes.length s.buf then make_room s n;
  let p = s.pos in
  s.pos <- p + n;
  s.len <- s.len + n;
  p

(* [str.[pos .. pos+len-1]], as data. *)
let put s str pos len =
  s.len <- s.len + len;
  match s.mode with
  | Count -> ()
  | Hash m when s.pos + len > chunk ->
      flush s m;
      if len >= chunk then Md5.unsafe_feed m str pos len
      else begin
        Bytes.blit_string str pos s.buf 0 len;
        s.pos <- len
      end
  | Hash _ | Capture ->
      if s.pos + len > Bytes.length s.buf then make_room s len;
      Bytes.blit_string str pos s.buf s.pos len;
      s.pos <- s.pos + len

let u32 str i = Int32.to_int (String.get_int32_be str i) land 0xFFFF_FFFF

(* The body of [str], a [Marshal.to_string] result with the small
   header, less its first [skip] and last [drop] bytes and [words]
   words of its size counts. *)
let add s str ~skip ~drop ~words =
  if not (Int32.equal (String.get_int32_be str 0) magic_small) then
    invalid_arg "Mdigest: a leaf of 2^32 bytes or words";
  s.size_32 <- s.size_32 + u32 str 12 - words;
  s.size_64 <- s.size_64 + u32 str 16 - words;
  put s str (small_header + skip) (u32 str 4 - skip - drop)

let[@inline] block s ~tag ~size =
  if size < 1 || size >= 1 lsl 22 || tag < 0 || tag >= Obj.lazy_tag then
    invalid_arg "Mdigest.block";
  if tag < 16 && size < 8 then begin
    let p = reserve s 1 in
    Bytes.unsafe_set s.buf p (Char.unsafe_chr (0x80 + tag + (size lsl 4)))
  end
  else begin
    (* CODE_BLOCK32, then the header word as extern.c writes it: both
       colour bits set *)
    let p = reserve s 5 in
    Bytes.unsafe_set s.buf p '\x08';
    Bytes.set_int32_be s.buf (p + 1) (Int32.of_int ((size lsl 10) lor 0x300 lor tag))
  end;
  s.size_32 <- s.size_32 + 1 + size;
  s.size_64 <- s.size_64 + 1 + size

(* extern.c's choice for an immediate: PREFIX_SMALL_INT, then
   CODE_INT8, CODE_INT16, CODE_INT32 (what a 32-bit OCaml int holds)
   and CODE_INT64. *)
let[@inline] int s n =
  if n >= 0 && n < 0x40 then begin
    let p = reserve s 1 in
    Bytes.unsafe_set s.buf p (Char.unsafe_chr (0x40 + n))
  end
  else if n >= -0x80 && n < 0x80 then begin
    let p = reserve s 2 in
    Bytes.unsafe_set s.buf p '\x00';
    Bytes.set_int8 s.buf (p + 1) n
  end
  else if n >= -0x8000 && n < 0x8000 then begin
    let p = reserve s 3 in
    Bytes.unsafe_set s.buf p '\x01';
    Bytes.set_int16_be s.buf (p + 1) n
  end
  else if n >= -(1 lsl 30) && n < 1 lsl 30 then begin
    let p = reserve s 5 in
    Bytes.unsafe_set s.buf p '\x02';
    Bytes.set_int32_be s.buf (p + 1) (Int32.of_int n)
  end
  else begin
    let p = reserve s 9 in
    Bytes.unsafe_set s.buf p '\x03';
    Bytes.set_int64_be s.buf (p + 1) (Int64.of_int n)
  end

let marshal v = Marshal.to_string v [ Marshal.No_sharing ]
let value s v = add s (marshal v) ~skip:0 ~drop:0 ~words:0

type body = { data : string; words_32 : int; words_64 : int }

let body v =
  let str = marshal v in
  { data = String.sub str small_header (u32 str 4); words_32 = u32 str 12;
    words_64 = u32 str 16 }

let[@inline] raw s b =
  s.size_32 <- s.size_32 + b.words_32;
  s.size_64 <- s.size_64 + b.words_64;
  put s b.data 0 (String.length b.data)

let value_but_last s v =
  let str = marshal v in
  if str.[String.length str - 1] <> '\x40' then
    invalid_arg "Mdigest.value_but_last: the last field is not 0";
  add s str ~skip:0 ~drop:1 ~words:0

let fields s v =
  let str = marshal v in
  let code = Char.code str.[small_header] in
  if code >= 0x80 then
    add s str ~skip:1 ~drop:0 ~words:(1 + ((code lsr 4) land 7))
  else if code = 0x08 then
    add s str ~skip:5 ~drop:0 ~words:(1 + (u32 str (small_header + 1) lsr 10))
  else invalid_arg "Mdigest.fields: not a block of fewer than 2^22 fields"

let list s iter f c =
  iter
    (fun x ->
      block s ~tag:0 ~size:2;
      f s x)
    c;
  int s 0 (* [[]] *)

let sink mode =
  (* a counting sink's scratch holds one part of at most 9 bytes *)
  let buf = Bytes.create (match mode with Count -> 16 | Hash _ -> chunk | Capture -> 64) in
  { mode; buf; pos = 0; len = 0; size_32 = 0; size_64 = 0 }

(* Parts by hash, told apart by [==]. An entry holds its value, the
   counts of its parts, how often the first pass met it, and, once
   built, its parts as a Marshal string (the small header, then the
   body). *)
type 'a entry = {
  key : 'a;
  mutable parts : string option;
  e_len : int;
  e_size_32 : int;
  e_size_64 : int;
  mutable seen : int;
}

type 'a memo = {
  hash : 'a -> int;
  tbl : (int, 'a entry list) Hashtbl.t;
  capture : sink;  (* where [shared] builds parts, reused *)
}

let memo ?(hash = Hashtbl.hash) () =
  { hash; tbl = Hashtbl.create 16; capture = sink Capture }

let bucket m h = match Hashtbl.find m.tbl h with l -> l | exception Not_found -> []

let rec find v = function
  | e :: rest -> if e.key == v then Some e else find v rest
  | [] -> None

(* [w c v] on the memo's capture sink, as a Marshal string. *)
let capture m w v =
  let c = m.capture in
  c.pos <- small_header;
  c.len <- 0;
  c.size_32 <- 0;
  c.size_64 <- 0;
  w c v;
  let h = header ~len:c.len ~size_32:c.size_32 ~size_64:c.size_64 in
  if String.length h <> small_header then
    invalid_arg "Mdigest.shared: a part of 2^32 bytes or words";
  Bytes.blit_string h 0 c.buf 0 small_header;
  Bytes.sub_string c.buf 0 c.pos

let shared s m w v =
  let h = m.hash v in
  let l = bucket m h in
  match (find v l, s.mode) with
  | None, Count ->
      (* The first sight: write it, keeping only the counts. *)
      let len = s.len and size_32 = s.size_32 and size_64 = s.size_64 in
      w s v;
      Hashtbl.replace m.tbl h
        ({ key = v; parts = None; e_len = s.len - len;
           e_size_32 = s.size_32 - size_32; e_size_64 = s.size_64 - size_64;
           seen = 1 }
        :: l)
  | None, _ ->
      (* Met on no first pass: digest or capture it as it comes. *)
      w s v
  | Some e, Count ->
      e.seen <- e.seen + 1;
      s.len <- s.len + e.e_len;
      s.size_32 <- s.size_32 + e.e_size_32;
      s.size_64 <- s.size_64 + e.e_size_64
  | Some e, _ -> (
      match e.parts with
      | Some str -> add s str ~skip:0 ~drop:0 ~words:0
      | None when e.seen = 1 || s == m.capture -> w s v
      | None ->
          let str = capture m w v in
          e.parts <- Some str;
          add s str ~skip:0 ~drop:0 ~words:0)

let run mode w =
  let s = sink mode in
  w s;
  s

let digest w =
  let c = run Count w in
  let m = Md5.create () in
  let h = header ~len:c.len ~size_32:c.size_32 ~size_64:c.size_64 in
  Md5.unsafe_feed m h 0 (String.length h);
  let s = run (Hash m) w in
  if s.len <> c.len || s.size_32 <> c.size_32 || s.size_64 <> c.size_64 then
    invalid_arg "Mdigest.digest: the writer emitted different parts on its two passes";
  flush s m;
  Digest.to_hex (Md5.finish m)

let of_value v =
  let str = marshal v in
  digest (fun s -> add s str ~skip:0 ~drop:0 ~words:0)
