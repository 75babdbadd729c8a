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

type sink = {
  md5 : Md5.t option;  (* [None] on the first pass: counts only *)
  mutable len : int;
  mutable size_32 : int;
  mutable size_64 : int;
  scratch : Bytes.t;  (* a block header or [[]], as the writer emits it *)
}

let two32 = 1 lsl 32
let magic_small = 0x8495A6BEl
let magic_big = 0x8495A6BFl

let header ~len ~size_32 ~size_64 =
  if len >= two32 || size_32 >= two32 || size_64 >= two32 then begin
    let b = Bytes.make 32 '\000' in
    Bytes.set_int32_be b 0 magic_big;
    Bytes.set_int64_be b 8 (Int64.of_int len);
    Bytes.set_int64_be b 24 (Int64.of_int size_64);
    Bytes.unsafe_to_string b
  end
  else begin
    let b = Bytes.make 20 '\000' in
    Bytes.set_int32_be b 0 magic_small;
    Bytes.set_int32_be b 4 (Int32.of_int len);
    Bytes.set_int32_be b 12 (Int32.of_int size_32);
    Bytes.set_int32_be b 16 (Int32.of_int size_64);
    Bytes.unsafe_to_string b
  end

let u32 str i = Int32.to_int (String.get_int32_be str i) land 0xFFFF_FFFF

(* The body of [str], a [Marshal.to_string] result with the small
   header, less its last [drop] bytes. *)
let add s str ~drop =
  if String.get_int32_be str 0 <> magic_small then
    invalid_arg "Mdigest: a leaf of 2^32 bytes or words";
  let len = u32 str 4 - drop in
  s.len <- s.len + len;
  s.size_32 <- s.size_32 + u32 str 12;
  s.size_64 <- s.size_64 + u32 str 16;
  match s.md5 with None -> () | Some m -> Md5.unsafe_feed m str 20 len

let emit s n =
  s.len <- s.len + n;
  match s.md5 with
  | None -> ()
  | Some m -> Md5.unsafe_feed m (Bytes.unsafe_to_string s.scratch) 0 n

let block s ~tag ~size =
  if size < 1 || size >= 1 lsl 22 || tag < 0 || tag >= Obj.lazy_tag then
    invalid_arg "Mdigest.block";
  if tag < 16 && size < 8 then begin
    Bytes.set_uint8 s.scratch 0 (0x80 + tag + (size lsl 4));
    emit s 1
  end
  else begin
    (* CODE_BLOCK32, then the header word as extern.c writes it: both
       colour bits set *)
    Bytes.set_uint8 s.scratch 0 0x08;
    Bytes.set_int32_be s.scratch 1 (Int32.of_int ((size lsl 10) lor 0x300 lor tag));
    emit s 5
  end;
  s.size_32 <- s.size_32 + 1 + size;
  s.size_64 <- s.size_64 + 1 + size

let marshal v = Marshal.to_string v [ Marshal.No_sharing ]
let value s v = add s (marshal v) ~drop:0

let value_but_last s v =
  let str = marshal v in
  if str.[String.length str - 1] <> '\x40' then
    invalid_arg "Mdigest.value_but_last: the last field is not 0";
  add s str ~drop:1

let list s iter f c =
  iter
    (fun x ->
      block s ~tag:0 ~size:2;
      f s x)
    c;
  Bytes.set_uint8 s.scratch 0 0x40 (* PREFIX_SMALL_INT + 0: [[]] *);
  emit s 1

(* Bodies by hash, told apart by [==]. *)
type 'a memo = (int, ('a * string) list ref) Hashtbl.t

let memo () = Hashtbl.create 16

let shared s m v =
  let h = Hashtbl.hash v in
  let bucket =
    match Hashtbl.find m h with
    | b -> b
    | exception Not_found ->
        let b = ref [] in
        Hashtbl.add m h b;
        b
  in
  let rec find = function
    | (k, str) :: _ when k == v -> str
    | _ :: rest -> find rest
    | [] ->
        let str = marshal v in
        bucket := (v, str) :: !bucket;
        str
  in
  add s (find !bucket) ~drop:0

let run md5 w =
  let s = { md5; len = 0; size_32 = 0; size_64 = 0; scratch = Bytes.create 5 } in
  w s;
  s

let digest w =
  let c = run None w in
  let m = Md5.create () in
  let h = header ~len:c.len ~size_32:c.size_32 ~size_64:c.size_64 in
  Md5.unsafe_feed m h 0 (String.length h);
  let s = run (Some m) w in
  if s.len <> c.len || s.size_32 <> c.size_32 || s.size_64 <> c.size_64 then
    invalid_arg "Mdigest.digest: the writer emitted different parts on its two passes";
  Digest.to_hex (Md5.finish m)

let of_value v =
  let m = memo () in
  digest (fun s -> shared s m v)
