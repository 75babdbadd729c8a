open T11r_util

type signal_entry = { s_tid : int; s_tick : int; s_signo : int }
type async_kind = Reschedule | Signal_wakeup of int
type async_entry = { a_tick : int; a_kind : async_kind }

type syscall_entry = {
  sc_tick : int;
  sc_tid : int;
  sc_label : string;
  sc_ret : int;
  sc_errno : int;
  sc_elapsed : int;
  sc_data : bytes;
}

type queue_data = { first_ticks : (int * int) list; next_ticks : int list }

type meta = {
  app : string;
  strategy : string;
  seed1 : int64;
  seed2 : int64;
  ticks : int;
  output_digest : string;
}

type t = {
  meta : meta;
  queue : queue_data option;
  signals : signal_entry list;
  syscalls : syscall_entry list;
  asyncs : async_entry list;
  extra : (string * string list) list;
}

(* -- structured corruption errors ----------------------------------- *)

type corruption = { c_file : string; c_line : int; c_reason : string }

exception Corrupt of corruption

let corruption_to_string c =
  if c.c_line > 0 then Printf.sprintf "%s:%d: %s" c.c_file c.c_line c.c_reason
  else Printf.sprintf "%s: %s" c.c_file c.c_reason

let () =
  Printexc.register_printer (function
    | Corrupt c -> Some ("Demo.Corrupt: " ^ corruption_to_string c)
    | _ -> None)

let corrupt file line fmt =
  Printf.ksprintf
    (fun reason -> raise (Corrupt { c_file = file; c_line = line; c_reason = reason }))
    fmt

(* -- rendering ------------------------------------------------------ *)

(* Bump when the on-disk layout changes incompatibly. The loader
   requires this version in META's "format" line, and the CRC framing
   below on every file. *)
let format_version = 1

(* A growable byte buffer: a [Buffer.t] whose bytes stay in reach, so
   a file is checksummed and written from where it was rendered, with
   no copy of its payload. *)
type out = { mutable buf : bytes; mutable len : int }

let out_create () = { buf = Bytes.create 4096; len = 0 }

let reserve o n =
  if o.len + n > Bytes.length o.buf then begin
    let cap = ref (2 * Bytes.length o.buf) in
    while o.len + n > !cap do
      cap := 2 * !cap
    done;
    let b = Bytes.create !cap in
    Bytes.blit o.buf 0 b 0 o.len;
    o.buf <- b
  end

(* The renderers call these per byte and per field: inlined. *)
let[@inline] add_char o c =
  if o.len = Bytes.length o.buf then reserve o 1;
  Bytes.unsafe_set o.buf o.len c;
  o.len <- o.len + 1

let[@inline] add_string o s =
  let n = String.length s in
  reserve o n;
  Bytes.unsafe_blit_string s 0 o.buf o.len n;
  o.len <- o.len + n

(* Each renderer appends one file's payload lines to [o] and returns
   how many it wrote; saving, the MANIFEST and the size metrics all go
   through them. Integers are written digit by digit: a demo has
   thousands of them and [Printf] would interpret a format for each. *)

(* [n] exactly as [%d] prints it, written in place from its last
   digit back. Working on the negative side keeps [min_int] in range. *)
let add_int o n =
  let neg = if n < 0 then n else -n in
  let width = ref (if n < 0 then 2 else 1) and m = ref neg in
  while !m <= -10 do
    incr width;
    m := !m / 10
  done;
  reserve o !width;
  let m = ref neg and i = ref (o.len + !width - 1) in
  while !m <= -10 do
    Bytes.unsafe_set o.buf !i (Char.unsafe_chr (Char.code '0' - (!m mod 10)));
    m := !m / 10;
    decr i
  done;
  Bytes.unsafe_set o.buf !i (Char.unsafe_chr (Char.code '0' - !m));
  if n < 0 then Bytes.unsafe_set o.buf o.len '-';
  o.len <- o.len + !width

let[@inline] add_sp_int o n =
  add_char o ' ';
  add_int o n

let add_line o s =
  add_string o s;
  add_char o '\n'

let hex_digits = "0123456789ABCDEF"

(* One byte as [Codec.escape] writes it. *)
let[@inline] add_escaped_char o c =
  if not (Codec.needs_escape c) then add_char o c
  else begin
    reserve o 3;
    Bytes.unsafe_set o.buf o.len '%';
    Bytes.unsafe_set o.buf (o.len + 1) hex_digits.[Char.code c lsr 4];
    Bytes.unsafe_set o.buf (o.len + 2) hex_digits.[Char.code c land 0xF];
    o.len <- o.len + 3
  end

let render_lines lines o =
  List.iter (add_line o) lines;
  List.length lines

let render_meta m o =
  add_string o "format ";
  add_int o format_version;
  add_string o "\napp ";
  add_string o (Codec.escape m.app);
  add_string o "\nstrategy ";
  add_string o m.strategy;
  add_string o "\nseed1 ";
  add_string o (Int64.to_string m.seed1);
  add_string o "\nseed2 ";
  add_string o (Int64.to_string m.seed2);
  add_string o "\nticks ";
  add_int o m.ticks;
  add_string o "\noutput_digest ";
  add_line o m.output_digest;
  7

(* The QUEUE of a run whose tick [i] ran thread [tids.(i)], for
   [i < n], in one backward pass: for each critical-section exit, the
   exiting thread's next tick (-1 after its last); what is left in
   [next] at the end is each thread's first tick. *)
let queue_of_trace tids n =
  let top = Array.fold_left max (-1) (Array.sub tids 0 n) in
  let next = Array.make (top + 1) (-1) in
  let next_ticks = ref [] in
  for i = n - 1 downto 0 do
    let tid = tids.(i) in
    next_ticks := next.(tid) :: !next_ticks;
    next.(tid) <- i
  done;
  let first_ticks = List.init (top + 1) (fun tid -> (tid, next.(tid))) in
  let first_ticks = List.filter (fun (_, tick) -> tick >= 0) first_ticks in
  { first_ticks; next_ticks = !next_ticks }

(* QUEUE: "first" lines map tids to their first tick; the tick list is
   delta-encoded then run-length encoded ("t delta count"), so a
   thread scheduled many times in a row (delta 1) compresses to a
   single line. *)
let render_queue q o =
  add_line o "queue";
  List.iter
    (fun (tid, tick) ->
      add_string o "first";
      add_sp_int o tid;
      add_sp_int o tick;
      add_char o '\n')
    q.first_ticks;
  let runs = ref 0 in
  let add_run d n =
    add_char o 't';
    add_sp_int o d;
    add_sp_int o n;
    add_char o '\n';
    incr runs
  in
  (match q.next_ticks with
  | [] -> ()
  | first :: rest ->
      let prev = ref first and d = ref first and n = ref 1 in
      List.iter
        (fun t ->
          let d' = t - !prev in
          prev := t;
          if d' = !d then incr n
          else begin
            add_run !d !n;
            d := d';
            n := 1
          end)
        rest;
      add_run !d !n);
  1 + List.length q.first_ticks + !runs

let render_signals ss o =
  List.iter
    (fun s ->
      add_int o s.s_tid;
      add_sp_int o s.s_tick;
      add_sp_int o s.s_signo;
      add_char o '\n')
    ss;
  List.length ss

(* SYSCALL's data field is the escaped byte RLE of the data: each
   [Rle.chunks] chunk is escaped as it is emitted, with no encoded
   string in between. Non-empty data has a non-empty encoding, so only
   empty data takes [escape]'s ["%-"]. *)
let render_syscalls scs o =
  let run c len =
    add_escaped_char o Rle.run_marker;
    add_escaped_char o (Char.unsafe_chr len);
    add_escaped_char o c
  and lit b start len =
    add_escaped_char o Rle.lit_marker;
    add_escaped_char o (Char.unsafe_chr len);
    for i = start to start + len - 1 do
      add_escaped_char o (Bytes.unsafe_get b i)
    done
  in
  List.iter
    (fun s ->
      add_int o s.sc_tick;
      add_sp_int o s.sc_tid;
      add_char o ' ';
      add_string o s.sc_label;
      add_sp_int o s.sc_ret;
      add_sp_int o s.sc_errno;
      add_sp_int o s.sc_elapsed;
      add_char o ' ';
      if Bytes.length s.sc_data = 0 then add_string o "%-"
      else Rle.chunks s.sc_data ~run ~lit;
      add_char o '\n')
    scs;
  List.length scs

let render_asyncs es o =
  List.iter
    (fun e ->
      add_int o e.a_tick;
      (match e.a_kind with
      | Reschedule -> add_string o " resched"
      | Signal_wakeup tid ->
          add_string o " sigwake";
          add_sp_int o tid);
      add_char o '\n')
    es;
  List.length es

(* The paper's files of a demo in MANIFEST order, as (name, renderer);
   its extra files follow them. *)
let paper_files t =
  (("META", render_meta t.meta)
  :: (match t.queue with Some q -> [ ("QUEUE", render_queue q) ] | None -> []))
  @ [
      ("SIGNAL", render_signals t.signals);
      ("SYSCALL", render_syscalls t.syscalls);
      ("ASYNC", render_asyncs t.asyncs);
    ]

(* -- CRC framing ---------------------------------------------------- *)

(* Every saved file ends with one trailer line

     #crc <8-hex CRC-32 of the payload text> <payload line count>

   ('#' never starts a payload line in this format), and the directory
   carries a MANIFEST of per-file payload sizes and checksums — itself
   a framed file — so truncation of a whole file tail (including the
   trailer) is still detected. *)

let manifest_name = "MANIFEST"
let trailer_tag = "#crc"

(* Whether the line [s.[a .. e-1]] is a trailer. *)
let is_trailer_at s a e = e - a >= 4 && Codec.is_at s a (a + 4) trailer_tag

(* [crc] as [Crc.to_hex] writes it: eight upper-case hex digits. *)
let add_hex8 o crc =
  reserve o 8;
  for i = 0 to 7 do
    Bytes.unsafe_set o.buf (o.len + i) hex_digits.[(crc lsr (28 - (4 * i))) land 0xF]
  done;
  o.len <- o.len + 8

(* The MANIFEST of files [0, n): names, payload sizes and CRCs. *)
let render_manifest names sizes crcs n o =
  for k = 0 to n - 1 do
    add_string o "file ";
    add_string o names.(k);
    add_sp_int o sizes.(k);
    add_char o ' ';
    add_hex8 o crcs.(k);
    add_char o '\n'
  done;
  n

(* -- crash-atomic save ---------------------------------------------- *)

(* A demo's files, framed, back to back in one buffer: file [k] is
   named [r_names.(k)] and is [r_out.buf.[r_ends.(k - 1) .. r_ends.(k)
   - 1]] (from 0 for the first), its trailer included. The MANIFEST
   comes last. *)
type rendered = { r_out : out; r_names : string array; r_ends : int array }

(* Frame every (name, renderer), then their MANIFEST: each payload is
   rendered into the one buffer, checksummed in place and followed by
   its trailer. *)
let render_files files =
  let o = out_create () in
  let n = List.length files in
  let names = Array.make (n + 1) manifest_name and ends = Array.make (n + 1) 0 in
  let sizes = Array.make n 0 and crcs = Array.make n 0 in
  let frame k render =
    let start = o.len in
    let lines = render o in
    let size = o.len - start in
    (* The string view is read before [o] changes again. *)
    let crc = Crc.update 0 (Bytes.unsafe_to_string o.buf) start size in
    add_string o trailer_tag;
    add_char o ' ';
    add_hex8 o crc;
    add_sp_int o lines;
    add_char o '\n';
    ends.(k) <- o.len;
    if k < n then begin
      sizes.(k) <- size;
      crcs.(k) <- crc
    end
  in
  List.iteri
    (fun k (name, render) ->
      names.(k) <- name;
      frame k render)
    files;
  frame n (render_manifest names sizes crcs n);
  { r_out = o; r_names = names; r_ends = ends }

(* The paper's files, then the extra ones. *)
let render t =
  render_files
    (paper_files t @ List.map (fun (name, lines) -> (name, render_lines lines)) t.extra)

type written = Unix.file_descr array

let close_upto fds n =
  for k = 0 to n - 1 do
    try Unix.close fds.(k) with Unix.Unix_error _ -> ()
  done

(* Create each file in [dir] and write it whole on its own descriptor,
   in order ([Unix.write] writes every byte or raises). The
   descriptors stay open for the fsync pass; on a failure the ones
   already opened are closed before the exception goes on. *)
let write r ~dir =
  let n = Array.length r.r_names in
  let fds = Array.make n Unix.stdin and opened = ref 0 in
  try
    for k = 0 to n - 1 do
      fds.(k) <-
        Unix.openfile
          (Filename.concat dir r.r_names.(k))
          [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
          0o666;
      opened := k + 1;
      let start = if k = 0 then 0 else r.r_ends.(k - 1) in
      ignore (Unix.write fds.(k) r.r_out.buf start (r.r_ends.(k) - start))
    done;
    fds
  with e ->
    close_upto fds !opened;
    raise e

let sync fds = Array.iter Unix.fsync fds
let close fds = close_upto fds (Array.length fds)

let fsync_dir path =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let save ?(durable = true) t ~dir =
  let parent = Filename.dirname dir in
  Codec.mkdir_p parent;
  (* Write everything into a fresh sibling directory, fsync every file
     in one pass after the last write, then the directory, then rename
     into place. A crash before the first rename leaves the old demo
     at [dir]; one after the second leaves the new demo there. In
     between, [dir] is absent and the old demo is complete at
     [<tmp>.old]. *)
  let tmp =
    Tmp.fresh_dir ~base:parent ~prefix:(Filename.basename dir ^ ".save") ()
  in
  try
    let fds = write (render t) ~dir:tmp in
    Fun.protect ~finally:(fun () -> close fds) (fun () -> if durable then sync fds);
    if durable then fsync_dir tmp;
    if Sys.file_exists dir then begin
      let old = tmp ^ ".old" in
      Unix.rename dir old;
      Unix.rename tmp dir;
      Tmp.rm_rf old
    end
    else Unix.rename tmp dir;
    if durable then fsync_dir parent
  with e ->
    Tmp.rm_rf tmp;
    raise e

(* -- verified framed reads ------------------------------------------ *)

(* Files are read whole; [Codec] cuts their lines and fields in place.
   A line is [s.[a .. e-1]], numbered from 1. *)

(* Field [k] of the last [Codec.fields] cut, as a string. *)
let field s fld k = String.sub s fld.(2 * k) (fld.((2 * k) + 1) - fld.(2 * k))

(* The lines of [s.[0 .. b-1]]. *)
let lines_in s b =
  let acc = ref [] in
  Codec.iter_lines s 0 b (fun a e _ -> acc := String.sub s a (e - a) :: !acc);
  List.rev !acc

let parse_trailer ~file ~line s a e =
  let fld = Array.make 6 0 in
  let malformed () =
    corrupt file line "malformed trailer %S" (String.sub s a (e - a))
  in
  if not (Codec.fields s a e fld = 3 && Codec.field_is s fld 0 trailer_tag) then
    malformed ();
  match (Crc.of_hex (field s fld 1), Codec.int_at s fld.(4) fld.(5)) with
  | Some crc, n when n >= 0 -> (crc, n)
  | _ | (exception Invalid_argument _) -> malformed ()

(* A verified file: its text, whose payload is [text.[0 .. size-1]]
   (every payload line with its newline, what the MANIFEST's size and
   CRC cover), and the payload's CRC. *)
type framed = { text : string; size : int; crc : int }

(* The contents of [path]; [missing ()] when there is no such file. *)
let read_or ~missing path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> s
  | exception (Sys_error _ as e) ->
      if Sys.file_exists path then raise e else missing ()

(* Verify and strip the trailer of file [name], read as [s]: one scan
   finds the trailer (the last line), counts the payload lines and
   notes the first one that looks like a trailer; the CRC runs over the
   file's own bytes, which before the trailer are exactly the payload
   text. The checks, in order: a well-formed trailer, no misplaced
   one, the line count, the checksum. *)
let framed name s =
  let n = String.length s in
  let e = if n > 0 && s.[n - 1] = '\n' then n - 1 else n in
  let size = ref e in
  while !size > 0 && String.unsafe_get s (!size - 1) <> '\n' do
    decr size
  done;
  let size = !size in
  if not (n > 0 && is_trailer_at s size e) then
    corrupt name 0 "no %s trailer (truncated?)" trailer_tag;
  let lines = ref 0 and misplaced = ref 0 in
  Codec.iter_lines s 0 size (fun a e ln ->
      if !misplaced = 0 && is_trailer_at s a e then misplaced := ln;
      lines := ln);
  let ln = !lines + 1 in
  let crc, count = parse_trailer ~file:name ~line:ln s size e in
  if !misplaced > 0 then corrupt name !misplaced "misplaced trailer";
  if !lines <> count then
    corrupt name ln "%d payload lines but trailer says %d (truncated?)" !lines
      count;
  if Crc.update 0 s 0 size <> crc then
    corrupt name ln "payload does not match trailer checksum";
  { text = s; size; crc }

(* Every file the MANIFEST lists, verified against its entry, as
   (name, file) in MANIFEST order. *)
let read_manifest ~dir =
  let m =
    framed manifest_name
      (read_or
         ~missing:(fun () -> corrupt manifest_name 0 "no %s in %s" manifest_name dir)
         (Filename.concat dir manifest_name))
  in
  let s = m.text and fld = Array.make 10 0 and files = ref [] in
  Codec.iter_lines s 0 m.size (fun a e ln ->
      let bad () =
        corrupt manifest_name ln "bad MANIFEST line %S" (String.sub s a (e - a))
      in
      match Codec.fields s a e fld with
      | 0 -> ()
      | 4 when Codec.field_is s fld 0 "file" -> (
          let name = field s fld 1 in
          if Filename.basename name <> name then
            corrupt manifest_name ln "bad file name %S" name;
          match (Codec.int_at s fld.(4) fld.(5), Crc.of_hex (field s fld 3)) with
          | size, Some crc ->
              let missing () = corrupt name 0 "listed in MANIFEST but missing" in
              let f = framed name (read_or ~missing (Filename.concat dir name)) in
              if f.size <> size then
                corrupt name 0
                  "%d payload bytes but MANIFEST says %d (truncated?)" f.size
                  size;
              if f.crc <> crc then
                corrupt name 0 "payload does not match MANIFEST checksum";
              files := (name, f) :: !files
          | _, None | (exception Invalid_argument _) -> bad ())
      | _ -> bad ());
  List.rev !files

(* -- parsing -------------------------------------------------------- *)

(* [Codec] cuts each line into fields and reads their values in place;
   its [Invalid_argument], and [Rle]'s, becomes a [Corrupt] naming the
   file and line. Where a line has several fields to convert, they go
   last to first, the order in which the record expressions of earlier
   builds were evaluated, so a line with two bad fields is blamed on
   the same one. *)

(* Scratch for parsing one file: the bounds of the current line's
   fields, and SYSCALL's data field unescaped, then decoded. *)
type scan = { file : string; fld : int array; mutable raw : Bytes.t; dec : Buffer.t }

let scan file = { file; fld = Array.make 16 0; raw = Bytes.empty; dec = Buffer.create 256 }
let int_at sc s k = Codec.int_at s sc.fld.(2 * k) sc.fld.((2 * k) + 1)

(* Field [k] as SYSCALL's data. It is unescaped whole before it is
   RLE-decoded, so of an escape error and an RLE error in one field the
   escape's is reported. Only ["%-"] decodes to no bytes. *)
let data_at sc s k =
  let a = sc.fld.(2 * k) and b = sc.fld.((2 * k) + 1) in
  if Bytes.length sc.raw < b - a then sc.raw <- Bytes.create (2 * (b - a));
  let n = Codec.unescape_into s a b sc.raw in
  Buffer.clear sc.dec;
  Rle.decode_into (Bytes.unsafe_to_string sc.raw) 0 n sc.dec;
  if n = 0 then Bytes.empty else Buffer.to_bytes sc.dec

let bad_line sc s a e ln =
  corrupt sc.file ln "bad %s line %S" sc.file (String.sub s a (e - a))

(* The per-line parsers, shared by [load] and [salvage]: the line
   [s.[a .. e-1]], numbered [ln] (0 in a salvage). *)

let queue_run_length ~file ~line n =
  if n <= 0 then corrupt file line "non-positive QUEUE run length %d" n;
  (* A corrupt count must not make the decoder materialise a giant
     list before anyone can reject the demo. *)
  if n > 10_000_000 then corrupt file line "absurd QUEUE run length %d" n;
  n

(* One QUEUE line: a thread's first tick joins [firsts], a run of
   next-tick deltas joins [runs] (both reversed). *)
let queue_line sc firsts runs s a e ln =
  match Codec.fields s a e sc.fld with
  | 0 -> ()
  | 1 when Codec.field_is s sc.fld 0 "queue" -> ()
  | 3 when Codec.field_is s sc.fld 0 "first" ->
      let tick = int_at sc s 2 in
      let tid = int_at sc s 1 in
      firsts := (tid, tick) :: !firsts
  | 3 when Codec.field_is s sc.fld 0 "t" ->
      let n = queue_run_length ~file:sc.file ~line:ln (int_at sc s 2) in
      let d = int_at sc s 1 in
      runs := (d, n) :: !runs
  | _ -> bad_line sc s a e ln

(* The queue of the lines [queue_line] gathered. The deltas accumulate
   into absolute next ticks; built from the last run back, each tick
   is the one after it minus its delta, starting from the sum of all
   deltas, so the list comes out in order with no reversal. *)
let queue_of ~firsts ~runs =
  let total = List.fold_left (fun acc (d, n) -> acc + (d * n)) 0 runs in
  let ticks = ref [] and next = ref total in
  List.iter
    (fun (d, n) ->
      for _ = 1 to n do
        ticks := !next :: !ticks;
        next := !next - d
      done)
    runs;
  { first_ticks = List.rev firsts; next_ticks = !ticks }

let signal_line sc s a e ln =
  match Codec.fields s a e sc.fld with
  | 0 -> None
  | 3 ->
      let s_signo = int_at sc s 2 in
      let s_tick = int_at sc s 1 in
      let s_tid = int_at sc s 0 in
      Some { s_tid; s_tick; s_signo }
  | _ -> bad_line sc s a e ln

let syscall_line sc s a e ln =
  match Codec.fields s a e sc.fld with
  | 0 -> None
  | 7 ->
      let sc_data = data_at sc s 6 in
      let sc_elapsed = int_at sc s 5 in
      let sc_errno = int_at sc s 4 in
      let sc_ret = int_at sc s 3 in
      let sc_label = field s sc.fld 2 in
      let sc_tid = int_at sc s 1 in
      let sc_tick = int_at sc s 0 in
      Some { sc_tick; sc_tid; sc_label; sc_ret; sc_errno; sc_elapsed; sc_data }
  | _ -> bad_line sc s a e ln

let async_line sc s a e ln =
  match Codec.fields s a e sc.fld with
  | 0 -> None
  | 2 when Codec.field_is s sc.fld 1 "resched" ->
      Some { a_tick = int_at sc s 0; a_kind = Reschedule }
  | 3 when Codec.field_is s sc.fld 1 "sigwake" ->
      let tid = int_at sc s 2 in
      let a_tick = int_at sc s 0 in
      Some { a_tick; a_kind = Signal_wakeup tid }
  | _ -> bad_line sc s a e ln

(* A META line's value: its fields after the key, [s.[a .. e-1]]'s,
   joined by single spaces. *)
let meta_value s a e =
  let b = Buffer.create (e - a) and sep = ref false in
  for i = a to e - 1 do
    match String.unsafe_get s i with
    | ' ' -> sep := Buffer.length b > 0
    | c ->
        if !sep then Buffer.add_char b ' ';
        sep := false;
        Buffer.add_char b c
  done;
  Buffer.contents b

(* META's conversions funnel Codec Invalid_argument into a Corrupt
   naming the file and line. *)
let guard ~file ~line f =
  try f () with
  | Corrupt _ as e -> raise e
  | Invalid_argument m | Failure m -> corrupt file line "%s" m

let parse_meta f =
  let file = "META" and s = f.text in
  let tbl = Hashtbl.create 8 and fld = Array.make 2 0 in
  Codec.iter_lines s 0 f.size (fun a e ln ->
      if Codec.fields s a e fld > 0 then
        Hashtbl.replace tbl (field s fld 0) (ln, meta_value s fld.(1) e));
  let get k =
    match Hashtbl.find_opt tbl k with
    | Some lv -> lv
    | None -> corrupt file 0 "missing key %s" k
  in
  let conv k f =
    let ln, v = get k in
    guard ~file ~line:ln (fun () -> f v 0 (String.length v))
  in
  (let ln, v = get "format" in
   if int_of_string_opt v <> Some format_version then
     corrupt file ln "unsupported demo format version %S (this build reads %d)"
       v format_version);
  let output_digest = snd (get "output_digest") in
  let ticks = conv "ticks" Codec.int_at in
  let seed2 = conv "seed2" Codec.int64_at in
  let seed1 = conv "seed1" Codec.int64_at in
  let strategy = snd (get "strategy") in
  let app = conv "app" Codec.unescape_at in
  { app; strategy; seed1; seed2; ticks; output_digest }

(* [eat a e ln] at each payload line of [f]; a [Codec] or [Rle] error
   names the line. *)
let each_line name f eat =
  Codec.iter_lines f.text 0 f.size (fun a e ln ->
      try eat a e ln with Invalid_argument m -> corrupt name ln "%s" m)

let parse_queue f =
  let sc = scan "QUEUE" and firsts = ref [] and runs = ref [] in
  each_line "QUEUE" f (queue_line sc firsts runs f.text);
  queue_of ~firsts:!firsts ~runs:!runs

(* The entries of one list file, in order. *)
let parse_entries name parse f =
  let sc = scan name and acc = ref [] in
  each_line name f (fun a e ln ->
      match parse sc f.text a e ln with
      | Some v -> acc := v :: !acc
      | None -> ());
  List.rev !acc

let paper_names = [ "META"; "QUEUE"; "SIGNAL"; "SYSCALL"; "ASYNC" ]

let load ~dir =
  try
    if not (Sys.file_exists (Filename.concat dir "META")) then
      raise
        (Corrupt { c_file = "META"; c_line = 0; c_reason = "no META in " ^ dir });
    let files = read_manifest ~dir in
    let listed name =
      match List.assoc_opt name files with
      | Some f -> f
      | None -> corrupt name 0 "not listed in MANIFEST"
    in
    (* Last file first, as earlier builds evaluated this record: of two
       bad files, the later one is named. *)
    let extra =
      List.filter_map
        (fun (name, f) ->
          if List.mem name paper_names then None
          else Some (name, lines_in f.text f.size))
        files
    in
    let asyncs = parse_entries "ASYNC" async_line (listed "ASYNC") in
    let syscalls = parse_entries "SYSCALL" syscall_line (listed "SYSCALL") in
    let signals = parse_entries "SIGNAL" signal_line (listed "SIGNAL") in
    let queue = Option.map parse_queue (List.assoc_opt "QUEUE" files) in
    let meta = parse_meta (listed "META") in
    { meta; queue; signals; syscalls; asyncs; extra }
  with
  | Corrupt _ as e -> raise e
  (* Safety net: whatever else goes wrong reading the directory
     (permissions, stray I/O errors, an escape-decode corner) still
     surfaces as a structured corruption, never a loose exception. *)
  | Invalid_argument m | Failure m | Sys_error m ->
      raise (Corrupt { c_file = dir; c_line = 0; c_reason = m })
  | Unix.Unix_error (e, fn, arg) ->
      raise
        (Corrupt
           {
             c_file = dir;
             c_line = 0;
             c_reason = Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message e);
           })

(* -- salvage -------------------------------------------------------- *)

type salvage_report = { sv_dropped : (string * int) list }

let dropped_total r = List.fold_left (fun a (_, n) -> a + n) 0 r.sv_dropped

(* Keep the longest prefix of the lines of [s] that [eat] accepts;
   checksum trailers are dropped unverified (a truncated file rarely
   keeps one). Returns the number of payload lines abandoned. *)
let salvage_prefix s eat =
  let dropped = ref 0 in
  Codec.iter_lines s 0 (String.length s) (fun a e _ ->
      if not (is_trailer_at s a e) then
        if !dropped > 0 then incr dropped
        else match eat a e with () -> () | exception _ -> dropped := 1);
  !dropped

(* The files beyond the paper's whose own trailer verifies, by name,
   as [load] returns them; and each other one, dropped whole, with its
   payload line count (at least 1, so the report names it). *)
let salvage_extra ~dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun name ->
         name <> manifest_name
         && (not (List.mem name paper_names))
         && not (Sys.is_directory (Filename.concat dir name)))
  |> List.partition_map (fun name ->
         let s = Codec.read_file (Filename.concat dir name) in
         match framed name s with
         | f -> Either.Left (name, lines_in f.text f.size)
         | exception Corrupt _ ->
             let lines = salvage_prefix s (fun _ _ -> raise Exit) in
             Either.Right (name, max 1 lines))

let salvage ~dir =
  let raw name = Codec.read_file (Filename.concat dir name) in
  if not (Sys.file_exists (Filename.concat dir "META")) then
    Error { c_file = "META"; c_line = 0; c_reason = "no META in " ^ dir }
  else begin
    (* META: keep the key/value prefix; strategy and seeds are
       indispensable, everything else degrades gracefully. *)
    let tbl = Hashtbl.create 8 in
    let meta_raw = raw "META" and fld = Array.make 4 0 in
    let meta_dropped =
      salvage_prefix meta_raw (fun a e ->
          match Codec.fields meta_raw a e fld with
          | 0 -> ()
          | n when n >= 2 && Codec.field_is meta_raw fld 0 "format" ->
              let v = field meta_raw fld 1 in
              if int_of_string_opt v <> Some format_version then
                failwith "bad format version"
              else Hashtbl.replace tbl "format" v
          | _ ->
              Hashtbl.replace tbl (field meta_raw fld 0)
                (meta_value meta_raw fld.(1) e))
    in
    let find k = Hashtbl.find_opt tbl k in
    let req_int64 k =
      Option.bind (find k) Int64.of_string_opt
    in
    match (find "strategy", req_int64 "seed1", req_int64 "seed2") with
    | Some strategy, Some seed1, Some seed2 ->
        let meta =
          {
            app =
              (match find "app" with
              | Some a -> (
                  try Codec.unescape_at a 0 (String.length a)
                  with Invalid_argument _ -> a)
              | None -> "?");
            strategy;
            seed1;
            seed2;
            ticks =
              (match Option.bind (find "ticks") int_of_string_opt with
              | Some t -> t
              | None -> 0);
            output_digest =
              (match find "output_digest" with Some d -> d | None -> "");
          }
        in
        let queue_raw = raw "QUEUE" in
        let sc = scan "QUEUE" and firsts = ref [] and runs = ref [] in
        let queue_dropped =
          salvage_prefix queue_raw (fun a e ->
              queue_line sc firsts runs queue_raw a e 0)
        in
        let queue =
          if queue_raw = "" then None
          else Some (queue_of ~firsts:!firsts ~runs:!runs)
        in
        let list_file name parse =
          let s = raw name in
          let sc = scan name and out = ref [] in
          let dropped =
            salvage_prefix s (fun a e ->
                match parse sc s a e 0 with
                | Some v -> out := v :: !out
                | None -> ())
          in
          (List.rev !out, dropped)
        in
        let signals, signal_dropped = list_file "SIGNAL" signal_line in
        let syscalls, syscall_dropped = list_file "SYSCALL" syscall_line in
        let asyncs, async_dropped = list_file "ASYNC" async_line in
        let extra, extra_dropped = salvage_extra ~dir in
        Ok
          ( { meta; queue; signals; syscalls; asyncs; extra },
            {
              sv_dropped =
                List.filter
                  (fun (_, n) -> n > 0)
                  ([
                     ("META", meta_dropped);
                     ("QUEUE", queue_dropped);
                     ("SIGNAL", signal_dropped);
                     ("SYSCALL", syscall_dropped);
                     ("ASYNC", async_dropped);
                   ]
                  @ extra_dropped);
            } )
    | _ ->
        Error
          {
            c_file = "META";
            c_line = 0;
            c_reason = "unsalvageable: strategy or seeds missing";
          }
  end

(* -- reseal --------------------------------------------------------- *)

(* Recompute trailers and the MANIFEST over the payload currently on
   disk — for tests and tooling that edit demo files by hand and then
   need the directory to verify again. *)
let reseal ~dir =
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun name ->
           name <> manifest_name
           && (not (Sys.is_directory (Filename.concat dir name))))
    |> List.sort compare
  in
  let rendered =
    render_files
      (List.map
         (fun name ->
           let s = Codec.read_file (Filename.concat dir name) in
           let lines = lines_in s (String.length s) in
           let payload =
             match List.rev lines with
             | last :: rev_rest when is_trailer_at last 0 (String.length last) ->
                 List.rev rev_rest
             | _ -> lines
           in
           (name, render_lines payload))
         files)
  in
  close (write rendered ~dir)

(* -- replay cursor --------------------------------------------------- *)

(* Entries stable-sorted by tick, consumed by advancing [at]. *)
type 'a stream = { entries : 'a array; tick_of : 'a -> int; mutable at : int }

let stream tick_of l =
  let by_tick a b = Int.compare (tick_of a) (tick_of b) in
  { entries = Array.of_list (List.stable_sort by_tick l); tick_of; at = 0 }

let advance s tick f =
  while s.at < Array.length s.entries && s.tick_of s.entries.(s.at) <= tick do
    let e = s.entries.(s.at) in
    s.at <- s.at + 1;
    if s.tick_of e = tick then f e
  done

(* QUEUE as the replay consumes it: [r_owner.(k)] is the thread last
   handed tick [k], [r_next_of.(tid)] the tick thread [tid] waits for
   (-1: none), and a thread owns a tick while both agree. Ticks outside
   the recording are never scheduled; a recording's tids never exceed
   its tick count (every thread but main is spawned by a tick). *)
type cursor = {
  r_owner : int array;
  mutable r_next_of : int array;
  mutable r_next_ticks : int list;
  r_asyncs : async_entry stream;
  r_signals : signal_entry stream;
  mutable r_syscalls : syscall_entry list;
}

let assign c tid tick =
  let n = Array.length c.r_next_of in
  if tid >= n then begin
    let a = Array.make (max (tid + 1) (2 * n)) (-1) in
    Array.blit c.r_next_of 0 a 0 n;
    c.r_next_of <- a
  end;
  let valid = tick >= 0 && tick < Array.length c.r_owner in
  c.r_next_of.(tid) <- (if valid then tick else -1);
  if valid then c.r_owner.(tick) <- tid

let cursor t =
  let q = Option.value t.queue ~default:{ first_ticks = []; next_ticks = [] } in
  let ticks = List.length q.next_ticks in
  let c =
    {
      r_owner = Array.make ticks (-1);
      r_next_of = Array.make (ticks + 1) (-1);
      r_next_ticks = q.next_ticks;
      r_asyncs = stream (fun a -> a.a_tick) t.asyncs;
      r_signals = stream (fun s -> s.s_tick) t.signals;
      r_syscalls = t.syscalls;
    }
  in
  List.iter
    (fun (tid, tick) -> if tid >= 0 && tid <= ticks then assign c tid tick)
    q.first_ticks;
  c

let scheduled c tick =
  let owned = tick >= 0 && tick < Array.length c.r_owner in
  let tid = if owned then c.r_owner.(tick) else -1 in
  if tid >= 0 && c.r_next_of.(tid) = tick then tid else -1

let leave c tid =
  match c.r_next_ticks with
  | [] -> assign c tid (-1)
  | next :: rest ->
      c.r_next_ticks <- rest;
      assign c tid next

let take_asyncs c tick f = advance c.r_asyncs tick f
let take_signals c tick f = advance c.r_signals tick f
let next_syscall c = match c.r_syscalls with e :: _ -> Some e | [] -> None

let take_syscall c ~tid ~label ~within =
  let rec split i skipped = function
    | e :: rest when i < within ->
        if e.sc_tid = tid && e.sc_label = label then begin
          c.r_syscalls <- List.rev_append skipped rest;
          Some e
        end
        else split (i + 1) (e :: skipped) rest
    | _ -> None
  in
  split 0 [] c.r_syscalls

(* -- sizes ---------------------------------------------------------- *)

(* Payload only: framing (trailers, MANIFEST) is deliberately excluded
   so the paper's demo-size metric is unchanged by the durability
   layer. *)
let rendered_size renders =
  let o = out_create () in
  List.fold_left
    (fun size render ->
      o.len <- 0;
      ignore (render o);
      size + o.len)
    0 renders

let size_bytes t = rendered_size (List.map snd (paper_files t))
let syscall_bytes t = rendered_size [ render_syscalls t.syscalls ]

let pp fmt t =
  Format.fprintf fmt
    "demo %s (%s): %d ticks, %d signals, %d syscalls, %d async events, %d bytes"
    t.meta.app t.meta.strategy t.meta.ticks
    (List.length t.signals) (List.length t.syscalls) (List.length t.asyncs)
    (size_bytes t)
