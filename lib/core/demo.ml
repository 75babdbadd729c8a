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

(* Each renderer appends one file's payload lines to a buffer and
   returns how many it wrote; saving, the MANIFEST and the size metrics
   all go through them. Integers are written digit by digit: a demo
   has thousands of them and [Printf] would interpret a format for
   each. *)

(* The digits of [n <= 0], most significant first. Working on the
   negative side keeps [min_int] in range. *)
let rec add_neg_digits b n =
  if n <= -10 then add_neg_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (Char.code '0' - (n mod 10)))

(* [n] exactly as [%d] prints it. *)
let add_int b n =
  if n < 0 then begin
    Buffer.add_char b '-';
    add_neg_digits b n
  end
  else add_neg_digits b (-n)

let add_sp_int b n =
  Buffer.add_char b ' ';
  add_int b n

let add_line b s =
  Buffer.add_string b s;
  Buffer.add_char b '\n'

let render_lines lines b =
  List.iter (add_line b) lines;
  List.length lines

let render_meta m b =
  Buffer.add_string b "format ";
  add_int b format_version;
  Buffer.add_string b "\napp ";
  Codec.add_escaped b m.app;
  Buffer.add_string b "\nstrategy ";
  Buffer.add_string b m.strategy;
  Buffer.add_string b "\nseed1 ";
  Buffer.add_string b (Int64.to_string m.seed1);
  Buffer.add_string b "\nseed2 ";
  Buffer.add_string b (Int64.to_string m.seed2);
  Buffer.add_string b "\nticks ";
  add_int b m.ticks;
  Buffer.add_string b "\noutput_digest ";
  add_line b m.output_digest;
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
let render_queue q b =
  add_line b "queue";
  List.iter
    (fun (tid, tick) ->
      Buffer.add_string b "first";
      add_sp_int b tid;
      add_sp_int b tick;
      Buffer.add_char b '\n')
    q.first_ticks;
  let runs = ref 0 in
  let add_run d n =
    Buffer.add_char b 't';
    add_sp_int b d;
    add_sp_int b n;
    Buffer.add_char b '\n';
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

let render_signals ss b =
  List.iter
    (fun s ->
      add_int b s.s_tid;
      add_sp_int b s.s_tick;
      add_sp_int b s.s_signo;
      Buffer.add_char b '\n')
    ss;
  List.length ss

let render_syscalls scs b =
  List.iter
    (fun s ->
      add_int b s.sc_tick;
      add_sp_int b s.sc_tid;
      Buffer.add_char b ' ';
      Buffer.add_string b s.sc_label;
      add_sp_int b s.sc_ret;
      add_sp_int b s.sc_errno;
      add_sp_int b s.sc_elapsed;
      Buffer.add_char b ' ';
      Codec.add_escaped b (Rle.encode_bytes s.sc_data);
      Buffer.add_char b '\n')
    scs;
  List.length scs

let render_asyncs es b =
  List.iter
    (fun e ->
      add_int b e.a_tick;
      (match e.a_kind with
      | Reschedule -> Buffer.add_string b " resched"
      | Signal_wakeup tid ->
          Buffer.add_string b " sigwake";
          add_sp_int b tid);
      Buffer.add_char b '\n')
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

let is_trailer l =
  String.length l >= 4 && String.sub l 0 4 = trailer_tag

let render_manifest entries b =
  List.iter
    (fun (name, size, crc) ->
      Buffer.add_string b "file ";
      Buffer.add_string b name;
      add_sp_int b size;
      Buffer.add_char b ' ';
      add_line b (Crc.to_hex crc))
    entries;
  List.length entries

(* -- crash-atomic save ---------------------------------------------- *)

(* Render one file into [b] (cleared first), checksum the payload once,
   append the trailer and write the whole file with one output. Returns
   the payload's size and CRC for the MANIFEST. *)
let write_framed ~durable b path render =
  Buffer.clear b;
  let lines = render b in
  let payload = Buffer.contents b in
  let crc = Crc.string payload in
  Buffer.add_string b trailer_tag;
  Buffer.add_char b ' ';
  Buffer.add_string b (Crc.to_hex crc);
  add_sp_int b lines;
  Buffer.add_char b '\n';
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Buffer.output_buffer oc b;
      flush oc;
      if durable then Unix.fsync (Unix.descr_of_out_channel oc));
  (String.length payload, crc)

(* Frame every (name, renderer) into [dir], then the MANIFEST. *)
let write_files ~durable ~dir files =
  let b = Buffer.create 4096 in
  let entries =
    List.map
      (fun (name, render) ->
        let size, crc = write_framed ~durable b (Filename.concat dir name) render in
        (name, size, crc))
      files
  in
  ignore
    (write_framed ~durable b
       (Filename.concat dir manifest_name)
       (render_manifest entries))

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
  (* Write everything into a fresh sibling directory, fsync, then
     rename into place. A crash before the first rename leaves the old
     demo at [dir]; one after the second leaves the new demo there. In
     between, [dir] is absent and the old demo is complete at
     [<tmp>.old]. *)
  let tmp =
    Tmp.fresh_dir ~base:parent ~prefix:(Filename.basename dir ^ ".save") ()
  in
  try
    write_files ~durable ~dir:tmp
      (paper_files t
      @ List.map (fun (name, lines) -> (name, render_lines lines)) t.extra);
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

let parse_trailer ~file ~line l =
  match Codec.fields l with
  | [ tag; hex; count ] when tag = trailer_tag -> (
      match (Crc.of_hex hex, int_of_string_opt count) with
      | Some crc, Some n when n >= 0 -> (crc, n)
      | _ -> corrupt file line "malformed trailer %S" l)
  | _ -> corrupt file line "malformed trailer %S" l

(* A verified file: its payload as (1-based line number, line) pairs,
   and the size and CRC of the payload text (every payload line with
   its newline), which the MANIFEST check compares. *)
type framed = { payload : (int * string) list; size : int; crc : int }

let ends_in_newline s = s <> "" && s.[String.length s - 1] = '\n'

(* Read a file once, verify and strip its trailer. The CRC runs over
   the file's own bytes: before the trailer they are exactly the
   payload text. *)
let read_framed ~dir name =
  let s = Codec.read_file (Filename.concat dir name) in
  match List.rev (List.mapi (fun i l -> (i + 1, l)) (Codec.lines s)) with
  | (ln, last) :: rev_payload when is_trailer last ->
      let crc, count = parse_trailer ~file:name ~line:ln last in
      let payload = List.rev rev_payload in
      List.iter
        (fun (ln, l) -> if is_trailer l then corrupt name ln "misplaced trailer")
        payload;
      let got = List.length payload in
      if got <> count then
        corrupt name ln "%d payload lines but trailer says %d (truncated?)" got
          count;
      let size =
        String.length s - String.length last
        - if ends_in_newline s then 1 else 0
      in
      if Crc.update 0 s 0 size <> crc then
        corrupt name ln "payload does not match trailer checksum";
      { payload; size; crc }
  | _ -> corrupt name 0 "no %s trailer (truncated?)" trailer_tag

(* Every file the MANIFEST lists, verified against its entry, as
   (name, payload) in MANIFEST order. *)
let read_manifest ~dir =
  if not (Sys.file_exists (Filename.concat dir manifest_name)) then
    corrupt manifest_name 0 "no %s in %s" manifest_name dir;
  List.filter_map
    (fun (ln, line) ->
      match Codec.fields line with
      | [ "file"; name; size; crc_hex ] -> (
          if Filename.basename name <> name then
            corrupt manifest_name ln "bad file name %S" name;
          match (int_of_string_opt size, Crc.of_hex crc_hex) with
          | Some size, Some crc ->
              if not (Sys.file_exists (Filename.concat dir name)) then
                corrupt name 0 "listed in MANIFEST but missing";
              let f = read_framed ~dir name in
              if f.size <> size then
                corrupt name 0
                  "%d payload bytes but MANIFEST says %d (truncated?)" f.size
                  size;
              if f.crc <> crc then
                corrupt name 0 "payload does not match MANIFEST checksum";
              Some (name, f.payload)
          | _ -> corrupt manifest_name ln "bad MANIFEST line %S" line)
      | [] -> None
      | _ -> corrupt manifest_name ln "bad MANIFEST line %S" line)
    (read_framed ~dir manifest_name).payload

(* -- parsing -------------------------------------------------------- *)

(* Per-line conversions funnel Codec/Rle Invalid_argument into a
   Corrupt naming the file and line. *)
let guard ~file ~line f =
  try f () with
  | Corrupt _ as e -> raise e
  | Invalid_argument m | Failure m -> corrupt file line "%s" m

let parse_meta numbered =
  let file = "META" in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (ln, line) ->
      match Codec.fields line with
      | key :: rest -> Hashtbl.replace tbl key (ln, String.concat " " rest)
      | [] -> ())
    numbered;
  let get k =
    match Hashtbl.find_opt tbl k with
    | Some lv -> lv
    | None -> corrupt file 0 "missing key %s" k
  in
  let conv k f =
    let ln, v = get k in
    guard ~file ~line:ln (fun () -> f v)
  in
  (let ln, v = get "format" in
   if int_of_string_opt v <> Some format_version then
     corrupt file ln "unsupported demo format version %S (this build reads %d)"
       v format_version);
  {
    app = conv "app" Codec.unescape;
    strategy = snd (get "strategy");
    seed1 = conv "seed1" Codec.int64_field;
    seed2 = conv "seed2" Codec.int64_field;
    ticks = conv "ticks" Codec.int_field;
    output_digest = snd (get "output_digest");
  }

let queue_run_length ~file ~line n =
  if n <= 0 then corrupt file line "non-positive QUEUE run length %d" n;
  (* A corrupt count must not make Rle.decode materialise a giant list
     before anyone can reject the demo. *)
  if n > 10_000_000 then corrupt file line "absurd QUEUE run length %d" n;
  n

(* One QUEUE line: a thread's first tick joins [firsts], a run of
   next-tick deltas joins [runs] (both reversed). *)
let queue_line ~line:ln firsts runs text =
  match Codec.fields text with
  | [ "queue" ] | [] -> ()
  | [ "first"; tid; tick ] ->
      firsts := (Codec.int_field tid, Codec.int_field tick) :: !firsts
  | [ "t"; v; n ] ->
      let n = queue_run_length ~file:"QUEUE" ~line:ln (Codec.int_field n) in
      runs := (Codec.int_field v, n) :: !runs
  | _ -> corrupt "QUEUE" ln "bad QUEUE line %S" text

(* The queue of the lines [queue_line] gathered: the deltas accumulate
   into absolute next ticks. *)
let queue_of ~firsts ~runs =
  let prev = ref 0 in
  {
    first_ticks = List.rev firsts;
    next_ticks =
      List.map
        (fun d ->
          prev := !prev + d;
          !prev)
        (Rle.decode (List.rev runs));
  }

let parse_queue numbered =
  let firsts = ref [] and runs = ref [] in
  List.iter
    (fun (ln, line) ->
      guard ~file:"QUEUE" ~line:ln (fun () ->
          queue_line ~line:ln firsts runs line))
    numbered;
  queue_of ~firsts:!firsts ~runs:!runs

let parse_signal_line ~file ~line:ln line_text =
  guard ~file ~line:ln (fun () ->
      match Codec.fields line_text with
      | [ tid; tick; signo ] ->
          Some
            {
              s_tid = Codec.int_field tid;
              s_tick = Codec.int_field tick;
              s_signo = Codec.int_field signo;
            }
      | [] -> None
      | _ -> corrupt file ln "bad SIGNAL line %S" line_text)

let parse_signals numbered =
  List.filter_map
    (fun (ln, l) -> parse_signal_line ~file:"SIGNAL" ~line:ln l)
    numbered

let parse_syscall_line ~file ~line:ln line_text =
  guard ~file ~line:ln (fun () ->
      match Codec.fields line_text with
      | [ tick; tid; label; ret; errno; elapsed; data ] ->
          Some
            {
              sc_tick = Codec.int_field tick;
              sc_tid = Codec.int_field tid;
              sc_label = label;
              sc_ret = Codec.int_field ret;
              sc_errno = Codec.int_field errno;
              sc_elapsed = Codec.int_field elapsed;
              sc_data = Rle.decode_bytes (Codec.unescape data);
            }
      | [] -> None
      | _ -> corrupt file ln "bad SYSCALL line %S" line_text)

let parse_syscalls numbered =
  List.filter_map
    (fun (ln, l) -> parse_syscall_line ~file:"SYSCALL" ~line:ln l)
    numbered

let parse_async_line ~file ~line:ln line_text =
  guard ~file ~line:ln (fun () ->
      match Codec.fields line_text with
      | [ tick; "resched" ] ->
          Some { a_tick = Codec.int_field tick; a_kind = Reschedule }
      | [ tick; "sigwake"; tid ] ->
          Some
            {
              a_tick = Codec.int_field tick;
              a_kind = Signal_wakeup (Codec.int_field tid);
            }
      | [] -> None
      | _ -> corrupt file ln "bad ASYNC line %S" line_text)

let parse_asyncs numbered =
  List.filter_map
    (fun (ln, l) -> parse_async_line ~file:"ASYNC" ~line:ln l)
    numbered

let paper_names = [ "META"; "QUEUE"; "SIGNAL"; "SYSCALL"; "ASYNC" ]

let load ~dir =
  try
    if not (Sys.file_exists (Filename.concat dir "META")) then
      raise
        (Corrupt { c_file = "META"; c_line = 0; c_reason = "no META in " ^ dir });
    let files = read_manifest ~dir in
    let listed name =
      match List.assoc_opt name files with
      | Some payload -> payload
      | None -> corrupt name 0 "not listed in MANIFEST"
    in
    {
      meta = parse_meta (listed "META");
      queue = Option.map parse_queue (List.assoc_opt "QUEUE" files);
      signals = parse_signals (listed "SIGNAL");
      syscalls = parse_syscalls (listed "SYSCALL");
      asyncs = parse_asyncs (listed "ASYNC");
      extra =
        List.filter_map
          (fun (name, payload) ->
            if List.mem name paper_names then None
            else Some (name, List.map snd payload))
          files;
    }
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

(* Keep the longest prefix of lines that [eat] accepts; checksum
   trailers are dropped unverified (a truncated file rarely keeps
   one). Returns the number of payload lines abandoned. *)
let salvage_prefix lines eat =
  let payload = List.filter (fun l -> not (is_trailer l)) lines in
  let rec consume = function
    | [] -> 0
    | l :: rest -> (
        match eat l with
        | () -> consume rest
        | exception _ -> 1 + List.length rest)
  in
  consume payload

let salvage ~dir =
  let raw name = Codec.read_lines (Filename.concat dir name) in
  if not (Sys.file_exists (Filename.concat dir "META")) then
    Error { c_file = "META"; c_line = 0; c_reason = "no META in " ^ dir }
  else begin
    (* META: keep the key/value prefix; strategy and seeds are
       indispensable, everything else degrades gracefully. *)
    let tbl = Hashtbl.create 8 in
    let meta_dropped =
      salvage_prefix (raw "META") (fun line ->
          match Codec.fields line with
          | "format" :: v :: _ ->
              if int_of_string_opt v <> Some format_version then
                failwith "bad format version"
              else Hashtbl.replace tbl "format" v
          | key :: rest -> Hashtbl.replace tbl key (String.concat " " rest)
          | [] -> ())
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
              | Some a -> ( try Codec.unescape a with Invalid_argument _ -> a)
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
        let firsts = ref [] and runs = ref [] in
        let queue_raw = raw "QUEUE" in
        let queue_dropped =
          salvage_prefix queue_raw (queue_line ~line:0 firsts runs)
        in
        let queue =
          if queue_raw = [] then None
          else Some (queue_of ~firsts:!firsts ~runs:!runs)
        in
        let list_file name parse_line =
          let out = ref [] in
          let dropped =
            salvage_prefix (raw name) (fun line ->
                match parse_line ~file:name ~line:0 line with
                | Some v -> out := v :: !out
                | None -> ())
          in
          (List.rev !out, dropped)
        in
        let signals, signal_dropped = list_file "SIGNAL" parse_signal_line in
        let syscalls, syscall_dropped = list_file "SYSCALL" parse_syscall_line in
        let asyncs, async_dropped = list_file "ASYNC" parse_async_line in
        Ok
          ( { meta; queue; signals; syscalls; asyncs; extra = [] },
            {
              sv_dropped =
                List.filter
                  (fun (_, n) -> n > 0)
                  [
                    ("META", meta_dropped);
                    ("QUEUE", queue_dropped);
                    ("SIGNAL", signal_dropped);
                    ("SYSCALL", syscall_dropped);
                    ("ASYNC", async_dropped);
                  ];
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
  write_files ~durable:false ~dir
    (List.map
       (fun name ->
         let lines = Codec.read_lines (Filename.concat dir name) in
         let payload =
           match List.rev lines with
           | last :: rev_rest when is_trailer last -> List.rev rev_rest
           | _ -> lines
         in
         (name, render_lines payload))
       files)

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
  let b = Buffer.create 4096 in
  List.iter (fun render -> ignore (render b)) renders;
  Buffer.length b

let size_bytes t = rendered_size (List.map snd (paper_files t))
let syscall_bytes t = rendered_size [ render_syscalls t.syscalls ]

let pp fmt t =
  Format.fprintf fmt
    "demo %s (%s): %d ticks, %d signals, %d syscalls, %d async events, %d bytes"
    t.meta.app t.meta.strategy t.meta.ticks
    (List.length t.signals) (List.length t.syscalls) (List.length t.asyncs)
    (size_bytes t)
