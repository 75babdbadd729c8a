(* Append-only checksummed JSONL journal.

   One JSON object per line:

     {"v":1,"crc":"9C2E4F11","kind":"run","payload":"..."}

   The payload is an arbitrary binary string passed through
   Codec.escape, whose output alphabet (printable ASCII minus space,
   with %XX escapes) is JSON-string-safe, so the line is both valid
   JSON for external tooling and parseable here with no JSON library.
   The CRC covers "<kind>:<escaped payload>", so a torn or bit-flipped
   line is detected *before* anyone attempts to decode the payload —
   essential because campaign payloads are Marshal blobs, which must
   never be unmarshalled from corrupt bytes.

   Durability model: an unbuffered writer (the default) flushes every
   append to the kernel, so a SIGKILLed process loses nothing already
   appended; an fsync is issued every [fsync_every] appends (and on
   close) to bound what a machine crash can lose. A buffered writer
   ([~buffer] > 0) trades that per-entry syscall for throughput: lines
   accumulate in a bounded in-process buffer drained when full, on
   {!flush} and on {!close} — so hot loops (one journal append per
   campaign run) do not serialise on write(2), and a kill can lose at
   most the buffered suffix, which a resume simply re-executes. Either
   way a torn final line — the one partial write a crash can leave —
   is dropped (and counted) by [read], and the next writer never
   appends onto it. *)

type entry = { kind : string; payload : string }

type writer = {
  oc : out_channel;
  mutable appended : int;
  mutable synced : int;  (* [appended] at the last fsync *)
  fsync_every : int;
  lock : Mutex.t;
  buf : Buffer.t;
  buffer_cap : int;  (* 0 = unbuffered: drain + flush on every append *)
}

(* Like Codec.escape, but also escapes '"' and '\\' so the escaped
   form can sit verbatim inside a JSON string literal. Codec.unescape
   decodes any %XX, so it remains the inverse. *)
let jescape s =
  if String.length s = 0 then "%-"
  else begin
    let hex = "0123456789ABCDEF" in
    let buf = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        let code = Char.code c in
        if c = '%' || c = '"' || c = '\\' || code <= 0x20 || code > 0x7E then begin
          Buffer.add_char buf '%';
          Buffer.add_char buf hex.[code lsr 4];
          Buffer.add_char buf hex.[code land 0xF]
        end
        else Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end

let render e =
  let escaped = jescape e.payload in
  Printf.sprintf "{\"v\":1,\"crc\":\"%s\",\"kind\":\"%s\",\"payload\":\"%s\"}"
    (Crc.to_hex (Crc.string (e.kind ^ ":" ^ escaped)))
    e.kind escaped

let valid_kind k =
  k <> ""
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> true | _ -> false)
       k

(* Never append onto a torn line: a kill can leave the final line
   unterminated, and an entry appended straight after it would merge
   into it, so the next read would drop both. A torn line after intact
   ones is terminated (read drops and counts it); a file that is
   nothing but one torn line holds nothing and is emptied. *)
let mend_torn_tail oc path =
  In_channel.with_open_bin path (fun ic ->
      let len = In_channel.length ic in
      if len > 0L then begin
        In_channel.seek ic (Int64.pred len);
        if In_channel.input_char ic <> Some '\n' then begin
          In_channel.seek ic 0L;
          if String.contains (In_channel.input_all ic) '\n' then begin
            output_char oc '\n';
            flush oc
          end
          else Unix.ftruncate (Unix.descr_of_out_channel oc) 0
        end
      end)

let create ?(fsync_every = 32) ?(buffer = 0) path =
  if buffer < 0 then invalid_arg "Journal.create: negative buffer";
  Codec.mkdir_p (Filename.dirname path);
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path
  in
  mend_torn_tail oc path;
  {
    oc;
    appended = 0;
    synced = 0;
    fsync_every;
    lock = Mutex.create ();
    buf = Buffer.create (min (max buffer 16) 65536);
    buffer_cap = buffer;
  }

(* Caller holds the lock. Whole lines only ever reach the channel in
   one write, so a crash can tear at most the final line — the same
   recovery contract as the unbuffered path. *)
let drain_locked w =
  if Buffer.length w.buf > 0 then begin
    Buffer.output_buffer w.oc w.buf;
    Buffer.clear w.buf
  end;
  flush w.oc;
  if w.fsync_every > 0 && w.appended - w.synced >= w.fsync_every then begin
    w.synced <- w.appended;
    Unix.fsync (Unix.descr_of_out_channel w.oc)
  end

let append w e =
  if not (valid_kind e.kind) then
    invalid_arg (Printf.sprintf "Journal.append: bad kind %S" e.kind);
  Mutex.lock w.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock w.lock)
    (fun () ->
      Buffer.add_string w.buf (render e);
      Buffer.add_char w.buf '\n';
      w.appended <- w.appended + 1;
      if w.buffer_cap = 0 || Buffer.length w.buf >= w.buffer_cap then
        (* Unbuffered (or full): flush to the kernel — a SIGKILL then
           loses at most the line being written this instant. *)
        drain_locked w)

let flush w =
  Mutex.lock w.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock w.lock)
    (fun () ->
      drain_locked w;
      try Unix.fsync (Unix.descr_of_out_channel w.oc)
      with Unix.Unix_error _ -> ())

let close w =
  Mutex.lock w.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock w.lock)
    (fun () ->
      drain_locked w;
      (try Unix.fsync (Unix.descr_of_out_channel w.oc)
       with Unix.Unix_error _ -> ());
      close_out_noerr w.oc)

(* -- reading -------------------------------------------------------- *)

let starts_with ~prefix s pos =
  let n = String.length prefix in
  String.length s - pos >= n && String.sub s pos n = prefix

let frame_prefix = "{\"v\":1,\"crc\":\""

(* Extract the three quoted fields by fixed structure; anything that
   deviates (torn line, edited bytes, foreign content) is rejected. *)
let parse_line line =
  let p0 = frame_prefix in
  let p1 = "\",\"kind\":\"" in
  let p2 = "\",\"payload\":\"" in
  let p3 = "\"}" in
  if not (starts_with ~prefix:p0 line 0) then None
  else
    let crc_start = String.length p0 in
    let crc_end = crc_start + 8 in
    if not (starts_with ~prefix:p1 line crc_end) then None
    else
      let kind_start = crc_end + String.length p1 in
      match String.index_from_opt line kind_start '"' with
      | None -> None
      | Some kq ->
          if not (starts_with ~prefix:p2 line kq) then None
          else
            let pay_start = kq + String.length p2 in
            let pay_end = String.length line - String.length p3 in
            if pay_end < pay_start || not (starts_with ~prefix:p3 line pay_end)
            then None
            else
              let crc_hex = String.sub line crc_start 8 in
              let kind = String.sub line kind_start (kq - kind_start) in
              let escaped = String.sub line pay_start (pay_end - pay_start) in
              if not (valid_kind kind) then None
              else
                match Crc.of_hex crc_hex with
                | None -> None
                | Some crc ->
                    if Crc.string (kind ^ ":" ^ escaped) <> crc then None
                    else
                      (match Codec.unescape escaped with
                      | payload -> Some { kind; payload }
                      | exception Invalid_argument _ -> None)

let contents path =
  if Sys.file_exists path then In_channel.with_open_bin path In_channel.input_all
  else ""

let parse_lines lines =
  let dropped = ref 0 in
  let entries =
    List.filter_map
      (fun line ->
        if String.trim line = "" then None
        else
          match parse_line line with
          | Some e -> Some e
          | None ->
              incr dropped;
              None)
      lines
  in
  (entries, !dropped)

let read path = parse_lines (String.split_on_char '\n' (contents path))

(* -- pinned journals ------------------------------------------------ *)

(* The resume rules (see the interface): header payloads, payload
   entries and dropped-line count, all empty for a fresh start. *)
let scan ~header ~payload path =
  match String.split_on_char '\n' (contents path) with
  | [ torn ]
    when starts_with ~prefix:torn frame_prefix 0
         || starts_with ~prefix:frame_prefix torn 0 ->
      ([], [], 0)
  | lines ->
      if parse_line (List.hd lines) = None then
        invalid_arg
          (Printf.sprintf
             "journal %s: first line is not an intact journal entry (a \
              damaged header, or not a journal at all)"
             path);
      let entries, dropped = parse_lines lines in
      let headers, payloads = List.partition (fun e -> e.kind = header) entries in
      (match List.find_opt (fun e -> e.kind <> payload) payloads with
      | Some e ->
          invalid_arg
            (Printf.sprintf "%s is a %s journal, not a %s one" path e.kind header)
      | None -> ());
      (List.map (fun e -> e.payload) headers, payloads, dropped)

let load_pinned ~header ~payload path =
  let headers, payloads, dropped = scan ~header ~payload path in
  (List.nth_opt headers 0, payloads, dropped)

let open_pinned ?buffer ~header ~payload ~mismatch path =
  let headers, payloads, dropped = scan ~header:header.kind ~payload path in
  List.iter
    (fun h -> if h <> header.payload then invalid_arg (mismatch h))
    headers;
  let w = create ?buffer path in
  if headers = [] then begin
    append w header;
    (* The header pins the journal's identity: make it durable before
       any payload entry is written. *)
    flush w
  end;
  (w, payloads, dropped)
