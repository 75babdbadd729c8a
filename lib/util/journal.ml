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

   Reading goes through Codec, the reader of every text format in the
   repository: Codec.iter_lines cuts the file, the frame's quoted
   fields are found by fixed structure on each line's slice and the
   payload is decoded with Codec.unescape_at; a pinned journal's
   header payload, "schema <n> <identity>", is cut with Codec.fields.

   Durability model: lines accumulate in a bounded in-process buffer
   (256 KiB) drained when full, on {!flush} and on {!close}, so hot
   loops (one journal append per campaign run) do not serialise on
   write(2); an fsync follows every drain that finds 32 or more
   appends since the last one, and every {!flush} and {!close}. A kill
   loses at most the buffered suffix, which a resume simply
   re-executes. A torn final line — the one partial write a crash can
   leave — is dropped (and counted) by [read], and the next writer
   never appends onto it. *)

type entry = { kind : string; payload : string }

type writer = {
  oc : out_channel;
  mutable appended : int;
  mutable synced : int;  (* [appended] at the last fsync *)
  lock : Mutex.t;
  buf : Buffer.t;
}

let buffer_cap = 256 * 1024
let fsync_every = 32

(* Like Codec.escape, but also escapes '"' and '\\' so the escaped
   form can sit verbatim inside a JSON string literal. Codec.unescape_at
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

let create path =
  Codec.mkdir_p (Filename.dirname path);
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path
  in
  mend_torn_tail oc path;
  {
    oc;
    appended = 0;
    synced = 0;
    lock = Mutex.create ();
    buf = Buffer.create 65536;
  }

let locked w f =
  Mutex.lock w.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock w.lock) f

(* Caller holds the lock. Whole lines only ever reach the channel in
   one write, so a crash can tear at most the final line. A drain
   fsyncs when [sync] or when [fsync_every] appends are unsynced; only
   a failed fsync of a full buffer raises. *)
let drain_locked ~sync w =
  Buffer.output_buffer w.oc w.buf;
  Buffer.clear w.buf;
  flush w.oc;
  if sync || w.appended - w.synced >= fsync_every then begin
    w.synced <- w.appended;
    try Unix.fsync (Unix.descr_of_out_channel w.oc)
    with Unix.Unix_error _ when sync -> ()
  end

let append w e =
  if not (valid_kind e.kind) then
    invalid_arg (Printf.sprintf "Journal.append: bad kind %S" e.kind);
  locked w (fun () ->
      Buffer.add_string w.buf (render e);
      Buffer.add_char w.buf '\n';
      w.appended <- w.appended + 1;
      if Buffer.length w.buf >= buffer_cap then drain_locked ~sync:false w)

let flush w = locked w (fun () -> drain_locked ~sync:true w)

let close w =
  locked w (fun () ->
      drain_locked ~sync:true w;
      close_out_noerr w.oc)

(* -- reading -------------------------------------------------------- *)

let frame_prefix = "{\"v\":1,\"crc\":\""

(* The entry framed by the line [s.[a .. e-1]]: the three quoted fields
   are found by fixed structure, and anything that deviates (torn
   line, edited bytes, foreign content) is rejected. *)
let parse_line s a e =
  let p1 = "\",\"kind\":\"" and p2 = "\",\"payload\":\"" and p3 = "\"}" in
  let has p i = i + String.length p <= e && Codec.is_at s i (i + String.length p) p in
  let crc_at = a + String.length frame_prefix in
  let kind_at = crc_at + 8 + String.length p1 in
  let kq =
    if has frame_prefix a && has p1 (crc_at + 8) then
      String.index_from_opt s kind_at '"'
    else None
  in
  match kq with
  | Some kq when has p2 kq ->
      let pay_at = kq + String.length p2 and pay_end = e - String.length p3 in
      let kind = String.sub s kind_at (kq - kind_at) in
      let crc = Crc.update (Crc.update 0 s kind_at (kq - kind_at)) ":" 0 1 in
      if pay_end < pay_at || (not (has p3 pay_end)) || not (valid_kind kind) then None
      else if
        Crc.of_hex (String.sub s crc_at 8)
        <> Some (Crc.update crc s pay_at (pay_end - pay_at))
      then None
      else (
        match Codec.unescape_at s pay_at pay_end with
        | payload -> Some { kind; payload }
        | exception Invalid_argument _ -> None)
  | _ -> None

(* The intact entries of [s], the number of other lines that are not
   whitespace only, and whether the first line is an intact entry. *)
let parse s =
  let entries = ref [] and dropped = ref 0 and first = ref false in
  Codec.iter_lines s 0 (String.length s) (fun a e ln ->
      let entry = parse_line s a e in
      if ln = 1 then first := entry <> None;
      match entry with
      | Some x -> entries := x :: !entries
      | None -> if String.trim (String.sub s a (e - a)) <> "" then incr dropped);
  (List.rev !entries, !dropped, !first)

let read path =
  let entries, dropped, _ = parse (Codec.read_file path) in
  (entries, dropped)

(* -- pinned journals ------------------------------------------------ *)

(* A header payload "schema <n> <identity>" as [(n, identity)]. *)
let header p =
  let fld = Array.make 6 0 and len = String.length p in
  match Codec.fields p 0 len fld with
  | n when n >= 2 && Codec.field_is p fld 0 "schema" && not (String.contains p '\n')
    -> (
      match Codec.int_at p fld.(2) fld.(3) with
      | schema when schema >= 0 ->
          Some (schema, if n = 2 then "" else String.sub p fld.(4) (len - fld.(4)))
      | _ | (exception Invalid_argument _) -> None)
  | _ -> None

(* The resume rules (see the interface), with [expect] the identity a
   writer requires of every header (a reader requires none): the first
   header's identity, the decoded payload entries and the dropped-line
   count (torn, corrupt or undecodable), all empty for a fresh start. *)
let scan ~kind ~schema ~expect ~payload path =
  let s = Codec.read_file path in
  if (not (String.contains s '\n'))
     && (String.starts_with ~prefix:s frame_prefix
        || String.starts_with ~prefix:frame_prefix s)
  then (None, [], 0)
  else begin
    let entries, dropped, first = parse s in
    if not first then
      invalid_arg
        (Printf.sprintf
           "journal %s: first line is not an intact journal entry (a \
            damaged header, or not a journal at all)"
           path);
    let headers, payloads = List.partition (fun e -> e.kind = kind) entries in
    (match List.find_opt (fun e -> e.kind <> payload) payloads with
    | Some e ->
        invalid_arg
          (Printf.sprintf "%s is a %s journal, not a %s one" path e.kind kind)
    | None -> ());
    let identity h =
      match (header h.payload, expect) with
      | None, _ -> invalid_arg (Printf.sprintf "journal %s: unreadable header" path)
      | Some (found, _), _ when found <> schema ->
          invalid_arg
            (Printf.sprintf "journal %s has schema %d, this build writes %d" path
               found schema)
      | Some (_, found), Some want when found <> want ->
          invalid_arg
            (Printf.sprintf "journal %s is pinned to %s, not %s" path found want)
      | Some (_, found), _ -> found
    in
    let identities = List.map identity headers in
    let values =
      List.filter_map
        (fun e ->
          match Marshal.from_string e.payload 0 with
          | v -> Some v
          | exception _ -> None)
        payloads
    in
    ( List.nth_opt identities 0,
      values,
      dropped + List.length payloads - List.length values )
  end

let load_pinned ~kind ~schema ~payload path =
  scan ~kind ~schema ~expect:None ~payload path

let open_pinned ~kind ~schema ~identity ~payload path =
  let found, values, dropped =
    scan ~kind ~schema ~expect:(Some identity) ~payload path
  in
  let w = create path in
  if found = None then begin
    append w { kind; payload = Printf.sprintf "schema %d %s" schema identity };
    (* The header pins the journal's identity: make it durable before
       any payload entry is written. *)
    flush w
  end;
  (w, values, dropped)
