let hex = "0123456789ABCDEF"

let needs_escape c =
  match c with
  | ' ' | '\n' | '\r' | '\t' | '%' -> true
  | c -> Char.code c < 0x20 || Char.code c > 0x7E

let escape s =
  if String.length s = 0 then "%-"
  else begin
    let buf = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        if needs_escape c then begin
          Buffer.add_char buf '%';
          Buffer.add_char buf hex.[Char.code c lsr 4];
          Buffer.add_char buf hex.[Char.code c land 0xF]
        end
        else Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end

let read_file path =
  if not (Sys.file_exists path) then ""
  else In_channel.with_open_bin path In_channel.input_all

(* -- reading a slice ------------------------------------------------ *)

let iter_lines s a b f =
  let a = ref a and ln = ref 1 in
  while !a < b do
    let e = ref !a in
    while !e < b && String.unsafe_get s !e <> '\n' do
      incr e
    done;
    f !a !e !ln;
    a := !e + 1;
    incr ln
  done

let fields s a b fld =
  let room = Array.length fld / 2 in
  let n = ref 0 and i = ref a in
  while !n <= room && !i < b do
    if String.unsafe_get s !i = ' ' then incr i
    else begin
      let j = ref (!i + 1) in
      while !j < b && String.unsafe_get s !j <> ' ' do
        incr j
      done;
      if !n < room then begin
        fld.(2 * !n) <- !i;
        fld.((2 * !n) + 1) <- !j
      end;
      incr n;
      i := !j
    end
  done;
  !n

let is_at s a b word =
  b - a = String.length word
  &&
  let i = ref 0 in
  while !i < b - a && String.unsafe_get s (a + !i) = String.unsafe_get word !i do
    incr i
  done;
  !i = b - a

let field_is s fld k word = is_at s fld.(2 * k) fld.((2 * k) + 1) word

(* Up to 18 decimal digits, with an optional '-', cannot overflow and
   are read directly; anything else is [int_of_string]'s to judge. *)
let int_at s a b =
  let neg = b > a && String.unsafe_get s a = '-' in
  let d = if neg then a + 1 else a in
  let v = ref 0 and i = ref d in
  if b - d <= 18 then
    while
      !i < b
      &&
      let c = String.unsafe_get s !i in
      c >= '0' && c <= '9'
    do
      v := (10 * !v) + (Char.code (String.unsafe_get s !i) - Char.code '0');
      incr i
    done;
  if !i = b && b > d then if neg then - !v else !v
  else
    let f = String.sub s a (b - a) in
    match int_of_string_opt f with
    | Some v -> v
    | None -> invalid_arg (Printf.sprintf "Codec.int_field: %S" f)

let int64_at s a b =
  let f = String.sub s a (b - a) in
  match Int64.of_string_opt f with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Codec.int64_field: %S" f)

let hex_val c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | _ -> invalid_arg "Codec.unescape: bad hex digit"

let unescape_into s a b dst =
  if is_at s a b "%-" then 0
  else begin
    let i = ref a and n = ref 0 in
    while !i < b do
      let c = String.unsafe_get s !i in
      if c <> '%' then begin
        Bytes.set dst !n c;
        incr i
      end
      else begin
        if !i + 2 >= b then invalid_arg "Codec.unescape: truncated escape";
        Bytes.set dst !n
          (Char.unsafe_chr ((hex_val s.[!i + 1] lsl 4) lor hex_val s.[!i + 2]));
        i := !i + 3
      end;
      incr n
    done;
    !n
  end

let unescape_at s a b =
  let dst = Bytes.create (b - a) in
  Bytes.sub_string dst 0 (unescape_into s a b dst)

let rec mkdir_p dir =
  if dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  end
