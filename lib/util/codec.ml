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

let hex_val c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | _ -> invalid_arg "Codec.unescape: bad hex digit"

let unescape s =
  if s = "%-" then ""
  else begin
    let buf = Buffer.create (String.length s) in
    let i = ref 0 in
    let n = String.length s in
    while !i < n do
      if s.[!i] = '%' then begin
        if !i + 2 >= n then invalid_arg "Codec.unescape: truncated escape";
        Buffer.add_char buf
          (Char.chr ((hex_val s.[!i + 1] lsl 4) lor hex_val s.[!i + 2]));
        i := !i + 3
      end
      else begin
        Buffer.add_char buf s.[!i];
        incr i
      end
    done;
    Buffer.contents buf
  end

let fields line =
  String.split_on_char ' ' line |> List.filter (fun f -> f <> "")

let int_field f =
  match int_of_string_opt f with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Codec.int_field: %S" f)

let int64_field f =
  match Int64.of_string_opt f with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Codec.int64_field: %S" f)

let read_file path =
  if not (Sys.file_exists path) then ""
  else In_channel.with_open_bin path In_channel.input_all

(* Cut at each '\n', with no empty line after a final one: the lines
   [input_line] would return, one by one. *)
let lines s =
  let n = String.length s in
  let rec go pos acc =
    if pos >= n then List.rev acc
    else
      let stop = Option.value (String.index_from_opt s pos '\n') ~default:n in
      go (stop + 1) (String.sub s pos (stop - pos) :: acc)
  in
  go 0 []

let read_lines path = lines (read_file path)

let rec mkdir_p dir =
  if dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  end

let write_lines path lines =
  mkdir_p (Filename.dirname path);
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        lines)
