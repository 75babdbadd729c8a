(* Host-time spans around the benchmark's own calls into library modules.

   Off (the untraced pass), [with_] is one branch around the call. On,
   each call records its lane (the module called), name, start, end and
   parent span; spans stay in memory until the pass ends, then are
   written as Chrome trace-event JSON with one lane per module. *)

type t = {
  id : int;
  parent : int;  (** -1 for a root span *)
  lane : string;
  name : string;
  t0 : float;  (** host seconds *)
  t1 : float;
  inner : (string * float) option;
      (** for a call that runs the interpreter many times inside the
          library: the per-run cost key and how many runs it made per
          worker domain *)
}

let enabled = ref false
let workload = ref ""
let recorded : t list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let origin = ref 0.0

let start ~workload:w =
  enabled := true;
  workload := w;
  recorded := [];
  stack := [];
  next_id := 0;
  origin := Unix.gettimeofday ()

let stop () = enabled := false
let spans () = List.rev !recorded

let with_ ?inner lane name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let t0 = Unix.gettimeofday () in
    let close v =
      let t1 = Unix.gettimeofday () in
      stack := List.tl !stack;
      let inner = match (inner, v) with Some g, Some v -> Some (g v) | _ -> None in
      recorded := { id; parent; lane; name; t0; t1; inner } :: !recorded
    in
    match f () with
    | v ->
        close (Some v);
        v
    | exception e ->
        close None;
        raise e
  end

let dur s = s.t1 -. s.t0

(* Self time of every span: its duration minus its children's. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt children s.parent)))
    spans;
  List.map
    (fun s ->
      (s, dur s -. Option.value ~default:0.0 (Hashtbl.find_opt children s.id)))
    spans

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Chrome trace-event JSON on the host-microsecond timeline: one lane
   (tid) per module, lanes numbered in order of first use. *)
let to_chrome spans =
  let lanes = ref [] in
  let lane_id l =
    match List.assoc_opt l !lanes with
    | Some i -> i
    | None ->
        let i = List.length !lanes + 1 in
        lanes := !lanes @ [ (l, i) ];
        i
  in
  let us t = (t -. !origin) *. 1e6 in
  let events =
    List.map
      (fun s ->
        Printf.sprintf
          "{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"workload\":%s,\"id\":%d,\"parent\":%d}}"
          (json_string s.name) (json_string s.lane) (lane_id s.lane) (us s.t0)
          ((s.t1 -. s.t0) *. 1e6)
          (json_string !workload) s.id s.parent)
      spans
  in
  let meta =
    List.map
      (fun (l, i) ->
        Printf.sprintf
          "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":%s}}"
          i (json_string l))
      !lanes
  in
  "{\"traceEvents\":[\n" ^ String.concat ",\n" (meta @ events) ^ "\n]}\n"
