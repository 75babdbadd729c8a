type t = {
  title : string;
  headers : string list;
  mutable rows : string list list; (* reversed *)
}

let create ~title ~headers = { title; headers; rows = [] }
let add_row t cells = t.rows <- cells :: t.rows

let render t =
  let rows = List.rev t.rows in
  let all_cells = t.headers :: rows in
  let ncols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all_cells in
  let widths = Array.make ncols 0 in
  List.iter
    (fun r ->
      List.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c)) r)
    all_cells;
  let pad i c =
    let w = widths.(i) in
    let gap = w - String.length c in
    if i = 0 then c ^ String.make gap ' ' else String.make gap ' ' ^ c
  in
  let render_cells cells =
    let padded = List.mapi pad cells in
    "| " ^ String.concat " | " padded ^ " |"
  in
  let sep =
    "|"
    ^ String.concat "|"
        (Array.to_list (Array.map (fun w -> String.make (w + 2) '-') widths))
    ^ "|"
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  Buffer.add_string buf (render_cells t.headers ^ "\n");
  Buffer.add_string buf (sep ^ "\n");
  List.iter (fun c -> Buffer.add_string buf (render_cells c ^ "\n")) rows;
  Buffer.contents buf

let print t =
  print_string (render t);
  print_newline ()
