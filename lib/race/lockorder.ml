module Inttbl = T11r_util.Inttbl

type edge = { from_lock : string; to_lock : string; witness_tid : int }
type cycle = edge list

type t = {
  (* lock -> locks it has been held under, with witness info *)
  edges : (int * edge) list ref Inttbl.t;  (* from -> [(to, edge)] *)
  names : string Inttbl.t;
  held : int list Inttbl.t;  (* tid -> locks currently held *)
  mutable found : cycle list;  (* reversed *)
  seen : (string list, unit) Hashtbl.t;  (* sorted lock-name sets reported *)
}

let create () =
  {
    edges = Inttbl.create 16;
    names = Inttbl.create 16;
    held = Inttbl.create 8;
    found = [];
    seen = Hashtbl.create 4;
  }

let reset t =
  Inttbl.clear t.edges;
  Inttbl.clear t.names;
  Inttbl.clear t.held;
  (* no write barrier when there is nothing to drop *)
  (match t.found with [] -> () | _ :: _ -> t.found <- []);
  Hashtbl.clear t.seen

let successors t l =
  match Inttbl.find_opt t.edges l with Some r -> !r | None -> []

(* Find a path target ->* source in the edge graph; adding
   source -> target then closes a cycle along that path. *)
let find_path t ~source ~target =
  let visited = Inttbl.create 8 in
  let rec dfs node path =
    if node = source then Some (List.rev path)
    else if Inttbl.mem visited node then None
    else begin
      Inttbl.replace visited node ();
      List.fold_left
        (fun acc (next, edge) ->
          match acc with
          | Some _ -> acc
          | None -> dfs next (edge :: path))
        None (successors t node)
    end
  in
  dfs target []

let cycle_locks (c : cycle) =
  List.sort_uniq compare (List.concat_map (fun e -> [ e.from_lock; e.to_lock ]) c)

let acquired t ~tid ~lock ~name =
  Inttbl.replace t.names lock name;
  let held = Option.value ~default:[] (Inttbl.find_opt t.held tid) in
  List.iter
    (fun h ->
      if h <> lock then begin
        let edge =
          {
            from_lock = Option.value ~default:"?" (Inttbl.find_opt t.names h);
            to_lock = name;
            witness_tid = tid;
          }
        in
        (* Would h -> lock close a cycle? *)
        (match find_path t ~source:h ~target:lock with
        | Some path ->
            let cyc = edge :: path in
            let key = cycle_locks cyc in
            if not (Hashtbl.mem t.seen key) then begin
              Hashtbl.replace t.seen key ();
              t.found <- cyc :: t.found
            end
        | None -> ());
        let r =
          match Inttbl.find_opt t.edges h with
          | Some r -> r
          | None ->
              let r = ref [] in
              Inttbl.replace t.edges h r;
              r
        in
        if not (List.exists (fun (l', _) -> l' = lock) !r) then
          r := (lock, edge) :: !r
      end)
    held;
  Inttbl.replace t.held tid (lock :: held)

let released t ~tid ~lock =
  let held = Option.value ~default:[] (Inttbl.find_opt t.held tid) in
  (* remove one instance (locks can in principle be re-entrant) *)
  let removed = ref false in
  let held' =
    List.filter
      (fun l ->
        if (not !removed) && l = lock then begin
          removed := true;
          false
        end
        else true)
      held
  in
  Inttbl.replace t.held tid held'

let cycles t = List.rev t.found
let cycle_count t = List.length t.found

let pp_cycle fmt (c : cycle) =
  Format.fprintf fmt "potential deadlock: %s"
    (String.concat ", "
       (List.map
          (fun e ->
            Printf.sprintf "T%d takes %s while holding %s" e.witness_tid
              e.to_lock e.from_lock)
          c))
