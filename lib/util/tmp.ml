(* Race-free unique temporary directories.

   The old harness idiom — Filename.temp_file, Sys.remove, reuse the
   name — has a TOCTOU window between the remove and the eventual
   mkdir: two concurrent campaigns (or two domains of one campaign)
   can be handed the same path and silently share a demo directory.
   mkdir(2) is the atomic claim: it either creates the directory for
   us alone or fails with EEXIST, in which case we pick another name. *)

let counter = Atomic.make 0

let fresh_dir ?base ~prefix () =
  let base =
    match base with Some b -> b | None -> Filename.get_temp_dir_name ()
  in
  let pid = Unix.getpid () in
  let rec claim attempts =
    if attempts > 1000 then
      invalid_arg
        (Printf.sprintf "Tmp.fresh_dir: cannot create a unique %S directory"
           prefix);
    let n = Atomic.fetch_and_add counter 1 in
    let path = Filename.concat base (Printf.sprintf "%s.%d.%d" prefix pid n) in
    match Unix.mkdir path 0o700 with
    | () -> path
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> claim (attempts + 1)
  in
  claim 0

(* -- cleanup -------------------------------------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun name -> rm_rf (Filename.concat path name))
        (try Sys.readdir path with Sys_error _ -> [||]);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let with_dir ?base ~prefix f =
  let dir = fresh_dir ?base ~prefix () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)
