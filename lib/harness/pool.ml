(* A work-stealing Domain pool for campaign sharding.

   Campaigns are embarrassingly parallel: run i constructs its own
   Conf/World/program from the index, so runs share nothing and any
   assignment of indices to domains computes the same per-index
   results. The pool hands out work through a single atomic cursor
   (chunked, so the steal cost amortises), collects results into
   index-addressed slots, and joins before returning — the join is the
   happens-before edge that publishes every slot to the caller.

   [jobs = 1] takes a plain sequential loop: byte-for-byte today's
   single-core path, with no domains spawned and no atomics touched. *)

let default_jobs () =
  match Sys.getenv_opt "T11R_JOBS" with
  | Some s -> (
      match int_of_string_opt s with Some j when j >= 1 -> j | _ -> 1)
  | None -> Domain.recommended_domain_count ()

exception Worker_error of int * exn

let () =
  Printexc.register_printer (function
    | Worker_error (i, e) ->
        Some
          (Printf.sprintf "Pool.Worker_error (index %d, %s)" i
             (Printexc.to_string e))
    | _ -> None)

(* Run [body] on [jobs] domains (the caller is one of them), with
   per-item exceptions captured as (index, exn, backtrace); after the
   join, re-raise the lowest-index failure so error reporting is
   deterministic regardless of which domain hit it first. *)
let drive ~jobs ~body =
  let errors = Atomic.make [] in
  let guard i f =
    match f () with
    | () -> ()
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        let rec push () =
          let cur = Atomic.get errors in
          if not (Atomic.compare_and_set errors cur ((i, e, bt) :: cur)) then
            push ()
        in
        push ()
  in
  let worker () = body ~guard in
  let domains = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join domains;
  match
    List.sort
      (fun (i, _, _) (j, _, _) -> compare i j)
      (Atomic.get errors)
  with
  | [] -> ()
  | (i, e, bt) :: _ -> Printexc.raise_with_backtrace (Worker_error (i, e)) bt

(* [Array.init n f] on up to [jobs] domains, cancellable: [should_stop]
   is polled before each index (sequentially) or chunk claim (in
   parallel), and indices not computed are left as [None]. The caller
   decides what a partial result means — the campaign engine journals
   completed runs and resumes the holes later. *)
let map_opt ?(jobs = 1) ?should_stop n f =
  if n < 0 then invalid_arg "Pool.map_opt: negative n";
  let jobs = max 1 (min jobs (max 1 n)) in
  let stop = match should_stop with Some g -> g | None -> fun () -> false in
  let results = Array.make (max 0 n) None in
  if jobs = 1 then begin
    let i = ref 0 in
    while !i < n && not (stop ()) do
      (try results.(!i) <- Some (f !i)
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         Printexc.raise_with_backtrace (Worker_error (!i, e)) bt);
      incr i
    done;
    results
  end
  else begin
    let next = Atomic.make 0 in
    (* Chunked stealing: enough chunks per domain that a slow run does
       not leave the others idle, but few enough that the atomic cursor
       stays cold. Chunk size never affects results — only who computes
       which index. *)
    let chunk = max 1 (n / (jobs * 8)) in
    drive ~jobs ~body:(fun ~guard ->
        let continue_ = ref true in
        while !continue_ do
          if stop () then continue_ := false
          else begin
            let lo = Atomic.fetch_and_add next chunk in
            if lo >= n then continue_ := false
            else
              for i = lo to min (lo + chunk) n - 1 do
                if not (stop ()) then
                  guard i (fun () -> results.(i) <- Some (f i))
              done
          end
        done);
    results
  end

(* Without [should_stop] every slot of [map_opt] is filled. *)
let map ?jobs n f =
  if n < 0 then invalid_arg "Pool.map: negative n";
  Array.map
    (function Some v -> v | None -> assert false)
    (map_opt ?jobs n f)

let fold_indices ?(jobs = 1) ?(chunk = 1) ~init ~step ~merge n =
  if n < 0 then invalid_arg "Pool.fold_indices: negative n";
  if chunk < 1 then invalid_arg "Pool.fold_indices: chunk < 1";
  let fold_chunk c =
    let lo = c * chunk and hi = min ((c + 1) * chunk) n in
    let acc = ref (init ()) in
    for i = lo to hi - 1 do
      acc := step !acc i
    done;
    !acc
  in
  let chunks = (n + chunk - 1) / chunk in
  (* Partials are indexed by chunk id and merged in chunk order, so the
     reduce sees the same shape no matter which domain computed which
     chunk — determinism needs only that chunk boundaries be fixed,
     which they are ([chunk] does not depend on [jobs]). *)
  let partials = map ~jobs chunks fold_chunk in
  if chunks = 0 then init ()
  else Array.fold_left merge partials.(0) (Array.sub partials 1 (chunks - 1))
