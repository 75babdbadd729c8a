(* Shared helpers: host timing, order statistics, workload lookup and
   scratch directories inside the working directory. *)

module Conf = Tsan11rec.Conf
module Interp = Tsan11rec.Interp
module World = T11r_env.World
module Workloads = T11r_harness.Workloads
module Registry = T11r_litmus.Registry

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let sorted xs = List.sort compare xs

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The highest percentile with at least ten samples beyond it: the
   sample with exactly ten larger ones, and the percentile it sits at.
   [None] below eleven samples. *)
let tail xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n < 11 then None
  else Some (a.(n - 11), 100 * (n - 10) / n, n)

let sum = List.fold_left ( +. ) 0.0
let sumi = List.fold_left ( + ) 0
let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* Median of [k] timings of [f], each preceded by [before] (untimed). *)
let median_time ?(before = ignore) k f =
  median
    (List.init k (fun _ ->
         before ();
         snd (timed f)))

let workload name =
  match Workloads.find name with
  | Some w -> w
  | None -> failwith ("unknown workload " ^ name)

let entry name =
  if name = "fig1" then Registry.fig1
  else
    match
      List.find_opt
        (fun (e : Registry.entry) -> e.name = name)
        (Registry.all @ Registry.fixed)
    with
    | Some e -> e
    | None -> failwith ("unknown litmus benchmark " ^ name)

(* Scratch space lives under .bench_out in the working directory. *)
let out_dir = ".bench_out"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let scratch name =
  let d =
    Filename.concat out_dir (Printf.sprintf "%s-%d" name (Unix.getpid ()))
  in
  T11r_util.Tmp.rm_rf d;
  mkdir_p d;
  d

let outcome_unexpected (r : Interp.result) =
  match r.Interp.outcome with
  | Interp.App_error _ | Interp.Crashed (-1, _) | Interp.Timeout
  | Interp.Tick_limit | Interp.Hard_desync _ | Interp.Corrupt_demo _
  | Interp.Unsupported_app _ ->
      true
  | _ -> r.Interp.soft_desync

(* Histogram keys ([Outcome.key]) of the outcomes no workload expects. *)
let unexpected_keys =
  [ "app-error"; "tick-limit"; "timeout"; "hard-desync"; "corrupt-demo";
    "unsupported" ]

let unexpected_in outcomes =
  sumi
    (List.map
       (fun (k, v) -> if List.mem k unexpected_keys then v else 0)
       outcomes)

let hex s = Digest.to_hex (Digest.string s)
let md5 v = hex (Marshal.to_string v [ Marshal.No_sharing ])

(* The host's speed drifts by up to 2x within a minute on a shared
   machine. Timings are therefore scaled by a reference loop timed around
   them: allocation, a hash table and list traversal, none of it code
   from the repository. [ref_nominal] is the loop's time on a quiet
   2-core host, so scaled timings read as seconds on that host. *)
let ref_nominal = 0.011

let reference () =
  let h = Hashtbl.create 1024 in
  let l = ref [] in
  for i = 1 to 200_000 do
    l := (i, i * 3) :: !l;
    if i land 1023 = 0 then l := [];
    Hashtbl.replace h (i land 4095) i
  done;
  ignore (Sys.opaque_identity (h, !l))

let reference_s () = snd (timed reference)

(* [f]'s result, and the factor that scales its host time to the
   nominal host: from the reference timed just before and just after. *)
let calibrated f =
  let r0 = reference_s () in
  let v = f () in
  let r1 = reference_s () in
  (v, ref_nominal /. ((r0 +. r1) /. 2.0))
