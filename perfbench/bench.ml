(* The repository's benchmark.

     bench.exe --workload hunt|check|predict|record-replay --seed N
               --seconds S --trace 0|1

   --trace 0 is the timed pass: set up several times, then run rounds in
   a closed loop for S seconds and report the end-to-end metrics.
   --trace 1 is the traced pass: alternating untraced and traced rounds,
   then the per-layer probes, the layer accounting and a Chrome trace.
   Either pass checks the workload's outputs (the correctness gate); a
   miss is counted as failed, reported, and makes the exit code 1. The
   last line of standard output is the JSON result. *)

open Common

let setups = 11
let min_rounds = 8
let heap_rounds = 2

let arg name =
  let rec find = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> find rest
    | [] -> None
  in
  find (Array.to_list Sys.argv)

let fail_usage msg =
  prerr_endline ("bench: " ^ msg);
  prerr_endline
    "usage: bench.exe --workload hunt|check|predict|record-replay --seed N \
     --seconds S --trace 0|1";
  exit 2

let int_arg name =
  match arg name with
  | Some v -> ( match int_of_string_opt v with Some n -> n | None -> fail_usage (name ^ " wants an integer"))
  | None -> fail_usage ("missing " ^ name)

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Span.json_string name)
          (json_num v) (Span.json_string unit))
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " m)

let line name v unit = Printf.printf "%-34s %14.6g %s\n%!" name v unit

(* The gate over a list of rounds: invariants, determinism (a round
   reproduces the fingerprint of the same position in its cycle), and on
   the default seed the pinned fingerprint. Returns the failed checks. *)
let gate (w : Work.t) ~seed rounds =
  let by_pos = Hashtbl.create 16 in
  let checks =
    List.concat
      (List.mapi
         (fun i (r : Work.round) ->
           let pos = i mod w.Work.cycle in
           let same =
             match Hashtbl.find_opt by_pos pos with
             | None ->
                 Hashtbl.replace by_pos pos r.Work.fingerprint;
                 true
             | Some f -> f = r.Work.fingerprint
           in
           (Printf.sprintf "%s: round %d repeats its inputs' counts" w.Work.name i, same)
           :: r.Work.checks)
         rounds)
  in
  let pinned =
    if seed <> Work.default_seed then []
    else
      match rounds with
      | r :: _ ->
          [ ( Printf.sprintf "%s: pinned counts on the default seed (got %s)" w.Work.name
                r.Work.fingerprint,
              r.Work.fingerprint = w.Work.pinned ) ]
      | [] -> []
  in
  let all = checks @ pinned @ w.Work.final_checks ~seed in
  List.filter_map (fun (n, ok) -> if ok then None else Some n) all

let host_stamp () =
  Printf.printf "host: nproc=%d ocaml=%s OCAMLRUNPARAM=%s\n%!"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version
    (Option.value (Sys.getenv_opt "OCAMLRUNPARAM") ~default:"")

(* Record and replay latencies, per app, from the round samples. *)
let session_lines rounds =
  let samples key =
    List.concat_map
      (fun (r : Work.round) ->
        List.filter_map (fun (k, v) -> if k = key then Some (v *. 1e3) else None) r.Work.samples)
      rounds
  in
  List.iter
    (fun app ->
      List.iter
        (fun kind ->
          let xs = samples (kind ^ "." ^ app) in
          line (Printf.sprintf "%s_ms_p50 (%s)" kind app) (median xs) "ms";
          match tail xs with
          | Some (v, pct, n) ->
              line (Printf.sprintf "%s_ms_tail (%s, p%d of %d)" kind app pct n) v "ms"
          | None -> ())
        [ "record"; "replay" ];
      line (Printf.sprintf "record_overhead_x (%s)" app)
        (median (samples ("record." ^ app)) /. median (samples ("native." ^ app)))
        "x")
    Work.rr_apps

(* Count the outcomes and gate misses, print the JSON result, and exit
   1 on any miss. *)
let finish ~failures rounds metrics =
  let total f = sumi (List.map f rounds) in
  let attempted = total (fun (r : Work.round) -> r.Work.attempted) in
  let unexpected = total (fun (r : Work.round) -> r.Work.unexpected) in
  let failed = unexpected + List.length failures in
  line "failed_ratio" (float_of_int failed /. float_of_int (max 1 attempted)) "fraction";
  List.iter (fun f -> Printf.printf "GATE FAILED: %s\n%!" f) failures;
  print_result ~correct:(failed = 0) ~attempted ~failed metrics;
  if failed > 0 then exit 1

(* The jobs=2 pass, once after the timed loop: it must reproduce round
   0's fingerprint. *)
let parallel_pass (w : Work.t) round (r0 : Work.round) =
  if not w.Work.parallel then ([], [])
  else
    let r = round ~jobs:2 0 in
    line "runs_per_s_j2" (float_of_int r.Work.runs /. r.Work.wall) "runs/s";
    ( [ r ],
      if r.Work.fingerprint = r0.Work.fingerprint then []
      else [ w.Work.name ^ ": jobs=2 changes the counts of jobs=1" ] )

(* Rounds run in batches of at least half a second, each batch between
   two timings of the reference loop; a round's scaled time is its host
   time times its batch's factor. *)
let batch_s = 0.5

let timed_pass (w : Work.t) ~seed ~seconds =
  let setups_scaled =
    List.init setups (fun _ ->
        let (round, t), k = calibrated (fun () -> timed (fun () -> w.Work.setup ~seed)) in
        (round, t, t *. k))
  in
  let round = match List.rev setups_scaled with (r, _, _) :: _ -> r | [] -> assert false in
  (* The heap peak is read after the first [heap_rounds] rounds, a fixed
     amount of work started from a compacted heap, so it does not grow
     with the host's speed. *)
  Gc.compact ();
  let t0 = now () in
  let heap = ref 0.0 in
  let rec batch i b0 acc =
    let acc = round ~jobs:1 i :: acc in
    if i + 1 = heap_rounds then heap := heap_peak_mb ();
    if now () -. b0 >= batch_s then (i + 1, acc) else batch (i + 1) b0 acc
  in
  let rec loop i acc =
    if i >= min_rounds && now () -. t0 >= seconds then List.rev acc
    else
      let (i', rs), k = calibrated (fun () -> batch i (now ()) []) in
      loop i' (List.map (fun r -> (r, k)) rs @ acc)
  in
  let scaled = loop 0 [] in
  let rounds = List.map fst scaled in
  let heap = !heap in
  let walls = List.map (fun ((r : Work.round), k) -> r.Work.wall *. k) scaled in
  let metrics =
    [
      ("setup_s", median (List.map (fun (_, _, s) -> s) setups_scaled), "s");
      ("wall_s", median walls, "s");
      ( "runs_per_s",
        median
          (List.map2 (fun (r : Work.round) t -> float_of_int r.Work.runs /. t) rounds walls),
        "runs/s" );
      ("heap_peak_mb", heap, "MB");
    ]
  in
  host_stamp ();
  Printf.printf "workload %s, seed %d: %d rounds, %d setups\n" w.Work.name seed
    (List.length rounds) setups;
  List.iter (fun (n, v, u) -> line n v u) metrics;
  line "host setup_s (unscaled)" (median (List.map (fun (_, t, _) -> t) setups_scaled)) "s";
  line "host wall_s (unscaled)" (median (List.map (fun (r : Work.round) -> r.Work.wall) rounds)) "s";
  line "host speed (nominal reference / measured)" (median (List.map snd scaled)) "x";
  let par, par_failures = parallel_pass w round (List.hd rounds) in
  List.iter (fun (n, v, u) -> line n v u) (List.hd rounds).Work.counts;
  if w.Work.name = "record-replay" then session_lines rounds;
  finish ~failures:(gate w ~seed rounds @ par_failures) (rounds @ par) metrics

(* Layer accounting over the traced round: leaf calls count whole; a
   call that runs the interpreter inside the library counts only its
   runs at their directly measured per-run cost. What is left of the
   untraced round is the library's own orchestration plus benchmark glue,
   which nothing outside the library can time. *)
let unaccounted ~seed ~wall spans =
  let covered =
    List.fold_left
      (fun acc ((s : Span.t), self) ->
        if s.Span.lane = "bench" then acc
        else
          match s.Span.inner with
          | None -> acc +. self
          | Some (key, runs) -> acc +. Float.min self (runs *. Layers.direct_s ~seed key))
      0.0 (Span.self_times spans)
  in
  1.0 -. (covered /. wall)

(* Untraced and traced rounds alternate, on the same inputs, until the
   untraced ones add up to a second of work. *)
let traced_pass (w : Work.t) ~seed =
  let dir = scratch "layers" in
  let round = w.Work.setup ~seed in
  Span.start ~workload:w.Work.name;
  let rec pairs i acc_u acc_t wall_u wall_t =
    if i > 0 && wall_u >= 1.0 then (List.rev acc_u, List.rev acc_t, wall_u, wall_t)
    else begin
      Span.enabled := false;
      let u, du = timed (fun () -> round ~jobs:1 i) in
      Span.enabled := true;
      let t, dt =
        timed (fun () -> Span.with_ "bench" ("round " ^ w.Work.name) (fun () -> round ~jobs:1 i))
      in
      pairs (i + 1) (u :: acc_u) (t :: acc_t) (wall_u +. du) (wall_t +. dt)
    end
  in
  let untraced, traced, wall_u, wall_t = pairs 0 [] [] 0.0 0.0 in
  let round_spans = Span.spans () in
  let layer_metrics = Layers.run ~dir in
  let accounting =
    [
      ("bench.unaccounted_frac", unaccounted ~seed ~wall:wall_u round_spans, "fraction");
      ("bench.trace_overhead_frac", (wall_t /. wall_u) -. 1.0, "fraction");
    ]
  in
  Span.stop ();
  let json = Span.to_chrome (Span.spans ()) in
  let trace_file = Filename.concat out_dir ("trace-" ^ w.Work.name ^ ".json") in
  Out_channel.with_open_bin trace_file (fun oc -> output_string oc json);
  let trace_ok =
    match T11r_obs.Chrome.validate json with
    | Ok () -> []
    | Error e -> [ "trace: Chrome trace-event JSON invalid: " ^ e ]
  in
  host_stamp ();
  Printf.printf "workload %s, seed %d: traced pass, %d spans written to %s\n"
    w.Work.name seed (List.length (Span.spans ())) trace_file;
  let metrics = layer_metrics @ accounting in
  List.iter (fun (n, v, u) -> line n v u) metrics;
  finish
    ~failures:(gate w ~seed untraced @ gate w ~seed traced @ trace_ok)
    (untraced @ traced) metrics

let () =
  let name = match arg "--workload" with Some n -> n | None -> fail_usage "missing --workload" in
  let seed = int_arg "--seed" in
  let seconds = float_of_int (int_arg "--seconds") in
  let trace = int_arg "--trace" in
  let w =
    match List.find_opt (fun (w : Work.t) -> w.Work.name = name) Work.all with
    | Some w -> w
    | None -> fail_usage ("unknown workload " ^ name)
  in
  mkdir_p out_dir;
  at_exit (fun () ->
      List.iter
        (fun d ->
          T11r_util.Tmp.rm_rf
            (Filename.concat out_dir (Printf.sprintf "%s-%d" d (Unix.getpid ()))))
        [ "rr"; "layers" ]);
  match trace with
  | 0 -> timed_pass w ~seed ~seconds
  | 1 -> traced_pass w ~seed
  | _ -> fail_usage "--trace takes 0 or 1"
