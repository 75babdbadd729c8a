(* Verified predictive race analysis — the harness side of
   [T11r_race.Predict]. The analysis is pure; everything here is about
   feeding it (demos and campaign journals) and about
   confirming its [Must] pairs by actually scheduling the witness,
   because a predicted pair is only ever surfaced as a race once a
   guided replay has sighted it. *)

module Conf = Tsan11rec.Conf
module Interp = Tsan11rec.Interp
module Demo = Tsan11rec.Demo
module Predict = T11r_race.Predict
module Decision = T11r_race.Decision
module Report = T11r_race.Report
module Coverage = T11r_race.Coverage

(* -- recording under prediction -------------------------------------- *)

let recording_prefix seed =
  let rng =
    T11r_util.Prng.create ~seed1:(Int64.of_int seed)
      ~seed2:(Int64.of_int ((seed * 40503) + 9176))
  in
  Array.init 64 (fun _ -> T11r_util.Prng.int rng 4)

(* -- recovering analysis inputs -------------------------------------- *)

let input_of_demo (d : Demo.t) =
  match List.assoc_opt "DECISIONS" d.Demo.extra with
  | None ->
      Error
        "no decision metadata — re-record under the guided strategy \
         (record --guided) to enable prediction"
  | Some lines -> (
      match Predict.decode_input lines with
      | Some input -> Ok input
      | None -> Error "malformed DECISIONS metadata")

let inputs_of_journal path =
  Campaign.journal_results path
  |> List.filter_map (fun (_, (r : Interp.result)) ->
         if Array.length r.Interp.decisions = 0 then None
         else Some (Interp.to_predict_input r))

(* -- witness verification -------------------------------------------- *)

type verdict =
  | Confirmed of {
      c_seed1 : int64;
      c_seed2 : int64;
      c_prefix : int array;
      c_runs : int;
      c_race : Report.t;
      c_cov : Coverage.summary;
    }
  | Refuted of int

type verified = { v_pair : Predict.pair; v_verdict : verdict }

type report = {
  r_analysis : Predict.t;
  r_verified : verified list;
  r_confirmed : int;
  r_refuted : int;
  r_runs : int;
  r_executed : int;
}

(* The seed sweep for one verification: the recording's own seeds
   first — the preserve witness under them IS the recorded schedule —
   then a deterministic SplitMix64 cascade off them, so two predict
   runs over the same demo always sweep identical seeds. *)
let seed_sweep ~recorded_seeds ~extra =
  let base =
    match recorded_seeds with
    | Some (s1, s2) -> Int64.logxor s1 (Int64.mul s2 0x9E3779B97F4A7C15L)
    | None -> 0x5DEECE66DL
  in
  let derived =
    List.init extra (fun i ->
        let st = ref (Int64.add base (Int64.of_int (i + 1))) in
        let s1 = T11r_util.Prng.splitmix_next st in
        let s2 = T11r_util.Prng.splitmix_next st in
        (s1, s2))
  in
  match recorded_seeds with Some p -> p :: derived | None -> derived

(* One guided execution of [prefix] under (s1, s2). Coverage is forced
   on so a confirming run carries the fingerprint corpus admission
   needs; mode is forced Free — verification never records. *)
let attempt ~instance ~base ~prefix s1 s2 =
  let conf =
    Conf.make ~base ~mode:Conf.Free
      ~strategy:(Conf.Guided { prefix; observed = ref [] })
      ~seeds:(s1, s2) ~coverage:true ()
  in
  Campaign.run_one ~deadline_s:0. ~tick_budget:None conf instance

let sighted (pair : Predict.pair) (r : Interp.result) =
  List.find_opt
    (fun race -> Report.equal (Report.norm race) pair.Predict.p_report)
    r.Interp.races

(* First decision where the realized schedule departs from the plan;
   [None] when every executed decision matched (the run may still have
   ended before the plan did — nothing left to repair either way). *)
let first_mismatch (w : Predict.witness) (ds : Decision.t array) =
  let n = min (Array.length w.Predict.w_tids) (Array.length ds) in
  let rec go k =
    if k >= n then None
    else if ds.(k).Decision.d_tid <> w.Predict.w_tids.(k) then Some k
    else go (k + 1)
  in
  go 0

(* Repair the prefix at mismatch [k]: positions before [k] are pinned
   to the indices the run actually realized (they already produced the
   planned threads, so re-running them is deterministic), position [k]
   is pointed at the planned thread inside the enabled set the run
   actually exposed there, and the old tail is kept. [None] when the
   planned thread was not enabled at [k] — this (plan, seeds) cell
   cannot realize the witness and is abandoned. *)
let repair (w : Predict.witness) (ds : Decision.t array) (prefix : int array) k =
  match Decision.index_of w.Predict.w_tids.(k) ds.(k).Decision.d_enabled with
  | exception Not_found -> None
  | idx ->
      let n = max (Array.length prefix) (k + 1) in
      let p = Array.make n 0 in
      Array.blit prefix 0 p 0 (Array.length prefix);
      for j = 0 to k - 1 do
        p.(j) <- Decision.index_of ds.(j).Decision.d_tid ds.(j).Decision.d_enabled
      done;
      p.(k) <- idx;
      Some p

(* Reads nothing of [pair] but its report and witnesses: pairs that
   agree on both get the same verdict. *)
let verify_pair ~instance ~base ~seeds ~budget (pair : Predict.pair) =
  let runs = ref 0 in
  let found = ref None in
  let try_cell (w : Predict.witness) (s1, s2) =
    let prefix = ref w.Predict.w_prefix in
    (* The mismatch index strictly increases across repairs (repaired
       positions re-realize deterministically under fixed seeds), so
       plan length bounds the loop; capped so one stubborn cell cannot
       eat the whole pair budget. *)
    let repairs = ref (min (Array.length w.Predict.w_tids + 4) 8) in
    let live = ref true in
    while !live && !found = None && !runs < budget do
      let r = attempt ~instance ~base ~prefix:!prefix s1 s2 in
      incr runs;
      match sighted pair r with
      | Some race ->
          found :=
            Some
              (Confirmed
                 {
                   c_seed1 = s1;
                   c_seed2 = s2;
                   c_prefix = Decision.normalize_prefix !prefix;
                   c_runs = !runs;
                   c_race = Report.norm race;
                   c_cov = r.Interp.coverage;
                 })
      | None -> (
          if !repairs <= 0 then live := false
          else begin
            decr repairs;
            match first_mismatch w r.Interp.decisions with
            | None -> live := false
            | Some k -> (
                match repair w r.Interp.decisions !prefix k with
                | None -> live := false
                | Some p -> prefix := p)
          end)
    done
  in
  (* Seeds outer, plans inner: the recorded seeds get every plan
     before any derived seed runs, and a seed that can manifest the
     race is reached without first sweeping all seeds through one
     unlucky plan. *)
  List.iter
    (fun s ->
      List.iter
        (fun w -> if !found = None then try_cell w s)
        pair.Predict.p_witnesses)
    seeds;
  match !found with Some v -> v | None -> Refuted !runs

let verify ?(jobs = 1) ?(attempts = 48) ?(extra_seeds = 24) ?recorded_seeds
    ?(base_conf = Conf.tsan11rec ()) ~instance (analysis : Predict.t) =
  if attempts < 1 then
    invalid_arg (Printf.sprintf "Predictor.verify: attempts = %d < 1" attempts);
  if extra_seeds < 0 then
    invalid_arg
      (Printf.sprintf "Predictor.verify: extra_seeds = %d < 0" extra_seeds);
  let seeds = seed_sweep ~recorded_seeds ~extra:extra_seeds in
  if seeds = [] then
    invalid_arg
      "Predictor.verify: empty seed sweep (no recorded_seeds, extra_seeds = 0)";
  let must =
    Array.of_list
      (List.filter
         (fun (p : Predict.pair) -> p.Predict.p_confidence = Predict.Must)
         analysis.Predict.pairs)
  in
  (* Pairs with the same (report, witnesses) get the same verdict from
     [verify_pair], so only the first pair of each class is executed.
     Classes are numbered in analysis order. The generic Hashtbl
     compares keys with [compare], which stops at physical equality:
     the recorded-schedule witness every pair shares costs nothing to
     compare, however long it is. *)
  let classes = Hashtbl.create 16 in
  let reps = ref [] in
  let class_of =
    Array.map
      (fun (p : Predict.pair) ->
        let key = (p.Predict.p_report, p.Predict.p_witnesses) in
        match Hashtbl.find_opt classes key with
        | Some c -> c
        | None ->
            let c = Hashtbl.length classes in
            Hashtbl.add classes key c;
            reps := p :: !reps;
            c)
      must
  in
  let reps = Array.of_list (List.rev !reps) in
  (* Classes are independent; fan them out and fold in analysis order
     so the report is identical at every [jobs]. *)
  let verdicts =
    Pool.map ~jobs (Array.length reps) (fun i ->
        verify_pair ~instance ~base:base_conf ~seeds ~budget:attempts reps.(i))
  in
  let runs_of = function Confirmed c -> c.c_runs | Refuted n -> n in
  let verified =
    Array.to_list
      (Array.mapi
         (fun i p -> { v_pair = p; v_verdict = verdicts.(class_of.(i)) })
         must)
  in
  let confirmed =
    List.length
      (List.filter (fun v -> match v.v_verdict with Confirmed _ -> true | _ -> false) verified)
  in
  let refuted = List.length verified - confirmed in
  {
    r_analysis = analysis;
    r_verified = verified;
    r_confirmed = confirmed;
    r_refuted = refuted;
    r_runs = List.fold_left (fun acc v -> acc + runs_of v.v_verdict) 0 verified;
    r_executed = Array.fold_left (fun acc v -> acc + runs_of v) 0 verdicts;
  }

(* -- corpus admission ------------------------------------------------ *)

let admit corpus r =
  List.fold_left
    (fun (corpus, n) v ->
      match v.v_verdict with
      | Refuted _ -> (corpus, n)
      | Confirmed c ->
          let corpus, grew =
            Corpus.consider corpus
              ~strategy:(Corpus.S_guided c.c_prefix)
              ~seed1:c.c_seed1 ~seed2:c.c_seed2 ~round:0 c.c_cov
          in
          (corpus, if grew then n + 1 else n))
    (corpus, 0) r.r_verified

(* -- printing -------------------------------------------------------- *)

let pp ppf r =
  let a = r.r_analysis in
  Format.fprintf ppf
    "@[<v>predicted: %d pairs (%d must, %d may; %d observed, %d \
     lock-excluded over %d locations)@,verified: %d confirmed, %d refuted \
     in %d runs (%d executed)@,"
    (List.length a.Predict.pairs)
    a.Predict.n_must a.Predict.n_may a.Predict.n_observed
    a.Predict.n_lock_excluded a.Predict.n_vars r.r_confirmed r.r_refuted
    r.r_runs r.r_executed;
  List.iter
    (fun v ->
      match v.v_verdict with
      | Confirmed c ->
          Format.fprintf ppf
            "  RACE %a  (witness: seeds %Ld/%Ld, prefix %d, %d run%s)@,"
            Report.pp v.v_pair.Predict.p_report c.c_seed1 c.c_seed2
            (Array.length c.c_prefix) c.c_runs
            (if c.c_runs = 1 then "" else "s")
      | Refuted n ->
          Format.fprintf ppf "  refuted %a  (%d attempts — not a race)@,"
            Report.pp v.v_pair.Predict.p_report n)
    r.r_verified;
  List.iter
    (fun (p : Predict.pair) ->
      if p.Predict.p_confidence = Predict.May then
        Format.fprintf ppf "  may     %a  (lockset-only — not a race)@,"
          Report.pp p.Predict.p_report)
    a.Predict.pairs;
  Format.fprintf ppf "@]"
