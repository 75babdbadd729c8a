(* Coverage-guided schedule hunting: breed a batch of candidate
   (strategy, seed-pair) inputs from the corpus, run the batch as one
   [Campaign], fold every run's coverage fingerprint back into the
   corpus in run-index order, repeat. Every step is a pure function of
   (spec, salt, round), so the whole hunt — corpus, merged coverage,
   report digest — is bit-identical at every worker count; the corpus
   journal snapshots the fold state after each round, and the
   per-round campaign journals cover a kill inside a round. *)

open T11r_util
module Conf = Tsan11rec.Conf
module Interp = Tsan11rec.Interp
module Coverage = T11r_race.Coverage
module Metrics = T11r_obs.Metrics
module Report = T11r_race.Report

type report = {
  g_label : string;
  g_rounds_done : int;
  g_batch : int;
  g_runs : int;
  g_racy : int;
  g_first_race : int option;  (* global run index of the first racy run *)
  g_corpus : Corpus.t;
  g_coverage : Coverage.summary;
  g_outcomes : (string * int) list;
  g_sightings : Campaign.sighting list;
  g_metrics : Metrics.t;
  g_wall_s : float;
  g_interrupted : bool;
}

(* Wall clock and interruption are supervision, not results — same
   exclusion discipline as [Campaign.digest]. *)
let fingerprint r =
  ( ( r.g_label,
      r.g_rounds_done,
      r.g_batch,
      r.g_runs,
      r.g_racy,
      r.g_first_race,
      Corpus.digest r.g_corpus ),
    (r.g_coverage, r.g_outcomes, r.g_sightings, r.g_metrics) )

let digest r =
  Digest.to_hex
    (Digest.string (Marshal.to_string (fingerprint r) [ Marshal.No_sharing ]))

(* -- the fold state (also the journal snapshot payload) -------------- *)

type state = {
  st_rounds : int;  (* rounds completed *)
  st_corpus : Corpus.t;
  st_cov : Coverage.summary;
  st_runs : int;
  st_racy : int;
  st_first : int option;
  st_outcomes : (string * int) list;
  st_sightings : (Report.t * (int * int)) list;  (* race -> (first, count) *)
  st_metrics : Metrics.t;
}

let state0 =
  {
    st_rounds = 0;
    st_corpus = Corpus.empty;
    st_cov = Coverage.empty;
    st_runs = 0;
    st_racy = 0;
    st_first = None;
    st_outcomes = [];
    st_sightings = [];
    st_metrics = Metrics.zero;
  }

let corpus_schema = 1

let corpus_journal_path dir = Filename.concat dir "corpus.journal"
let round_journal_path dir r = Filename.concat dir (Printf.sprintf "round-%d.journal" r)
let header_kind = "corpus-hunt"
let snap_kind = "snap"

(* The fold state of the newest intact snapshot, if any. *)
let latest_state snaps =
  List.fold_left
    (fun latest (st : state) ->
      match latest with
      | Some prev when prev.st_rounds >= st.st_rounds -> latest
      | _ -> Some st)
    None snaps

(* The newest intact snapshot of a corpus directory, read-only: the
   schema pin is checked, the hunt identity pins are not — read-only
   consumers (icb's corpus seeding) only need the seeds, whatever hunt
   produced them. *)
let load_state dir =
  let _, snaps, _dropped =
    Journal.load_pinned ~kind:header_kind ~schema:corpus_schema
      ~payload:snap_kind (corpus_journal_path dir)
  in
  latest_state snaps

let load_corpus dir = Option.map (fun st -> st.st_corpus) (load_state dir)

(* Append a snapshot carrying [corpus] on top of whatever state the
   directory already holds. The snapshot's round index is bumped past
   the newest existing one so [load_corpus] (newest-round-wins) picks
   it up; header pins are left alone — external admission (predictive
   witness seeding) composes with any hunt's journal the way
   [load_corpus] reads them: seeds only. *)
let save_corpus dir corpus =
  let base = Option.value (load_state dir) ~default:state0 in
  let st = { base with st_rounds = base.st_rounds + 1; st_corpus = corpus } in
  let w = Journal.create (corpus_journal_path dir) in
  Journal.append w
    { Journal.kind = snap_kind; payload = Marshal.to_string st [ Marshal.No_sharing ] };
  Journal.close w

(* -- candidate breeding ---------------------------------------------- *)

(* The round PRNG is a pure function of (salt, round): resuming round
   [r] from the round [r-1] snapshot regenerates its candidates
   exactly, which is what lets the per-round campaign journal re-serve
   cached runs against identical configurations. *)
let round_rng ~salt round =
  Prng.create
    ~seed1:(Int64.add salt (Int64.mul (Int64.of_int (round + 1)) 0x9E3779B97F4A7C15L))
    ~seed2:(Int64.logxor salt (Int64.of_int (((round + 1) * 40503) + 9176)))

let breed corpus ~round ~batch ~salt =
  let rng = round_rng ~salt round in
  let cands = ref [] in
  let spent = ref 0 in
  for _ = 1 to batch do
    let c =
      if Corpus.size corpus = 0 then
        (* Bootstrap (and coverage-dry) rounds rotate the portfolio
           with fresh seeds — a fair baseline the corpus must beat. *)
        let k = List.length !cands in
        {
          Corpus.c_strategy = Corpus.portfolio.(k mod Array.length Corpus.portfolio);
          c_seed1 = Prng.bits64 rng;
          c_seed2 = Prng.bits64 rng;
        }
      else
        match Corpus.select corpus rng with
        | Some parent ->
            incr spent;
            Corpus.mutate parent rng
        | None -> assert false
    in
    cands := c :: !cands
  done;
  (Array.of_list (List.rev !cands), Corpus.charge corpus !spent)

let round_spec (s : Campaign.spec) cands ~first =
  {
    s with
    Campaign.conf =
      (fun i ->
        let c = cands.(i - first) in
        let base = s.Campaign.conf i in
        let base = Conf.with_strategy base (Corpus.strategy_of_desc c.Corpus.c_strategy) in
        let base = Conf.with_coverage base true in
        Conf.with_seeds base c.Corpus.c_seed1 c.Corpus.c_seed2);
  }

(* A snapshot pins label, batch and salt but not the world or the tick
   budget, and a resumed hunt never reruns round 0. So round 0 is bred
   again from the empty corpus, and its journal must reproduce before
   any round is served: another world or tick budget is refused, not
   resumed. *)
let check_round0 (s : Campaign.spec) w dir ~batch ~salt ~tick_budget =
  let path = round_journal_path dir 0 in
  if Sys.file_exists path then begin
    let runs =
      match Campaign.journal_results path with
      | runs -> runs
      | exception e ->
          Journal.close w;
          raise e
    in
    let cands, _ = breed Corpus.empty ~round:0 ~batch ~salt in
    let rs = round_spec s cands ~first:0 in
    Campaign.check_reproduces ~who:"Guided.hunt" ~tick_budget path w
      (fun i -> (rs.Campaign.conf i, fun () -> rs.Campaign.instance i))
      runs
  end

(* -- folding one round's campaign into the state --------------------- *)

let merge_outcomes a b =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (k, v) ->
      Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    (a @ b);
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* The round's campaign report already holds its racy count,
   sightings, outcomes, metrics and coverage; only corpus admission
   walks the runs. Sightings from earlier rounds keep their first
   index, which is lower than any of this round's. A run is racy iff
   it has a race, so the first racy run is the lowest [s_first]. *)
let fold_round st corpus cands (rep : Campaign.report) ~round =
  let corpus = ref corpus in
  Array.iteri
    (fun k (r : Interp.result) ->
      let c = cands.(k) in
      corpus :=
        fst
          (Corpus.consider !corpus ~strategy:c.Corpus.c_strategy
             ~seed1:c.Corpus.c_seed1 ~seed2:c.Corpus.c_seed2 ~round
             r.Interp.coverage))
    rep.Campaign.results;
  let sightings =
    List.fold_left
      (fun acc (s : Campaign.sighting) ->
        match List.assoc_opt s.Campaign.s_race acc with
        | Some (f0, cnt) ->
            (s.s_race, (f0, cnt + s.s_count)) :: List.remove_assoc s.s_race acc
        | None -> (s.s_race, (s.s_first, s.s_count)) :: acc)
      st.st_sightings rep.Campaign.sightings
  in
  let first_race =
    List.fold_left
      (fun first (s : Campaign.sighting) ->
        match first with
        | Some j when j <= s.Campaign.s_first -> first
        | _ -> Some s.Campaign.s_first)
      st.st_first rep.Campaign.sightings
  in
  {
    st_rounds = round + 1;
    st_corpus = !corpus;
    st_cov = Coverage.union st.st_cov rep.Campaign.coverage;
    st_runs = st.st_runs + Array.length rep.Campaign.results;
    st_racy = st.st_racy + rep.Campaign.racy_runs;
    st_first = first_race;
    st_outcomes = merge_outcomes st.st_outcomes rep.Campaign.outcomes;
    st_sightings = sightings;
    st_metrics = Metrics.add st.st_metrics rep.Campaign.metrics;
  }

let report_of_state ~label ~batch ~wall_s ~interrupted st =
  {
    g_label = label;
    g_rounds_done = st.st_rounds;
    g_batch = batch;
    g_runs = st.st_runs;
    g_racy = st.st_racy;
    g_first_race = st.st_first;
    g_corpus = st.st_corpus;
    g_coverage = st.st_cov;
    g_outcomes = st.st_outcomes;
    g_sightings =
      List.map
        (fun (race, (s_first, s_count)) ->
          { Campaign.s_race = race; s_first; s_count })
        st.st_sightings
      |> List.sort Campaign.compare_sighting;
    g_metrics =
      {
        st.st_metrics with
        Metrics.m_corpus_adds = Corpus.size st.st_corpus;
        m_energy = Corpus.energy_spent st.st_corpus;
      };
    g_wall_s = wall_s;
    g_interrupted = interrupted;
  }

let hunt (s : Campaign.spec) ?(rounds = 8) ?(batch = 32) ?(jobs = 1)
    ?corpus_dir ?(salt = 0L) ?(stop_on_race = false) ?deadline_s ?tick_budget
    ?cancel () =
  if rounds < 1 then invalid_arg "Guided.hunt: rounds < 1";
  if batch < 1 then invalid_arg "Guided.hunt: batch < 1";
  let t0 = Unix.gettimeofday () in
  let jw, resumed =
    match corpus_dir with
    | None -> (None, None)
    | Some dir ->
        let w, snaps, _dropped =
          Journal.open_pinned ~kind:header_kind ~schema:corpus_schema
            ~identity:
              (Printf.sprintf "%S batch=%d salt=%Ld" s.Campaign.label batch
                 salt)
            ~payload:snap_kind (corpus_journal_path dir)
        in
        let resumed = latest_state snaps in
        if resumed <> None then check_round0 s w dir ~batch ~salt ~tick_budget;
        (Some w, resumed)
  in
  let cancelled () = match cancel with Some f -> f () | None -> false in
  let rec go st =
    let r = st.st_rounds in
    if r >= rounds then (st, false)
    else if cancelled () then (st, true)
    else if stop_on_race && st.st_first <> None then (st, false)
    else begin
      let cands, corpus = breed st.st_corpus ~round:r ~batch ~salt in
      let first = r * batch in
      let journal = Option.map (fun dir -> round_journal_path dir r) corpus_dir in
      let rep =
        Campaign.run (round_spec s cands ~first) ~n:batch ~jobs ~first
          ?deadline_s ?tick_budget ?journal ?cancel []
      in
      if rep.Campaign.supervision.Campaign.sup_interrupted then (st, true)
      else begin
        let st = fold_round st corpus cands rep ~round:r in
        (match jw with
        | Some w ->
            Journal.append w
              { Journal.kind = snap_kind; payload = Marshal.to_string st [] };
            (* Each round's snapshot is durable before the next round. *)
            Journal.flush w
        | None -> ());
        go st
      end
    end
  in
  let st0 = match resumed with Some st -> st | None -> state0 in
  let st, interrupted = go st0 in
  (match jw with Some w -> Journal.close w | None -> ());
  let wall_s = Unix.gettimeofday () -. t0 in
  report_of_state ~label:s.Campaign.label ~batch ~wall_s ~interrupted st

let pp fmt r =
  Format.fprintf fmt
    "%s: guided hunt, %d round(s) of %d (%d runs, %.2fs wall): %d racy, %d \
     coverage bit(s), %d corpus seed(s)@."
    r.g_label r.g_rounds_done r.g_batch r.g_runs r.g_wall_s r.g_racy
    (Coverage.popcount r.g_coverage)
    (Corpus.size r.g_corpus);
  (match r.g_first_race with
  | Some i -> Format.fprintf fmt "  first race at run %d@." i
  | None -> ());
  Format.fprintf fmt "  totals: %a@." Metrics.pp r.g_metrics;
  List.iter
    (fun (k, v) -> Format.fprintf fmt "  outcome %-12s %d@." k v)
    r.g_outcomes;
  List.iter
    (fun (s : Campaign.sighting) ->
      Format.fprintf fmt "  %a — %d sighting(s), first at run %d@." Report.pp
        s.Campaign.s_race s.Campaign.s_count s.Campaign.s_first)
    r.g_sightings;
  if r.g_interrupted then
    Format.fprintf fmt
      "  INTERRUPTED after %d round(s) — resume with the same --corpus dir@."
      r.g_rounds_done
