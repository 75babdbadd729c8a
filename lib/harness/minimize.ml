module Conf = Tsan11rec.Conf
module Interp = Tsan11rec.Interp

type failure = Race | Crash | Deadlock | Any

type found = {
  bound : int;
  seed : int64;
  seed2 : int64;
  runs : int;
  outcome : Interp.outcome;
  races : T11r_race.Report.t list;
}

type result = Found of found | Not_found of int

(* A quarantined [Crashed (-1, _)] is the harness failing to run the
   try, not the program failing: never a match. *)
let matches failure (r : Interp.result) =
  match (failure, r.outcome) with
  | _, Interp.Crashed (-1, _) -> false
  | Race, _ -> r.race_count > 0
  | Crash, Interp.Crashed _ -> true
  | Deadlock, Interp.Deadlock _ -> true
  | Any, (Interp.Crashed _ | Interp.Deadlock _) -> true
  | Any, _ -> r.race_count > 0
  | (Crash | Deadlock), _ -> false

(* Both scheduler seeds, freshly avalanched per (bound, try). The old
   derivation fixed seed2 at a constant — so across every bound and
   try the weak-memory read stream started from the same second seed —
   and built seed1 as [try*2654435761 + bound*97], making the streams
   for (bound, try) and (bound', try') near-collide whenever the
   linear combination did. Feeding the pair through SplitMix64
   decorrelates every (bound, try) cell in both seed dimensions. *)
let derive_seeds ~bound ~try_ =
  let state =
    ref
      (Int64.add
         (Int64.mul (Int64.of_int bound) 0x9E3779B97F4A7C15L)
         (Int64.of_int try_))
  in
  let s1 = T11r_util.Prng.splitmix_next state in
  let s2 = T11r_util.Prng.splitmix_next state in
  (s1, s2)

(* When a guided corpus is available, its seed pairs — already proven
   to reach novel schedule coverage — are tried first at each bound
   (highest energy first, admission order on ties) before falling back
   to the blind SplitMix64 sweep. They count against [tries_per_bound],
   so the search stays bounded and fully deterministic. *)
let corpus_seeds corpus =
  match corpus with
  | None -> [||]
  | Some c ->
      Corpus.entries c
      |> List.sort (fun (a : Corpus.entry) b ->
             match compare b.Corpus.e_energy a.Corpus.e_energy with
             | 0 -> compare a.Corpus.e_id b.Corpus.e_id
             | o -> o)
      |> List.map (fun (e : Corpus.entry) -> (e.Corpus.e_seed1, e.Corpus.e_seed2))
      |> Array.of_list

let find_bug ?(failure = Any) ?(max_bound = 4) ?(tries_per_bound = 100)
    ?(deadline_s = 0.) ?tick_budget ?(world_seed = 7L) ?corpus ~build () =
  if max_bound < 0 then invalid_arg "Minimize.find_bug: max_bound < 0";
  if tries_per_bound < 1 then
    invalid_arg "Minimize.find_bug: tries_per_bound < 1";
  let seeded = corpus_seeds corpus in
  let runs = ref 0 in
  let result = ref None in
  let bound = ref 0 in
  while !result = None && !bound <= max_bound do
    let try_ = ref 1 in
    while !result = None && !try_ <= tries_per_bound do
      incr runs;
      let seed, seed2 =
        if !try_ - 1 < Array.length seeded then seeded.(!try_ - 1)
        else derive_seeds ~bound:!bound ~try_:!try_
      in
      let conf =
        Conf.with_seeds
          (Conf.tsan11rec ~strategy:(Conf.Preempt_bounded !bound) ())
          seed seed2
      in
      (* A supervised cut-off ([Timeout]/[Tick_limit]) or a run
         quarantined by [Outcome.protect] is "no match" — the sweep
         moves on to the next seed instead of crashing or wedging on
         one pathological schedule. The recycled world is
         observationally a fresh one, so the found seed pair still
         reproduces against [World.create ~seed:world_seed]. *)
      let r =
        Campaign.run_one ~deadline_s ~tick_budget conf (fun () ->
            let world = Campaign.recycled_world ~seed:world_seed in
            (world, build ()))
      in
      if matches failure r then
        result :=
          Some
            {
              bound = !bound;
              seed;
              seed2;
              runs = !runs;
              outcome = r.Interp.outcome;
              races = r.Interp.races;
            };
      incr try_
    done;
    incr bound
  done;
  match !result with Some f -> Found f | None -> Not_found !runs

let pp fmt = function
  | Not_found runs -> Format.fprintf fmt "no failure within bounds (%d runs)" runs
  | Found f ->
      Format.fprintf fmt
        "failure needs <= %d preemption(s): seeds %Ld %Ld after %d runs (%a%s)"
        f.bound f.seed f.seed2 f.runs Interp.pp_outcome f.outcome
        (match f.races with
        | [] -> ""
        | r :: _ -> Format.asprintf "; %a" T11r_race.Report.pp r)
