module Conf = Tsan11rec.Conf
module Interp = Tsan11rec.Interp
module Report = T11r_race.Report
module Decision = T11r_race.Decision
module Journal = T11r_util.Journal
open Decision

type result = {
  runs : int;
  resumed_runs : int;
  complete : bool;
  racy_schedules : int;
  races : Report.t list;
  deadlock_schedules : int;
  crash_schedules : int;
  outcomes : (string * int) list;
  max_depth_seen : int;
}

(* Journal framing for resumable exploration: one header pinning the
   seeds, world seed and tick budget, then one "sys" entry per
   analyzed prefix carrying (prefix, result-without-demo). Resume keys
   the cache on the prefix itself, so the worker count may differ
   between the original run and the resume — each prefix's result is
   a pure function of (prefix, seeds, world_seed). Results carry the
   per-decision DPOR metadata ({!Decision.t}), and entries are written
   in analysis order (identical at every [jobs]). Bump the schema
   whenever Interp.result changes layout. *)
let journal_schema = 6

(* Normalized guided prefixes, hashed over every index: the
   polymorphic [Hashtbl.hash] reads only the first ten, which piles
   deep prefixes sharing a head into a few buckets. *)
module Prefixes = Hashtbl.Make (struct
  type t = int array

  let equal (a : int array) b = a = b
  let hash a = Hashtbl.hash (Array.fold_left (fun h i -> (h * 65599) + i) 0 a)
end)

(* ------------------------------------------------------------------ *)
(* DFS frames. A frame is the node reached after [fr_depth] scheduling
   decisions — the [fr_cur] of the frames below it, so the guided
   prefix that reaches it is the [fr_idx] of the frames below it — and
   [fr_rd] is the decision array of the maximal run currently being
   followed through it (the run whose realized path extends that
   prefix with index 0 forever). *)
type frame = {
  fr_depth : int;
  fr_enabled : int array; (* tids runnable here, ascending *)
  fr_rd : Decision.t array;
  mutable fr_backtrack : int list; (* tids to explore, insertion order *)
  mutable fr_done : int list; (* tids whose subtree is complete *)
  mutable fr_sleep : (int * Decision.t) list; (* sleep set *)
  mutable fr_cur : Decision.t option;
      (* transition being explored; while set, it is event [fr_depth]
         of the happens-before index *)
  mutable fr_idx : int;
      (* the guided index of [fr_cur] in [fr_enabled], -1 while unset *)
}

(* Stack slots above the top hold this frame. *)
let no_frame =
  {
    fr_depth = -1;
    fr_enabled = [||];
    fr_rd = [||];
    fr_backtrack = [];
    fr_done = [];
    fr_sleep = [];
    fr_cur = None;
    fr_idx = -1;
  }

(* List membership over tids, without the polymorphic compare. *)
let rec mem_tid (tid : int) = function
  | [] -> false
  | t :: rest -> t = tid || mem_tid tid rest

let rec in_sleep sleep (tid : int) =
  match sleep with
  | [] -> false
  | (t, _) :: rest -> t = tid || in_sleep rest tid

(* The first tid of [enabled] from [i] on that is not asleep, or -1. *)
let rec first_awake enabled sleep i =
  if i >= Array.length enabled then -1
  else
    let tid = enabled.(i) in
    if in_sleep sleep tid then first_awake enabled sleep (i + 1) else tid

(* The first backtrack tid neither done nor asleep, or -1. *)
let rec next_child f = function
  | [] -> -1
  | q :: rest ->
      if (not (mem_tid q f.fr_done)) && not (in_sleep f.fr_sleep q) then q
      else next_child f rest

(* The sleep entries independent of [e], in order: they stay asleep
   below [e]. *)
let rec still_asleep e = function
  | [] -> []
  | ((_, d) as s) :: rest ->
      if T11r_race.Hb.dep d e then still_asleep e rest
      else s :: still_asleep e rest

let explore ?(max_runs = 2000) ?jobs:_ ?(dpor = true) ?(deadline_s = 0.)
    ?tick_budget ?(world_seed = 7L) ?(seeds = (11L, 13L)) ?journal ?cancel
    ~build () =
  if max_runs < 1 then invalid_arg "Systematic.explore: max_runs < 1";
  let s1, s2 = seeds in
  let cancelled = match cancel with Some c -> c | None -> fun () -> false in
  (* Journal-loaded results by normalized prefix, consumed (and
     removed) when the analysis queries them. Keying on the normalized
     prefix makes following a run down its own path free and makes
     [runs] count distinct executions. *)
  let cache : Interp.result Prefixes.t = Prefixes.create 64 in
  let from_journal : unit Prefixes.t = Prefixes.create 64 in
  (* Whether the journal served any entry: only then does a query
     consult the two tables. *)
  let resuming = ref false in
  (* One prefix execution, from tick 0 on the domain's recycled arena
     and world, under one configuration whose prefix alone changes. *)
  let base =
    Conf.with_seeds
      (Conf.tsan11rec
         ~strategy:(Conf.Guided { prefix = [||]; observed = ref [] })
         ())
      s1 s2
  in
  let conf_of prefix =
    {
      base with
      Conf.sched = Conf.Controlled (Conf.Guided { prefix; observed = ref [] });
    }
  in
  let instance () =
    let world = Campaign.recycled_world ~seed:world_seed in
    (world, build ())
  in
  let exec_prefix prefix =
    Campaign.run_one ~deadline_s ~tick_budget (conf_of prefix) instance
  in
  let jw =
    Option.map
      (fun path ->
        let identity =
          Printf.sprintf "world-seed=%Ld seeds=%Ld,%Ld tick-budget=%s"
            world_seed s1 s2
            (Option.fold ~none:"none" ~some:string_of_int tick_budget)
        in
        let w, entries, _dropped =
          Journal.open_pinned ~kind:"systematic" ~schema:journal_schema
            ~identity ~payload:"sys" path
        in
        Campaign.check_reproduces ~who:"Systematic.explore" ~tick_budget path
          w (fun prefix -> (conf_of prefix, instance)) entries;
        List.iter
          (fun ((prefix, r) : int array * Interp.result) ->
            let prefix = Decision.normalize_prefix prefix in
            Prefixes.replace cache prefix r;
            Prefixes.replace from_journal prefix ())
          entries;
        resuming := entries <> [];
        w)
      journal
  in
  (* Aggregation, in analysis order. *)
  let runs = ref 0 in
  let resumed = ref 0 in
  let racy = ref 0 in
  let deadlocks = ref 0 in
  let crashes = ref 0 in
  let max_depth = ref 0 in
  let races = ref [] in
  let seen_races = Hashtbl.create 16 in
  let outcomes = Hashtbl.create 4 in
  let aggregate (r : Interp.result) =
    incr runs;
    max_depth := max !max_depth (Array.length r.Interp.decisions);
    if r.Interp.race_count > 0 then incr racy;
    List.iter
      (fun race ->
        if not (Hashtbl.mem seen_races race) then begin
          Hashtbl.replace seen_races race ();
          races := race :: !races
        end)
      r.Interp.races;
    (match r.Interp.outcome with
    | Interp.Deadlock _ -> incr deadlocks
    | Interp.Crashed _ -> incr crashes
    | _ -> ());
    let k = Outcome.key r.Interp.outcome in
    Hashtbl.replace outcomes k
      (1 + Option.value ~default:0 (Hashtbl.find_opt outcomes k))
  in
  let journal_entry prefix (r : Interp.result) =
    Option.iter
      (fun w ->
        let payload =
          Marshal.to_string (prefix, { r with Interp.demo = None }) []
        in
        Journal.append w { Journal.kind = "sys"; payload })
      jw
  in
  (* Query one normalized prefix: consume the journalled result or
     execute it. Counts the run, journals fresh executions (in analysis
     order) and aggregates — exactly once per distinct schedule. *)
  let query prefix =
    let cached = if !resuming then Prefixes.find_opt cache prefix else None in
    let r =
      match cached with
      | Some r ->
          Prefixes.remove cache prefix;
          r
      | None -> exec_prefix prefix
    in
    if !resuming && Prefixes.mem from_journal prefix then incr resumed
    else journal_entry prefix r;
    aggregate r;
    r
  in
  (* The DFS stack (frames.(0 .. sp-1); frame i sits at depth i), and
     the happens-before index over its [fr_cur] events. *)
  let frames : frame array ref = ref (Array.make 64 no_frame) in
  let sp = ref 0 in
  let hb = T11r_race.Hb.create () in
  let fget i = !frames.(i) in
  let fpush f =
    if !sp >= Array.length !frames then begin
      let a = Array.make (2 * Array.length !frames) no_frame in
      Array.blit !frames 0 a 0 !sp;
      frames := a
    end;
    !frames.(!sp) <- f;
    incr sp
  in
  (* Clear [f.fr_cur], dropping it from the index. *)
  let clear_cur f =
    if dpor && Option.is_some f.fr_cur then T11r_race.Hb.pop hb;
    f.fr_cur <- None;
    f.fr_idx <- -1
  in
  (* The guided prefix reaching the child of frame [k] at index [idx]:
     the indices of the frames' current transitions, then [idx]. *)
  let prefix_to k idx =
    let p = Array.make (k + 1) idx in
    for m = 0 to k - 1 do
      let i = (fget m).fr_idx in
      assert (i >= 0);
      p.(m) <- i
    done;
    p
  in
  (* Reach the node after [depth] transitions of run [rd] with entry
     sleep set [sleep]; push a frame unless the node is terminal (the
     run ended) or sleep-blocked (every enabled thread is asleep — the
     subtree is Mazurkiewicz-redundant and is pruned whole). *)
  let push_node ~depth ~rd ~sleep =
    if depth >= Array.length rd then false
    else begin
      let enabled = rd.(depth).d_enabled in
      let awake = first_awake enabled sleep 0 in
      if awake < 0 then false
      else begin
        let backtrack = if dpor then [ awake ] else Array.to_list enabled in
        fpush
          {
            fr_depth = depth;
            fr_enabled = enabled;
            fr_rd = rd;
            fr_backtrack = backtrack;
            fr_done = [];
            fr_sleep = sleep;
            fr_cur = None;
            fr_idx = -1;
          };
        true
      end
    end
  in
  (* A reversible race at node [i] makes it also try [tid], unless
     [tid] is already scheduled or done there. *)
  let add_backtrack fi tid =
    if (not (mem_tid tid fi.fr_backtrack)) && not (mem_tid tid fi.fr_done)
    then fi.fr_backtrack <- fi.fr_backtrack @ [ tid ]
  in
  let rec add_races = function
    | [] -> ()
    | (i, initial) :: rest ->
        let fi = fget i in
        (match initial with
        | Some tid -> add_backtrack fi tid
        | None -> Array.iter (add_backtrack fi) fi.fr_enabled);
        add_races rest
  in
  (* Bootstrap: the all-zeros run. *)
  let r0 = query [||] in
  ignore (push_node ~depth:0 ~rd:r0.Interp.decisions ~sleep:[]);
  while !sp > 0 && !runs < max_runs && not (cancelled ()) do
    let f = fget (!sp - 1) in
    match next_child f f.fr_backtrack with
    | -1 ->
        (* Node exhausted: pop, complete the parent's current child. *)
        decr sp;
        !frames.(!sp) <- no_frame;
        if !sp > 0 then begin
          let p = fget (!sp - 1) in
          match p.fr_cur with
          | Some e ->
              p.fr_done <- e.d_tid :: p.fr_done;
              if dpor then p.fr_sleep <- (e.d_tid, e) :: p.fr_sleep;
              clear_cur p
          | None -> assert false
        end
    | q ->
        let k = f.fr_depth in
        let idx = Decision.index_of q f.fr_enabled in
        (* Index 0 continues the run already followed through this
           node — same normalized prefix, no new execution. A nonzero
           index is a fresh schedule: query it (journal or run). *)
        let rd' =
          if idx = 0 then f.fr_rd
          else
            (query (Decision.normalize_prefix (prefix_to k idx))).Interp.decisions
        in
        if Array.length rd' <= k || rd'.(k).d_tid <> q then
          (* The run ended before this depth (supervision cut it
             short) or diverged — nothing to descend into. *)
          f.fr_done <- q :: f.fr_done
        else begin
          let e = rd'.(k) in
          if dpor then
            (* Race analysis for the new event e against the current
               path: each reversible race makes its node also try the
               first thread of the reordered segment (or, with none
               enabled there, every thread). *)
            add_races (T11r_race.Hb.push hb ~enabled:f.fr_enabled e);
          f.fr_cur <- Some e;
          f.fr_idx <- idx;
          let sleep' = if dpor then still_asleep e f.fr_sleep else [] in
          if not (push_node ~depth:(k + 1) ~rd:rd' ~sleep:sleep') then begin
            (* Terminal or sleep-blocked child: completes immediately. *)
            f.fr_done <- q :: f.fr_done;
            if dpor then f.fr_sleep <- (q, e) :: f.fr_sleep;
            clear_cur f
          end
        end
  done;
  Option.iter Journal.close jw;
  {
    runs = !runs;
    resumed_runs = !resumed;
    complete = !sp = 0;
    racy_schedules = !racy;
    races = List.rev !races;
    deadlock_schedules = !deadlocks;
    crash_schedules = !crashes;
    outcomes = Hashtbl.fold (fun k v acc -> (k, v) :: acc) outcomes [];
    max_depth_seen = !max_depth;
  }

let pp fmt r =
  Format.fprintf fmt
    "%d schedule(s) explored%s%s; %d racy, %d deadlocking, %d crashing; depth <= %d@."
    r.runs
    (if r.resumed_runs > 0 then
       Printf.sprintf " (%d resumed from journal)" r.resumed_runs
     else "")
    (if r.complete then " (schedule space exhausted)" else " (budget hit)")
    r.racy_schedules r.deadlock_schedules r.crash_schedules r.max_depth_seen;
  List.iter
    (fun (k, v) -> Format.fprintf fmt "  outcome %-12s %d@." k v)
    (List.sort compare r.outcomes);
  List.iter (fun race -> Format.fprintf fmt "  %a@." Report.pp race) r.races
