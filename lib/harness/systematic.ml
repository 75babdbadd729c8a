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
  outcomes : Outcome.histogram;
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

(* Distinct race reports of an exploration, hashed over every field
   without the polymorphic hash. *)
module Races = Hashtbl.Make (struct
  type t = Report.t

  let equal = Report.equal

  let hash (r : Report.t) =
    let h = ref ((r.first_tid * 65599) + r.second_tid) in
    for i = 0 to String.length r.var - 1 do
      h := (!h * 31) + Char.code (String.unsafe_get r.var i)
    done;
    let k =
      match r.kind with
      | Report.Write_write -> 0
      | Report.Write_read -> 1
      | Report.Read_write -> 2
    in
    ((!h * 3) + k) land max_int
end)

(* ------------------------------------------------------------------ *)
(* DFS frames. A frame is the node reached after [fr_depth] scheduling
   decisions — the [fr_cur] of the frames below it, so the guided
   prefix that reaches it is the [fr_idx] of the frames below it — and
   [fr_rd] is the decision array of the maximal run currently being
   followed through it (the run whose realized path extends that
   prefix with index 0 forever). The stack's frames are records reused
   in place: a descent writes the next slot's fields.

   A frame's backtrack set is [fr_bt.(0 .. fr_bt_n - 1)] in insertion
   order, a tid whose subtree is complete stored as [-tid - 1] (every
   done tid was scheduled from the backtrack set, and every tid the set
   gains is enabled at the node, so [fr_enabled] bounds it). Its sleep
   set is the slice [fr_sleep_lo, fr_sleep_hi) of the explorer's sleep
   stack: a child's set is the part of its parent's independent of the
   parent's transition, copied just above the parent's slice, and a
   frame gains entries only while it is the top frame, so the slices
   nest as the frames do. A sleep entry is the decision that put its
   thread to sleep; its tid is the decision's. *)
type frame = {
  mutable fr_depth : int;
  mutable fr_enabled : int array; (* tids runnable here, ascending *)
  mutable fr_rd : Decision.t array;
  mutable fr_bt : int array;
  mutable fr_bt_n : int;
  mutable fr_sleep_lo : int;
  mutable fr_sleep_hi : int;
  mutable fr_cur : Decision.t;
      (* transition being explored, [no_decision] while unset; while
         set, it is event [fr_depth] of the happens-before index *)
  mutable fr_idx : int;
      (* the guided index of [fr_cur] in [fr_enabled], -1 while unset *)
}

let no_decision =
  {
    d_tid = -1;
    d_enabled = [||];
    d_foot = F_local;
    d_draws = 0;
    d_rand = false;
    d_lock = L_none;
  }

let new_frame () =
  {
    fr_depth = -1;
    fr_enabled = [||];
    fr_rd = [||];
    fr_bt = Array.make 4 0;
    fr_bt_n = 0;
    fr_sleep_lo = 0;
    fr_sleep_hi = 0;
    fr_cur = no_decision;
    fr_idx = -1;
  }

(* Whether [tid] is in [f]'s backtrack set from [i] on, done or not. *)
let rec bt_mem f (tid : int) i =
  i < f.fr_bt_n
  && (let v = f.fr_bt.(i) in
      v = tid || v = -tid - 1 || bt_mem f tid (i + 1))

(* A reversible race at [f]'s node makes it also try [tid], unless
   [tid] is already scheduled or done there. *)
let bt_add f tid =
  if not (bt_mem f tid 0) then begin
    if f.fr_bt_n = Array.length f.fr_bt then begin
      let a = Array.make (2 * f.fr_bt_n) 0 in
      Array.blit f.fr_bt 0 a 0 f.fr_bt_n;
      f.fr_bt <- a
    end;
    f.fr_bt.(f.fr_bt_n) <- tid;
    f.fr_bt_n <- f.fr_bt_n + 1
  end

(* [tid]'s subtree at [f] is complete (searching from [i]). *)
let rec bt_done f (tid : int) i =
  if i < f.fr_bt_n then
    if f.fr_bt.(i) = tid then f.fr_bt.(i) <- -tid - 1 else bt_done f tid (i + 1)

let rec asleep (sleep : Decision.t array) lo hi (tid : int) =
  lo < hi && (sleep.(lo).d_tid = tid || asleep sleep (lo + 1) hi tid)

(* The first tid of [enabled] from [i] on that is not asleep, or -1. *)
let rec first_awake enabled sleep lo hi i =
  if i >= Array.length enabled then -1
  else
    let tid = enabled.(i) in
    if asleep sleep lo hi tid then first_awake enabled sleep lo hi (i + 1)
    else tid

(* The first backtrack tid from [i] on neither done nor asleep, or -1. *)
let rec next_child sleep f i =
  if i >= f.fr_bt_n then -1
  else
    let q = f.fr_bt.(i) in
    if q >= 0 && not (asleep sleep f.fr_sleep_lo f.fr_sleep_hi q) then q
    else next_child sleep f (i + 1)

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
  (* Aggregation, in analysis order: counters, the distinct races and
     the outcome tally. *)
  let runs = ref 0 in
  let resumed = ref 0 in
  let racy = ref 0 in
  let max_depth = ref 0 in
  let races = ref [] in
  let seen_races = Races.create 16 in
  let outcomes = Outcome.tally () in
  let rec note_races = function
    | [] -> ()
    | race :: rest ->
        if not (Races.mem seen_races race) then begin
          Races.add seen_races race ();
          races := race :: !races
        end;
        note_races rest
  in
  let aggregate (r : Interp.result) =
    incr runs;
    let depth = Array.length r.Interp.decisions in
    if depth > !max_depth then max_depth := depth;
    if r.Interp.race_count > 0 then incr racy;
    note_races r.Interp.races;
    Outcome.add outcomes r.Interp.outcome
  in
  let journal_entry prefix (r : Interp.result) =
    match jw with
    | None -> ()
    | Some w ->
        let payload =
          Marshal.to_string (prefix, { r with Interp.demo = None }) []
        in
        Journal.append w { Journal.kind = "sys"; payload }
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
  (* The DFS stack (frames.(0 .. sp-1); frame i sits at depth i), the
     sleep stack its sleep sets are slices of, and the happens-before
     index over its [fr_cur] events. *)
  let frames = ref (Array.init 64 (fun _ -> new_frame ())) in
  let sp = ref 0 in
  let sleep = ref (Array.make 64 no_decision) in
  let hb = T11r_race.Hb.create () in
  let fget i = !frames.(i) in
  (* Room for [n] sleep entries. *)
  let sleep_room n =
    if n > Array.length !sleep then begin
      let a = Array.make (max n (2 * Array.length !sleep)) no_decision in
      Array.blit !sleep 0 a 0 (Array.length !sleep);
      sleep := a
    end
  in
  (* Put [e]'s thread to sleep at the top frame [f]. *)
  let add_sleep f e =
    sleep_room (f.fr_sleep_hi + 1);
    !sleep.(f.fr_sleep_hi) <- e;
    f.fr_sleep_hi <- f.fr_sleep_hi + 1
  in
  (* Copy the entries of the top frame [f]'s sleep set independent of
     [e] just above it — they stay asleep below [e] — and return the
     copy's end. *)
  let sleep_below f e =
    let lo = f.fr_sleep_lo and hi = f.fr_sleep_hi in
    sleep_room (hi + (hi - lo));
    let s = !sleep in
    let top = ref hi in
    for j = lo to hi - 1 do
      let d = s.(j) in
      if not (T11r_race.Hb.dep d e) then begin
        s.(!top) <- d;
        incr top
      end
    done;
    !top
  in
  (* Clear [f.fr_cur], dropping it from the index. *)
  let clear_cur f =
    if dpor && f.fr_idx >= 0 then T11r_race.Hb.pop hb;
    f.fr_cur <- no_decision;
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
     sleep set [lo, hi); push a frame unless the node is terminal (the
     run ended) or sleep-blocked (every enabled thread is asleep — the
     subtree is Mazurkiewicz-redundant and is pruned whole). *)
  let push_node ~depth ~rd ~lo ~hi =
    if depth >= Array.length rd then false
    else begin
      let enabled = rd.(depth).d_enabled in
      let awake = first_awake enabled !sleep lo hi 0 in
      if awake < 0 then false
      else begin
        if !sp >= Array.length !frames then begin
          let old = !frames in
          frames :=
            Array.init (2 * Array.length old) (fun i ->
                if i < Array.length old then old.(i) else new_frame ())
        end;
        let f = fget !sp in
        let n = Array.length enabled in
        if Array.length f.fr_bt < n then f.fr_bt <- Array.make n 0;
        if dpor then begin
          f.fr_bt.(0) <- awake;
          f.fr_bt_n <- 1
        end
        else begin
          Array.blit enabled 0 f.fr_bt 0 n;
          f.fr_bt_n <- n
        end;
        f.fr_depth <- depth;
        f.fr_enabled <- enabled;
        f.fr_rd <- rd;
        f.fr_sleep_lo <- lo;
        f.fr_sleep_hi <- hi;
        incr sp;
        true
      end
    end
  in
  (* Each reversible race of the event just analysed makes its node
     also try the race's initial thread, or every thread enabled there
     when none starts the reordered segment. *)
  let add_races n =
    for r = 0 to n - 1 do
      let fi = fget (T11r_race.Hb.race_pos hb r) in
      let q = T11r_race.Hb.race_initial hb r in
      if q >= 0 then bt_add fi q
      else
        for j = 0 to Array.length fi.fr_enabled - 1 do
          bt_add fi fi.fr_enabled.(j)
        done
    done
  in
  (* Bootstrap: the all-zeros run. *)
  let r0 = query [||] in
  ignore (push_node ~depth:0 ~rd:r0.Interp.decisions ~lo:0 ~hi:0);
  while !sp > 0 && !runs < max_runs && not (cancelled ()) do
    let f = fget (!sp - 1) in
    match next_child !sleep f 0 with
    | -1 ->
        (* Node exhausted: pop, complete the parent's current child. *)
        decr sp;
        f.fr_rd <- [||];
        f.fr_enabled <- [||];
        if !sp > 0 then begin
          let p = fget (!sp - 1) in
          let e = p.fr_cur in
          assert (p.fr_idx >= 0);
          bt_done p e.d_tid 0;
          if dpor then add_sleep p e;
          clear_cur p
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
          bt_done f q 0
        else begin
          let e = rd'.(k) in
          if dpor then
            (* Race analysis for the new event e against the current
               path: each reversible race makes its node also try the
               first thread of the reordered segment (or, with none
               enabled there, every thread). *)
            add_races (T11r_race.Hb.add hb ~enabled:f.fr_enabled e);
          f.fr_cur <- e;
          f.fr_idx <- idx;
          let lo = f.fr_sleep_hi in
          let hi = if dpor then sleep_below f e else lo in
          if not (push_node ~depth:(k + 1) ~rd:rd' ~lo ~hi) then begin
            (* Terminal or sleep-blocked child: completes immediately. *)
            bt_done f q 0;
            if dpor then add_sleep f e;
            clear_cur f
          end
        end
  done;
  Option.iter Journal.close jw;
  let outcomes = Outcome.histogram outcomes in
  {
    runs = !runs;
    resumed_runs = !resumed;
    complete = !sp = 0;
    racy_schedules = !racy;
    races = List.rev !races;
    deadlock_schedules = Outcome.count outcomes "deadlock";
    crash_schedules = Outcome.count outcomes "crashed";
    outcomes;
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
  Outcome.pp fmt r.outcomes;
  List.iter (fun race -> Format.fprintf fmt "  %a@." Report.pp race) r.races
