(* The guided-hunt corpus: seeds whose coverage fingerprints added new
   bits, with power-schedule energy proportional to how much they
   added. Everything here is immutable pure data — a corpus is a value
   folded forward by [consider] in run-index order, which is what lets
   [Guided] snapshot it into a journal and reproduce it bit-for-bit on
   resume at any worker count. *)

open T11r_util
module Conf = Tsan11rec.Conf
module Coverage = T11r_race.Coverage

(* A marshal-safe description of a strategy. [Conf.strategy]'s [Guided]
   carries a mutable [observed] ref (no longer written, but a ref all
   the same: never something to store or share), so the corpus keeps
   the prefix alone and rebuilds a fresh [Guided] per run. *)
type strategy_desc =
  | S_random
  | S_queue
  | S_pct of int
  | S_db of int
  | S_pb of int
  | S_guided of int array

let strategy_of_desc = function
  | S_random -> Conf.Random
  | S_queue -> Conf.Queue
  | S_pct d -> Conf.Pct d
  | S_db d -> Conf.Delay_bounded d
  | S_pb b -> Conf.Preempt_bounded b
  | S_guided prefix ->
      Conf.Guided { prefix = Array.copy prefix; observed = ref [] }

(* The bootstrap rotation and the strategy-switch mutation pool: the
   schedule-bounding strategies that beat plain random on the litmus
   race rates (bench ablations, table 2). *)
let portfolio = [| S_random; S_pct 3; S_db 3; S_pb 3 |]

type entry = {
  e_id : int;
  e_strategy : strategy_desc;
  e_seed1 : int64;
  e_seed2 : int64;
  e_cov : Coverage.summary;
  e_new_bits : int;  (* bits this entry added when admitted *)
  e_energy : int;
  e_round : int;
}

type t = {
  entries : entry list;  (* e_id ascending *)
  total : Coverage.summary;
  energy_spent : int;
  next_id : int;
}

let empty = { entries = []; total = Coverage.empty; energy_spent = 0; next_id = 0 }
let size t = List.length t.entries
let entries t = t.entries
let total_bits t = Coverage.popcount t.total
let energy_spent t = t.energy_spent

let consider t ~strategy ~seed1 ~seed2 ~round cov =
  let fresh = Coverage.new_bits ~base:t.total cov in
  if fresh <= 0 then (t, false)
  else
    let e =
      {
        e_id = t.next_id;
        e_strategy = strategy;
        e_seed1 = seed1;
        e_seed2 = seed2;
        e_cov = cov;
        e_new_bits = fresh;
        e_energy = 1 + fresh;
        e_round = round;
      }
    in
    ( {
        entries = t.entries @ [ e ];
        total = Coverage.union t.total cov;
        energy_spent = t.energy_spent;
        next_id = t.next_id + 1;
      },
      true )

let charge t n = { t with energy_spent = t.energy_spent + n }

(* Energy-weighted selection: one PRNG draw, then a walk over the
   entries in admission order — deterministic given the PRNG state. *)
let select t rng =
  match t.entries with
  | [] -> None
  | entries ->
      let budget = List.fold_left (fun a e -> a + e.e_energy) 0 entries in
      let r = Prng.int rng budget in
      let rec walk acc = function
        | [] -> None
        | e :: rest ->
            let acc = acc + e.e_energy in
            if r < acc then Some e else walk acc rest
      in
      walk 0 entries

type candidate = {
  c_strategy : strategy_desc;
  c_seed1 : int64;
  c_seed2 : int64;
}

let candidate_of_entry e =
  { c_strategy = e.e_strategy; c_seed1 = e.e_seed1; c_seed2 = e.e_seed2 }

(* Splice in the style of Systematic's frontier expansion: keep a
   prefix of the parent's decisions, then diverge with a short burst of
   fresh small choices. Out-of-range values are safe — the interpreter
   clamps every prefix pick to the enabled-thread count. *)
let splice_prefix rng prefix =
  let keep = if Array.length prefix = 0 then 0 else Prng.int rng (Array.length prefix + 1) in
  let burst = 1 + Prng.int rng 8 in
  Array.init (keep + burst) (fun i ->
      if i < keep then prefix.(i) else Prng.int rng 4)

let mutate parent rng =
  let p = candidate_of_entry parent in
  match Prng.int rng 5 with
  | 0 -> { p with c_seed2 = Prng.bits64 rng }  (* seed splice: keep seed1 *)
  | 1 -> { p with c_seed1 = Prng.bits64 rng }  (* seed splice: keep seed2 *)
  | 2 -> { p with c_seed1 = Prng.bits64 rng; c_seed2 = Prng.bits64 rng }
  | 3 -> { p with c_strategy = Prng.pick rng portfolio }  (* strategy switch *)
  | _ ->
      (* Guided-prefix splicing: derive a prefix from the parent's when
         it has one, otherwise start a fresh short prefix. *)
      let prefix =
        match p.c_strategy with
        | S_guided prefix -> splice_prefix rng prefix
        | _ -> splice_prefix rng [||]
      in
      { p with c_strategy = S_guided prefix }

(* -- persistence ----------------------------------------------------- *)

let digest t = Mdigest.of_value (t.entries, t.total, t.energy_spent, t.next_id)
