type kind = Sched | Op | Stale_read | Fault | Race | Desync

type event = {
  ev_kind : kind;
  ev_tick : int;
  ev_tid : int;
  ev_label : string;
  ev_ts : int;
  ev_dur : int;
}

(* Struct-of-arrays slots: one byte for the kind, unboxed ints for the
   rest, the label by reference. Emitting mutates preexisting cells
   only, so the hot path allocates nothing whether or not the trace is
   enabled — the difference is one branch. *)
type t = {
  on : bool;
  cap : int;
  kinds : Bytes.t;
  ticks : int array;
  tids : int array;
  tss : int array;
  durs : int array;
  labels : string array;
  mutable n : int;  (* total events emitted *)
}

let disabled =
  {
    on = false;
    cap = 0;
    kinds = Bytes.empty;
    ticks = [||];
    tids = [||];
    tss = [||];
    durs = [||];
    labels = [||];
    n = 0;
  }

let create ?(capacity = 65536) () =
  if capacity < 1 then invalid_arg "Trace.create: capacity < 1";
  {
    on = true;
    cap = capacity;
    kinds = Bytes.make capacity '\000';
    ticks = Array.make capacity 0;
    tids = Array.make capacity 0;
    tss = Array.make capacity 0;
    durs = Array.make capacity 0;
    labels = Array.make capacity "";
    n = 0;
  }

let enabled t = t.on

let reset t = t.n <- 0

let kind_code = function
  | Sched -> 0
  | Op -> 1
  | Stale_read -> 2
  | Fault -> 3
  | Race -> 4
  | Desync -> 5

let kind_of_code = function
  | 0 -> Sched
  | 1 -> Op
  | 2 -> Stale_read
  | 3 -> Fault
  | 4 -> Race
  | _ -> Desync

let kind_name = function
  | Sched -> "sched"
  | Op -> "op"
  | Stale_read -> "stale_read"
  | Fault -> "fault"
  | Race -> "race"
  | Desync -> "desync"

let emit t kind ~tick ~tid ~label ~ts ~dur =
  if t.on then begin
    let slot = t.n mod t.cap in
    Bytes.unsafe_set t.kinds slot (Char.unsafe_chr (kind_code kind));
    t.ticks.(slot) <- tick;
    t.tids.(slot) <- tid;
    t.tss.(slot) <- ts;
    t.durs.(slot) <- dur;
    t.labels.(slot) <- label;
    t.n <- t.n + 1
  end

let total t = t.n
let length t = min t.n t.cap
let dropped t = t.n - min t.n t.cap
let capacity t = t.cap

let iter f t =
  let first = max 0 (t.n - t.cap) in
  for i = first to t.n - 1 do
    let slot = i mod t.cap in
    f
      {
        ev_kind = kind_of_code (Char.code (Bytes.get t.kinds slot));
        ev_tick = t.ticks.(slot);
        ev_tid = t.tids.(slot);
        ev_label = t.labels.(slot);
        ev_ts = t.tss.(slot);
        ev_dur = t.durs.(slot);
      }
  done

let to_list t =
  if t.n = 0 then []
  else begin
    let acc = ref [] in
    iter (fun e -> acc := e :: !acc) t;
    List.rev !acc
  end
