type t = int array
(* Invariant: ALWAYS normalised — if the array is non-empty its last
   element is nonzero. Every constructor below preserves this, so
   [equal] is a plain structural scan with no re-normalising, and a
   length comparison alone can refute [leq]. *)

let empty = [||]
let is_empty c = Array.length c = 0

let normalise a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let get c tid = if tid < Array.length c then c.(tid) else 0

let set c tid v =
  let len = Array.length c in
  if v = 0 then
    if tid >= len then c (* already zero *)
    else if tid = len - 1 then normalise (Array.sub c 0 (len - 1))
    else begin
      (* interior zero: the last element is untouched, still nonzero *)
      let a = Array.copy c in
      a.(tid) <- 0;
      a
    end
  else if tid < len then begin
    let a = Array.copy c in
    a.(tid) <- v;
    a
  end
  else begin
    let a = Array.make (tid + 1) 0 in
    Array.blit c 0 a 0 len;
    a.(tid) <- v;
    a
  end

let tick c tid =
  (* get + 1 is never zero, so the result needs no trimming *)
  let len = Array.length c in
  if tid < len then begin
    let a = Array.copy c in
    a.(tid) <- a.(tid) + 1;
    a
  end
  else begin
    let a = Array.make (tid + 1) 0 in
    Array.blit c 0 a 0 len;
    a.(tid) <- 1;
    a
  end

(* [all_leq a b upto]: a.(i) <= b.(i) for i < upto, with early exit. *)
let rec all_leq (a : int array) (b : int array) i upto =
  i >= upto || (a.(i) <= b.(i) && all_leq a b (i + 1) upto)

let join a b =
  if a == b then a
  else
    let la = Array.length a and lb = Array.length b in
    if la = 0 then b
    else if lb = 0 then a
    else if la >= lb then
      if all_leq b a 0 lb then a
      else begin
        let r = Array.copy a in
        for i = 0 to lb - 1 do
          if b.(i) > r.(i) then r.(i) <- b.(i)
        done;
        r (* last element is a's, nonzero: still normalised *)
      end
    else if all_leq a b 0 la then b
    else begin
      let r = Array.copy b in
      for i = 0 to la - 1 do
        if a.(i) > r.(i) then r.(i) <- a.(i)
      done;
      r
    end

let leq a b =
  let la = Array.length a in
  (* normalised: a longer clock has a nonzero component b lacks *)
  if la > Array.length b then false else all_leq a b 0 la

let equal (a : t) (b : t) =
  a == b
  ||
  let la = Array.length a in
  la = Array.length b
  &&
  let rec eq i = i >= la || (a.(i) = b.(i) && eq (i + 1)) in
  eq 0

let lt a b = leq a b && not (equal a b)
let concurrent a b = (not (leq a b)) && not (leq b a)

let leq_epoch ~tid ~epoch c = epoch <= get c tid

let size c = Array.length c
let to_list c = Array.to_list c
let of_list l = normalise (Array.of_list l)

let pp fmt c =
  Format.fprintf fmt "[%s]"
    (String.concat ";" (List.map string_of_int (to_list c)))

(* ------------------------------------------------------------------ *)

module Mut = struct
  type mut = { mutable a : int array; mutable n : int }
  (* Components are a.(0 .. n-1); everything at and beyond n is zero.
     The backing array over-allocates so the owner's tick never copies.
     OWNERSHIP: a [mut] belongs to exactly one writer (in this codebase
     a thread's Tstate); it must never be shared or aliased. Immutable
     clocks handed out from it always go through [snapshot], which
     copies — the backing array itself never escapes. *)

  let create () = { a = [||]; n = 0 }

  let reset m =
    (* Zero the live prefix before shrinking [n]: [ensure] only grows
       the array, so everything at and beyond [n] must really be 0. *)
    Array.fill m.a 0 m.n 0;
    m.n <- 0

  (* [m] := components [0, lc) of [c]. *)
  let[@inline] load m (c : int array) lc =
    if lc > Array.length m.a then begin
      Array.fill m.a 0 m.n 0;
      let a = Array.make (max 4 lc) 0 in
      Array.blit c 0 a 0 lc;
      m.a <- a
    end
    else begin
      Array.blit c 0 m.a 0 lc;
      if m.n > lc then Array.fill m.a lc (m.n - lc) 0
    end;
    m.n <- lc

  let of_imm (c : t) =
    let n = Array.length c in
    let a = Array.make (max 4 n) 0 in
    Array.blit c 0 a 0 n;
    { a; n }

  let get m tid = if tid < m.n then m.a.(tid) else 0

  let ensure m tid =
    if tid >= Array.length m.a then begin
      let cap = max 4 (max (tid + 1) (2 * Array.length m.a)) in
      let a = Array.make cap 0 in
      Array.blit m.a 0 a 0 m.n;
      m.a <- a
    end;
    if tid >= m.n then m.n <- tid + 1

  let set m tid v =
    ensure m tid;
    m.a.(tid) <- v

  let incr m tid =
    ensure m tid;
    m.a.(tid) <- m.a.(tid) + 1

  (* Join components [0, lc) of [c] into [m]; [true] iff any grew. *)
  let[@inline] join m (c : int array) lc =
    let changed = ref false in
    if lc > 0 then begin
      ensure m (lc - 1);
      for i = 0 to lc - 1 do
        if c.(i) > m.a.(i) then begin
          m.a.(i) <- c.(i);
          changed := true
        end
      done
    end;
    !changed

  let join_imm m (c : t) = join m c (Array.length c)

  (* The length of [snapshot m]: [m.n] without trailing zeros. *)
  let live m =
    let n = ref m.n in
    while !n > 0 && m.a.(!n - 1) = 0 do
      decr n
    done;
    !n

  let snapshot m : t = Array.sub m.a 0 (live m)

  let reset_to_mut m src = load m src.a (live src)
  let join_mut m src = join m src.a (live src)
end
