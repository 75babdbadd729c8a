(* Per-run schedule-coverage fingerprint: a fixed 4096-bit hash set
   over the interesting scheduling events of one interpreter run. The
   mutable side ([t]) follows Trace's struct discipline — [disabled]
   is a shared dummy whose [mark] is one branch and zero allocation,
   so the interpreter can thread a coverage handle through every run
   unconditionally. [mark] also counts the bits it sets, so a run's
   bit count costs no scan. The immutable side ([summary]) is a plain
   string bitmap: marshal-stable and structurally comparable. [union]
   is not commutative on bytes (see coverage.mli), which is one more
   reason campaigns merge per-run fingerprints in run-index order. *)

type t = {
  on : bool;
  bits : Bytes.t;
  mutable count : int;  (* bits set since create or the last reset *)
}

let size_bits = 4096
let size_bytes = size_bits / 8

let disabled = { on = false; bits = Bytes.empty; count = 0 }
let create () = { on = true; bits = Bytes.make size_bytes '\000'; count = 0 }
let enabled t = t.on
let count t = t.count

let reset t =
  if t.on then begin
    Bytes.fill t.bits 0 size_bytes '\000';
    t.count <- 0
  end

let mark t h =
  if t.on then begin
    let b = h land (size_bits - 1) in
    let i = b lsr 3 in
    let m = 1 lsl (b land 7) in
    let c = Char.code (Bytes.unsafe_get t.bits i) in
    if c land m = 0 then begin
      Bytes.unsafe_set t.bits i (Char.unsafe_chr (c lor m));
      t.count <- t.count + 1
    end
  end

(* FNV-1a over OCaml ints — deterministic across runs and builds
   (unlike Hashtbl.hash, whose contract allows variation), and
   allocation-free: every operand stays an immediate. *)

let fnv_basis = Int64.to_int 0xcbf29ce484222325L land max_int
let fnv_prime = 0x100000001b3

let mix h x = (h lxor (x land max_int)) * fnv_prime
let mix_string h s =
  let acc = ref h in
  for i = 0 to String.length s - 1 do
    acc := mix !acc (Char.code (String.unsafe_get s i))
  done;
  !acc

(* Site constructors, one salt per event family so a mutex edge and a
   preemption between the same tids land in different bit populations. *)

let site_race ~var ~kind ~first_tid ~second_tid =
  mix (mix (mix (mix_string (mix fnv_basis 1) var) kind) first_tid) second_tid

let site_edge ~tid ~obj = mix (mix (mix fnv_basis 2) tid) obj
let site_stale ~tid ~var = mix_string (mix (mix fnv_basis 3) tid) var
let site_preempt ~prev ~next = mix (mix (mix fnv_basis 4) prev) next

(* ------------------------------------------------------------------ *)
(* Immutable summaries                                                  *)

type summary = string

let empty = ""

let summarize t = if t.on then Bytes.to_string t.bits else empty

(* The kernels below walk a summary 8 bytes at a time, then finish any
   tail shorter than a word byte by byte. A word is read in native byte
   order, without a bounds check (every index is below the length):
   or, and-not, zero tests and population counts give the same bytes
   and counts whatever the order. A run sets a few dozen of the 4,096
   bits, so most words are zero, and the kernels skip them before any
   other work. Everything stays an unboxed int64 or an immediate: no
   closure, no allocation except [union]'s result. *)

external get64 : string -> int -> int64 = "%caml_string_get64u"
external bget64 : bytes -> int -> int64 = "%caml_bytes_get64u"
external bset64 : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

(* SWAR population count of one 64-bit word. *)
let[@inline] popcount64 x =
  let open Int64 in
  let x = sub x (logand (shift_right_logical x 1) 0x5555555555555555L) in
  let x =
    add (logand x 0x3333333333333333L)
      (logand (shift_right_logical x 2) 0x3333333333333333L)
  in
  let x = logand (add x (shift_right_logical x 4)) 0x0f0f0f0f0f0f0f0fL in
  to_int (shift_right_logical (mul x 0x0101010101010101L) 56)

let[@inline] popcount_byte c = popcount64 (Int64.of_int c)
let[@inline] byte s i = Char.code (String.unsafe_get s i)

let popcount (s : summary) =
  let n = String.length s in
  let acc = ref 0 and i = ref 0 in
  while !i + 8 <= n do
    let w = get64 s !i in
    if w <> 0L then acc := !acc + popcount64 w;
    i := !i + 8
  done;
  while !i < n do
    acc := !acc + popcount_byte (byte s !i);
    incr i
  done;
  !acc

let is_empty (s : summary) =
  let n = String.length s in
  let i = ref 0 in
  while !i + 8 <= n && get64 s !i = 0L do
    i := !i + 8
  done;
  while !i < n && byte s !i = 0 do
    incr i
  done;
  !i = n

(* [r] := [r] or [s], over [r]'s length; [s] is at least as long. *)
let or_into r (s : summary) =
  let n = Bytes.length r in
  let i = ref 0 in
  while !i + 8 <= n do
    let w = get64 s !i in
    if w <> 0L then bset64 r !i (Int64.logor (bget64 r !i) w);
    i := !i + 8
  done;
  while !i < n do
    let c = byte s !i in
    if c <> 0 then
      Bytes.unsafe_set r !i (Char.unsafe_chr (Char.code (Bytes.unsafe_get r !i) lor c));
    incr i
  done

let width_mismatch () =
  invalid_arg "Coverage.union: summaries of different widths"

let union (a : summary) (b : summary) =
  if is_empty a then b
  else if is_empty b then a
  else begin
    if String.length b <> String.length a then width_mismatch ();
    let r = Bytes.of_string a in
    or_into r b;
    Bytes.unsafe_to_string r
  end

(* Bits of [s] not already in [base] — the corpus admission test,
   without materialising the union. *)
let new_bits ~base (s : summary) =
  if is_empty s then 0
  else if is_empty base then popcount s
  else begin
    let n = String.length s in
    if String.length base <> n then
      invalid_arg "Coverage.new_bits: summaries of different widths";
    let acc = ref 0 and i = ref 0 in
    while !i + 8 <= n do
      let w = get64 s !i in
      if w <> 0L then
        acc := !acc + popcount64 (Int64.logand w (Int64.lognot (get64 base !i)));
      i := !i + 8
    done;
    while !i < n do
      acc := !acc + popcount_byte (byte s !i land lnot (byte base !i));
      incr i
    done;
    !acc
  end

(* [List.fold_left union empty], one operand at a time, ORing into one
   buffer. While no operand is non-empty the value is the last operand
   (an empty one); with exactly one non-empty operand it is that
   operand; from the second on it is the buffer, a copy of the first
   that every later non-empty operand is ORed into. So the bytes, the
   physical sharing and the width check are [union]'s. *)
type merge = {
  mutable nonempty : int; (* non-empty operands so far, capped at 2 *)
  mutable value : summary; (* the fold's value while [nonempty] < 2 *)
  mutable buf : Bytes.t; (* the fold's value once [nonempty] = 2 *)
}

let merge () = { nonempty = 0; value = empty; buf = Bytes.empty }

let merge_add m (s : summary) =
  if is_empty s then begin
    if m.nonempty = 0 then m.value <- s
  end
  else
    match m.nonempty with
    | 0 ->
        m.value <- s;
        m.nonempty <- 1
    | 1 ->
        if String.length s <> String.length m.value then width_mismatch ();
        let r = Bytes.of_string m.value in
        or_into r s;
        m.buf <- r;
        m.nonempty <- 2
    | _ ->
        if String.length s <> Bytes.length m.buf then width_mismatch ();
        or_into m.buf s

let merge_result m =
  if m.nonempty < 2 then m.value
  else begin
    (* The buffer becomes the result, frozen: the fold goes on from it
       as from a single non-empty operand, so a later one ORs into a
       copy. *)
    let r = Bytes.unsafe_to_string m.buf in
    m.value <- r;
    m.buf <- Bytes.empty;
    m.nonempty <- 1;
    r
  end

let digest (s : summary) =
  Digest.to_hex (Digest.string (if is_empty s then empty else s))
