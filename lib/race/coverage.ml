(* Per-run schedule-coverage fingerprint: a fixed 4096-bit hash set
   over the interesting scheduling events of one interpreter run. The
   mutable side ([t]) follows Trace's struct discipline — [disabled]
   is a shared dummy whose [mark] is one branch and zero allocation,
   so the interpreter can thread a coverage handle through every run
   unconditionally. The immutable side ([summary]) is a plain string
   bitmap: marshal-stable, structurally comparable, and closed under
   a genuinely commutative [union], which is what lets campaigns merge
   per-run fingerprints in run-index order and get the same bytes at
   every worker count. *)

type t = {
  on : bool;
  bits : Bytes.t;
}

let size_bits = 4096
let size_bytes = size_bits / 8

let disabled = { on = false; bits = Bytes.empty }
let create () = { on = true; bits = Bytes.make size_bytes '\000' }
let enabled t = t.on

let reset t =
  if t.on then Bytes.fill t.bits 0 size_bytes '\000'

let mark t h =
  if t.on then begin
    let b = h land (size_bits - 1) in
    let i = b lsr 3 in
    let m = 1 lsl (b land 7) in
    let c = Char.code (Bytes.unsafe_get t.bits i) in
    if c land m = 0 then Bytes.unsafe_set t.bits i (Char.unsafe_chr (c lor m))
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

let popcount_char =
  (* 256-entry table; built once. *)
  let tbl = Array.make 256 0 in
  for i = 1 to 255 do
    tbl.(i) <- tbl.(i lsr 1) + (i land 1)
  done;
  fun c -> tbl.(Char.code c)

let popcount (s : summary) =
  let acc = ref 0 in
  String.iter (fun c -> acc := !acc + popcount_char c) s;
  !acc

let is_empty (s : summary) =
  String.length s = 0 || String.for_all (fun c -> c = '\000') s

let union (a : summary) (b : summary) =
  if is_empty a then b
  else if is_empty b then a
  else begin
    if String.length a <> String.length b then
      invalid_arg "Coverage.union: summaries of different widths";
    String.init (String.length a) (fun i ->
        Char.chr (Char.code a.[i] lor Char.code b.[i]))
  end

(* Bits of [s] not already in [base] — the corpus admission test,
   without materialising the union. *)
let new_bits ~base (s : summary) =
  if is_empty s then 0
  else if is_empty base then popcount s
  else begin
    if String.length base <> String.length s then
      invalid_arg "Coverage.new_bits: summaries of different widths";
    let acc = ref 0 in
    for i = 0 to String.length s - 1 do
      acc :=
        !acc
        + popcount_char
            (Char.chr (Char.code s.[i] land lnot (Char.code base.[i]) land 0xff))
    done;
    !acc
  end

let digest (s : summary) =
  Digest.to_hex (Digest.string (if is_empty s then empty else s))
