(* State lives in a 32-byte buffer read and written with the unboxed
   Bytes int64 primitives: mutable int64 record fields would box a
   fresh Int64 on every store, and the scheduler draws once or twice
   per tick. The arithmetic below is exactly xoshiro256** — keep the
   operation order as is, or every recorded demo stops replaying. *)
type t = {
  st : Bytes.t; (* s0 at 0, s1 at 8, s2 at 16, s3 at 24; native endian *)
  mutable seed1 : int64;
  mutable seed2 : int64;
  mutable draws : int;
}

(* SplitMix64: expands the two user seeds into the four xoshiro words.
   Standard constants from Steele, Lea & Flood. *)
let splitmix_next (state : int64 ref) : int64 =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let[@inline] rotl (x : int64) (k : int) : int64 =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let expand_into st ~seed1 ~seed2 =
  let mix = ref (Int64.logxor seed1 (Int64.mul seed2 0x2545F4914F6CDD1DL)) in
  let s0 = splitmix_next mix in
  let s1 = splitmix_next mix in
  let s2 = splitmix_next mix in
  let s3 = splitmix_next mix in
  (* xoshiro must not start from the all-zero state. *)
  let s3 = if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then 1L else s3 in
  Bytes.set_int64_ne st 0 s0;
  Bytes.set_int64_ne st 8 s1;
  Bytes.set_int64_ne st 16 s2;
  Bytes.set_int64_ne st 24 s3

let create ~seed1 ~seed2 =
  let st = Bytes.create 32 in
  expand_into st ~seed1 ~seed2;
  { st; seed1; seed2; draws = 0 }

let reseed t ~seed1 ~seed2 =
  expand_into t.st ~seed1 ~seed2;
  t.seed1 <- seed1;
  t.seed2 <- seed2;
  t.draws <- 0

let of_time () =
  let t = Unix.gettimeofday () in
  let seed1 = Int64.of_float (t *. 1e6) in
  let seed2 = Int64.logxor (Int64.bits_of_float t) (Int64.of_int (Unix.getpid ())) in
  create ~seed1 ~seed2

let seeds t = (t.seed1, t.seed2)
let draws t = t.draws

(* Inlined into every caller, so the result stays an unboxed register
   value there: [int] and [float] allocate nothing per draw. *)
let[@inline] bits64 t =
  let open Int64 in
  let s0 = Bytes.get_int64_ne t.st 0 in
  let s1 = Bytes.get_int64_ne t.st 8 in
  let s2 = Bytes.get_int64_ne t.st 16 in
  let s3 = Bytes.get_int64_ne t.st 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  let s2 = logxor s2 tmp in
  let s3 = rotl s3 45 in
  Bytes.set_int64_ne t.st 0 s0;
  Bytes.set_int64_ne t.st 8 s1;
  Bytes.set_int64_ne t.st 16 s2;
  Bytes.set_int64_ne t.st 24 s3;
  t.draws <- t.draws + 1;
  result

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection-free: take the high bits modulo bound; bias is negligible
     for the small bounds used by the scheduler (thread counts, store
     history lengths). *)
  let x = Int64.shift_right_logical (bits64 t) 1 in
  Int64.to_int (Int64.rem x (Int64.of_int bound))

let float t bound =
  let x = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float x /. 9007199254740992.0 *. bound

let bool t = Int64.logand (bits64 t) 1L = 1L

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Prng.pick: empty array";
  arr.(int t (Array.length arr))

let copy t = { t with st = Bytes.copy t.st }
