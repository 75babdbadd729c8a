(* Tests for the util substrate: PRNG, RLE, vector clocks, stats,
   table rendering and the demo-file codec. *)

open T11r_util

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Prng *)

let test_prng_determinism () =
  let a = Prng.create ~seed1:42L ~seed2:7L in
  let b = Prng.create ~seed1:42L ~seed2:7L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed1:42L ~seed2:7L in
  let b = Prng.create ~seed1:42L ~seed2:8L in
  let xs = List.init 10 (fun _ -> Prng.bits64 a) in
  let ys = List.init 10 (fun _ -> Prng.bits64 b) in
  check Alcotest.bool "different streams" true (xs <> ys)

let test_prng_draw_count () =
  let p = Prng.create ~seed1:1L ~seed2:2L in
  check Alcotest.int "zero draws" 0 (Prng.draws p);
  ignore (Prng.bits64 p);
  ignore (Prng.int p 10);
  ignore (Prng.bool p);
  check Alcotest.int "three draws" 3 (Prng.draws p)

let test_prng_copy_independent () =
  let p = Prng.create ~seed1:1L ~seed2:2L in
  ignore (Prng.bits64 p);
  let q = Prng.copy p in
  let x = Prng.bits64 p in
  let y = Prng.bits64 q in
  check Alcotest.int64 "copy continues identically" x y;
  ignore (Prng.bits64 p);
  check Alcotest.int "copy draws independent" 2 (Prng.draws q)

let test_prng_seeds_roundtrip () =
  let p = Prng.create ~seed1:123L ~seed2:456L in
  let s1, s2 = Prng.seeds p in
  check Alcotest.int64 "seed1" 123L s1;
  check Alcotest.int64 "seed2" 456L s2

let prng_int_bounds =
  QCheck.Test.make ~name:"prng int stays in bounds" ~count:500
    QCheck.(pair (pair int64 int64) (int_range 1 1000))
    (fun ((s1, s2), bound) ->
      let p = Prng.create ~seed1:s1 ~seed2:s2 in
      let v = Prng.int p bound in
      v >= 0 && v < bound)

let prng_int_covers =
  QCheck.Test.make ~name:"prng int eventually hits all small values" ~count:20
    QCheck.(pair int64 int64)
    (fun (s1, s2) ->
      let p = Prng.create ~seed1:s1 ~seed2:s2 in
      let seen = Array.make 4 false in
      for _ = 1 to 200 do
        seen.(Prng.int p 4) <- true
      done;
      Array.for_all Fun.id seen)

(* [Prng.int] as it was before its power-of-two path: the high 63 bits
   of one draw, reduced with [Int64.rem]. *)
let reference_int p bound =
  let x = Int64.shift_right_logical (Prng.bits64 p) 1 in
  Int64.to_int (Int64.rem x (Int64.of_int bound))

(* 1, the powers of two up to 2^61 (the largest below [max_int]),
   random odd bounds and random bounds. *)
let bound_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return 1);
        (4, map (fun k -> 1 lsl k) (int_range 1 61));
        (2, map (fun b -> (2 * b) + 1) (int_bound (max_int / 2 - 1)));
        (2, map (fun b -> (2 * b) + 1) (int_bound 500));
        (1, int_range 1 max_int);
      ])

let prng_int_reference =
  QCheck.Test.make ~name:"prng int = reference Int64.rem draw" ~count:500
    (QCheck.make
       ~print:(fun ((s1, s2), bounds) ->
         Printf.sprintf "seeds %Ld %Ld, bounds %s" s1 s2
           (String.concat " " (List.map string_of_int bounds)))
       QCheck.Gen.(pair (pair ui64 ui64) (list_size (int_range 1 40) bound_gen)))
    (fun ((s1, s2), bounds) ->
      let p = Prng.create ~seed1:s1 ~seed2:s2 in
      let q = Prng.create ~seed1:s1 ~seed2:s2 in
      List.for_all (fun b -> Prng.int p b = reference_int q b) bounds
      && Prng.draws p = Prng.draws q
      && Prng.draws p = List.length bounds)

let prng_reseed_seeds =
  QCheck.Test.make ~name:"prng reseed then seeds round-trips" ~count:500
    QCheck.(pair (pair int64 int64) (pair int64 int64))
    (fun ((a1, a2), (s1, s2)) ->
      let p = Prng.create ~seed1:a1 ~seed2:a2 in
      ignore (Prng.bits64 p);
      Prng.reseed p ~seed1:s1 ~seed2:s2;
      let fresh = Prng.create ~seed1:s1 ~seed2:s2 in
      Prng.seeds p = (s1, s2)
      && Prng.seeds (Prng.copy p) = (s1, s2)
      && Prng.draws p = 0
      && Prng.bits64 p = Prng.bits64 fresh)

let test_prng_pick_empty () =
  let p = Prng.create ~seed1:1L ~seed2:1L in
  Alcotest.check_raises "empty pick" (Invalid_argument "Prng.pick: empty array")
    (fun () -> ignore (Prng.pick p [||]))

(* ------------------------------------------------------------------ *)
(* Rle *)

(* The QUEUE file's int-list run-length code lives in the reference
   model, its one user. *)
module Rle_list = struct
  let encode = Ref_model.Text.rle_encode
  let decode = Ref_model.Text.rle_decode
end

module Rle_bytes = Ref_model.Rle_bytes

let decode_bytes s =
  let buf = Buffer.create 16 in
  Rle.decode_into s 0 (String.length s) buf;
  Buffer.to_bytes buf

let test_rle_basic () =
  check
    Alcotest.(list (pair int int))
    "runs" [ (1, 3); (2, 1); (1, 2) ]
    (Rle_list.encode [ 1; 1; 1; 2; 1; 1 ])

let test_rle_empty () =
  check Alcotest.(list (pair int int)) "empty" [] (Rle_list.encode []);
  check Alcotest.(list int) "empty decode" [] (Rle_list.decode [])

let rle_roundtrip =
  QCheck.Test.make ~name:"rle roundtrip" ~count:500
    QCheck.(list (int_range 0 5))
    (fun xs -> Rle_list.decode (Rle_list.encode xs) = xs)

let rle_compresses_runs =
  QCheck.Test.make ~name:"rle run count <= length" ~count:200
    QCheck.(list small_nat)
    (fun xs -> List.length (Rle_list.encode xs) <= List.length xs)

let test_rle_decode_invalid () =
  Alcotest.check_raises "bad run"
    (Invalid_argument "Rle.decode: non-positive run length") (fun () ->
      ignore (Rle_list.decode [ (1, 0) ]))

let bytes_gen =
  QCheck.Gen.(
    map Bytes.of_string
      (string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 600)))

let rle_bytes_roundtrip =
  QCheck.Test.make ~name:"byte rle roundtrip" ~count:300
    (QCheck.make ~print:(fun b -> String.escaped (Bytes.to_string b)) bytes_gen)
    (fun b -> Bytes.equal (decode_bytes (Rle_bytes.encode_bytes b)) b)

let rle_encoded_size_matches =
  QCheck.Test.make ~name:"encoded_size = length of encode_bytes" ~count:300
    (QCheck.make bytes_gen)
    (fun b -> Rle_bytes.encoded_size b = String.length (Rle_bytes.encode_bytes b))

(* Uniform random bytes almost never repeat, so [bytes_gen] exercises
   the literal-chunk path almost exclusively. This generator builds the
   input as a concatenation of runs — lengths past the 255-per-chunk
   split, drawn from a 4-symbol alphabet so adjacent runs frequently
   merge — hitting the run encoder and chunk splitting on every case. *)
let runny_bytes_gen =
  QCheck.Gen.(
    let run =
      map2 (fun n c -> String.make n c) (int_range 0 300)
        (map Char.chr (int_range 0 3))
    in
    map
      (fun runs -> Bytes.of_string (String.concat "" runs))
      (list_size (int_range 0 8) run))

let runny_arb =
  QCheck.make
    ~print:(fun b -> String.escaped (Bytes.to_string b))
    runny_bytes_gen

let rle_runny_roundtrip =
  QCheck.Test.make ~name:"byte rle roundtrip (run-biased)" ~count:300 runny_arb
    (fun b -> Bytes.equal (decode_bytes (Rle_bytes.encode_bytes b)) b)

let rle_runny_encoded_size =
  QCheck.Test.make ~name:"encoded_size = length of encode_bytes (run-biased)"
    ~count:300 runny_arb
    (fun b -> Rle_bytes.encoded_size b = String.length (Rle_bytes.encode_bytes b))

let rle_runny_compresses =
  QCheck.Test.make ~name:"run-biased inputs compress" ~count:300 runny_arb
    (fun b ->
      (* 2-byte header + <=2 bytes per run chunk; literals cost more
         only when runs are very short, bounded by the input length. *)
      String.length (Rle_bytes.encode_bytes b) <= (2 * Bytes.length b) + 2)

let test_rle_bytes_long_run () =
  (* Runs longer than 255 must split into multiple chunks. *)
  let b = Bytes.make 1000 'x' in
  let enc = Rle_bytes.encode_bytes b in
  check Alcotest.bool "compressed" true (String.length enc < 20);
  check Alcotest.bool "roundtrip" true (Bytes.equal (decode_bytes enc) b)

let test_rle_bytes_malformed () =
  Alcotest.check_raises "truncated"
    (Invalid_argument "Rle.decode_bytes: truncated chunk header") (fun () ->
      ignore (decode_bytes "\x00"));
  Alcotest.check_raises "bad marker"
    (Invalid_argument "Rle.decode_bytes: bad chunk marker") (fun () ->
      ignore (decode_bytes "\x07\x01a"));
  Alcotest.check_raises "truncated run"
    (Invalid_argument "Rle.decode_bytes: truncated run") (fun () ->
      ignore (decode_bytes "\x00\x05"));
  Alcotest.check_raises "truncated literal"
    (Invalid_argument "Rle.decode_bytes: truncated literal") (fun () ->
      ignore (decode_bytes "\x01\x03ab"));
  Alcotest.check_raises "zero-length chunk"
    (Invalid_argument "Rle.decode_bytes: zero-length chunk") (fun () ->
      ignore (decode_bytes "\x07\x00"));
  (* a slice ends where its bounds say, not where its string does *)
  Alcotest.check_raises "slice"
    (Invalid_argument "Rle.decode_bytes: truncated run") (fun () ->
      Rle.decode_into "\x00\x05a" 0 2 (Buffer.create 4))

(* ------------------------------------------------------------------ *)
(* Vclock *)

let vc = Alcotest.testable Vclock.pp Vclock.equal

let test_vclock_empty () =
  check Alcotest.int "empty get" 0 (Vclock.get Vclock.empty 5);
  check Alcotest.int "empty size" 0 (Vclock.size Vclock.empty)

let test_vclock_tick () =
  let c = Vclock.tick (Vclock.tick Vclock.empty 2) 2 in
  check Alcotest.int "ticked twice" 2 (Vclock.get c 2);
  check Alcotest.int "others zero" 0 (Vclock.get c 0)

let test_vclock_join () =
  let a = Vclock.of_list [ 1; 5; 0; 2 ] in
  let b = Vclock.of_list [ 3; 2 ] in
  check vc "join" (Vclock.of_list [ 3; 5; 0; 2 ]) (Vclock.join a b)

let test_vclock_trailing_zeros () =
  let a = Vclock.of_list [ 1; 2; 0; 0 ] in
  let b = Vclock.of_list [ 1; 2 ] in
  check vc "normalised equal" a b;
  check Alcotest.int "size trims zeros" 2 (Vclock.size a)

let test_vclock_orders () =
  let a = Vclock.of_list [ 1; 2 ] in
  let b = Vclock.of_list [ 2; 2 ] in
  let c = Vclock.of_list [ 0; 3 ] in
  check Alcotest.bool "a <= b" true (Vclock.leq a b);
  check Alcotest.bool "a < b" true (Vclock.lt a b);
  check Alcotest.bool "not b <= a" false (Vclock.leq b a);
  check Alcotest.bool "a || c" true (Vclock.concurrent a c)

let clock_gen =
  QCheck.Gen.(map Vclock.of_list (list_size (int_range 0 6) (int_range 0 8)))

let clock_arb =
  QCheck.make ~print:(Format.asprintf "%a" Vclock.pp) clock_gen

let vclock_join_comm =
  QCheck.Test.make ~name:"join commutative" ~count:300
    (QCheck.pair clock_arb clock_arb)
    (fun (a, b) -> Vclock.equal (Vclock.join a b) (Vclock.join b a))

let vclock_join_assoc =
  QCheck.Test.make ~name:"join associative" ~count:300
    (QCheck.triple clock_arb clock_arb clock_arb)
    (fun (a, b, c) ->
      Vclock.equal
        (Vclock.join a (Vclock.join b c))
        (Vclock.join (Vclock.join a b) c))

let vclock_join_idem =
  QCheck.Test.make ~name:"join idempotent" ~count:300 clock_arb (fun a ->
      Vclock.equal (Vclock.join a a) a)

let vclock_join_upper_bound =
  QCheck.Test.make ~name:"join is upper bound" ~count:300
    (QCheck.pair clock_arb clock_arb)
    (fun (a, b) ->
      Vclock.leq a (Vclock.join a b) && Vclock.leq b (Vclock.join a b))

let vclock_leq_antisym =
  QCheck.Test.make ~name:"leq antisymmetric" ~count:300
    (QCheck.pair clock_arb clock_arb)
    (fun (a, b) ->
      if Vclock.leq a b && Vclock.leq b a then Vclock.equal a b else true)

let vclock_tick_strict =
  QCheck.Test.make ~name:"tick strictly increases" ~count:300
    (QCheck.pair clock_arb (QCheck.int_range 0 7))
    (fun (a, tid) -> Vclock.lt a (Vclock.tick a tid))

(* ------------------------------------------------------------------ *)
(* Stats *)

let feq = Alcotest.float 1e-9

let test_stats_mean_sd () =
  let s = Stats.summarize [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  check feq "mean" 5.0 s.mean;
  check (Alcotest.float 1e-6) "sd" 2.13808993 s.sd;
  check Alcotest.int "n" 8 s.n

let test_stats_single () =
  let s = Stats.summarize [ 3.5 ] in
  check feq "mean" 3.5 s.mean;
  check feq "sd" 0.0 s.sd;
  check feq "cv" 0.0 s.cv

let test_stats_percentile () =
  let xs = [ 1.0; 2.0; 3.0; 4.0 ] in
  check feq "p0" 1.0 (Stats.percentile xs 0.0);
  check feq "p100" 4.0 (Stats.percentile xs 100.0);
  check feq "p50" 2.5 (Stats.percentile xs 50.0)

let test_stats_rate () =
  check feq "rate" 25.0 (Stats.rate [ true; false; false; false ]);
  check feq "rate empty" 0.0 (Stats.rate [])

let stats_min_max =
  QCheck.Test.make ~name:"min <= mean <= max" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 20) (float_bound_inclusive 100.0))
    (fun xs ->
      let s = Stats.summarize xs in
      s.min <= s.mean +. 1e-9 && s.mean <= s.max +. 1e-9)

let stats_percentile_monotone =
  QCheck.Test.make ~name:"percentile monotone in p" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 20) (float_bound_inclusive 100.0))
        (pair (float_bound_inclusive 100.0) (float_bound_inclusive 100.0)))
    (fun (xs, (p, q)) ->
      let lo = min p q and hi = max p q in
      Stats.percentile xs lo <= Stats.percentile xs hi +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Table *)

let test_table_render () =
  let t = Table.create ~title:"T" ~headers:[ "prog"; "time" ] in
  Table.add_row t [ "pbzip"; "9.2" ];
  Table.add_row t [ "blackscholes"; "0.4" ];
  let out = Table.render t in
  check Alcotest.bool "has title" true
    (String.length out > 0 && String.sub out 0 6 = "== T =");
  (* all data lines aligned: same length *)
  let lines =
    String.split_on_char '\n' out |> List.filter (fun l -> l <> "")
  in
  let data = List.tl lines in
  let lens = List.map String.length data in
  check Alcotest.bool "aligned" true
    (List.for_all (fun l -> l = List.hd lens) lens)

(* ------------------------------------------------------------------ *)
(* Codec *)

let unescape s = Codec.unescape_at s 0 (String.length s)

let read_lines path =
  let s = Codec.read_file path and acc = ref [] in
  Codec.iter_lines s 0 (String.length s) (fun a e _ ->
      acc := String.sub s a (e - a) :: !acc);
  List.rev !acc

let test_codec_escape_basic () =
  check Alcotest.string "plain" "hello" (Codec.escape "hello");
  check Alcotest.string "empty" "%-" (Codec.escape "");
  check Alcotest.string "space" "a%20b" (Codec.escape "a b");
  check Alcotest.string "unescape" "a b" (unescape "a%20b");
  check Alcotest.string "unescape empty" "" (unescape "%-");
  check Alcotest.string "unescape a slice" "b c" (Codec.unescape_at "a b%20c d" 2 7);
  List.iter
    (fun (s, m) ->
      Alcotest.check_raises s (Invalid_argument m) (fun () -> ignore (unescape s)))
    [ ("%4", "Codec.unescape: truncated escape");
      ("%-%-", "Codec.unescape: bad hex digit");
      ("a%ZZ", "Codec.unescape: bad hex digit") ]

let string_gen =
  QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 200))

let codec_roundtrip =
  QCheck.Test.make ~name:"escape/unescape roundtrip" ~count:300
    (QCheck.make ~print:String.escaped string_gen)
    (fun s -> unescape (Codec.escape s) = s)

let codec_no_spaces =
  QCheck.Test.make ~name:"escaped string has no separators" ~count:300
    (QCheck.make ~print:String.escaped string_gen)
    (fun s ->
      let e = Codec.escape s in
      not (String.exists (fun c -> c = ' ' || c = '\n' || c = '\t') e))

let test_codec_fields () =
  let s = "x 2 5  15 \ny" and fld = Array.make 4 0 in
  let field k = String.sub s fld.(2 * k) (fld.((2 * k) + 1) - fld.(2 * k)) in
  check Alcotest.int "count" 3 (Codec.fields s 2 10 fld);
  check Alcotest.(list string) "fields" [ "2"; "5" ] [ field 0; field 1 ];
  check Alcotest.bool "field_is" true (Codec.field_is s fld 1 "5");
  check Alcotest.bool "field_is prefix" false (Codec.field_is s fld 1 "");
  check Alcotest.int "one past room" 3 (Codec.fields "a b c d e" 0 9 fld);
  check Alcotest.int "no fields" 0 (Codec.fields "   " 0 3 fld);
  check Alcotest.int "int field" 15 (Codec.int_at s 7 9);
  check Alcotest.int "negative" (-15) (Codec.int_at "-15" 0 3);
  check Alcotest.int "int_of_string's" 31 (Codec.int_at "0x1F" 0 4);
  check Alcotest.int "max_int" max_int (Codec.int_at (string_of_int max_int) 0 19);
  List.iter
    (fun f ->
      Alcotest.check_raises f (Invalid_argument (Printf.sprintf "Codec.int_field: %S" f))
        (fun () -> ignore (Codec.int_at f 0 (String.length f))))
    [ ""; "-"; "x"; "1 2"; "99999999999999999999" ];
  check Alcotest.int64 "int64" 7L (Codec.int64_at "a 7" 2 3)

let test_codec_file_roundtrip () =
  let dir = Filename.temp_file "t11r" "" in
  Sys.remove dir;
  let path = Filename.concat dir "sub/FILE" in
  let lines = [ "a b c"; ""; "2 5 15" ] in
  Ref_model.Text.write_lines path lines;
  check Alcotest.(list string) "file roundtrip" lines (read_lines path)

let test_codec_missing_file () =
  check
    Alcotest.(list string)
    "missing file is empty" []
    (read_lines "/nonexistent/definitely/FILE")

(* ------------------------------------------------------------------ *)
(* Crc *)

let test_crc_vector () =
  (* The CRC-32 (IEEE, reflected) check value from the catalogue. *)
  check Alcotest.string "123456789" "CBF43926"
    (Crc.to_hex (Crc.string "123456789"))

let test_crc_empty () =
  check Alcotest.string "empty" "00000000" (Crc.to_hex (Crc.string ""))

let test_crc_hex_roundtrip () =
  check (Alcotest.option Alcotest.int) "roundtrip" (Some 0xCBF43926)
    (Crc.of_hex "CBF43926");
  check (Alcotest.option Alcotest.int) "too short" None (Crc.of_hex "CBF4");
  check (Alcotest.option Alcotest.int) "not hex" None (Crc.of_hex "CBF4392G")

let raw_string_arb = QCheck.make ~print:String.escaped string_gen

let crc_update_incremental =
  QCheck.Test.make ~name:"crc over split = crc over whole" ~count:300
    (QCheck.pair raw_string_arb raw_string_arb)
    (fun (a, b) ->
      let whole = Crc.string (a ^ b) in
      let split = Crc.update (Crc.update 0 a 0 (String.length a)) b 0 (String.length b) in
      whole = split)

let crc_detects_bit_flip =
  QCheck.Test.make ~name:"crc detects any single bit flip" ~count:300
    QCheck.(pair raw_string_arb (pair small_nat (int_range 0 7)))
    (fun (s, (i, bit)) ->
      String.length s = 0
      ||
      let i = i mod String.length s in
      let b = Bytes.of_string s in
      Bytes.set b i (Char.chr (Char.code s.[i] lxor (1 lsl bit)));
      Crc.string s <> Crc.string (Bytes.to_string b))

(* ------------------------------------------------------------------ *)
(* Mdigest *)

(* A string and where to cut it: lengths and cuts around MD5's 64-byte
   blocks, empty chunks included. *)
let md5_chunks_gen =
  let open QCheck.Gen in
  let len =
    oneof [ oneofl [ 0; 1; 55; 56; 63; 64; 65; 127; 128; 129; 192 ]; int_bound 300 ]
  in
  let cut = oneof [ oneofl [ 0; 0; 1; 63; 64; 65; 128 ]; int_bound 100 ] in
  map2 (fun s cuts -> (s, cuts)) (string_size ~gen:char len) (list_size (int_bound 8) cut)

let md5_chunks_equal_digest =
  QCheck.Test.make ~name:"md5 fed in chunks = Digest.string" ~count:500
    (QCheck.make
       ~print:(fun (s, cuts) ->
         Printf.sprintf "%d bytes, cuts [%s]" (String.length s)
           (String.concat "; " (List.map string_of_int cuts)))
       md5_chunks_gen)
    (fun (s, cuts) ->
      let m = Mdigest.Md5.create () in
      let pos =
        List.fold_left
          (fun pos c ->
            let c = min c (String.length s - pos) in
            Mdigest.Md5.feed m s pos c;
            pos + c)
          0 cuts
      in
      Mdigest.Md5.feed m s pos (String.length s - pos);
      Mdigest.Md5.finish m = Digest.string s)

let test_md5_feed_range () =
  let m = Mdigest.Md5.create () in
  List.iter
    (fun (pos, len) ->
      check Alcotest.bool
        (Printf.sprintf "feed %d %d refused" pos len)
        true
        (try
           Mdigest.Md5.feed m "abc" pos len;
           false
         with Invalid_argument _ -> true))
    [ (-1, 1); (0, -1); (2, 2); (4, 0) ]

(* A value as a tree of blocks over leaves. [Open] is a block whose
   last field the writer replaces ([Mdigest.value_but_last]); [Pooled]
   is a leaf from a pool of physically distinct values, some of them
   structurally equal ([0.0] and [-0.0] among them), emitted through a
   memo, and [Pooled_by] the one-field block around one, emitted by a
   writer through the same [Mdigest.shared]. [Imm] is an int the writer
   emits with [Mdigest.int], [Raw] a string fed as a prebuilt
   [Mdigest.body], and [Fields] a block whose fields go as one
   tuple's ([Mdigest.fields]). *)
type shape =
  | Int of int
  | Imm of int
  | Str of string
  | Raw of string
  | Float of float
  | Pooled of int
  | Pooled_by of int
  | Block of int * shape list
  | Open of int * shape list * shape
  | Fields of int * shape list

let pool =
  [| Obj.repr 0.0; Obj.repr (-0.0); Obj.repr (String.make 40 'x');
     Obj.repr (String.make 40 'x'); Obj.repr (Array.init 300 (fun i -> i * 7));
     Obj.repr [ 1.5; 1.5 ]; Obj.repr (Some "pooled") |]

let rec build = function
  | Int n | Imm n -> Obj.repr n
  | Str s | Raw s -> Obj.repr s
  | Float f -> Obj.repr f
  | Pooled i -> pool.(i)
  | Pooled_by i -> Obj.repr (Some pool.(i))
  | Block (tag, fields) | Fields (tag, fields) ->
      let b = Obj.new_block tag (List.length fields) in
      List.iteri (fun i f -> Obj.set_field b i (build f)) fields;
      b
  | Open (tag, fields, last) -> build (Block (tag, fields @ [ last ]))

let some s v =
  Mdigest.block s ~tag:0 ~size:1;
  Mdigest.value s v

let rec write ((memo, memo_by) as m) s = function
  | (Int _ | Str _ | Float _) as leaf -> Mdigest.value s (build leaf)
  | Imm n -> Mdigest.int s n
  | Raw str -> Mdigest.raw s (Mdigest.body str)
  | Pooled i -> Mdigest.shared s memo Mdigest.value pool.(i)
  | Pooled_by i -> Mdigest.shared s memo_by some pool.(i)
  | Block (tag, fields) ->
      Mdigest.block s ~tag ~size:(List.length fields);
      List.iter (write m s) fields
  | Open (tag, fields, last) ->
      Mdigest.value_but_last s (build (Block (tag, fields @ [ Int 0 ])));
      write m s last
  | Fields (tag, fields) ->
      Mdigest.block s ~tag ~size:(List.length fields);
      Mdigest.fields s (build (Block (0, fields)))

let rec show = function
  | Int n -> string_of_int n
  | Imm n -> Printf.sprintf "imm %d" n
  | Str s -> Printf.sprintf "%S" s
  | Raw s -> Printf.sprintf "raw %S" s
  | Float f -> Printf.sprintf "%h" f
  | Pooled i -> Printf.sprintf "pool.(%d)" i
  | Pooled_by i -> Printf.sprintf "Some pool.(%d)" i
  | Block (tag, fs) -> Printf.sprintf "%d(%s)" tag (String.concat ", " (List.map show fs))
  | Fields (tag, fs) ->
      Printf.sprintf "%d(fields %s)" tag (String.concat ", " (List.map show fs))
  | Open (tag, fs, l) ->
      Printf.sprintf "%d(%s | %s)" tag (String.concat ", " (List.map show fs)) (show l)

(* Ints in every Marshal width, strings of both short and both long
   codes, floats with signed zeros and NaN, blocks of the one-byte and
   the CODE_BLOCK32 headers (12 fields, tags past 15). *)
let shape_gen =
  let open QCheck.Gen in
  let ints =
    oneof
      [ oneofl [ 0; 63; 64; -1; -128; 127; 128; -32768; 32767; 32768;
                 (1 lsl 30) - 1; 1 lsl 30; -(1 lsl 30); -(1 lsl 30) - 1;
                 max_int; min_int ];
        int ]
  in
  let strings = map (fun n -> String.make n 's') (oneofl [ 0; 1; 31; 32; 255; 256 ]) in
  let leaf =
    oneof
      [
        map (fun n -> Int n) ints;
        map (fun n -> Imm n) ints;
        map (fun s -> Str s) strings;
        map (fun s -> Raw s) strings;
        map (fun f -> Float f) (oneofl [ 0.0; -0.0; 1.5; nan; infinity; -1e300 ]);
        map (fun i -> Pooled i) (int_bound (Array.length pool - 1));
        map (fun i -> Pooled_by i) (int_bound (Array.length pool - 1));
      ]
  in
  let tag = oneofl [ 0; 0; 1; 7; 15; 16; 200 ] in
  let size = oneof [ int_range 1 9; return 12 ] in
  sized_size (int_bound 3)
  @@ fix (fun self depth ->
         if depth = 0 then leaf
         else
           frequency
             [
               (2, leaf);
               ( 3,
                 map2 (fun t fs -> Block (t, fs)) tag
                   (size >>= fun n -> list_repeat n (self (depth - 1))) );
               ( 1,
                 map3 (fun t fs l -> Open (t, fs, l)) tag
                   (int_range 0 8 >>= fun n -> list_repeat n (self (depth - 1)))
                   (self (depth - 1)) );
               ( 1,
                 map2 (fun t fs -> Fields (t, fs)) tag
                   (size >>= fun n -> list_repeat n (self (depth - 1))) );
             ])

let mdigest_equals_marshal =
  QCheck.Test.make ~name:"Mdigest writer = Marshal digest on nested values" ~count:500
    (QCheck.make ~print:show shape_gen)
    (fun shape ->
      let m = (Mdigest.memo (), Mdigest.memo ()) in
      Mdigest.digest (fun s -> write m s shape)
      = Ref_model.Marshal_digest.of_value (build shape))

let test_mdigest_signed_zero_memo () =
  let shape =
    Block
      (0, [ Pooled 0; Pooled 1; Pooled 0; Pooled 1; Pooled_by 0; Pooled_by 1;
            Pooled_by 0; Pooled_by 0 ])
  in
  check Alcotest.string "0.0 and -0.0 through one memo"
    (Ref_model.Marshal_digest.of_value (build shape))
    (Mdigest.digest (fun s -> write (Mdigest.memo (), Mdigest.memo ()) s shape));
  check Alcotest.string "of_value" (Ref_model.Marshal_digest.of_value pool)
    (Mdigest.of_value pool)

let test_mdigest_refusals () =
  let refused what f =
    check Alcotest.bool what true (try f (); false with Invalid_argument _ -> true)
  in
  refused "an atom" (fun () ->
      ignore (Mdigest.digest (fun s -> Mdigest.block s ~tag:0 ~size:0)));
  refused "a block of 2^22 fields" (fun () ->
      ignore (Mdigest.digest (fun s -> Mdigest.block s ~tag:0 ~size:(1 lsl 22))));
  refused "a closure tag" (fun () ->
      ignore (Mdigest.digest (fun s -> Mdigest.block s ~tag:Obj.closure_tag ~size:1)));
  refused "a last field that is not 0" (fun () ->
      ignore (Mdigest.digest (fun s -> Mdigest.value_but_last s (1, 2))));
  let pass = ref 0 in
  refused "passes that differ" (fun () ->
      ignore
        (Mdigest.digest (fun s ->
             incr pass;
             Mdigest.value s (String.make !pass 'p'))))

(* [Mdigest.int] at each width's edges: extern.c's one-byte, 8-, 16-,
   32-bit (a 32-bit OCaml int, so 2^30 already takes 64) and 64-bit
   codes, as Marshal writes them. *)
let boundary_ints =
  [ 0; 63; 64; 127; 128; -1; -64; -65; -128; -129; 32767; 32768; -32768; -32769;
    (1 lsl 30) - 1; 1 lsl 30; -(1 lsl 30); -(1 lsl 30) - 1; (1 lsl 31) - 1;
    1 lsl 31; -(1 lsl 31); -(1 lsl 31) - 1; min_int; max_int ]

let test_mdigest_int_boundaries () =
  List.iter
    (fun n ->
      let what = string_of_int n in
      check Alcotest.string (what ^ ": int = Marshal")
        (Ref_model.Marshal_digest.of_value n)
        (Mdigest.digest (fun s -> Mdigest.int s n));
      check Alcotest.string (what ^ " in a block")
        (Ref_model.Marshal_digest.of_value (n, "x", n))
        (Mdigest.digest (fun s ->
             Mdigest.block s ~tag:0 ~size:3;
             Mdigest.int s n;
             Mdigest.value s "x";
             Mdigest.int s n)))
    boundary_ints

(* A label fed as a prebuilt body, raw, is the label's [value]. *)
let test_mdigest_raw_body () =
  List.iter
    (fun l ->
      let b = Mdigest.body l in
      check Alcotest.string
        (Printf.sprintf "%d-byte label" (String.length l))
        (Mdigest.digest (fun s -> Mdigest.value s l))
        (Mdigest.digest (fun s -> Mdigest.raw s b));
      check Alcotest.string "fed three times"
        (Ref_model.Marshal_digest.of_value (l, l, l))
        (Mdigest.digest (fun s ->
             Mdigest.block s ~tag:0 ~size:3;
             for _ = 1 to 3 do Mdigest.raw s b done)))
    [ "a_load"; "sig_entry:10"; "syscall:read"; ""; String.make 31 'x';
      String.make 32 'x'; String.make 255 'x'; String.make 256 'x';
      String.make 5000 'x' ]

(* The header writer at forged totals: Marshal's own header below
   2^32 in every count, the big header from 2^32 on, each read back by
   [Marshal.total_size]. No value of that size is built. *)
let test_mdigest_header () =
  let v = (String.make 300 'h', [ 1; 2; 3 ], 2.5) in
  let m = Marshal.to_string v [ Marshal.No_sharing ] in
  let u32 i = Int32.to_int (String.get_int32_be m i) land 0xFFFF_FFFF in
  check Alcotest.string "a real value's header" (String.sub m 0 20)
    (Mdigest.header ~len:(u32 4) ~size_32:(u32 12) ~size_64:(u32 16));
  let two32 = 1 lsl 32 in
  let case what ~len ~size_32 ~size_64 ~big =
    let h = Mdigest.header ~len ~size_32 ~size_64 in
    check Alcotest.int (what ^ ": header size") (if big then 32 else 20) (String.length h);
    check Alcotest.int (what ^ ": size read back") (String.length h + len)
      (Marshal.total_size (Bytes.of_string h) 0);
    if big then begin
      check Alcotest.int (what ^ ": no shared objects") 0
        (Int64.to_int (String.get_int64_be h 16));
      check Alcotest.int (what ^ ": 64-bit size") size_64
        (Int64.to_int (String.get_int64_be h 24))
    end
    else begin
      check Alcotest.int (what ^ ": 32-bit size") size_32
        (Int32.to_int (String.get_int32_be h 12) land 0xFFFF_FFFF);
      check Alcotest.int (what ^ ": 64-bit size") size_64
        (Int32.to_int (String.get_int32_be h 16) land 0xFFFF_FFFF)
    end
  in
  case "all below" ~len:(two32 - 1) ~size_32:(two32 - 1) ~size_64:(two32 - 1) ~big:false;
  case "length at 2^32" ~len:two32 ~size_32:5 ~size_64:5 ~big:true;
  case "32-bit size at 2^32" ~len:100 ~size_32:two32 ~size_64:(two32 - 1) ~big:true;
  case "64-bit size at 2^32" ~len:100 ~size_32:(two32 - 1) ~size_64:two32 ~big:true;
  (* httpd's seed-1 analysis: about 3 GB and 3.07G words, still small *)
  case "httpd-sized" ~len:3_000_000_000 ~size_32:3_070_000_000 ~size_64:3_070_000_000
    ~big:false

(* ------------------------------------------------------------------ *)
(* Journal *)

let jtmp () =
  let f = Filename.temp_file "t11r_journal" ".jsonl" in
  Sys.remove f;
  f

let test_journal_roundtrip () =
  let path = jtmp () in
  let w = Journal.create path in
  let payloads = [ "plain"; ""; "with \"quotes\" and \\backslash"; "\x00\x01\xff bin" ] in
  List.iter (fun p -> Journal.append w { Journal.kind = "test"; payload = p }) payloads;
  Journal.close w;
  let entries, dropped = Journal.read path in
  check Alcotest.int "nothing dropped" 0 dropped;
  check Alcotest.(list string) "payloads survive" payloads
    (List.map (fun e -> e.Journal.payload) entries);
  check Alcotest.bool "kinds survive" true
    (List.for_all (fun e -> e.Journal.kind = "test") entries)

let test_journal_append_resumes () =
  let path = jtmp () in
  let w = Journal.create path in
  Journal.append w { Journal.kind = "a"; payload = "1" };
  Journal.close w;
  let w = Journal.create path in
  Journal.append w { Journal.kind = "b"; payload = "2" };
  Journal.close w;
  let entries, dropped = Journal.read path in
  check Alcotest.int "no drops" 0 dropped;
  check Alcotest.(list string) "both entries, in order" [ "a"; "b" ]
    (List.map (fun e -> e.Journal.kind) entries)

let test_journal_torn_tail_dropped () =
  let path = jtmp () in
  let w = Journal.create path in
  Journal.append w { Journal.kind = "good"; payload = "one" };
  Journal.append w { Journal.kind = "good"; payload = "two" };
  Journal.close w;
  (* simulate a crash mid-append: truncate the last line *)
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc (String.sub s 0 (String.length s - 7));
  close_out oc;
  let entries, dropped = Journal.read path in
  check Alcotest.int "torn line dropped" 1 dropped;
  check Alcotest.(list string) "intact prefix kept" [ "one" ]
    (List.map (fun e -> e.Journal.payload) entries)

let test_journal_corrupt_line_dropped () =
  let path = jtmp () in
  let w = Journal.create path in
  Journal.append w { Journal.kind = "k"; payload = "first" };
  Journal.append w { Journal.kind = "k"; payload = "second" };
  Journal.close w;
  (* flip a payload byte without fixing the CRC *)
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let i = ref (-1) in
  String.iteri (fun j c -> if !i < 0 && c = 'f' then i := j) s;
  let b = Bytes.of_string s in
  Bytes.set b !i 'X';
  let oc = open_out_bin path in
  output_string oc (Bytes.to_string b);
  close_out oc;
  let entries, dropped = Journal.read path in
  check Alcotest.int "corrupt line dropped" 1 dropped;
  check Alcotest.(list string) "valid line kept" [ "second" ]
    (List.map (fun e -> e.Journal.payload) entries)

let test_journal_rejects_bad_kind () =
  let path = jtmp () in
  let w = Journal.create path in
  Alcotest.check_raises "kind with space"
    (Invalid_argument "Journal.append: bad kind \"bad kind\"") (fun () ->
      Journal.append w { Journal.kind = "bad kind"; payload = "" });
  Journal.close w

let slurp path = In_channel.with_open_bin path In_channel.input_all
let spit path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)
let payloads entries = List.map (fun e -> e.Journal.payload) entries

let write_entries path entries =
  let w = Journal.create path in
  List.iter (fun (kind, payload) -> Journal.append w { Journal.kind; payload }) entries;
  Journal.close w

(* A resume that reopens a journal with a torn final line must not
   append into it: the first new entry would merge with the torn
   bytes and be lost on the next read. *)
let test_journal_torn_tail_then_append () =
  let path = jtmp () in
  write_entries path [ ("k", "1"); ("k", "2"); ("k", "3") ];
  let s = slurp path in
  spit path (String.sub s 0 (String.length s - 7));
  let w = Journal.create path in
  Journal.append w { Journal.kind = "k"; payload = "4" };
  Journal.append w { Journal.kind = "k"; payload = "5" };
  Journal.close w;
  let entries, dropped = Journal.read path in
  check Alcotest.(list string) "no append swallowed" [ "1"; "2"; "4"; "5" ]
    (payloads entries);
  check Alcotest.int "only the torn line dropped" 1 dropped;
  Sys.remove path

(* -- the pinned-journal opener, one case per rule ------------------- *)

let header ?(schema = 1) identity =
  ("hdr", Printf.sprintf "schema %d %s" schema identity)
let item v = ("item", Marshal.to_string (v : string) [])

let open_hdr path : Journal.writer * string list * int =
  Journal.open_pinned ~kind:"hdr" ~schema:1 ~identity:"identity-1" ~payload:"item"
    path

let append_item w v =
  let kind, payload = item v in
  Journal.append w { Journal.kind; payload }

(* The file's entries: header payloads as text, items decoded. *)
let on_disk path =
  List.map
    (fun e ->
      if e.Journal.kind = "item" then
        (Marshal.from_string e.Journal.payload 0 : string)
      else e.Journal.payload)
    (fst (Journal.read path))

let mentions msg path =
  let n = String.length path in
  let rec go i = i + n <= String.length msg && (String.sub msg i n = path || go (i + 1)) in
  go 0

(* Refused with [Invalid_argument], and nothing written to the file. *)
let refused what path =
  let before = slurp path in
  (match open_hdr path with
  | _ -> Alcotest.failf "%s: opened" what
  | exception Invalid_argument msg ->
      check Alcotest.bool (what ^ ": message names the file") true
        (mentions msg path));
  check Alcotest.string (what ^ ": file untouched") before (slurp path)

(* Refused with exactly Journal's message [msg], file untouched. *)
let refused_with what path msg =
  Alcotest.check_raises what (Invalid_argument msg) (fun () ->
      ignore (open_hdr path));
  refused what path

let test_pinned_fresh () =
  let path = jtmp () in
  let w, items, dropped = open_hdr path in
  Journal.close w;
  check Alcotest.int "absent: nothing served" 0 (List.length items + dropped);
  check Alcotest.(list string) "absent: header written" [ "schema 1 identity-1" ]
    (on_disk path);
  spit path "";
  let w, items, _ = open_hdr path in
  append_item w "x";
  Journal.close w;
  check Alcotest.int "empty: nothing served" 0 (List.length items);
  check Alcotest.(list string) "empty: header, then the item"
    [ "schema 1 identity-1"; "x" ] (on_disk path);
  Sys.remove path

let test_pinned_torn_header () =
  let path = jtmp () in
  write_entries path [ header "identity-1" ];
  let s = slurp path in
  spit path (String.sub s 0 (String.length s / 2));
  let w, items, dropped = open_hdr path in
  append_item w "x";
  Journal.close w;
  check Alcotest.int "nothing served" 0 (List.length items + dropped);
  check Alcotest.(list string) "torn header replaced, clean file"
    [ "schema 1 identity-1"; "x" ] (on_disk path);
  check Alcotest.int "no damage left" 0 (snd (Journal.read path));
  Sys.remove path

let test_pinned_first_line_damaged () =
  let path = jtmp () in
  write_entries path [ header "identity-2"; item "a" ];
  let s = Bytes.of_string (slurp path) in
  let i = String.index (Bytes.to_string s) '\n' - 4 in
  Bytes.set s i (Char.chr (Char.code (Bytes.get s i) lxor 1));
  spit path (Bytes.to_string s);
  refused "flipped header" path;
  spit path "# a README\n\nsome text\n";
  refused "not a journal" path;
  spit path "one line, no newline";
  refused "one line of text" path;
  Sys.remove path

let test_pinned_foreign () =
  let path = jtmp () in
  write_entries path [ ("other", "schema 1 id"); ("other-run", "a") ];
  refused_with "foreign journal" path
    (path ^ " is a other journal, not a hdr one");
  Sys.remove path

(* The schema is compared first: a header that is not the schema text,
   or another schema, is refused whatever its identity. *)
let test_pinned_schema () =
  let path = jtmp () in
  write_entries path [ header ~schema:2 "identity-1"; item "a" ];
  refused_with "other schema" path
    (Printf.sprintf "journal %s has schema 2, this build writes 1" path);
  spit path "";
  write_entries path [ header ~schema:0 "identity-2" ];
  refused_with "other schema and identity" path
    (Printf.sprintf "journal %s has schema 0, this build writes 1" path);
  spit path "";
  write_entries path [ ("hdr", Marshal.to_string (1, "identity-1") []); item "a" ];
  refused_with "marshalled header" path
    (Printf.sprintf "journal %s: unreadable header" path);
  Sys.remove path

let test_pinned_mismatch () =
  let path = jtmp () in
  write_entries path [ header "identity-2"; item "a" ];
  refused_with "other identity" path
    (Printf.sprintf "journal %s is pinned to identity-2, not identity-1" path);
  Sys.remove path

let test_pinned_undecodable () =
  let path = jtmp () in
  write_entries path
    [ header "identity-1"; item "a"; ("item", "not marshalled"); item "b" ];
  let w, items, dropped = open_hdr path in
  Journal.close w;
  check Alcotest.(list string) "decodable items served" [ "a"; "b" ] items;
  check Alcotest.int "undecodable item dropped" 1 dropped;
  Sys.remove path

let test_pinned_header_less () =
  let path = jtmp () in
  write_entries path [ item "a"; item "b" ];
  let w, items, _ = open_hdr path in
  Journal.close w;
  check Alcotest.(list string) "items served" [ "a"; "b" ] items;
  check Alcotest.(list string) "header appended"
    [ "a"; "b"; "schema 1 identity-1" ]
    (on_disk path);
  let w, items, _ = open_hdr path in
  Journal.close w;
  check Alcotest.(list string) "reopens pinned" [ "a"; "b" ] items;
  Sys.remove path

let test_pinned_load_read_only () =
  let load ?(schema = 1) ?(kind = "hdr") path : string option * string list * int =
    Journal.load_pinned ~kind ~schema ~payload:"item" path
  in
  let path = jtmp () in
  check Alcotest.(option string) "absent: no header" None
    (let h, _, _ = load path in h);
  check Alcotest.bool "absent: not created" false (Sys.file_exists path);
  write_entries path [ header "identity-2"; item "a" ];
  let before = slurp path in
  let h, items, _ = load path in
  check Alcotest.(option string) "identity returned, not compared"
    (Some "identity-2") h;
  check Alcotest.(list string) "items" [ "a" ] items;
  check Alcotest.string "nothing written" before (slurp path);
  Alcotest.check_raises "schema still checked"
    (Invalid_argument
       (Printf.sprintf "journal %s has schema 1, this build writes 2" path))
    (fun () -> ignore (load ~schema:2 path));
  (match load ~kind:"other" path with
  | _ -> Alcotest.fail "foreign journal loaded"
  | exception Invalid_argument _ -> ());
  Sys.remove path

let journal_fuzz_roundtrip =
  QCheck.Test.make ~name:"journal roundtrips arbitrary payload bytes" ~count:300
    raw_string_arb
    (fun payload ->
      let path = jtmp () in
      let w = Journal.create path in
      Journal.append w { Journal.kind = "fuzz"; payload };
      Journal.close w;
      let entries, dropped = Journal.read path in
      Sys.remove path;
      dropped = 0
      && List.map (fun e -> e.Journal.payload) entries = [ payload ])

(* ------------------------------------------------------------------ *)
(* Tmp *)

let test_tmp_with_dir_cleans_up () =
  let captured = ref "" in
  Tmp.with_dir ~prefix:"t11r_wd" (fun dir ->
      captured := dir;
      check Alcotest.bool "exists inside" true (Sys.is_directory dir));
  check Alcotest.bool "removed after" false (Sys.file_exists !captured)

let test_tmp_with_dir_cleans_up_on_raise () =
  let captured = ref "" in
  (try
     Tmp.with_dir ~prefix:"t11r_wd" (fun dir ->
         captured := dir;
         let oc = open_out (Filename.concat dir "junk") in
         output_string oc "x";
         close_out oc;
         failwith "boom")
   with Failure _ -> ());
  check Alcotest.bool "removed even on raise" false (Sys.file_exists !captured)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "util"
    [
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "draw count" `Quick test_prng_draw_count;
          Alcotest.test_case "copy" `Quick test_prng_copy_independent;
          Alcotest.test_case "seeds roundtrip" `Quick test_prng_seeds_roundtrip;
          Alcotest.test_case "pick empty" `Quick test_prng_pick_empty;
          qtest prng_int_bounds;
          qtest prng_int_covers;
          qtest prng_int_reference;
          qtest prng_reseed_seeds;
        ] );
      ( "rle",
        [
          Alcotest.test_case "basic" `Quick test_rle_basic;
          Alcotest.test_case "empty" `Quick test_rle_empty;
          Alcotest.test_case "decode invalid" `Quick test_rle_decode_invalid;
          Alcotest.test_case "long run" `Quick test_rle_bytes_long_run;
          Alcotest.test_case "malformed bytes" `Quick test_rle_bytes_malformed;
          qtest rle_roundtrip;
          qtest rle_compresses_runs;
          qtest rle_bytes_roundtrip;
          qtest rle_encoded_size_matches;
          qtest rle_runny_roundtrip;
          qtest rle_runny_encoded_size;
          qtest rle_runny_compresses;
        ] );
      ( "vclock",
        [
          Alcotest.test_case "empty" `Quick test_vclock_empty;
          Alcotest.test_case "tick" `Quick test_vclock_tick;
          Alcotest.test_case "join" `Quick test_vclock_join;
          Alcotest.test_case "trailing zeros" `Quick test_vclock_trailing_zeros;
          Alcotest.test_case "orders" `Quick test_vclock_orders;
          qtest vclock_join_comm;
          qtest vclock_join_assoc;
          qtest vclock_join_idem;
          qtest vclock_join_upper_bound;
          qtest vclock_leq_antisym;
          qtest vclock_tick_strict;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/sd" `Quick test_stats_mean_sd;
          Alcotest.test_case "single" `Quick test_stats_single;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "rate" `Quick test_stats_rate;
          qtest stats_min_max;
          qtest stats_percentile_monotone;
        ] );
      ("table", [ Alcotest.test_case "render" `Quick test_table_render ]);
      ( "codec",
        [
          Alcotest.test_case "escape basic" `Quick test_codec_escape_basic;
          Alcotest.test_case "fields" `Quick test_codec_fields;
          Alcotest.test_case "file roundtrip" `Quick test_codec_file_roundtrip;
          Alcotest.test_case "missing file" `Quick test_codec_missing_file;
          qtest codec_roundtrip;
          qtest codec_no_spaces;
        ] );
      ( "crc",
        [
          Alcotest.test_case "check vector" `Quick test_crc_vector;
          Alcotest.test_case "empty" `Quick test_crc_empty;
          Alcotest.test_case "hex roundtrip" `Quick test_crc_hex_roundtrip;
          qtest crc_update_incremental;
          qtest crc_detects_bit_flip;
        ] );
      ( "mdigest",
        [
          qtest md5_chunks_equal_digest;
          Alcotest.test_case "md5 feed range" `Quick test_md5_feed_range;
          qtest mdigest_equals_marshal;
          Alcotest.test_case "memo keyed by identity" `Quick
            test_mdigest_signed_zero_memo;
          Alcotest.test_case "refusals" `Quick test_mdigest_refusals;
          Alcotest.test_case "int at each width's edges" `Quick
            test_mdigest_int_boundaries;
          Alcotest.test_case "a label body fed raw" `Quick test_mdigest_raw_body;
          Alcotest.test_case "header at forged totals" `Quick test_mdigest_header;
        ] );
      ( "journal",
        [
          Alcotest.test_case "roundtrip" `Quick test_journal_roundtrip;
          Alcotest.test_case "append resumes" `Quick test_journal_append_resumes;
          Alcotest.test_case "torn tail dropped" `Quick
            test_journal_torn_tail_dropped;
          Alcotest.test_case "corrupt line dropped" `Quick
            test_journal_corrupt_line_dropped;
          Alcotest.test_case "rejects bad kind" `Quick
            test_journal_rejects_bad_kind;
          Alcotest.test_case "torn tail, then append" `Quick
            test_journal_torn_tail_then_append;
          Alcotest.test_case "pinned: fresh start" `Quick test_pinned_fresh;
          Alcotest.test_case "pinned: torn header" `Quick test_pinned_torn_header;
          Alcotest.test_case "pinned: first line damaged" `Quick
            test_pinned_first_line_damaged;
          Alcotest.test_case "pinned: foreign journal" `Quick test_pinned_foreign;
          Alcotest.test_case "pinned: schema mismatch" `Quick test_pinned_schema;
          Alcotest.test_case "pinned: header mismatch" `Quick test_pinned_mismatch;
          Alcotest.test_case "pinned: undecodable payload dropped" `Quick
            test_pinned_undecodable;
          Alcotest.test_case "pinned: header-less snapshot" `Quick
            test_pinned_header_less;
          Alcotest.test_case "pinned: read-only load" `Quick
            test_pinned_load_read_only;
          qtest journal_fuzz_roundtrip;
        ] );
      ( "tmp",
        [
          Alcotest.test_case "with_dir cleans up" `Quick
            test_tmp_with_dir_cleans_up;
          Alcotest.test_case "with_dir cleans up on raise" `Quick
            test_tmp_with_dir_cleans_up_on_raise;
        ] );
    ]
