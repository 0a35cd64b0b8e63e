(* SHA-1 against RFC 3174 / FIPS 180 test vectors, and the 160-bit ring key
   arithmetic Chord depends on. *)

module Sha1 = Hashing.Sha1
module Key = Hashing.Key

let sha1_vectors () =
  let check input expected =
    Alcotest.(check string) input expected (Sha1.to_hex (Sha1.digest_string input))
  in
  check "" "da39a3ee5e6b4b0d3255bfef95601890afd80709";
  check "abc" "a9993e364706816aba3e25717850c26c9cd0d89d";
  check "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
    "84983e441c3bd26ebaae4aa1f95129e5e54670f1";
  check "The quick brown fox jumps over the lazy dog"
    "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12"

let sha1_million_a () =
  (* FIPS 180-1 vector: one million repetitions of "a". *)
  let input = String.make 1_000_000 'a' in
  Alcotest.(check string) "million a" "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
    (Sha1.to_hex (Sha1.digest_string input))

let sha1_block_boundaries () =
  (* Lengths around the 55/56-byte padding boundary (one tail block or
     two) and the 64-byte block boundary, pinned to coreutils
     [sha1sum] of [len] repetitions of 'x'. *)
  List.iter
    (fun (len, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "%d x 'x'" len)
        expected
        (Sha1.to_hex (Sha1.digest_string (String.make len 'x'))))
    [
      (54, "31045e7bb077ff8d188a776b196b980388735dbb");
      (55, "cef734ba81a024479e09eb5a75b6ddae62e6abf1");
      (56, "901305367c259952f4e7af8323f480d59f81335b");
      (57, "025ecbd5d70f8fb3c5457cd96bab13fda305dc59");
      (58, "1fc8ec1c521db349501a72ad396e44bfade318c2");
      (59, "af3526de3ee728ffd84f7381df8c29b09e3a088d");
      (60, "06ced2e070e58c2c4ed9f2b8cb890f0c512ce60d");
      (61, "5482c87d17cc9f29b9f5580d168a712708b8ea98");
      (62, "ff5b5136336035a9f58c21d5da1e2a1d29c67943");
      (63, "0ddc4e0cccd9a12850deb5abb0853a4425559fec");
      (64, "bb2fa3ee7afb9f54c6dfb5d021f14b1ffe40c163");
      (65, "78c741ddc482e4cdf8c474a0876347a0905b6233");
      (119, "4300320394f7ee239bcdce7d3b8bcee173a0cd5c");
      (120, "ceb2821639c4b6dcb10bce0e522ca2e608ce056d");
      (128, "150fa3fbdc899bd0b8f95a9fb6027f564d953762");
    ]

let sha1_hex_roundtrip =
  QCheck.Test.make ~name:"Sha1 hex roundtrip" ~count:200 QCheck.string (fun s ->
      let d = Sha1.digest_string s in
      String.equal (Sha1.of_hex (Sha1.to_hex d)) d)

let key_of_int_roundtrip () =
  Alcotest.(check string) "key 1"
    "0000000000000000000000000000000000000001"
    (Key.to_hex (Key.of_int 1));
  Alcotest.(check string) "key 0x1234"
    "0000000000000000000000000000000000001234"
    (Key.to_hex (Key.of_int 0x1234))

let key_succ_wraps () =
  let top = Key.of_hex "ffffffffffffffffffffffffffffffffffffffff" in
  Alcotest.(check bool) "succ of max is zero" true (Key.equal (Key.succ top) Key.zero)

let key_add_pow2 () =
  let k = Key.of_int 1 in
  Alcotest.(check string) "1 + 2^0 = 2"
    "0000000000000000000000000000000000000002"
    (Key.to_hex (Key.add_pow2 k 0));
  Alcotest.(check string) "1 + 2^8 = 257"
    "0000000000000000000000000000000000000101"
    (Key.to_hex (Key.add_pow2 k 8));
  (* 2^159 + 2^159 wraps to 0. *)
  let half = Key.add_pow2 Key.zero 159 in
  Alcotest.(check bool) "2^159 * 2 wraps" true (Key.equal (Key.add_pow2 half 159) Key.zero)

let key_add_pow2_bounds () =
  Alcotest.check_raises "exponent 160 rejected"
    (Invalid_argument "Key.add_pow2: exponent out of range") (fun () ->
      ignore (Key.add_pow2 Key.zero 160))

let key_interval_plain () =
  let k1 = Key.of_int 10 and k5 = Key.of_int 50 and k9 = Key.of_int 90 in
  Alcotest.(check bool) "50 in (10,90)" true (Key.in_interval_oo k5 ~lo:k1 ~hi:k9);
  Alcotest.(check bool) "10 not in (10,90)" false (Key.in_interval_oo k1 ~lo:k1 ~hi:k9);
  Alcotest.(check bool) "90 not in (10,90)" false (Key.in_interval_oo k9 ~lo:k1 ~hi:k9);
  Alcotest.(check bool) "90 in (10,90]" true (Key.in_interval_oc k9 ~lo:k1 ~hi:k9)

let key_interval_wrapping () =
  let k1 = Key.of_int 10 and k9 = Key.of_int 90 in
  let k95 = Key.of_int 95 and k5 = Key.of_int 5 in
  (* The wrapping interval (90, 10) contains 95 and 5 but not 50. *)
  Alcotest.(check bool) "95 in (90,10)" true (Key.in_interval_oo k95 ~lo:k9 ~hi:k1);
  Alcotest.(check bool) "5 in (90,10)" true (Key.in_interval_oo k5 ~lo:k9 ~hi:k1);
  Alcotest.(check bool) "50 not in (90,10)" false
    (Key.in_interval_oo (Key.of_int 50) ~lo:k9 ~hi:k1);
  (* Degenerate interval (k, k): the whole ring minus the point (open) or the
     whole ring (half-open). *)
  Alcotest.(check bool) "(k,k) open excludes k" false (Key.in_interval_oo k1 ~lo:k1 ~hi:k1);
  Alcotest.(check bool) "(k,k) open has others" true (Key.in_interval_oo k9 ~lo:k1 ~hi:k1);
  Alcotest.(check bool) "(k,k] contains k" true (Key.in_interval_oc k1 ~lo:k1 ~hi:k1)

let key_distance () =
  let a = Key.of_int 10 and b = Key.of_int 90 in
  Alcotest.(check string) "distance 10->90"
    (Key.to_hex (Key.of_int 80))
    (Key.to_hex (Key.distance_cw a b));
  (* Distance wrapping through zero: 90 -> 10 is 2^160 - 80. *)
  let wrap = Key.distance_cw b a in
  Alcotest.(check string) "distance 90->10 wraps"
    "ffffffffffffffffffffffffffffffffffffffb0"
    (Key.to_hex wrap)

let arbitrary_key =
  QCheck.make
    ~print:(fun k -> Key.to_hex k)
    (QCheck.Gen.map
       (fun seed -> Key.random (Stdx.Prng.create ~seed:(Int64.of_int seed)))
       QCheck.Gen.int)

let key_interval_oc_trichotomy =
  QCheck.Test.make ~name:"ring trichotomy: k in (a,b] xor k in (b,a]" ~count:500
    (QCheck.triple arbitrary_key arbitrary_key arbitrary_key)
    (fun (k, a, b) ->
      QCheck.assume (not (Key.equal a b));
      let in_ab = Key.in_interval_oc k ~lo:a ~hi:b in
      let in_ba = Key.in_interval_oc k ~lo:b ~hi:a in
      (* Every point other than a and b lies in exactly one of the two arcs. *)
      if Key.equal k a || Key.equal k b then in_ab <> in_ba else in_ab <> in_ba)

let key_distance_inverse =
  QCheck.Test.make ~name:"distance_cw a b + distance_cw b a = 0 (mod ring)" ~count:500
    (QCheck.pair arbitrary_key arbitrary_key)
    (fun (a, b) ->
      QCheck.assume (not (Key.equal a b));
      let d1 = Key.to_float (Key.distance_cw a b) in
      let d2 = Key.to_float (Key.distance_cw b a) in
      let ring = 2.0 ** 160.0 in
      Float.abs ((d1 +. d2) -. ring) /. ring < 1e-9)

(* Keys that share a random-length hex prefix, so the XOR primitives are
   exercised past the first byte. *)
let arbitrary_related_keys =
  let open QCheck.Gen in
  let hex = map (fun d -> String.make 1 "0123456789abcdef".[d]) (int_bound 15) in
  let hex_string n = map (String.concat "") (list_repeat n hex) in
  let gen =
    int_range 0 40 >>= fun shared ->
    hex_string shared >>= fun prefix ->
    let key = map (fun suffix -> Key.of_hex (prefix ^ suffix)) (hex_string (40 - shared)) in
    triple key key key
  in
  QCheck.make
    ~print:(fun (t, a, b) -> String.concat " " (List.map Key.to_hex [ t; a; b ]))
    gen

let sign x = Int.compare x 0

let key_xor_primitives () =
  let a = Key.of_int 0b1100 and b = Key.of_int 0b1010 in
  Alcotest.(check int) "equal keys share every bit" Key.bits (Key.common_prefix_bits a a);
  Alcotest.(check int) "0b1100 vs 0b1010" 157 (Key.common_prefix_bits a b);
  Alcotest.(check int) "top bit differs" 0
    (Key.common_prefix_bits Key.zero (Key.add_pow2 Key.zero 159));
  Alcotest.(check (list int)) "low bits of 0b1100" [ 1; 1; 0; 0 ]
    (List.map (Key.bit a) [ 156; 157; 158; 159 ]);
  Alcotest.(check int) "compare_xor: a is its own closest" (-1)
    (sign (Key.compare_xor ~target:a a b));
  Alcotest.(check int) "compare_xor: equal keys tie" 0 (Key.compare_xor ~target:b a a);
  Alcotest.check_raises "bit bounds" (Invalid_argument "Key.bit: index out of range")
    (fun () -> ignore (Key.bit a Key.bits))

let key_compare_xor_agrees =
  QCheck.Test.make ~name:"compare_xor = compare of logxor distances" ~count:500
    arbitrary_related_keys (fun (t, a, b) ->
      sign (Key.compare_xor ~target:t a b)
      = sign (Key.compare (Key.logxor t a) (Key.logxor t b)))

let key_common_prefix_bitwise =
  QCheck.Test.make ~name:"common_prefix_bits = first differing bit" ~count:500
    arbitrary_related_keys (fun (_, a, b) ->
      let rec first i = if i = Key.bits || Key.bit a i <> Key.bit b i then i else first (i + 1) in
      let cpl = Key.common_prefix_bits a b in
      cpl = first 0 && (cpl = Key.bits || Key.bit (Key.logxor a b) cpl = 1))

let key_of_string_spread () =
  (* Hashed keys should spread: among 1000 consecutive strings, the top
     eighth of the ring should hold roughly an eighth of the keys. *)
  let count = ref 0 in
  let threshold = Key.of_hex "e000000000000000000000000000000000000000" in
  for i = 1 to 1_000 do
    let k = Key.of_string (Printf.sprintf "key-%d" i) in
    if Key.compare k threshold >= 0 then incr count
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d of 1000 keys in top eighth" !count)
    true
    (!count > 80 && !count < 170)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "hashing:sha1",
      [
        Alcotest.test_case "RFC 3174 vectors" `Quick sha1_vectors;
        Alcotest.test_case "million 'a'" `Slow sha1_million_a;
        Alcotest.test_case "block boundary lengths" `Quick sha1_block_boundaries;
      ]
      @ qcheck [ sha1_hex_roundtrip ] );
    ( "hashing:key",
      [
        Alcotest.test_case "of_int/to_hex" `Quick key_of_int_roundtrip;
        Alcotest.test_case "succ wraps" `Quick key_succ_wraps;
        Alcotest.test_case "add_pow2" `Quick key_add_pow2;
        Alcotest.test_case "add_pow2 bounds" `Quick key_add_pow2_bounds;
        Alcotest.test_case "plain intervals" `Quick key_interval_plain;
        Alcotest.test_case "wrapping intervals" `Quick key_interval_wrapping;
        Alcotest.test_case "clockwise distance" `Quick key_distance;
        Alcotest.test_case "hashed key spread" `Quick key_of_string_spread;
        Alcotest.test_case "xor primitives" `Quick key_xor_primitives;
      ]
      @ qcheck
          [
            key_interval_oc_trichotomy;
            key_distance_inverse;
            key_compare_xor_agrees;
            key_common_prefix_bitwise;
          ] );
  ]
