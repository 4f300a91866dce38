(* Tests for the from-scratch crypto substrate: AES-128 against FIPS-197
   and SP 800-38A vectors, SHA-256 against FIPS 180-4 vectors, HMAC against RFC 4231,
   CTR-mode algebraic properties, and PRNG behaviour. *)

module Aes = Sbt_crypto.Aes
module Ctr = Sbt_crypto.Ctr
module Sha256 = Sbt_crypto.Sha256
module Hmac = Sbt_crypto.Hmac
module Rng = Sbt_crypto.Rng

let bytes_of_hex s =
  let n = String.length s / 2 in
  Bytes.init n (fun i -> Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))

let hex_of b =
  String.concat "" (List.init (Bytes.length b) (fun i -> Printf.sprintf "%02x" (Char.code (Bytes.get b i))))

let check_hex = Alcotest.(check string)

(* --- AES -------------------------------------------------------------- *)

let test_aes_fips_vector () =
  (* FIPS-197 Appendix C.1. *)
  let key = Aes.expand_key (bytes_of_hex "000102030405060708090a0b0c0d0e0f") in
  let pt = bytes_of_hex "00112233445566778899aabbccddeeff" in
  let ct = Bytes.create 16 in
  Aes.encrypt_block key pt 0 ct 0;
  check_hex "ciphertext" "69c4e0d86a7b0430d8cdb78070b4c55a" (hex_of ct);
  let back = Bytes.create 16 in
  Aes.decrypt_block key ct 0 back 0;
  check_hex "decrypted" (hex_of pt) (hex_of back)

let test_aes_appendix_b () =
  (* FIPS-197 Appendix B example. *)
  let key = Aes.expand_key (bytes_of_hex "2b7e151628aed2a6abf7158809cf4f3c") in
  let pt = bytes_of_hex "3243f6a8885a308d313198a2e0370734" in
  let ct = Bytes.create 16 in
  Aes.encrypt_block key pt 0 ct 0;
  check_hex "ciphertext" "3925841d02dc09fbdc118597196a0b32" (hex_of ct)

let test_aes_offset_io () =
  let key = Aes.expand_key (Bytes.make 16 'k') in
  let buf = Bytes.make 48 '\000' in
  Bytes.blit (Bytes.of_string "0123456789abcdef") 0 buf 16 16;
  Aes.encrypt_block key buf 16 buf 16;
  let out = Bytes.create 16 in
  Aes.decrypt_block key buf 16 out 0;
  Alcotest.(check string) "in-place at offset" "0123456789abcdef" (Bytes.to_string out)

let test_aes_bad_key () =
  Alcotest.check_raises "short key" (Invalid_argument "Aes.expand_key: key must be 16 bytes")
    (fun () -> ignore (Aes.expand_key (Bytes.create 8)))

let prop_aes_roundtrip =
  QCheck.Test.make ~name:"aes encrypt/decrypt roundtrip" ~count:200
    (QCheck.pair (QCheck.string_of_size (QCheck.Gen.return 16))
       (QCheck.string_of_size (QCheck.Gen.return 16)))
    (fun (k, p) ->
      let key = Aes.expand_key (Bytes.of_string k) in
      let ct = Bytes.create 16 in
      Aes.encrypt_block key (Bytes.of_string p) 0 ct 0;
      let back = Bytes.create 16 in
      Aes.decrypt_block key ct 0 back 0;
      Bytes.to_string back = p)

let test_aes_sp800_38a_ecb () =
  (* NIST SP 800-38A F.1.1, ECB-AES128.Encrypt (4 blocks). *)
  let key = Aes.expand_key (bytes_of_hex "2b7e151628aed2a6abf7158809cf4f3c") in
  List.iter
    (fun (pt, want) ->
      let ct = Bytes.create 16 in
      Aes.encrypt_block key (bytes_of_hex pt) 0 ct 0;
      check_hex pt want (hex_of ct))
    [
      ("6bc1bee22e409f96e93d7e117393172a", "3ad77bb40d7a3660a89ecaf32466ef97");
      ("ae2d8a571e03ac9c9eb76fac45af8e51", "f5d3d58503b9699de785895a96fdbaaf");
      ("30c81c46a35ce411e5fbc1191a0a52ef", "43b1cd7f598ece23881b00e3ed030688");
      ("f69f2445df4f9b17ad2b417be66c3710", "7b0c785e27e8ad3f8223207104725dd4");
    ]

(* --- CTR -------------------------------------------------------------- *)

(* Byte-at-a-time CTR model built on the block cipher alone: byte [abs]
   of the stream is keystream byte [abs mod 16] of the block encrypting
   [nonce_be64 || floor(abs / 16)_be64]. *)
let ctr_model ~key ~nonce ~pos data =
  let k = Aes.expand_key key in
  Bytes.mapi
    (fun i c ->
      let abs = Int64.add pos (Int64.of_int i) in
      let counter = Bytes.create 16 in
      Bytes.set_int64_be counter 0 nonce;
      Bytes.set_int64_be counter 8 (Int64.shift_right abs 4);
      let ks = Bytes.create 16 in
      Aes.encrypt_block k counter 0 ks 0;
      let kb = Bytes.get ks (Int64.to_int (Int64.logand abs 15L)) in
      Char.chr (Char.code c lxor Char.code kb))
    data

let prop_ctr_matches_model =
  let open QCheck in
  let pos =
    Gen.oneof
      [
        Gen.map Int64.of_int (Gen.int_bound 1_000_000);
        (* any non-negative position *)
        Gen.map (fun x -> Int64.logand x Int64.max_int) Gen.ui64;
        (* block-aligned with the top bit set, as frames with seq >= 2^31 *)
        Gen.map (fun x -> Int64.logor Int64.min_int (Int64.logand x (-16L))) Gen.ui64;
      ]
  in
  let gen =
    Gen.(
      map
        (fun (key, nonce, pos, (off, len, slack)) -> (key, nonce, pos, off, len, slack))
        (quad (string_size (return 16)) ui64 pos
           (triple (int_bound 40) (int_bound 300) (int_bound 40))))
  in
  Test.make ~name:"ctr xcrypt matches block-cipher model" ~count:300
    (make
       ~print:(fun (_, n, p, o, l, _) -> Printf.sprintf "nonce=%Ld pos=%Ld off=%d len=%d" n p o l)
       gen)
    (fun (key, nonce, pos, off, len, slack) ->
      let key = Bytes.of_string key in
      let buf = Bytes.init (off + len + slack) (fun i -> Char.chr ((i * 31) land 0xFF)) in
      let want = Bytes.copy buf in
      Bytes.blit (ctr_model ~key ~nonce ~pos (Bytes.sub buf off len)) 0 want off len;
      Ctr.xcrypt (Ctr.create ~key ~nonce) ~pos buf off len;
      Bytes.equal buf want)

let test_ctr_golden_top_bit () =
  (* Frame.ctr_pos puts seq in the high 32 bits, so seq = 2^31 sets the
     sign bit of the position: the counter index must come from signed
     division, not a logical shift. *)
  let t = Ctr.create ~key:(Bytes.of_string "0123456789abcdef") ~nonce:7L in
  let buf = Bytes.make 40 '\000' in
  Ctr.xcrypt t ~pos:(Int64.shift_left 0x80000000L 32) buf 0 40;
  check_hex "keystream"
    "db09a0273953ebd1c367f3099c64db6fbf9418671c914ca2aaffcf6ba07b3280a5972611d4e4af1a"
    (hex_of buf)

let test_ctr_unaligned_negative_rejected () =
  let t = Ctr.create ~key:(Bytes.of_string "0123456789abcdef") ~nonce:7L in
  Alcotest.check_raises "unaligned negative"
    (Invalid_argument "Ctr.xcrypt: unaligned negative position") (fun () ->
      Ctr.xcrypt t ~pos:(-3L) (Bytes.create 8) 0 8)

let test_ctr_roundtrip () =
  let key = Bytes.of_string "0123456789abcdef" in
  let msg = Bytes.of_string "counter mode over an odd-length message!" in
  let ct = Ctr.xcrypt_bytes ~key ~nonce:7L msg in
  Alcotest.(check bool) "ciphertext differs" false (Bytes.equal ct msg);
  let back = Ctr.xcrypt_bytes ~key ~nonce:7L ct in
  Alcotest.(check string) "roundtrip" (Bytes.to_string msg) (Bytes.to_string back)

let test_ctr_position_independence () =
  (* Decrypting a slice with its absolute position must match decrypting
     the whole stream: batches are processed out of order. *)
  let key = Bytes.of_string "0123456789abcdef" in
  let msg = Bytes.init 100 (fun i -> Char.chr (i land 0xFF)) in
  let whole = Bytes.copy msg in
  let t = Ctr.create ~key ~nonce:3L in
  Ctr.xcrypt t ~pos:0L whole 0 100;
  (* now decrypt bytes [37, 70) independently *)
  let slice = Bytes.sub whole 37 33 in
  let t2 = Ctr.create ~key ~nonce:3L in
  Ctr.xcrypt t2 ~pos:37L slice 0 33;
  Alcotest.(check string) "slice matches" (Bytes.to_string (Bytes.sub msg 37 33)) (Bytes.to_string slice)

let test_ctr_different_nonce_differs () =
  let key = Bytes.of_string "0123456789abcdef" in
  let msg = Bytes.make 32 'x' in
  let a = Ctr.xcrypt_bytes ~key ~nonce:1L msg in
  let b = Ctr.xcrypt_bytes ~key ~nonce:2L msg in
  Alcotest.(check bool) "nonces separate streams" false (Bytes.equal a b)

let prop_ctr_roundtrip =
  QCheck.Test.make ~name:"ctr roundtrip any length" ~count:200 QCheck.string (fun s ->
      let key = Bytes.of_string "0123456789abcdef" in
      let ct = Ctr.xcrypt_bytes ~key ~nonce:99L (Bytes.of_string s) in
      Bytes.to_string (Ctr.xcrypt_bytes ~key ~nonce:99L ct) = s)

(* --- SHA-256 ----------------------------------------------------------- *)

let test_sha256_vectors () =
  check_hex "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.digest_hex (Bytes.create 0));
  check_hex "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.digest_hex (Bytes.of_string "abc"));
  check_hex "two blocks"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.digest_hex (Bytes.of_string "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))

let test_sha256_million_a () =
  let ctx = Sha256.init () in
  let chunk = Bytes.make 1000 'a' in
  for _ = 1 to 1000 do
    Sha256.update ctx chunk 0 1000
  done;
  check_hex "million a" "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (hex_of (Sha256.finalize ctx))

let test_sha256_incremental_equals_oneshot () =
  let data = Bytes.init 300 (fun i -> Char.chr ((i * 7) land 0xFF)) in
  let ctx = Sha256.init () in
  Sha256.update ctx data 0 100;
  Sha256.update ctx data 100 1;
  Sha256.update ctx data 101 199;
  check_hex "incremental" (Sha256.digest_hex data) (hex_of (Sha256.finalize ctx))

let prop_sha256_length_invariance =
  QCheck.Test.make ~name:"sha256 split invariance" ~count:100
    (QCheck.pair QCheck.string QCheck.small_nat) (fun (s, k) ->
      let b = Bytes.of_string s in
      let n = Bytes.length b in
      let split = if n = 0 then 0 else k mod (n + 1) in
      let ctx = Sha256.init () in
      Sha256.update ctx b 0 split;
      Sha256.update ctx b split (n - split);
      Bytes.equal (Sha256.finalize ctx) (Sha256.digest b))

let test_sha256_concurrent_domains () =
  (* Two domains hashing at once must not share compression state. *)
  let buf seed = Bytes.init 65536 (fun i -> Char.chr ((i * seed) land 0xFF)) in
  let a = buf 7 and b = buf 13 in
  let da = Sha256.digest a and db = Sha256.digest b in
  let worker data want =
    Domain.spawn (fun () ->
        let wrong = ref 0 in
        for _ = 1 to 200 do
          if not (Bytes.equal (Sha256.digest data) want) then incr wrong
        done;
        !wrong)
  in
  let wa = worker a da and wb = worker b db in
  Alcotest.(check int) "domain a wrong digests" 0 (Domain.join wa);
  Alcotest.(check int) "domain b wrong digests" 0 (Domain.join wb)

(* --- HMAC -------------------------------------------------------------- *)

let test_hmac_rfc4231 () =
  (* RFC 4231 test cases 1 and 2. *)
  let tag1 = Hmac.mac ~key:(Bytes.make 20 '\x0b') (Bytes.of_string "Hi There") in
  check_hex "case 1" "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7" (hex_of tag1);
  let tag2 = Hmac.mac ~key:(Bytes.of_string "Jefe") (Bytes.of_string "what do ya want for nothing?") in
  check_hex "case 2" "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843" (hex_of tag2)

let test_hmac_long_key () =
  (* Keys longer than the block size are hashed first (RFC 4231 case 6). *)
  let tag =
    Hmac.mac ~key:(Bytes.make 131 '\xaa') (Bytes.of_string "Test Using Larger Than Block-Size Key - Hash Key First")
  in
  check_hex "case 6" "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54" (hex_of tag)

let test_hmac_verify () =
  let key = Bytes.of_string "k" in
  let msg = Bytes.of_string "message" in
  let tag = Hmac.mac ~key msg in
  Alcotest.(check bool) "accepts valid" true (Hmac.verify ~key ~tag msg);
  let bad = Bytes.copy tag in
  Bytes.set bad 5 (Char.chr (Char.code (Bytes.get bad 5) lxor 1));
  Alcotest.(check bool) "rejects flipped bit" false (Hmac.verify ~key ~tag:bad msg);
  Alcotest.(check bool) "rejects short tag" false (Hmac.verify ~key ~tag:(Bytes.create 4) msg)

(* --- RNG --------------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Rng.create ~seed:1L and b = Rng.create ~seed:1L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done;
  let c = Rng.create ~seed:2L in
  Alcotest.(check bool) "different seed differs" false
    (Int64.equal (Rng.next_int64 (Rng.create ~seed:1L)) (Rng.next_int64 c))

let test_rng_int_below_bounds () =
  let rng = Rng.create ~seed:5L in
  for _ = 1 to 10_000 do
    let v = Rng.int_below rng 17 in
    if v < 0 || v >= 17 then Alcotest.fail "int_below out of range"
  done

let test_rng_uniformity () =
  let rng = Rng.create ~seed:9L in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let i = Rng.int_below rng 10 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iter
    (fun c ->
      let expected = n / 10 in
      if abs (c - expected) > expected / 10 then
        Alcotest.failf "bucket count %d too far from %d" c expected)
    buckets

let test_rng_float_unit () =
  let rng = Rng.create ~seed:3L in
  for _ = 1 to 10_000 do
    let f = Rng.float_unit rng in
    if f < 0.0 || f >= 1.0 then Alcotest.fail "float_unit out of range"
  done

let test_rng_bytes_len () =
  let rng = Rng.create ~seed:4L in
  List.iter
    (fun n -> Alcotest.(check int) "length" n (Bytes.length (Rng.bytes rng n)))
    [ 0; 1; 7; 8; 9; 100 ]

let test_rng_shuffle_permutation () =
  let rng = Rng.create ~seed:6L in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle_in_place rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "crypto"
    [
      ( "aes",
        [
          Alcotest.test_case "fips c.1 vector" `Quick test_aes_fips_vector;
          Alcotest.test_case "fips appendix b" `Quick test_aes_appendix_b;
          Alcotest.test_case "offset io" `Quick test_aes_offset_io;
          Alcotest.test_case "bad key rejected" `Quick test_aes_bad_key;
          Alcotest.test_case "sp800-38a ecb vectors" `Quick test_aes_sp800_38a_ecb;
          q prop_aes_roundtrip;
        ] );
      ( "ctr",
        [
          Alcotest.test_case "roundtrip" `Quick test_ctr_roundtrip;
          Alcotest.test_case "position independence" `Quick test_ctr_position_independence;
          Alcotest.test_case "nonce separation" `Quick test_ctr_different_nonce_differs;
          q prop_ctr_roundtrip;
          q prop_ctr_matches_model;
          Alcotest.test_case "golden seq 2^31" `Quick test_ctr_golden_top_bit;
          Alcotest.test_case "unaligned negative rejected" `Quick
            test_ctr_unaligned_negative_rejected;
        ] );
      ( "sha256",
        [
          Alcotest.test_case "fips vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "million a" `Slow test_sha256_million_a;
          Alcotest.test_case "incremental" `Quick test_sha256_incremental_equals_oneshot;
          q prop_sha256_length_invariance;
          Alcotest.test_case "concurrent domains" `Quick test_sha256_concurrent_domains;
        ] );
      ( "hmac",
        [
          Alcotest.test_case "rfc4231 vectors" `Quick test_hmac_rfc4231;
          Alcotest.test_case "long key" `Quick test_hmac_long_key;
          Alcotest.test_case "verify" `Quick test_hmac_verify;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "int_below bounds" `Quick test_rng_int_below_bounds;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
          Alcotest.test_case "float_unit range" `Quick test_rng_float_unit;
          Alcotest.test_case "bytes length" `Quick test_rng_bytes_len;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
        ] );
    ]
