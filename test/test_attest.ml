(* Tests for the attestation stack: varints, Huffman, the audit
   record codec, columnar compression, the signed log, and — most
   importantly — the cloud verifier's replay, including every tampering
   scenario it must catch. *)

module Varint = Sbt_attest.Varint
module Huffman = Sbt_attest.Huffman
module Record = Sbt_attest.Record
module Columnar = Sbt_attest.Columnar
module Log = Sbt_attest.Log
module V = Sbt_attest.Verifier
module P = Sbt_prim.Primitive

(* --- varint ---------------------------------------------------------------- *)

let test_varint_edges () =
  let roundtrip v =
    let b = Buffer.create 16 in
    Varint.write_signed b v;
    let pos = ref 0 in
    Varint.read_signed (Buffer.to_bytes b) pos
  in
  List.iter
    (fun v -> Alcotest.(check int64) (Int64.to_string v) v (roundtrip v))
    [ 0L; 1L; -1L; 127L; -128L; 300L; Int64.max_int; Int64.min_int ]

let test_varint_compactness () =
  (* Small deltas are single bytes — that is the point of delta coding. *)
  let b = Buffer.create 16 in
  Varint.write_signed b 3L;
  Alcotest.(check int) "one byte" 1 (Buffer.length b)

let prop_varint_roundtrip =
  QCheck.Test.make ~name:"varint signed roundtrip" ~count:500 QCheck.int64 (fun v ->
      let b = Buffer.create 16 in
      Varint.write_signed b v;
      let pos = ref 0 in
      Int64.equal (Varint.read_signed (Buffer.to_bytes b) pos) v)

let prop_put_unsigned =
  QCheck.Test.make ~name:"put_unsigned = write_unsigned" ~count:500
    QCheck.(map (fun v -> v land max_int) int)
    (fun v ->
      let b = Buffer.create 16 in
      Varint.write_unsigned b (Int64.of_int v);
      let out = Bytes.make 12 '\000' in
      let stop = Varint.put_unsigned out 0 v in
      stop = Varint.unsigned_size v && Bytes.sub out 0 stop = Buffer.to_bytes b)

let test_zigzag () =
  Alcotest.(check int64) "zigzag 0" 0L (Varint.zigzag 0L);
  Alcotest.(check int64) "zigzag -1" 1L (Varint.zigzag (-1L));
  Alcotest.(check int64) "zigzag 1" 2L (Varint.zigzag 1L);
  Alcotest.(check int64) "unzigzag inverse" (-42L) (Varint.unzigzag (Varint.zigzag (-42L)))

(* --- huffman ---------------------------------------------------------------- *)

let test_huffman_roundtrips () =
  let cases =
    [
      Bytes.create 0;
      Bytes.of_string "a";
      Bytes.of_string "aaaaaaaaaa";
      Bytes.of_string "abracadabra alakazam";
      Bytes.init 1000 (fun i -> Char.chr (i land 0xFF));
    ]
  in
  List.iter
    (fun b ->
      let d = Huffman.decode (Huffman.encode b) in
      Alcotest.(check string) "roundtrip" (Bytes.to_string b) (Bytes.to_string d))
    cases

let test_huffman_compresses_skew () =
  (* A heavily skewed stream (like the audit op column) must shrink. *)
  let b = Bytes.init 4000 (fun i -> if i mod 50 = 0 then 'x' else 'a') in
  let c = Huffman.encode b in
  Alcotest.(check bool) "smaller" true (Bytes.length c < Bytes.length b / 4)

let prop_huffman_roundtrip =
  QCheck.Test.make ~name:"huffman roundtrip" ~count:200 QCheck.string (fun s ->
      Bytes.to_string (Huffman.decode (Huffman.encode (Bytes.of_string s))) = s)

let hex b = String.concat "" (List.map (Printf.sprintf "%02x") (List.map Char.code (List.of_seq (Bytes.to_seq b))))
let sha_hex b = hex (Sbt_crypto.Sha256.digest b)

(* Symbol [s] appears fib(s) times: code lengths up to 19 bits. *)
let fibonacci_input () =
  let fib = Array.make 21 1 in
  for i = 2 to 20 do
    fib.(i) <- fib.(i - 1) + fib.(i - 2)
  done;
  Bytes.of_string (String.concat "" (List.init 20 (fun s -> String.make fib.(s) (Char.chr (s * 3)))))

(* Blocks recorded from the original encoder (a tuple heap over all 256
   symbols, codes written a bit at a time).  Audit batches are MACed over
   these bytes, so an encoder change must reproduce them exactly. *)
let test_huffman_golden () =
  let short name input expected =
    Alcotest.(check string) name expected (hex (Huffman.encode input))
  in
  let long name input len digest =
    let e = Huffman.encode input in
    Alcotest.(check int) (name ^ " length") len (Bytes.length e);
    Alcotest.(check string) (name ^ " sha256") digest (sha_hex e);
    Alcotest.(check string) (name ^ " roundtrip") (Bytes.to_string input)
      (Bytes.to_string (Huffman.decode e))
  in
  (* weights 4,4,4,4,4,2,2,2,2: merged pairs tie with leaves *)
  short "weight ties" (Bytes.of_string "aaaabbbbccccddddeeeeffgghh")
    "1a0861026203630364036503660467036804004926db924b6deedbfc";
  short "single symbol" (Bytes.make 37 'z') "25017a010000000000";
  long "dense 256" (Bytes.init 1000 (fun i -> Char.chr ((i * 7) land 0xFF))) 1259
    "5c2e8c9ea759b55e94375876b7813bec737340f6b8ac6501dc413d64fb31b667";
  long "dense 200" (Bytes.init 600 (fun i -> Char.chr (i mod 200))) 838
    "78f570cd5f357aa968fca0f896e866844ac7d4fddd4204ec62aa202978aa625a";
  long "fibonacci" (fibonacci_input ()) 5837
    "c47aa654700bd901d80f24d2886d282c3ba6d6e69812622f07daa24f0ac36cbf"

(* The original encoder, kept as the model: every input must encode to
   the same block. *)
let reference_encode data =
  let n = Bytes.length data in
  let out = Buffer.create 64 in
  Varint.write_unsigned out (Int64.of_int n);
  if n > 0 then begin
    let freqs = Array.make 256 0 in
    Bytes.iter (fun c -> freqs.(Char.code c) <- freqs.(Char.code c) + 1) data;
    let heap = ref [||] and size = ref 0 in
    let swap i j =
      let t = !heap.(i) in
      !heap.(i) <- !heap.(j);
      !heap.(j) <- t
    in
    let push x =
      if !size = Array.length !heap then heap := Array.append !heap (Array.make (max 1 !size) (0, 0));
      !heap.(!size) <- x;
      let i = ref !size in
      incr size;
      while !i > 0 && fst !heap.((!i - 1) / 2) > fst !heap.(!i) do
        swap ((!i - 1) / 2) !i;
        i := (!i - 1) / 2
      done
    in
    let pop () =
      let top = !heap.(0) in
      decr size;
      !heap.(0) <- !heap.(!size);
      let i = ref 0 and go = ref true in
      while !go do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 and m = ref !i in
        if l < !size && fst !heap.(l) < fst !heap.(!m) then m := l;
        if r < !size && fst !heap.(r) < fst !heap.(!m) then m := r;
        if !m = !i then go := false else (swap !i !m; i := !m)
      done;
      top
    in
    Array.iteri (fun s f -> if f > 0 then push (f, s)) freqs;
    let lengths = Array.make 256 0 in
    if !size = 1 then lengths.(snd (pop ())) <- 1
    else begin
      let parent = Array.make 512 (-1) and next = ref 256 in
      while !size > 1 do
        let fa, a = pop () in
        let fb, b = pop () in
        parent.(a) <- !next;
        parent.(b) <- !next;
        push (fa + fb, !next);
        incr next
      done;
      Array.iteri
        (fun s f ->
          if f > 0 then begin
            let d = ref 0 and x = ref s in
            while parent.(!x) >= 0 do
              incr d;
              x := parent.(!x)
            done;
            lengths.(s) <- !d
          end)
        freqs
    end;
    let max_len = Array.fold_left max 0 lengths in
    let next_code = Array.make (max_len + 2) 0 and code = ref 0 in
    for bits = 1 to max_len do
      let count = Array.fold_left (fun a l -> if l = bits - 1 && l > 0 then a + 1 else a) 0 lengths in
      code := (!code + count) lsl 1;
      next_code.(bits) <- !code
    done;
    let codes = Array.make 256 0 in
    Array.iteri
      (fun s l ->
        if l > 0 then begin
          codes.(s) <- next_code.(l);
          next_code.(l) <- next_code.(l) + 1
        end)
      lengths;
    let distinct = Array.fold_left (fun a l -> if l > 0 then a + 1 else a) 0 lengths in
    if distinct < 128 then begin
      Buffer.add_char out (Char.chr distinct);
      Array.iteri
        (fun s l -> if l > 0 then (Buffer.add_char out (Char.chr s); Buffer.add_char out (Char.chr l)))
        lengths
    end
    else begin
      Buffer.add_char out '\xFF';
      Array.iter (fun l -> Buffer.add_char out (Char.chr l)) lengths
    end;
    let acc = ref 0 and used = ref 0 in
    Bytes.iter
      (fun c ->
        let s = Char.code c in
        for i = lengths.(s) - 1 downto 0 do
          acc := (!acc lsl 1) lor ((codes.(s) lsr i) land 1);
          incr used;
          if !used = 8 then (Buffer.add_char out (Char.chr !acc); acc := 0; used := 0)
        done)
      data;
    if !used > 0 then Buffer.add_char out (Char.chr (!acc lsl (8 - !used)))
  end;
  Buffer.to_bytes out

(* Skewed byte strings over alphabets from 1 to 256 symbols. *)
let skewed_bytes =
  QCheck.make
    ~print:(fun b -> hex b)
    QCheck.Gen.(
      int_range 1 256 >>= fun alphabet ->
      int_range 0 3000 >>= fun n ->
      list_repeat n (map (fun x -> x * x / alphabet) (int_bound (alphabet - 1)))
      >|= fun syms -> Bytes.of_string (String.concat "" (List.map (fun s -> String.make 1 (Char.chr (s land 0xFF))) syms)))

let prop_huffman_matches_reference =
  QCheck.Test.make ~name:"huffman encode = original encoder" ~count:300 skewed_bytes (fun b ->
      Bytes.equal (Huffman.encode b) (reference_encode b) && Bytes.equal (Huffman.decode (Huffman.encode b)) b)

let test_huffman_sub_ranges () =
  let b = Bytes.of_string "xxabracadabrayy" in
  let e = Huffman.encode_sub b ~pos:2 ~len:11 in
  Alcotest.(check string) "encode_sub = encode of the copy" (hex (Huffman.encode (Bytes.of_string "abracadabra"))) (hex e);
  let framed = Bytes.cat (Bytes.of_string "!!") (Bytes.cat e (Bytes.of_string "??")) in
  Alcotest.(check string) "decode_sub" "abracadabra"
    (Bytes.to_string (Huffman.decode_sub framed ~pos:2 ~len:(Bytes.length e)))

let test_huffman_refuses_oversubscribed_table () =
  (* Three one-bit codes cannot all exist. *)
  Alcotest.check_raises "three 1-bit codes" (Invalid_argument "Huffman.decode: over-subscribed table")
    (fun () -> ignore (Huffman.decode (Bytes.of_string "\001\003a\001b\001c\001\000")))

let test_huffman_refuses_overlong_count () =
  (* 2^40 symbols declared over a one-byte payload: refused before any
     allocation. *)
  let b = Buffer.create 16 in
  Varint.write_unsigned b (Int64.shift_left 1L 40);
  Buffer.add_string b "\001a\001\000";
  Alcotest.check_raises "count above the bits present"
    (Invalid_argument "Huffman.decode: count exceeds the payload") (fun () ->
      ignore (Huffman.decode (Buffer.to_bytes b)))

(* --- record codec ------------------------------------------------------------ *)

let sample_records =
  [
    Record.Ingress { ts = 10; uarray = 0; stream = 0; seq = 0 };
    Record.Gap
      { ts = 11; stream = 0; seq = 1; events = 500; windows = [ 0; 1 ]; reason = Record.Link_loss };
    Record.Windowing { ts = 12; data_in = 0; win_no = 0; data_out = 1 };
    Record.Windowing { ts = 12; data_in = 0; win_no = 1; data_out = 2 };
    Record.Execution { ts = 15; op = P.to_id P.Sort; inputs = [ 1 ]; outputs = [ 3 ]; hints = [ 77L ] };
    Record.Ingress_watermark { ts = 20; id = 1_000_000_000; value = 1000 };
    Record.Execution
      { ts = 25; op = P.to_id P.Sum; inputs = [ 3; 1_000_000_000 ]; outputs = [ 4 ]; hints = [] };
    Record.Egress { ts = 30; uarray = 4; win_no = 0 };
  ]

let test_record_row_roundtrip () =
  let b = Record.encode_all sample_records in
  let back = Record.decode_all b in
  Alcotest.(check int) "count" (List.length sample_records) (List.length back);
  Alcotest.(check bool) "identical" true (back = sample_records)

let test_record_bad_tag () =
  let pos = ref 0 in
  Alcotest.check_raises "bad tag" (Invalid_argument "Record.decode_row: bad tag 200") (fun () ->
      ignore (Record.decode_row (Bytes.make 20 '\xc8') pos))

let test_record_ts () =
  Alcotest.(check int) "ts of egress" 30 (Record.ts_of (Record.Egress { ts = 30; uarray = 1; win_no = 0 }))

(* Every record kind, with list and blob lengths from empty upward. *)
let any_record =
  let open QCheck.Gen in
  let id = int_bound 1_000_000 and small = int_bound 65_535 in
  let ids k = list_size (int_bound k) id in
  let hints = list_size (int_bound 3) (map Int64.of_int (int_bound max_int)) in
  let blob = map Bytes.of_string (string_size (int_bound 40)) in
  let reason = oneofl Record.[ Link_loss; Corrupt_ingress; Smc_unavailable; Pool_pressure ] in
  int_bound 9 >>= fun kind ->
  id >>= fun ts ->
  match kind with
  | 0 -> map3 (fun uarray stream seq -> Record.Ingress { ts; uarray; stream; seq }) id small id
  | 1 -> map2 (fun id value -> Record.Ingress_watermark { ts; id; value }) id id
  | 2 ->
      map3 (fun data_in win_no data_out -> Record.Windowing { ts; data_in; win_no; data_out }) id small id
  | 3 ->
      map3
        (fun (op, inputs) outputs hints -> Record.Execution { ts; op; inputs; outputs; hints })
        (pair (int_bound 120) (ids 5)) (ids 3) hints
  | 4 -> map2 (fun uarray win_no -> Record.Egress { ts; uarray; win_no }) id small
  | 5 ->
      map3
        (fun (stream, seq) (events, windows) reason -> Record.Gap { ts; stream; seq; events; windows; reason })
        (pair small id) (pair id (ids 4)) reason
  | 6 -> map2 (fun seq watermark -> Record.Checkpoint { ts; seq; watermark }) id id
  | 7 ->
      map3
        (fun (ops, params) (chain, inputs) (outputs, hints) ->
          Record.Fused { ts; ops; params; chain; inputs; outputs; hints })
        (pair (list_size (int_bound 6) (int_bound 120)) blob)
        (pair blob (ids 4))
        (pair (ids 3) hints)
  | 8 -> map3 (fun uarray win_no events -> Record.Late_drop { ts; uarray; win_no; events }) id small id
  | _ -> map3 (fun uarray win_no gen -> Record.Correction { ts; uarray; win_no; gen }) id small small

let arb_record = QCheck.make ~print:(Format.asprintf "%a" Record.pp) any_record

let prop_record_encoded_size =
  QCheck.Test.make ~name:"encoded_size = row bytes, every kind" ~count:2000 arb_record (fun r ->
      Record.encoded_size r = Bytes.length (Record.encode_all [ r ]) - 1)

(* --- columnar ----------------------------------------------------------------- *)

let synthetic_stream n =
  (* A realistic stream: monotonically increasing ids and timestamps,
     skewed ops - exactly what the columnar coder exploits. *)
  let records = ref [] in
  let id = ref 0 in
  let fresh () = incr id; !id in
  for w = 0 to (n / 4) - 1 do
    let batch = fresh () in
    records := Record.Ingress { ts = (w * 40) + 1; uarray = batch; stream = 0; seq = w } :: !records;
    let seg = fresh () in
    records := Record.Windowing { ts = (w * 40) + 5; data_in = batch; win_no = w; data_out = seg } :: !records;
    let sorted = fresh () in
    records :=
      Record.Execution
        { ts = (w * 40) + 9; op = P.to_id P.Sort; inputs = [ seg ]; outputs = [ sorted ]; hints = [] }
      :: !records;
    records := Record.Egress { ts = (w * 40) + 20; uarray = sorted; win_no = w } :: !records
  done;
  List.rev !records

let test_columnar_roundtrip () =
  let records = synthetic_stream 400 in
  let back = Columnar.decompress (Columnar.compress records) in
  Alcotest.(check bool) "identical" true (back = records)

let test_columnar_roundtrip_sample () =
  let back = Columnar.decompress (Columnar.compress sample_records) in
  Alcotest.(check bool) "identical" true (back = sample_records)

let test_columnar_ratio () =
  (* The paper reports 5x-6.7x on real streams; demand at least 4x on the
     synthetic stream. *)
  let records = synthetic_stream 1000 in
  let r = Columnar.ratio records in
  Alcotest.(check bool) (Printf.sprintf "ratio %.2f >= 4" r) true (r >= 4.0)

let test_columnar_empty () =
  Alcotest.(check bool) "empty" true (Columnar.decompress (Columnar.compress []) = [])

(* Property: the columnar codec is an exact inverse on arbitrary
   well-formed record streams (random ids, timestamps, ops, arities and
   hints - not just the friendly monotonic case). *)
let prop_columnar_roundtrip_random =
  QCheck.Test.make ~name:"columnar roundtrip on random streams" ~count:60
    QCheck.(small_list (pair (int_bound 4) (int_bound 1_000_000)))
    (fun seeds ->
      let rng = Sbt_crypto.Rng.create ~seed:17L in
      let rand_int bound = Sbt_crypto.Rng.int_below rng (max 1 bound) in
      let records =
        List.map
          (fun (kind, salt) ->
            let ts = salt land 0xFFFFF in
            match kind with
            | 0 ->
                Record.Ingress
                  { ts; uarray = rand_int 1_000_000; stream = rand_int 8; seq = rand_int 100_000 }
            | 1 -> Record.Ingress_watermark { ts; id = rand_int 1_000_000; value = salt }
            | 2 ->
                Record.Windowing
                  { ts; data_in = rand_int 100_000; win_no = rand_int 65_000; data_out = rand_int 100_000 }
            | 3 ->
                Record.Execution
                  {
                    ts;
                    op = rand_int 120;
                    inputs = List.init (rand_int 5) (fun _ -> rand_int 1_000_000);
                    outputs = List.init (rand_int 3) (fun _ -> rand_int 1_000_000);
                    hints =
                      List.init (rand_int 2) (fun _ ->
                          Int64.logor
                            (Int64.shift_left (Int64.of_int (rand_int 1_000_000)) 32)
                            (Int64.of_int (rand_int 1_000_000)));
                  }
            | _ -> Record.Egress { ts; uarray = rand_int 1_000_000; win_no = rand_int 65_000 })
          seeds
      in
      Columnar.decompress (Columnar.compress records) = records)

(* Recorded from the original column coder (see [test_huffman_golden]). *)
let test_columnar_golden () =
  Alcotest.(check string) "sample batch"
    ("081108060003010302020302040305039c1ae00f08050004020206030a011404faec0007020200010901400a08"
   ^ "03000201010202b1a0180e08000402020703a703b903d603f703fa04e03dd8b3b1001a0e090003020304040703"
   ^ "a703b903d603f703fa0400f7bb167620090503000201010202b60704020701e801a0090303000201019a02b005"
   ^ "020100010007020200010201400100")
    (hex (Columnar.compress sample_records));
  Alcotest.(check int) "raw size" 151 (Columnar.raw_size sample_records);
  Alcotest.(check int) "raw size = row encoding" (Bytes.length (Record.encode_all sample_records))
    (Columnar.raw_size sample_records)

let prop_raw_size =
  QCheck.Test.make ~name:"raw_size = encode_all length" ~count:200
    QCheck.(small_list arb_record)
    (fun records -> Columnar.raw_size records = Bytes.length (Record.encode_all records))

let prop_columnar_roundtrip_all_kinds =
  QCheck.Test.make ~name:"columnar roundtrip, every kind" ~count:200
    QCheck.(small_list arb_record)
    (fun records -> Columnar.decompress (Columnar.compress records) = records)

(* Decoders are total: a value or [Invalid_argument], never another
   exception ([End_of_file], [Out_of_memory], ...). *)
let total f b =
  match f b with _ -> true | exception Invalid_argument _ -> true

let prop_decoders_total_random =
  QCheck.Test.make ~name:"decoders total on random bytes" ~count:20_000
    QCheck.(string_of_size Gen.(int_bound 64))
    (fun s ->
      let b = Bytes.of_string s in
      total Columnar.decompress b && total Huffman.decode b)

let prop_decompress_total_mutated =
  QCheck.Test.make ~name:"decompress total on one-byte mutations" ~count:2000
    QCheck.(triple (small_list arb_record) small_nat (int_range 1 255))
    (fun (records, at, x) ->
      let b = Columnar.compress (sample_records @ records) in
      let i = at mod Bytes.length b in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor x));
      total Columnar.decompress b)

let test_columnar_count_mismatch () =
  (* A record count that disagrees with the tags column is refused before
     any record list is built. *)
  let b = Columnar.compress sample_records in
  Bytes.set b 0 '\x7f';
  Alcotest.check_raises "count"
    (Invalid_argument "Columnar.decompress: record count differs from the tags column") (fun () ->
      ignore (Columnar.decompress b))

(* --- log ------------------------------------------------------------------------ *)

let key = Bytes.of_string "0123456789abcdef"

let test_log_flush_and_open () =
  let log = Log.create ~key ~flush_every:1000 in
  List.iter (fun r -> ignore (Log.append log r)) sample_records;
  match Log.flush log with
  | None -> Alcotest.fail "expected a batch"
  | Some b ->
      Alcotest.(check int) "seq 0" 0 b.Log.seq;
      let back = Log.open_batch ~key b in
      Alcotest.(check bool) "records survive" true (back = sample_records);
      Alcotest.(check bool) "second flush empty" true (Log.flush log = None)

let test_log_auto_flush () =
  let log = Log.create ~key ~flush_every:3 in
  let r = Record.Ingress { ts = 1; uarray = 1; stream = 0; seq = 0 } in
  Alcotest.(check bool) "no flush yet" true (Log.append log r = None);
  ignore (Log.append log r);
  (match Log.append log r with
  | Some b -> Alcotest.(check int) "3 records" 3 (List.length (Log.open_batch ~key b))
  | None -> Alcotest.fail "expected auto flush");
  Alcotest.(check int) "records counted" 3 (Log.records_produced log)

let test_log_tamper_detected () =
  let log = Log.create ~key ~flush_every:1000 in
  List.iter (fun r -> ignore (Log.append log r)) sample_records;
  match Log.flush log with
  | None -> Alcotest.fail "expected a batch"
  | Some b ->
      let tampered = Bytes.copy b.Log.payload in
      Bytes.set tampered (Bytes.length tampered - 1)
        (Char.chr (Char.code (Bytes.get tampered (Bytes.length tampered - 1)) lxor 1));
      Alcotest.check_raises "bad mac" (Invalid_argument "Log.open_batch: MAC verification failed")
        (fun () -> ignore (Log.open_batch ~key { b with Log.payload = tampered }));
      (* Replaying a batch under a different sequence number also fails. *)
      Alcotest.check_raises "seq mismatch" (Invalid_argument "Log.open_batch: sequence number mismatch")
        (fun () -> ignore (Log.open_batch ~key { b with Log.seq = 5 }))

let test_log_wrong_key () =
  let log = Log.create ~key ~flush_every:1000 in
  ignore (Log.append log (Record.Ingress { ts = 1; uarray = 1; stream = 0; seq = 0 }));
  match Log.flush log with
  | None -> Alcotest.fail "expected a batch"
  | Some b ->
      Alcotest.check_raises "wrong key" (Invalid_argument "Log.open_batch: MAC verification failed")
        (fun () -> ignore (Log.open_batch ~key:(Bytes.make 16 'z') b))

(* --- verifier ---------------------------------------------------------------------- *)

(* A well-formed single-window run for a [Sort] batch-stage + [Sum] window
   pipeline, mirroring Listing 1 of the paper. *)
let spec =
  {
    V.batch_ops = [ P.to_id P.Sort ];
    window_ops = [ P.to_id P.Sum ];
    window_size = 1000;
    window_slide = 1000;
    freshness_bound = None;
    late_policy = 0;
    session_gap = None;
  }

let wm_id = 1_000_000_000

let good_run =
  [
    Record.Ingress { ts = 1; uarray = 0; stream = 0; seq = 0 };
    Record.Windowing { ts = 5; data_in = 0; win_no = 0; data_out = 1 };
    Record.Execution { ts = 10; op = P.to_id P.Sort; inputs = [ 1 ]; outputs = [ 3 ]; hints = [] };
    Record.Ingress_watermark { ts = 15; id = wm_id; value = 1000 };
    Record.Execution { ts = 25; op = P.to_id P.Sum; inputs = [ 3; wm_id ]; outputs = [ 5 ]; hints = [] };
    Record.Egress { ts = 30; uarray = 5; win_no = 0 };
  ]

let check_ok records =
  let r = V.verify spec records in
  if not (V.ok r) then
    Alcotest.failf "expected clean replay, got: %s"
      (Format.asprintf "%a" V.pp_report r)

let check_violation name pred records =
  let r = V.verify spec records in
  if V.ok r then Alcotest.failf "%s: expected a violation" name;
  if not (List.exists pred r.V.violations) then
    Alcotest.failf "%s: wrong violation kind: %s" name (Format.asprintf "%a" V.pp_report r)

let test_verifier_accepts_good_run () =
  check_ok good_run;
  let r = V.verify spec good_run in
  Alcotest.(check int) "one window" 1 r.V.windows_verified;
  Alcotest.(check int) "delay 15" 15 r.V.max_delay

let test_verifier_freshness () =
  let strict = { spec with V.freshness_bound = Some 10 } in
  let r = V.verify strict good_run in
  Alcotest.(check bool) "stale flagged" true
    (List.exists (function V.Stale_result { delay = 15; bound = 10; _ } -> true | _ -> false)
       r.V.violations);
  let loose = { spec with V.freshness_bound = Some 20 } in
  Alcotest.(check bool) "within bound ok" true (V.ok (V.verify loose good_run))

let test_verifier_detects_dropped_execution () =
  (* Control plane skips the Sort on the segment: window data unprocessed. *)
  let records =
    List.filter
      (function Record.Execution { op; _ } -> op <> P.to_id P.Sort | _ -> true)
      good_run
  in
  (* The Sum now references an id never produced. *)
  check_violation "dropped exec" (function V.Unknown_uarray _ -> true | _ -> false) records

let test_verifier_detects_unprocessed_window () =
  (* Sort happens but the window phase never consumes the run. *)
  let records =
    List.filter
      (function
        | Record.Execution { op; _ } when op = P.to_id P.Sum -> false
        | Record.Egress _ -> false
        | _ -> true)
      good_run
  in
  check_violation "missing egress" (function V.Missing_egress { window = 0 } -> true | _ -> false)
    records

let test_verifier_detects_wrong_op () =
  (* The control plane executes Count where the pipeline declares Sum. *)
  let records =
    List.map
      (function
        | Record.Execution { ts; op; inputs; outputs; hints } when op = P.to_id P.Sum ->
            Record.Execution { ts; op = P.to_id P.Count; inputs; outputs; hints }
        | r -> r)
      good_run
  in
  check_violation "wrong op" (function V.Window_ops_mismatch _ -> true | _ -> false) records

let test_verifier_detects_fabricated_flow () =
  let records =
    good_run
    @ [
        Record.Execution
          { ts = 40; op = P.to_id P.Sum; inputs = [ 999 ]; outputs = [ 1000 ]; hints = [] };
      ]
  in
  check_violation "fabricated" (function V.Unknown_uarray { id = 999; _ } -> true | _ -> false)
    records

let test_verifier_detects_duplicate_egress () =
  let records = good_run @ [ Record.Egress { ts = 35; uarray = 5; win_no = 0 } ] in
  check_violation "duplicate egress"
    (function V.Egress_of_non_result _ | V.Duplicate_egress _ -> true | _ -> false)
    records

let test_verifier_detects_unwindowed_batch () =
  let records = good_run @ [ Record.Ingress { ts = 50; uarray = 50; stream = 0; seq = 1 } ] in
  (* An ingested batch that never went through Windowing: data dropped. *)
  check_violation "unprocessed batch" (function V.Unprocessed_batch { id = 50 } -> true | _ -> false)
    records

let test_verifier_detects_watermark_regression () =
  let records =
    good_run @ [ Record.Ingress_watermark { ts = 60; id = wm_id + 1; value = 500 } ]
  in
  check_violation "regression" (function V.Watermark_regression _ -> true | _ -> false) records

let test_verifier_detects_double_consumption () =
  (* The same sorted run feeds two different windows' Sums: replayed as a
     second consumption of a consumed segment. *)
  let records =
    good_run
    @ [
        Record.Execution
          { ts = 70; op = P.to_id P.Sort; inputs = [ 1 ]; outputs = [ 9 ]; hints = [] };
      ]
  in
  check_violation "double consumption" (function V.Double_consumption _ -> true | _ -> false) records

let test_verifier_unprocessed_ready_data () =
  (* Two batches windowed; only one sorted run consumed by the Sum. *)
  let records =
    [
      Record.Ingress { ts = 1; uarray = 0; stream = 0; seq = 0 };
      Record.Windowing { ts = 2; data_in = 0; win_no = 0; data_out = 1 };
      Record.Ingress { ts = 3; uarray = 10; stream = 0; seq = 1 };
      Record.Windowing { ts = 4; data_in = 10; win_no = 0; data_out = 11 };
      Record.Execution { ts = 5; op = P.to_id P.Sort; inputs = [ 1 ]; outputs = [ 3 ]; hints = [] };
      Record.Execution { ts = 6; op = P.to_id P.Sort; inputs = [ 11 ]; outputs = [ 13 ]; hints = [] };
      Record.Ingress_watermark { ts = 7; id = wm_id; value = 1000 };
      Record.Execution { ts = 8; op = P.to_id P.Sum; inputs = [ 3; wm_id ]; outputs = [ 5 ]; hints = [] };
      Record.Egress { ts = 9; uarray = 5; win_no = 0 };
    ]
  in
  check_violation "partial data" (function V.Unprocessed_window_data { window = 0; _ } -> true | _ -> false)
    records

let test_verifier_misleading_hints () =
  (* Hint says 13 is consumed after 3, but 13 is consumed first. *)
  let hint = Int64.logor (Int64.shift_left (Int64.of_int 3) 32) (Int64.of_int 13) in
  let records =
    [
      Record.Ingress { ts = 1; uarray = 0; stream = 0; seq = 0 };
      Record.Windowing { ts = 2; data_in = 0; win_no = 0; data_out = 1 };
      Record.Ingress { ts = 3; uarray = 10; stream = 0; seq = 1 };
      Record.Windowing { ts = 4; data_in = 10; win_no = 0; data_out = 11 };
      Record.Execution { ts = 5; op = P.to_id P.Sort; inputs = [ 1 ]; outputs = [ 3 ]; hints = [] };
      Record.Execution { ts = 6; op = P.to_id P.Sort; inputs = [ 11 ]; outputs = [ 13 ]; hints = [ hint ] };
      Record.Ingress_watermark { ts = 7; id = wm_id; value = 1000 };
      (* consume 13 strictly before 3 *)
      Record.Execution { ts = 8; op = P.to_id P.Sum; inputs = [ 13; wm_id ]; outputs = [ 5 ]; hints = [] };
      Record.Execution { ts = 9; op = P.to_id P.Sum; inputs = [ 3 ]; outputs = [ 6 ]; hints = [] };
      Record.Egress { ts = 10; uarray = 5; win_no = 0 };
    ]
  in
  let r = V.verify { spec with V.window_ops = [ P.to_id P.Sum; P.to_id P.Sum ] } records in
  Alcotest.(check int) "one misleading hint" 1 r.V.misleading_hints;
  (* Misleading hints are warnings, not violations (paper §6.2). *)
  Alcotest.(check bool) "still correct" true (V.ok r)

let test_verifier_empty_windows_ok () =
  (* Windows the records never mention carry no obligations: the replay
     cannot (and per the stream model, must not) distinguish an empty
     window from one that never existed.  Under a halved declared window
     size, the same records cover window 0 only; window 1 is empty and
     the replay still accepts. *)
  let halved = { spec with V.window_size = 500; window_slide = 500 } in
  let r = V.verify halved good_run in
  Alcotest.(check bool) "empty windows carry no obligations" true (V.ok r);
  Alcotest.(check int) "only the populated window verified" 1 r.V.windows_verified

let test_verifier_open_window_not_flagged () =
  (* No watermark yet: nothing to verify, nothing to flag. *)
  let records =
    [
      Record.Ingress { ts = 1; uarray = 0; stream = 0; seq = 0 };
      Record.Windowing { ts = 5; data_in = 0; win_no = 0; data_out = 1 };
      Record.Execution { ts = 10; op = P.to_id P.Sort; inputs = [ 1 ]; outputs = [ 3 ]; hints = [] };
    ]
  in
  let r = V.verify spec records in
  Alcotest.(check bool) "ok" true (V.ok r);
  Alcotest.(check int) "no windows verified" 0 r.V.windows_verified

(* --- composite (fused) records ----------------------------------------------- *)

(* A run whose three batch stages execute as one fused super-kernel: one
   composite audit record claims the whole Filter∘Project∘Select chain.
   The verifier must replay it as the equivalent unfused sequence and
   reject forged compositions. *)
module F = Sbt_prim.Fused

let fused_steps =
  [
    F.F_filter_band { field = 1; lo = 0l; hi = 100l };
    F.F_project { fields = [| 0; 1; 2 |] };
    F.F_select { field = 0; value = 5l };
  ]

let fused_ops = List.map (fun s -> P.to_id (F.step_op s)) fused_steps
let fused_params = F.encode_steps fused_steps

let spec_fused =
  {
    V.batch_ops = fused_ops;
    window_ops = [ P.to_id P.Sum ];
    window_size = 1000;
    window_slide = 1000;
    freshness_bound = None;
    late_policy = 0;
    session_gap = None;
  }

let fused_record ?(ops = fused_ops) ?(params = fused_params) ?chain () =
  let chain = match chain with Some c -> c | None -> Record.chain_hash ~ops ~params in
  Record.Fused { ts = 10; ops; params; chain; inputs = [ 1 ]; outputs = [ 3 ]; hints = [] }

let fused_run fused =
  [
    Record.Ingress { ts = 1; uarray = 0; stream = 0; seq = 0 };
    Record.Windowing { ts = 5; data_in = 0; win_no = 0; data_out = 1 };
    fused;
    Record.Ingress_watermark { ts = 15; id = wm_id; value = 1000 };
    Record.Execution { ts = 25; op = P.to_id P.Sum; inputs = [ 3; wm_id ]; outputs = [ 5 ]; hints = [] };
    Record.Egress { ts = 30; uarray = 5; win_no = 0 };
  ]

let check_fused_violation name pred records =
  let r = V.verify spec_fused records in
  if V.ok r then Alcotest.failf "%s: expected a violation" name;
  if not (List.exists pred r.V.violations) then
    Alcotest.failf "%s: wrong violation kind: %s" name (Format.asprintf "%a" V.pp_report r)

let test_verifier_accepts_fused_run () =
  let r = V.verify spec_fused (fused_run (fused_record ())) in
  if not (V.ok r) then
    Alcotest.failf "expected clean replay, got: %s" (Format.asprintf "%a" V.pp_report r);
  Alcotest.(check int) "one window" 1 r.V.windows_verified

let test_verifier_fused_tampered_chain () =
  (* Flip one byte of the chain hash: the commitment no longer matches
     the claimed ops/params. *)
  let chain = Record.chain_hash ~ops:fused_ops ~params:fused_params in
  Bytes.set chain 0 (Char.chr (Char.code (Bytes.get chain 0) lxor 0x01));
  check_fused_violation "tampered chain"
    (function V.Fused_chain_mismatch _ -> true | _ -> false)
    (fused_run (fused_record ~chain ()))

let test_verifier_fused_non_fusable_op () =
  (* A Sort smuggled into the composite chain, with an honest hash over
     the forged ops: the type gate must flag the op itself. *)
  let ops = [ List.nth fused_ops 0; P.to_id P.Sort; List.nth fused_ops 2 ] in
  check_fused_violation "non-fusable op"
    (function V.Fused_non_fusable { op; _ } -> op = P.to_id P.Sort | _ -> false)
    (fused_run (fused_record ~ops ()))

let test_verifier_fused_reordered_chain () =
  (* Internally consistent forgery — ops, params and chain all agree —
     but the chain runs Project before Filter, against the declared
     stage order.  Only the replay against the spec catches it. *)
  let steps = [ List.nth fused_steps 1; List.nth fused_steps 0; List.nth fused_steps 2 ] in
  let ops = List.map (fun s -> P.to_id (F.step_op s)) steps in
  let params = F.encode_steps steps in
  check_fused_violation "reordered chain"
    (function V.Unexpected_batch_op _ -> true | _ -> false)
    (fused_run (fused_record ~ops ~params ()))

let test_verifier_fused_overlong_chain () =
  (* The chain claims more stages than the pipeline declares. *)
  let steps = fused_steps @ [ F.F_shift_key { field = 0; shift = 2 } ] in
  let ops = List.map (fun s -> P.to_id (F.step_op s)) steps in
  let params = F.encode_steps steps in
  check_fused_violation "overlong chain"
    (function V.Unexpected_batch_op { expected = -1; _ } -> true | _ -> false)
    (fused_run (fused_record ~ops ~params ()))

(* --- loss-aware verification -------------------------------------------------- *)

let test_gap_reason_tags () =
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Record.gap_reason_name r)
        true
        (Record.gap_reason_of_tag (Record.gap_reason_tag r) = r))
    [ Record.Link_loss; Record.Corrupt_ingress; Record.Smc_unavailable; Record.Pool_pressure ]

let test_gap_codec_roundtrip () =
  (* Every reason, empty and non-empty window lists, through both codecs. *)
  let gaps =
    List.mapi
      (fun i reason ->
        Record.Gap
          { ts = 100 + i; stream = i; seq = 7 * i; events = 1000 * i;
            windows = (if i mod 2 = 0 then [] else [ i; i + 3 ]); reason })
      [ Record.Link_loss; Record.Corrupt_ingress; Record.Smc_unavailable; Record.Pool_pressure ]
  in
  Alcotest.(check bool) "row" true (Record.decode_all (Record.encode_all gaps) = gaps);
  Alcotest.(check bool) "columnar" true (Columnar.decompress (Columnar.compress gaps) = gaps)

(* A run where frame seq 1 was lost: with a covering Gap declaration the
   verifier reports degradation and stays ok; without it, a violation. *)
let run_with_hole ~declared =
  [
    Record.Ingress { ts = 1; uarray = 0; stream = 0; seq = 0 };
    Record.Windowing { ts = 2; data_in = 0; win_no = 0; data_out = 1 };
  ]
  @ (if declared then
       [ Record.Gap
           { ts = 3; stream = 0; seq = 1; events = 800; windows = [ 0 ]; reason = Record.Link_loss } ]
     else [])
  @ [
      Record.Ingress { ts = 4; uarray = 10; stream = 0; seq = 2 };
      Record.Windowing { ts = 5; data_in = 10; win_no = 0; data_out = 11 };
      Record.Execution { ts = 6; op = P.to_id P.Sort; inputs = [ 1 ]; outputs = [ 3 ]; hints = [] };
      Record.Execution { ts = 7; op = P.to_id P.Sort; inputs = [ 11 ]; outputs = [ 13 ]; hints = [] };
      Record.Ingress_watermark { ts = 8; id = wm_id; value = 1000 };
      Record.Execution
        { ts = 9; op = P.to_id P.Sum; inputs = [ 3; 13; wm_id ]; outputs = [ 5 ]; hints = [] };
      Record.Egress { ts = 10; uarray = 5; win_no = 0 };
    ]

let test_verifier_tolerates_declared_gap () =
  let r = V.verify spec (run_with_hole ~declared:true) in
  if not (V.ok r) then
    Alcotest.failf "declared gap must degrade, not violate: %s" (Format.asprintf "%a" V.pp_report r);
  Alcotest.(check int) "one declared gap" 1 r.V.declared_gaps;
  Alcotest.(check int) "declared events" 800 r.V.gap_events;
  Alcotest.(check int) "one lost batch" 1 r.V.lost_batches;
  Alcotest.(check bool) "loss fraction positive" true (r.V.loss_fraction > 0.0);
  Alcotest.(check (list int)) "window 0 degraded" [ 0 ] r.V.degraded_windows

let test_verifier_flags_undeclared_loss () =
  check_violation "undeclared hole"
    (function V.Undeclared_loss { stream = 0; seq = 1 } -> true | _ -> false)
    (run_with_hole ~declared:false)

let test_verifier_gap_covers_missing_egress () =
  (* The whole window was lost to a declared fault: no egress is owed. *)
  let records =
    [
      Record.Ingress { ts = 1; uarray = 0; stream = 0; seq = 0 };
      Record.Windowing { ts = 2; data_in = 0; win_no = 0; data_out = 1 };
      Record.Execution { ts = 3; op = P.to_id P.Sort; inputs = [ 1 ]; outputs = [ 3 ]; hints = [] };
      Record.Gap
        { ts = 4; stream = 0; seq = 1; events = 500; windows = [ 1 ]; reason = Record.Pool_pressure };
      Record.Ingress_watermark { ts = 5; id = wm_id; value = 1000 };
      Record.Execution { ts = 6; op = P.to_id P.Sum; inputs = [ 3; wm_id ]; outputs = [ 5 ]; hints = [] };
      Record.Egress { ts = 7; uarray = 5; win_no = 0 };
      (* Watermark also closes window 1, whose only batch was shed. *)
      Record.Ingress_watermark { ts = 8; id = wm_id + 1; value = 2000 };
    ]
  in
  let r = V.verify spec records in
  if not (V.ok r) then
    Alcotest.failf "gap-covered window flagged: %s" (Format.asprintf "%a" V.pp_report r);
  Alcotest.(check (list int)) "window 1 degraded" [ 1 ] r.V.degraded_windows

let test_verifier_clean_run_reports_no_loss () =
  let r = V.verify spec good_run in
  Alcotest.(check int) "no gaps" 0 r.V.declared_gaps;
  Alcotest.(check int) "no lost batches" 0 r.V.lost_batches;
  Alcotest.(check (float 0.0)) "zero loss" 0.0 r.V.loss_fraction;
  Alcotest.(check (list int)) "no degradation" [] r.V.degraded_windows

(* --- multi-epoch stitching --------------------------------------------------- *)

module Epoch = Sbt_attest.Epoch

(* Flush [records] as a single batch whose sequence number starts at
   [from_seq] — exactly how a recovered log continues the chain. *)
let batch_at ~from_seq records =
  let log = Log.create ~key ~flush_every:1_000_000 in
  if from_seq > 0 then
    Log.restore_cursor log ~seq:from_seq ~records_produced:0 ~raw_bytes:0 ~compressed_bytes:0;
  List.iter (fun r -> ignore (Log.append log r)) records;
  match Log.flush log with Some b -> b | None -> Alcotest.fail "expected a batch"

let manifest ~epoch ~resumed_from ~resume_batch_seq =
  Epoch.seal ~key { Epoch.epoch; resumed_from; resume_batch_seq }

(* [good_run] split at a checkpoint taken after the batch stage: epoch 0
   crashes after checkpoint 0 is durable, epoch 1 resumes from it and
   finishes the window.  Stitched, the two epochs are exactly [good_run]
   plus the Checkpoint record. *)
let epoch0_records =
  [
    Record.Ingress { ts = 1; uarray = 0; stream = 0; seq = 0 };
    Record.Windowing { ts = 5; data_in = 0; win_no = 0; data_out = 1 };
    Record.Execution { ts = 10; op = P.to_id P.Sort; inputs = [ 1 ]; outputs = [ 3 ]; hints = [] };
    Record.Checkpoint { ts = 12; seq = 0; watermark = 0 };
  ]

let epoch1_records =
  [
    Record.Ingress_watermark { ts = 15; id = wm_id; value = 1000 };
    Record.Execution { ts = 25; op = P.to_id P.Sum; inputs = [ 3; wm_id ]; outputs = [ 5 ]; hints = [] };
    Record.Egress { ts = 30; uarray = 5; win_no = 0 };
  ]

let two_epochs () =
  [
    (manifest ~epoch:0 ~resumed_from:(-1) ~resume_batch_seq:0, [ batch_at ~from_seq:0 epoch0_records ]);
    (manifest ~epoch:1 ~resumed_from:0 ~resume_batch_seq:1, [ batch_at ~from_seq:1 epoch1_records ]);
  ]

let test_epochs_accepts_honest_restart () =
  let r = V.verify_epochs ~key spec (two_epochs ()) in
  if not (V.ok r) then
    Alcotest.failf "expected clean stitch, got: %s" (Format.asprintf "%a" V.pp_report r);
  Alcotest.(check int) "one window across the restart" 1 r.V.windows_verified

let test_epochs_single_epoch_degenerates () =
  (* One fresh epoch holding all of [good_run] is just a plain verify. *)
  let segs =
    [ (manifest ~epoch:0 ~resumed_from:(-1) ~resume_batch_seq:0, [ batch_at ~from_seq:0 good_run ]) ]
  in
  Alcotest.(check bool) "ok" true (V.ok (V.verify_epochs ~key spec segs))

let test_epochs_duplicate_window () =
  (* Epoch 0 already egressed window 0 before crashing; epoch 1 replays
     and egresses it again — the same result left the TEE twice. *)
  let e0 = good_run @ [ Record.Checkpoint { ts = 31; seq = 0; watermark = 1000 } ] in
  let segs =
    [
      (manifest ~epoch:0 ~resumed_from:(-1) ~resume_batch_seq:0, [ batch_at ~from_seq:0 e0 ]);
      (manifest ~epoch:1 ~resumed_from:0 ~resume_batch_seq:1, [ batch_at ~from_seq:1 epoch1_records ]);
    ]
  in
  let r = V.verify_epochs ~key spec segs in
  Alcotest.(check bool) "duplicate window flagged" true
    (List.exists
       (function
         | V.Duplicate_window_across_epochs { window = 0; first_epoch = 0; second_epoch = 1 } -> true
         | _ -> false)
       r.V.violations)

let test_epochs_missing_epoch () =
  (* The chain presents epochs 0 and 2 — a whole boot's emissions hide
     in the hole. *)
  let segs =
    [
      (manifest ~epoch:0 ~resumed_from:(-1) ~resume_batch_seq:0, [ batch_at ~from_seq:0 epoch0_records ]);
      (manifest ~epoch:2 ~resumed_from:0 ~resume_batch_seq:1, [ batch_at ~from_seq:1 epoch1_records ]);
    ]
  in
  let r = V.verify_epochs ~key spec segs in
  Alcotest.(check bool) "missing epoch flagged" true
    (List.exists
       (function V.Missing_epoch { expected = 1; got = 2 } -> true | _ -> false)
       r.V.violations)

let test_epochs_rollback_presented_as_fresh () =
  (* Epoch 0's log attests checkpoint 0, but epoch 1 claims it booted
     fresh — i.e. the checkpoint store was rolled back (or wiped) and
     the restart is presented as a new run. *)
  let segs =
    [
      (manifest ~epoch:0 ~resumed_from:(-1) ~resume_batch_seq:0, [ batch_at ~from_seq:0 epoch0_records ]);
      (manifest ~epoch:1 ~resumed_from:(-1) ~resume_batch_seq:1, [ batch_at ~from_seq:1 epoch1_records ]);
    ]
  in
  let r = V.verify_epochs ~key spec segs in
  Alcotest.(check bool) "rollback flagged" true
    (List.exists
       (function
         | V.Checkpoint_rollback { epoch = 1; resumed_from = -1; latest = 0 } -> true
         | _ -> false)
       r.V.violations)

let test_epochs_stale_checkpoint_rollback () =
  (* Two checkpoints attested; the restart resumes from the older one. *)
  let e0 =
    epoch0_records @ [ Record.Checkpoint { ts = 13; seq = 1; watermark = 0 } ]
  in
  let segs =
    [
      (manifest ~epoch:0 ~resumed_from:(-1) ~resume_batch_seq:0, [ batch_at ~from_seq:0 e0 ]);
      (manifest ~epoch:1 ~resumed_from:0 ~resume_batch_seq:1, [ batch_at ~from_seq:1 epoch1_records ]);
    ]
  in
  let r = V.verify_epochs ~key spec segs in
  Alcotest.(check bool) "stale resume flagged" true
    (List.exists
       (function
         | V.Checkpoint_rollback { epoch = 1; resumed_from = 0; latest = 1 } -> true
         | _ -> false)
       r.V.violations)

let test_epochs_tampered_manifest_rejected () =
  let m, batches = List.hd (two_epochs ()) in
  let tampered = Bytes.copy m.Epoch.payload in
  Bytes.set tampered 0 (Char.chr (Char.code (Bytes.get tampered 0) lxor 1));
  let flagged =
    try
      ignore (V.verify_epochs ~key spec [ ({ m with Epoch.payload = tampered }, batches) ]);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "tampered manifest rejected" true flagged

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "attest"
    [
      ( "varint",
        [
          Alcotest.test_case "edges" `Quick test_varint_edges;
          Alcotest.test_case "compactness" `Quick test_varint_compactness;
          Alcotest.test_case "zigzag" `Quick test_zigzag;
          q prop_varint_roundtrip;
          q prop_put_unsigned;
        ] );
      ( "huffman",
        [
          Alcotest.test_case "roundtrips" `Quick test_huffman_roundtrips;
          Alcotest.test_case "compresses skew" `Quick test_huffman_compresses_skew;
          Alcotest.test_case "golden bytes" `Quick test_huffman_golden;
          Alcotest.test_case "sub ranges" `Quick test_huffman_sub_ranges;
          Alcotest.test_case "overlong count refused" `Quick test_huffman_refuses_overlong_count;
          Alcotest.test_case "over-subscribed table refused" `Quick
            test_huffman_refuses_oversubscribed_table;
          q prop_huffman_roundtrip;
          q prop_huffman_matches_reference;
        ] );
      ( "record",
        [
          Alcotest.test_case "row roundtrip" `Quick test_record_row_roundtrip;
          Alcotest.test_case "bad tag" `Quick test_record_bad_tag;
          Alcotest.test_case "ts accessor" `Quick test_record_ts;
          q prop_record_encoded_size;
        ] );
      ( "columnar",
        [
          Alcotest.test_case "roundtrip stream" `Quick test_columnar_roundtrip;
          Alcotest.test_case "roundtrip mixed" `Quick test_columnar_roundtrip_sample;
          Alcotest.test_case "ratio >= 4x" `Quick test_columnar_ratio;
          Alcotest.test_case "empty" `Quick test_columnar_empty;
          q prop_columnar_roundtrip_random;
          Alcotest.test_case "golden bytes" `Quick test_columnar_golden;
          Alcotest.test_case "count mismatch refused" `Quick test_columnar_count_mismatch;
          q prop_raw_size;
          q prop_columnar_roundtrip_all_kinds;
          q prop_decoders_total_random;
          q prop_decompress_total_mutated;
        ] );
      ( "log",
        [
          Alcotest.test_case "flush and open" `Quick test_log_flush_and_open;
          Alcotest.test_case "auto flush" `Quick test_log_auto_flush;
          Alcotest.test_case "tamper detected" `Quick test_log_tamper_detected;
          Alcotest.test_case "wrong key" `Quick test_log_wrong_key;
        ] );
      ( "verifier",
        [
          Alcotest.test_case "accepts good run" `Quick test_verifier_accepts_good_run;
          Alcotest.test_case "freshness bound" `Quick test_verifier_freshness;
          Alcotest.test_case "dropped execution" `Quick test_verifier_detects_dropped_execution;
          Alcotest.test_case "unprocessed window" `Quick test_verifier_detects_unprocessed_window;
          Alcotest.test_case "wrong op" `Quick test_verifier_detects_wrong_op;
          Alcotest.test_case "fabricated flow" `Quick test_verifier_detects_fabricated_flow;
          Alcotest.test_case "duplicate egress" `Quick test_verifier_detects_duplicate_egress;
          Alcotest.test_case "unwindowed batch" `Quick test_verifier_detects_unwindowed_batch;
          Alcotest.test_case "watermark regression" `Quick test_verifier_detects_watermark_regression;
          Alcotest.test_case "double consumption" `Quick test_verifier_detects_double_consumption;
          Alcotest.test_case "unprocessed ready data" `Quick test_verifier_unprocessed_ready_data;
          Alcotest.test_case "misleading hints" `Quick test_verifier_misleading_hints;
          Alcotest.test_case "empty windows ok" `Quick test_verifier_empty_windows_ok;
          Alcotest.test_case "open window not flagged" `Quick test_verifier_open_window_not_flagged;
        ] );
      ( "fused-records",
        [
          Alcotest.test_case "accepts honest composite" `Quick test_verifier_accepts_fused_run;
          Alcotest.test_case "tampered chain hash" `Quick test_verifier_fused_tampered_chain;
          Alcotest.test_case "non-fusable op smuggled" `Quick test_verifier_fused_non_fusable_op;
          Alcotest.test_case "reordered op chain" `Quick test_verifier_fused_reordered_chain;
          Alcotest.test_case "overlong chain" `Quick test_verifier_fused_overlong_chain;
        ] );
      ( "loss-aware",
        [
          Alcotest.test_case "gap reason tags" `Quick test_gap_reason_tags;
          Alcotest.test_case "gap codec roundtrip" `Quick test_gap_codec_roundtrip;
          Alcotest.test_case "declared gap tolerated" `Quick test_verifier_tolerates_declared_gap;
          Alcotest.test_case "undeclared loss flagged" `Quick test_verifier_flags_undeclared_loss;
          Alcotest.test_case "gap covers missing egress" `Quick test_verifier_gap_covers_missing_egress;
          Alcotest.test_case "clean run no loss" `Quick test_verifier_clean_run_reports_no_loss;
        ] );
      ( "epochs",
        [
          Alcotest.test_case "honest restart accepted" `Quick test_epochs_accepts_honest_restart;
          Alcotest.test_case "single epoch = plain verify" `Quick test_epochs_single_epoch_degenerates;
          Alcotest.test_case "duplicate window across epochs" `Quick test_epochs_duplicate_window;
          Alcotest.test_case "missing epoch" `Quick test_epochs_missing_epoch;
          Alcotest.test_case "rollback presented as fresh" `Quick test_epochs_rollback_presented_as_fresh;
          Alcotest.test_case "stale checkpoint resume" `Quick test_epochs_stale_checkpoint_rollback;
          Alcotest.test_case "tampered manifest rejected" `Quick test_epochs_tampered_manifest_rejected;
        ] );
    ]
