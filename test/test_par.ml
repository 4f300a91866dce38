(* Parallel kernel equivalence: every Par_kernel variant must produce
   byte-identical uArray contents to its serial counterpart, for any
   width, key field, piece count and domain count — the determinism
   contract the `Domains` engine's real-work mode rests on. *)

module U = Sbt_umem.Uarray
module Pool = Sbt_umem.Page_pool
module Sort = Sbt_prim.Sort
module Merge = Sbt_prim.Merge
module Segment = Sbt_prim.Segment
module Keyed = Sbt_prim.Keyed
module Filter = Sbt_prim.Filter
module Misc = Sbt_prim.Misc
module PK = Sbt_prim.Par_kernel

let pool () = Pool.create ~budget_bytes:(256 * 1024 * 1024)
let fresh p ~width ~capacity = U.create ~id:99 ~pool:p ~width ~capacity ()

(* Small key range on purpose: duplicate keys exercise the stable
   tie-break, which is where a wrong merge order would show up. *)
let random_ua p ~width ~n ?(lo = -60) ?(hi = 60) seed =
  let rng = Sbt_crypto.Rng.create ~seed:(Int64.of_int (seed + 7919)) in
  let ua = U.create ~id:1 ~pool:p ~width ~capacity:(max 1 n) () in
  for _ = 1 to n do
    U.append ua (Array.init width (fun _ -> Int32.of_int (lo + Sbt_crypto.Rng.int_below rng (hi - lo + 1))))
  done;
  U.produce ua;
  ua

let same_bytes a b =
  U.width a = U.width b
  && U.length a = U.length b
  &&
  let w = U.width a and n = U.length a in
  let ba = U.raw a and bb = U.raw b in
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < n * w do
    if Bigarray.Array1.get ba !i <> Bigarray.Array1.get bb !i then ok := false;
    incr i
  done;
  !ok

(* Deterministically derive the parallel configuration from the seed so
   every property sweeps domain counts 1/2/4 and piece counts 1..6. *)
let runner_of seed = PK.domains ~n:[| 1; 2; 4 |].(seed mod 3)
let pieces_of seed = 1 + (seed mod 6)

let sorted_copy p src ~key_field =
  let d = fresh p ~width:(U.width src) ~capacity:(max 1 (U.length src)) in
  Sort.sort Sort.Radix ~src ~dst:d ~key_field;
  d

(* --- QCheck equivalence properties -------------------------------------- *)

let gen = QCheck.(quad (int_range 1 4) (int_range 0 600) (int_range 0 10_000) QCheck.unit)

let prop_sort =
  QCheck.Test.make ~name:"parallel sort = serial radix (bytes)" ~count:60 gen
    (fun (w, n, seed, ()) ->
      let kf = seed mod w in
      let p = pool () in
      let src = random_ua p ~width:w ~n seed in
      let d1 = fresh p ~width:w ~capacity:(max 1 n) in
      Sort.sort Sort.Radix ~src ~dst:d1 ~key_field:kf;
      let d2 = fresh p ~width:w ~capacity:(max 1 n) in
      PK.sort ~runner:(runner_of seed) ~pieces:(pieces_of seed) ~src ~dst:d2 ~key_field:kf ();
      same_bytes d1 d2)

let prop_sort_prefilled =
  (* Radix now composes with non-empty destinations (the lifted
     restriction): both engines append after the same prefix. *)
  QCheck.Test.make ~name:"sort into non-empty destination" ~count:40 gen
    (fun (w, n, seed, ()) ->
      let kf = seed mod w in
      let p = pool () in
      let src = random_ua p ~width:w ~n seed in
      let prefix = Array.init w (fun f -> Int32.of_int (1000 + f)) in
      let d1 = fresh p ~width:w ~capacity:(n + 1) in
      U.append d1 prefix;
      Sort.sort Sort.Radix ~src ~dst:d1 ~key_field:kf;
      let d2 = fresh p ~width:w ~capacity:(n + 1) in
      U.append d2 prefix;
      PK.sort ~runner:(runner_of seed) ~pieces:(pieces_of seed) ~src ~dst:d2 ~key_field:kf ();
      same_bytes d1 d2)

let prop_sort_in_place =
  QCheck.Test.make ~name:"parallel sort_in_place = serial" ~count:40 gen
    (fun (w, n, seed, ()) ->
      let kf = seed mod w in
      let p = pool () in
      let src = random_ua p ~width:w ~n seed in
      let mk () =
        let d = fresh p ~width:w ~capacity:(max 1 n) in
        U.append_blit d ~src ~src_pos:0 ~len:n;
        d
      in
      let d1 = mk () and d2 = mk () in
      Sort.sort_in_place Sort.Radix d1 ~key_field:kf;
      PK.sort_in_place ~runner:(runner_of seed) ~pieces:(pieces_of seed) d2 ~key_field:kf;
      same_bytes d1 d2)

let prop_kway =
  QCheck.Test.make ~name:"parallel kway = serial tournament (bytes)" ~count:60
    QCheck.(quad (int_range 1 3) (int_range 1 5) (int_range 0 200) (int_range 0 10_000))
    (fun (w, k, per_input, seed) ->
      let kf = seed mod w in
      let p = pool () in
      let inputs =
        List.init k (fun i ->
            let raw = random_ua p ~width:w ~n:((per_input + i) mod (per_input + 1)) (seed + i) in
            sorted_copy p raw ~key_field:kf)
      in
      let total = List.fold_left (fun a ua -> a + U.length ua) 0 inputs in
      let d1 = fresh p ~width:w ~capacity:(max 1 total) in
      Merge.kway ~inputs ~dst:d1 ~key_field:kf;
      let d2 = fresh p ~width:w ~capacity:(max 1 total) in
      PK.kway ~runner:(runner_of seed) ~pieces:(pieces_of seed) ~inputs ~dst:d2 ~key_field:kf ();
      same_bytes d1 d2)

let prop_segment =
  QCheck.Test.make ~name:"parallel segment = serial (per-window bytes)" ~count:50
    QCheck.(quad (int_range 1 3) (int_range 0 500) (int_range 0 10_000) (int_range 2 40))
    (fun (w, n, seed, window_size) ->
      let ts_field = seed mod w in
      let slide = 1 + (seed mod window_size) in
      let p = pool () in
      let src = random_ua p ~lo:0 ~hi:300 ~width:w ~n seed in
      let counts1 =
        Segment.count_per_window ~src ~ts_field ~window_size ~slide ()
      in
      let counts2 =
        PK.count_per_window ~runner:(runner_of seed) ~pieces:(pieces_of seed) ~src ~ts_field
          ~window_size ~slide ()
      in
      let mk_dsts counts =
        let tbl = Hashtbl.create 16 in
        List.iter
          (fun (win, c) -> Hashtbl.replace tbl win (fresh p ~width:w ~capacity:(max 1 c)))
          counts;
        tbl
      in
      let t1 = mk_dsts counts1 and t2 = mk_dsts counts2 in
      Segment.segment ~src ~ts_field ~window_size ~slide
        ~dst_for_window:(Hashtbl.find t1) ();
      PK.segment ~runner:(runner_of seed) ~pieces:(pieces_of seed) ~src ~ts_field ~window_size
        ~slide ~dst_for_window:(Hashtbl.find t2) ();
      counts1 = counts2
      && List.for_all
           (fun (win, _) -> same_bytes (Hashtbl.find t1 win) (Hashtbl.find t2 win))
           counts1)

let prop_per_key =
  QCheck.Test.make ~name:"parallel sum/count/avg_per_key = serial (bytes)" ~count:50 gen
    (fun (w, n, seed, ()) ->
      let kf = seed mod w in
      let vf = (seed / 7) mod w in
      let p = pool () in
      let src = sorted_copy p (random_ua p ~width:w ~n seed) ~key_field:kf in
      let run serial par =
        let d1 = fresh p ~width:2 ~capacity:(max 1 n) in
        serial d1;
        let d2 = fresh p ~width:2 ~capacity:(max 1 n) in
        par d2;
        same_bytes d1 d2
      in
      let runner = runner_of seed and pieces = pieces_of seed in
      run
        (fun d -> Keyed.sum_per_key ~src ~dst:d ~key_field:kf ~value_field:vf)
        (fun d -> PK.sum_per_key ~runner ~pieces ~src ~dst:d ~key_field:kf ~value_field:vf ())
      && run
           (fun d -> Keyed.count_per_key ~src ~dst:d ~key_field:kf)
           (fun d -> PK.count_per_key ~runner ~pieces ~src ~dst:d ~key_field:kf ())
      && run
           (fun d -> Keyed.avg_per_key ~src ~dst:d ~key_field:kf ~value_field:vf)
           (fun d -> PK.avg_per_key ~runner ~pieces ~src ~dst:d ~key_field:kf ~value_field:vf ()))

let prop_filter_select_project_concat =
  QCheck.Test.make ~name:"parallel filter/select/project/concat = serial (bytes)" ~count:50 gen
    (fun (w, n, seed, ()) ->
      let field = seed mod w in
      let lo = Int32.of_int (-30 + (seed mod 20)) in
      let hi = Int32.of_int (Int32.to_int lo + (seed mod 60)) in
      let p = pool () in
      let src = random_ua p ~width:w ~n seed in
      let runner = runner_of seed and pieces = pieces_of seed in
      let band =
        let d1 = fresh p ~width:w ~capacity:(max 1 n) in
        Filter.filter_band ~src ~dst:d1 ~field ~lo ~hi;
        let d2 = fresh p ~width:w ~capacity:(max 1 n) in
        PK.filter_band ~runner ~pieces ~src ~dst:d2 ~field ~lo ~hi ();
        same_bytes d1 d2
      in
      let select =
        let d1 = fresh p ~width:w ~capacity:(max 1 n) in
        Filter.select_eq ~src ~dst:d1 ~field ~value:lo;
        let d2 = fresh p ~width:w ~capacity:(max 1 n) in
        PK.select_eq ~runner ~pieces ~src ~dst:d2 ~field ~value:lo ();
        same_bytes d1 d2
      in
      let proj =
        let fields = Array.init (1 + (seed mod w)) (fun i -> (field + i) mod w) in
        let d1 = fresh p ~width:(Array.length fields) ~capacity:(max 1 n) in
        Misc.project ~src ~dst:d1 ~fields;
        let d2 = fresh p ~width:(Array.length fields) ~capacity:(max 1 n) in
        PK.project ~runner ~pieces ~src ~dst:d2 ~fields ();
        same_bytes d1 d2
      in
      let cat =
        let b = random_ua p ~width:w ~n:(n / 2) (seed + 1) in
        let inputs = [ src; b; src ] in
        let total = (2 * n) + (n / 2) in
        let d1 = fresh p ~width:w ~capacity:(max 1 total) in
        Misc.concat ~inputs ~dst:d1;
        let d2 = fresh p ~width:w ~capacity:(max 1 total) in
        PK.concat ~runner ~inputs ~dst:d2 ();
        same_bytes d1 d2
      in
      band && select && proj && cat)

(* --- Unit edge cases ----------------------------------------------------- *)

let test_ranges () =
  (* Splits cover [0, n) contiguously, including empty pieces. *)
  List.iter
    (fun (n, pieces) ->
      let rs = PK.ranges ~n ~pieces in
      Alcotest.(check int) "pieces" pieces (Array.length rs);
      let pos = ref 0 in
      Array.iter
        (fun (s, len) ->
          Alcotest.(check int) "contiguous" !pos s;
          Alcotest.(check bool) "non-negative" true (len >= 0);
          pos := s + len)
        rs;
      Alcotest.(check int) "covers n" n !pos)
    [ (0, 1); (0, 4); (3, 8); (7, 3); (100, 4); (5, 5) ]

let test_empty_inputs () =
  let p = pool () in
  let src = random_ua p ~width:2 ~n:0 1 in
  let dst = fresh p ~width:2 ~capacity:1 in
  PK.sort ~runner:(PK.domains ~n:4) ~pieces:4 ~src ~dst ~key_field:0 ();
  Alcotest.(check int) "sort of empty" 0 (U.length dst);
  PK.kway ~inputs:[] ~dst ~key_field:0 ();
  Alcotest.(check int) "kway of nothing" 0 (U.length dst);
  PK.kway ~pieces:3 ~inputs:[ src; src ] ~dst ~key_field:0 ();
  Alcotest.(check int) "kway of empties" 0 (U.length dst);
  PK.sum_per_key ~pieces:4 ~src ~dst ~key_field:0 ~value_field:1 ();
  Alcotest.(check int) "per-key of empty" 0 (U.length dst);
  PK.filter_band ~pieces:4 ~src ~dst ~field:0 ~lo:0l ~hi:10l ();
  Alcotest.(check int) "filter of empty" 0 (U.length dst);
  Alcotest.(check (list (pair int int)))
    "segment counts of empty" []
    (PK.count_per_window ~pieces:4 ~src ~ts_field:0 ~window_size:10 ())

(* A piece whose window range fits [PK.dense_window_cap] counts into a
   flat array, a wider one into a hash table: one input of each must
   match the serial counts, as one piece and split into three. *)
let test_segment_dense_and_sparse () =
  let p = pool () in
  let cap = PK.dense_window_cap in
  List.iter
    (fun (name, hi, dense) ->
      let src = random_ua p ~lo:0 ~hi ~width:2 ~n:1_000 17 in
      let serial = Segment.count_per_window ~src ~ts_field:0 ~window_size:2 ~slide:1 () in
      let wins = List.map fst serial in
      let span = List.fold_left max min_int wins - List.fold_left min max_int wins + 1 in
      Alcotest.(check bool) (name ^ ": window span vs cap") dense (span <= cap);
      List.iter
        (fun pieces ->
          let par =
            PK.count_per_window ~runner:(PK.domains ~n:2) ~pieces ~src ~ts_field:0
              ~window_size:2 ~slide:1 ()
          in
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "%s, %d piece(s)" name pieces)
            serial par)
        [ 1; 3 ])
    [ ("dense", cap / 2, true); ("sparse", 8 * cap, false) ]

let test_all_equal_keys () =
  (* Every key equal: the merge is pure tie-breaking, so any ordering bug
     is visible in the payload fields. *)
  let p = pool () in
  let n = 200 in
  let src = U.create ~id:1 ~pool:p ~width:2 ~capacity:n () in
  for i = 0 to n - 1 do
    U.append src [| 7l; Int32.of_int i |]
  done;
  U.produce src;
  let d1 = fresh p ~width:2 ~capacity:n in
  Sort.sort Sort.Radix ~src ~dst:d1 ~key_field:0;
  let d2 = fresh p ~width:2 ~capacity:n in
  PK.sort ~runner:(PK.domains ~n:4) ~pieces:5 ~src ~dst:d2 ~key_field:0 ();
  Alcotest.(check bool) "stable under all-equal keys" true (same_bytes d1 d2);
  let m1 = fresh p ~width:2 ~capacity:(2 * n) in
  Merge.kway ~inputs:[ d1; d2 ] ~dst:m1 ~key_field:0;
  let m2 = fresh p ~width:2 ~capacity:(2 * n) in
  PK.kway ~pieces:4 ~inputs:[ d1; d2 ] ~dst:m2 ~key_field:0 ();
  Alcotest.(check bool) "kway under all-equal keys" true (same_bytes m1 m2);
  let a1 = fresh p ~width:2 ~capacity:1 in
  Keyed.sum_per_key ~src ~dst:a1 ~key_field:0 ~value_field:1;
  let a2 = fresh p ~width:2 ~capacity:1 in
  PK.sum_per_key ~pieces:4 ~src ~dst:a2 ~key_field:0 ~value_field:1 ();
  Alcotest.(check bool) "single group" true (same_bytes a1 a2)

let test_fewer_records_than_domains () =
  let p = pool () in
  let src = random_ua p ~width:3 ~n:3 42 in
  let d1 = fresh p ~width:3 ~capacity:3 in
  Sort.sort Sort.Radix ~src ~dst:d1 ~key_field:1;
  let d2 = fresh p ~width:3 ~capacity:3 in
  PK.sort ~runner:(PK.domains ~n:4) ~pieces:8 ~src ~dst:d2 ~key_field:1 ();
  Alcotest.(check bool) "n < domains" true (same_bytes d1 d2)

let test_primitive_lookup_tables () =
  (* Satellite: id/name lookups stay total and mutually inverse. *)
  let module P = Sbt_prim.Primitive in
  List.iter
    (fun t ->
      Alcotest.(check bool) "of_id . to_id" true (P.of_id (P.to_id t) = Some t);
      Alcotest.(check bool) "of_name . name" true (P.of_name (P.name t) = Some t))
    P.all;
  Alcotest.(check bool) "of_id out of range" true (P.of_id P.count = None);
  Alcotest.(check bool) "of_name unknown" true (P.of_name "NoSuchPrimitive" = None)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "par_kernel"
    [
      ( "equivalence",
        [
          q prop_sort;
          q prop_sort_prefilled;
          q prop_sort_in_place;
          q prop_kway;
          q prop_segment;
          q prop_per_key;
          q prop_filter_select_project_concat;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "ranges cover" `Quick test_ranges;
          Alcotest.test_case "empty inputs" `Quick test_empty_inputs;
          Alcotest.test_case "all-equal keys" `Quick test_all_equal_keys;
          Alcotest.test_case "segment dense and sparse windows" `Quick
            test_segment_dense_and_sparse;
          Alcotest.test_case "n < domains" `Quick test_fewer_records_than_domains;
          Alcotest.test_case "primitive lookup tables" `Quick test_primitive_lookup_tables;
        ] );
    ]
