(* Tests for the trusted primitives: every primitive is checked against a
   straightforward list-based reference implementation, plus qcheck
   properties for the sort/merge core. *)

module U = Sbt_umem.Uarray
module Pool = Sbt_umem.Page_pool
module Sort = Sbt_prim.Sort
module Merge = Sbt_prim.Merge
module Segment = Sbt_prim.Segment
module Agg = Sbt_prim.Agg
module Keyed = Sbt_prim.Keyed
module Join = Sbt_prim.Join
module Filter = Sbt_prim.Filter
module Misc = Sbt_prim.Misc
module P = Sbt_prim.Primitive

let pool () = Pool.create ~budget_bytes:(256 * 1024 * 1024)

let ua_of_list p ~width rows =
  let ua = U.create ~id:0 ~pool:p ~width ~capacity:(max 1 (List.length rows)) () in
  List.iter (fun r -> U.append ua (Array.of_list (List.map Int32.of_int r))) rows;
  U.produce ua;
  ua

let rows_of_ua ua =
  List.map (fun r -> Array.to_list (Array.map Int32.to_int r)) (U.to_list ua)

let fresh p ~width ~capacity = U.create ~id:99 ~pool:p ~width ~capacity ()

let random_rows ?(lo = -1000) ?(hi = 1000) ~width ~n seed =
  let rng = Sbt_crypto.Rng.create ~seed:(Int64.of_int seed) in
  List.init n (fun _ -> List.init width (fun _ -> lo + Sbt_crypto.Rng.int_below rng (hi - lo)))

(* --- Sort ---------------------------------------------------------------- *)

let check_sorted_algo algo () =
  let p = pool () in
  let rows = random_rows ~width:3 ~n:5_000 1 in
  let src = ua_of_list p ~width:3 rows in
  let dst = fresh p ~width:3 ~capacity:5_000 in
  Sort.sort algo ~src ~dst ~key_field:0;
  Alcotest.(check bool) "sorted" true (Sort.is_sorted dst ~key_field:0);
  (* Same multiset of records. *)
  let norm l = List.sort compare l in
  Alcotest.(check bool) "permutation" true (norm (rows_of_ua dst) = norm rows)

let test_sort_negative_keys () =
  (* Signed order: radix must bias the top digit. *)
  let p = pool () in
  let src = ua_of_list p ~width:1 [ [ 5 ]; [ -3 ]; [ 0 ]; [ -2000000000 ]; [ 2000000000 ] ] in
  let dst = fresh p ~width:1 ~capacity:5 in
  Sort.sort Sort.Radix ~src ~dst ~key_field:0;
  Alcotest.(check (list (list int))) "signed ascending"
    [ [ -2000000000 ]; [ -3 ]; [ 0 ]; [ 5 ]; [ 2000000000 ] ]
    (rows_of_ua dst)

let test_sort_stability_radix () =
  (* Radix is stable: equal keys keep input order (checked via payload). *)
  let p = pool () in
  let rows = [ [ 1; 10 ]; [ 0; 20 ]; [ 1; 30 ]; [ 0; 40 ]; [ 1; 50 ] ] in
  let src = ua_of_list p ~width:2 rows in
  let dst = fresh p ~width:2 ~capacity:5 in
  Sort.sort Sort.Radix ~src ~dst ~key_field:0;
  Alcotest.(check (list (list int))) "stable"
    [ [ 0; 20 ]; [ 0; 40 ]; [ 1; 10 ]; [ 1; 30 ]; [ 1; 50 ] ]
    (rows_of_ua dst)

let test_sort_in_place () =
  let p = pool () in
  let ua = fresh p ~width:2 ~capacity:100 in
  let rows = random_rows ~width:2 ~n:100 3 in
  List.iter (fun r -> U.append ua (Array.of_list (List.map Int32.of_int r))) rows;
  Sort.sort_in_place Sort.Std ua ~key_field:1;
  Alcotest.(check bool) "sorted by field 1" true (Sort.is_sorted ua ~key_field:1)

let prop_sort_algorithms_agree =
  QCheck.Test.make ~name:"three sorts agree" ~count:60
    QCheck.(list_of_size (QCheck.Gen.int_bound 200) (QCheck.int_range (-10_000) 10_000))
    (fun keys ->
      let p = pool () in
      let rows = List.map (fun k -> [ k ]) keys in
      let src = ua_of_list p ~width:1 rows in
      let out algo =
        let dst = fresh p ~width:1 ~capacity:(List.length rows) in
        Sort.sort algo ~src ~dst ~key_field:0;
        rows_of_ua dst
      in
      let expected = List.map (fun k -> [ k ]) (List.sort compare keys) in
      out Sort.Radix = expected && out Sort.Std = expected && out Sort.Qsort = expected)

(* --- Merge --------------------------------------------------------------- *)

let test_merge2 () =
  let p = pool () in
  let a = ua_of_list p ~width:2 [ [ 1; 0 ]; [ 3; 0 ]; [ 5; 0 ] ] in
  let b = ua_of_list p ~width:2 [ [ 2; 1 ]; [ 3; 1 ]; [ 9; 1 ] ] in
  let dst = fresh p ~width:2 ~capacity:6 in
  Merge.merge2 ~a ~b ~dst ~key_field:0;
  Alcotest.(check (list (list int))) "merged, ties a-first"
    [ [ 1; 0 ]; [ 2; 1 ]; [ 3; 0 ]; [ 3; 1 ]; [ 5; 0 ]; [ 9; 1 ] ]
    (rows_of_ua dst)

let test_kway_merge () =
  let p = pool () in
  let inputs =
    List.init 7 (fun i ->
        let rows = List.sort compare (random_rows ~width:1 ~n:(50 + (i * 13)) (i + 10)) in
        ua_of_list p ~width:1 rows)
  in
  let total = List.fold_left (fun acc ua -> acc + U.length ua) 0 inputs in
  let dst = fresh p ~width:1 ~capacity:total in
  Merge.kway ~inputs ~dst ~key_field:0;
  Alcotest.(check int) "total" total (U.length dst);
  Alcotest.(check bool) "sorted" true (Sort.is_sorted dst ~key_field:0)

let test_kway_single_input () =
  let p = pool () in
  let only = ua_of_list p ~width:1 [ [ 1 ]; [ 2 ] ] in
  let dst = fresh p ~width:1 ~capacity:2 in
  Merge.kway ~inputs:[ only ] ~dst ~key_field:0;
  Alcotest.(check int) "copied" 2 (U.length dst)

(* --- Segment --------------------------------------------------------------- *)

let test_segment_counts_and_routing () =
  let p = pool () in
  (* ts field 1, window 100 ticks: windows 0,0,1,2,2,2 *)
  let src = ua_of_list p ~width:2 [ [ 1; 5 ]; [ 2; 99 ]; [ 3; 100 ]; [ 4; 200 ]; [ 5; 250 ]; [ 6; 299 ] ] in
  let counts = Segment.count_per_window ~src ~ts_field:1 ~window_size:100 () in
  Alcotest.(check (list (pair int int))) "counts" [ (0, 2); (1, 1); (2, 3) ] counts;
  let dsts = Hashtbl.create 4 in
  Segment.segment ~src ~ts_field:1 ~window_size:100
    ~dst_for_window:(fun w ->
      let d = fresh p ~width:2 ~capacity:3 in
      Hashtbl.replace dsts w d;
      d)
    ();
  Alcotest.(check int) "window 0" 2 (U.length (Hashtbl.find dsts 0));
  Alcotest.(check int) "window 2" 3 (U.length (Hashtbl.find dsts 2));
  Alcotest.(check int32) "routing keeps fields" 4l (U.get_field (Hashtbl.find dsts 2) 0 0)

(* --- Aggregations ------------------------------------------------------------ *)

let test_agg_whole_array () =
  let p = pool () in
  let src = ua_of_list p ~width:2 [ [ 1; 10 ]; [ 2; -5 ]; [ 3; 7 ] ] in
  Alcotest.(check int64) "sum" 12L (Agg.sum src ~field:1);
  Alcotest.(check int) "count" 3 (Agg.count src);
  let s, n = Agg.sum_count src ~field:1 in
  Alcotest.(check int64) "sumcnt sum" 12L s;
  Alcotest.(check int) "sumcnt n" 3 n;
  Alcotest.(check (float 0.001)) "avg" 4.0 (Agg.average src ~field:1);
  (match Agg.min_max src ~field:1 with
  | Some (lo, hi) ->
      Alcotest.(check int32) "min" (-5l) lo;
      Alcotest.(check int32) "max" 10l hi
  | None -> Alcotest.fail "min_max");
  (match Agg.median src ~field:1 with
  | Some m -> Alcotest.(check int32) "median" 7l m
  | None -> Alcotest.fail "median")

let test_agg_empty () =
  let p = pool () in
  let src = ua_of_list p ~width:1 [] in
  Alcotest.(check int64) "sum 0" 0L (Agg.sum src ~field:0);
  Alcotest.(check (float 0.0)) "avg 0" 0.0 (Agg.average src ~field:0);
  Alcotest.(check bool) "no minmax" true (Agg.min_max src ~field:0 = None);
  Alcotest.(check bool) "no median" true (Agg.median src ~field:0 = None)

let test_agg_sum_overflow_safe () =
  let p = pool () in
  let rows = List.init 10 (fun _ -> [ 2_000_000_000 ]) in
  let src = ua_of_list p ~width:1 rows in
  Alcotest.(check int64) "64-bit sum" 20_000_000_000L (Agg.sum src ~field:0)

(* --- Keyed -------------------------------------------------------------------- *)

let sorted_kv p rows = ua_of_list p ~width:2 (List.sort compare rows)

let reference_groups rows =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun r ->
      match r with
      | [ k; v ] -> Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
      | _ -> assert false)
    rows;
  List.sort compare (Hashtbl.fold (fun k vs acc -> (k, List.rev vs) :: acc) tbl [])

let test_keyed_against_reference () =
  let p = pool () in
  let rows = random_rows ~lo:0 ~hi:20 ~width:2 ~n:500 42 in
  let src = sorted_kv p rows in
  let groups = reference_groups rows in
  let expect f = List.map (fun (k, vs) -> [ k; f vs ]) groups in
  let run op =
    let dst = fresh p ~width:2 ~capacity:(List.length groups * 10) in
    op ~src ~dst;
    rows_of_ua dst
  in
  Alcotest.(check int) "group_count" (List.length groups) (Keyed.group_count ~src ~key_field:0);
  Alcotest.(check (list (list int))) "sum_per_key"
    (expect (fun vs -> List.fold_left ( + ) 0 vs))
    (run (fun ~src ~dst -> Keyed.sum_per_key ~src ~dst ~key_field:0 ~value_field:1));
  Alcotest.(check (list (list int))) "count_per_key"
    (expect List.length)
    (run (fun ~src ~dst -> Keyed.count_per_key ~src ~dst ~key_field:0));
  Alcotest.(check (list (list int))) "avg_per_key"
    (expect (fun vs ->
         let s = List.fold_left ( + ) 0 vs in
         Int64.to_int (Int64.div (Int64.of_int s) (Int64.of_int (List.length vs)))))
    (run (fun ~src ~dst -> Keyed.avg_per_key ~src ~dst ~key_field:0 ~value_field:1));
  Alcotest.(check (list (list int))) "median_per_key"
    (expect (fun vs ->
         let a = Array.of_list vs in
         Array.sort compare a;
         a.((Array.length a - 1) / 2)))
    (run (fun ~src ~dst -> Keyed.median_per_key ~src ~dst ~key_field:0 ~value_field:1));
  Alcotest.(check (list (list int))) "distinct_keys"
    (List.map (fun (k, _) -> [ k; 1 ]) groups)
    (run (fun ~src ~dst -> Keyed.distinct_keys ~src ~dst ~key_field:0))

let test_topk_per_key () =
  let p = pool () in
  let rows = [ [ 1; 5 ]; [ 1; 9 ]; [ 1; 1 ]; [ 2; 4 ]; [ 2; 8 ]; [ 2; 6 ]; [ 2; 7 ] ] in
  let src = sorted_kv p rows in
  let dst = fresh p ~width:2 ~capacity:8 in
  Keyed.topk_per_key ~src ~dst ~key_field:0 ~value_field:1 ~k:2;
  Alcotest.(check (list (list int))) "top 2 per key, descending"
    [ [ 1; 9 ]; [ 1; 5 ]; [ 2; 8 ]; [ 2; 7 ] ]
    (rows_of_ua dst)

(* --- Join ---------------------------------------------------------------------- *)

let reference_join left right =
  List.concat_map
    (fun l ->
      List.filter_map
        (fun r ->
          match (l, r) with
          | [ kl; vl ], [ kr; vr ] when kl = kr -> Some [ kl; vl; vr ]
          | _ -> None)
        right)
    left

let test_join_against_reference () =
  let p = pool () in
  let lrows = random_rows ~lo:0 ~hi:15 ~width:2 ~n:60 7 in
  let rrows = random_rows ~lo:0 ~hi:15 ~width:2 ~n:50 8 in
  let left = sorted_kv p lrows and right = sorted_kv p rrows in
  let expected = List.sort compare (reference_join lrows rrows) in
  let n = Join.count_matches ~left ~right ~key_field:0 in
  Alcotest.(check int) "count_matches" (List.length expected) n;
  let dst = fresh p ~width:3 ~capacity:n in
  Join.join ~left ~right ~dst ~key_field:0 ~value_field:1;
  Alcotest.(check (list (list int))) "join rows" expected (List.sort compare (rows_of_ua dst))

let test_join_disjoint () =
  let p = pool () in
  let left = sorted_kv p [ [ 1; 1 ]; [ 2; 2 ] ] in
  let right = sorted_kv p [ [ 3; 3 ]; [ 4; 4 ] ] in
  Alcotest.(check int) "no matches" 0 (Join.count_matches ~left ~right ~key_field:0)

(* --- Filter / Select / Misc ------------------------------------------------------ *)

let test_filter_band () =
  let p = pool () in
  let rows = random_rows ~width:2 ~n:300 9 in
  let src = ua_of_list p ~width:2 rows in
  let expected = List.filter (fun r -> List.nth r 1 >= -100 && List.nth r 1 <= 100) rows in
  let n = Filter.count_in_band ~src ~field:1 ~lo:(-100l) ~hi:100l in
  Alcotest.(check int) "count" (List.length expected) n;
  let dst = fresh p ~width:2 ~capacity:n in
  Filter.filter_band ~src ~dst ~field:1 ~lo:(-100l) ~hi:100l;
  Alcotest.(check (list (list int))) "kept order" expected (rows_of_ua dst)

let test_select_eq () =
  let p = pool () in
  let src = ua_of_list p ~width:2 [ [ 1; 7 ]; [ 2; 8 ]; [ 1; 9 ] ] in
  let dst = fresh p ~width:2 ~capacity:2 in
  Filter.select_eq ~src ~dst ~field:0 ~value:1l;
  Alcotest.(check (list (list int))) "selected" [ [ 1; 7 ]; [ 1; 9 ] ] (rows_of_ua dst)

let test_sample_stride () =
  let p = pool () in
  let src = ua_of_list p ~width:1 (List.init 10 (fun i -> [ i ])) in
  let dst = fresh p ~width:1 ~capacity:4 in
  Filter.sample_stride ~src ~dst ~stride:3;
  Alcotest.(check (list (list int))) "every 3rd" [ [ 0 ]; [ 3 ]; [ 6 ]; [ 9 ] ] (rows_of_ua dst)

let test_concat_and_project () =
  let p = pool () in
  let a = ua_of_list p ~width:3 [ [ 1; 2; 3 ] ] in
  let b = ua_of_list p ~width:3 [ [ 4; 5; 6 ]; [ 7; 8; 9 ] ] in
  let cat = fresh p ~width:3 ~capacity:3 in
  Misc.concat ~inputs:[ a; b ] ~dst:cat;
  Alcotest.(check (list (list int))) "concat" [ [ 1; 2; 3 ]; [ 4; 5; 6 ]; [ 7; 8; 9 ] ] (rows_of_ua cat);
  U.produce cat;
  let proj = fresh p ~width:2 ~capacity:3 in
  Misc.project ~src:cat ~dst:proj ~fields:[| 2; 0 |];
  Alcotest.(check (list (list int))) "project reorders" [ [ 3; 1 ]; [ 6; 4 ]; [ 9; 7 ] ] (rows_of_ua proj)

let test_top_k_records () =
  let p = pool () in
  let src = ua_of_list p ~width:2 [ [ 1; 5 ]; [ 2; 9 ]; [ 3; 1 ]; [ 4; 7 ] ] in
  let dst = fresh p ~width:2 ~capacity:2 in
  Misc.top_k_records ~src ~dst ~field:1 ~k:2;
  Alcotest.(check (list (list int))) "top 2 by value" [ [ 2; 9 ]; [ 4; 7 ] ] (rows_of_ua dst)

let test_shift_key () =
  let p = pool () in
  let src = ua_of_list p ~width:2 [ [ 258; 7 ]; [ 515; 8 ] ] in
  (* 258 = 1*256+2 -> house 1; 515 = 2*256+3 -> house 2 *)
  let dst = fresh p ~width:2 ~capacity:2 in
  Misc.shift_key ~src ~dst ~field:0 ~shift:8;
  Alcotest.(check (list (list int))) "houses" [ [ 1; 7 ]; [ 2; 8 ] ] (rows_of_ua dst)

(* --- run-at-a-time kernels against per-record models ----------------------------- *)

(* The kernels move records in runs and blocks; each property compares one
   of them with a plain per-record loop over lists, on inputs shaped to
   have long runs as well as short ones. *)

let rows_gen ~width ~n =
  QCheck.Gen.(list_repeat n (list_repeat width (int_range (-1000) 1000)))

let prop_shift_key_model =
  QCheck.Test.make ~name:"shift_key = per-record model" ~count:100
    QCheck.(
      make
        Gen.(
          int_range 1 5 >>= fun width ->
          int_range 0 300 >>= fun n ->
          triple (rows_gen ~width ~n) (int_bound (width - 1)) (int_bound 31)))
    (fun (rows, field, shift) ->
      let width = match rows with r :: _ -> List.length r | [] -> field + 1 in
      let p = pool () in
      let src = ua_of_list p ~width rows in
      let dst = fresh p ~width ~capacity:(max 1 (List.length rows)) in
      Misc.shift_key ~src ~dst ~field ~shift;
      rows_of_ua dst = List.map (List.mapi (fun f v -> if f = field then v asr shift else v)) rows)

let prop_project_model =
  QCheck.Test.make ~name:"project = per-record model" ~count:100
    QCheck.(
      make
        Gen.(
          int_range 1 5 >>= fun width ->
          int_range 0 300 >>= fun n ->
          pair (rows_gen ~width ~n) (array_size (int_range 1 6) (int_bound (width - 1)))))
    (fun (rows, fields) ->
      let width = match rows with r :: _ -> List.length r | [] -> 6 in
      let p = pool () in
      let src = ua_of_list p ~width rows in
      let dst = fresh p ~width:(Array.length fields) ~capacity:(max 1 (List.length rows)) in
      Misc.project ~src ~dst ~fields;
      rows_of_ua dst = List.map (fun r -> Array.to_list (Array.map (List.nth r) fields)) rows)

let prop_top_k_records_model =
  (* Distinct values (v*1000 + index) make the expected order unique. *)
  QCheck.Test.make ~name:"top_k_records = sort-and-take model" ~count:100
    QCheck.(pair (list_of_size (Gen.int_bound 300) (int_range (-500) 500)) (int_range 1 40))
    (fun (vs, k) ->
      let rows = List.mapi (fun i v -> [ i; (v * 1000) + i ]) vs in
      let p = pool () in
      let src = ua_of_list p ~width:2 rows in
      let dst = fresh p ~width:2 ~capacity:k in
      Misc.top_k_records ~src ~dst ~field:1 ~k;
      let sorted = List.sort (fun a b -> compare (List.nth b 1) (List.nth a 1)) rows in
      rows_of_ua dst = List.filteri (fun i _ -> i < k) sorted)

(* Key-sorted (key, value) rows from (key count, run length) pairs: hot keys
   have runs far longer than k. *)
let keyed_runs_gen ~max_run =
  QCheck.Gen.(
    list_size (int_range 0 8) (pair (int_range 1 max_run) (int_range (-1000) 1000)) >>= fun runs ->
    let rec build key acc = function
      | [] -> return (List.concat (List.rev acc))
      | (len, seed) :: rest ->
          list_repeat len (int_range (seed - 50) (seed + 50)) >>= fun vals ->
          build (key + 1 + (abs seed mod 3)) (List.map (fun v -> [ key; v ]) vals :: acc) rest
    in
    build (-3) [] runs)

let topk_model rows k =
  List.concat_map
    (fun (key, vs) ->
      List.filteri (fun i _ -> i < k) (List.sort (fun a b -> compare b a) vs)
      |> List.map (fun v -> [ key; v ]))
    (reference_groups rows)

let prop_topk_per_key_model ~name ~max_run ~k_range =
  QCheck.Test.make ~name ~count:80
    QCheck.(make Gen.(pair (keyed_runs_gen ~max_run) (int_range (fst k_range) (snd k_range))))
    (fun (rows, k) ->
      let p = pool () in
      let src = ua_of_list p ~width:2 rows in
      let groups = Keyed.group_count ~src ~key_field:0 in
      let dst = fresh p ~width:2 ~capacity:(max 1 (groups * k)) in
      Keyed.topk_per_key ~src ~dst ~key_field:0 ~value_field:1 ~k;
      rows_of_ua dst = topk_model rows k)

let prop_topk_hot_keys =
  prop_topk_per_key_model ~name:"topk_per_key, hot keys (run >> k)" ~max_run:600 ~k_range:(1, 12)

let prop_topk_k_beyond_run =
  prop_topk_per_key_model ~name:"topk_per_key, k > run length" ~max_run:8 ~k_range:(9, 700)

(* Window [w] covers [w*slide, w*slide + size): the model scans every
   window up to the largest timestamp and keeps the records inside. *)
let segment_model rows ~size ~slide =
  let max_ts = List.fold_left (fun acc r -> max acc (List.nth r 2)) 0 rows in
  List.filter_map
    (fun w ->
      let inside r =
        let ts = List.nth r 2 in
        ts >= w * slide && ts < (w * slide) + size
      in
      match List.filter inside rows with
      | [] -> None
      | inside -> Some (w, inside))
    (List.init ((max_ts / slide) + 1) Fun.id)

let prop_segment_model =
  QCheck.Test.make ~name:"segment = per-window model (sorted, long runs, slide <= size)" ~count:120
    QCheck.(
      make
        Gen.(
          int_range 1 40 >>= fun size ->
          int_range 1 size >>= fun slide ->
          bool >>= fun sorted ->
          list_size (int_range 0 400) (int_range 0 3) >>= fun steps ->
          (* Time-sorted: small non-negative steps, so a window's records
             arrive as one long run; otherwise the same stamps shuffled. *)
          let stamp (t, acc) d = (t + d, (t + d) :: acc) in
          let ts = List.rev (snd (List.fold_left stamp (0, []) steps)) in
          (if sorted then return ts else shuffle_l ts) >>= fun ts ->
          return (size, slide, List.mapi (fun i t -> [ i; -i; t ]) ts)))
    (fun (size, slide, rows) ->
      let p = pool () in
      let src = ua_of_list p ~width:3 rows in
      let expected = segment_model rows ~size ~slide in
      let counts = Segment.count_per_window ~src ~ts_field:2 ~window_size:size ~slide () in
      let dsts = Hashtbl.create 8 in
      Segment.segment ~src ~ts_field:2 ~window_size:size ~slide
        ~dst_for_window:(fun w ->
          let d = fresh p ~width:3 ~capacity:(List.assoc w counts) in
          Hashtbl.replace dsts w d;
          d)
        ();
      counts = List.map (fun (w, inside) -> (w, List.length inside)) expected
      && List.for_all (fun (w, inside) -> rows_of_ua (Hashtbl.find dsts w) = inside) expected)

let test_segment_negative_time () =
  (* 10-tick windows over [-15; -1; 3; 12]: -15 would fall in no window and
     -1 would truncate into window 0.  Negative event time is refused. *)
  let p = pool () in
  let src = ua_of_list p ~width:2 [ [ 1; -15 ]; [ 2; -1 ]; [ 3; 3 ]; [ 4; 12 ] ] in
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  Alcotest.(check bool) "count_per_window" true
    (raises (fun () -> Segment.count_per_window ~src ~ts_field:1 ~window_size:10 ()));
  Alcotest.(check bool) "segment" true
    (raises (fun () ->
         Segment.segment ~src ~ts_field:1 ~window_size:10
           ~dst_for_window:(fun _ -> fresh p ~width:2 ~capacity:4)
           ()));
  Alcotest.(check bool) "windows_of" true
    (raises (fun () -> Segment.windows_of ~ts:(-1) ~size:10 ~slide:10))

(* Values in runs of in-band / out-of-band records, so kept runs are long,
   short and absent. *)
let banded_rows_gen =
  QCheck.Gen.(
    list_size (int_range 0 30) (pair (int_range 1 60) bool) >>= fun runs ->
    flatten_l
      (List.map
         (fun (len, inside) ->
           list_repeat len
             (if inside then int_range (-100) 100
              else oneof [ int_range (-1000) (-101); int_range 101 1000 ]))
         runs)
    >>= fun vals -> return (List.concat vals |> List.mapi (fun i v -> [ i; v; 7 ])))

let prop_filters_model =
  QCheck.Test.make ~name:"filter_band / select_eq = per-record model (long runs)" ~count:150
    (QCheck.make banded_rows_gen)
    (fun rows ->
      let p = pool () in
      let src = ua_of_list p ~width:3 rows in
      let keep pred = List.filter (fun r -> pred (List.nth r 1)) rows in
      let band = keep (fun v -> v >= -100 && v <= 100) in
      let n = Filter.count_in_band ~src ~field:1 ~lo:(-100l) ~hi:100l in
      let dst = fresh p ~width:3 ~capacity:(max 1 n) in
      Filter.filter_band ~src ~dst ~field:1 ~lo:(-100l) ~hi:100l;
      let sel = fresh p ~width:3 ~capacity:(max 1 (List.length rows)) in
      Filter.select_eq ~src ~dst:sel ~field:2 ~value:7l;
      n = List.length band && rows_of_ua dst = band && rows_of_ua sel = rows)

let prop_sample_stride_model =
  (* Exactly the records at indices 0, stride, 2*stride, ...: a kernel that
     tested a record twice, or skipped one, would shift every later pick. *)
  QCheck.Test.make ~name:"sample_stride keeps every stride-th record" ~count:150
    QCheck.(
      make Gen.(pair (int_bound 700) (frequency [ (9, int_range 1 40); (1, return max_int) ])))
    (fun (n, stride) ->
      let p = pool () in
      let rows = List.init n (fun i -> [ i ]) in
      let src = ua_of_list p ~width:1 rows in
      let dst = fresh p ~width:1 ~capacity:(max 1 n) in
      Filter.sample_stride ~src ~dst ~stride;
      rows_of_ua dst = List.filter (fun r -> List.hd r mod stride = 0) rows)

(* --- fused super-kernel (PR 7) ----------------------------------------------------- *)

module F = Sbt_prim.Fused
module PK = Sbt_prim.Par_kernel

let fused_chain =
  [
    F.F_filter_band { field = 1; lo = -400l; hi = 400l };
    F.F_shift_key { field = 0; shift = 3 };
    F.F_project { fields = [| 1; 0 |] };
    F.F_select { field = 1; value = 12l };
  ]

let test_fused_equals_unfused_sequence () =
  (* The single-pass fused kernel must be byte-identical to running the
     four primitives one after another. *)
  let p = pool () in
  let rows = random_rows ~width:3 ~n:2_000 77 in
  let src = ua_of_list p ~width:3 rows in
  (* Reference: the unfused sequence. *)
  let s1 = fresh p ~width:3 ~capacity:2_000 in
  Filter.filter_band ~src ~dst:s1 ~field:1 ~lo:(-400l) ~hi:400l;
  U.produce s1;
  let s2 = fresh p ~width:3 ~capacity:(U.length s1) in
  Misc.shift_key ~src:s1 ~dst:s2 ~field:0 ~shift:3;
  U.produce s2;
  let s3 = fresh p ~width:2 ~capacity:(U.length s2) in
  Misc.project ~src:s2 ~dst:s3 ~fields:[| 1; 0 |];
  U.produce s3;
  let s4 = fresh p ~width:2 ~capacity:(U.length s3) in
  Filter.select_eq ~src:s3 ~dst:s4 ~field:1 ~value:12l;
  U.produce s4;
  (* Fused, serial and chunked. *)
  List.iter
    (fun pieces ->
      let dst = U.create ~id:7 ~pool:p ~width:2 ~capacity:2_000 () in
      PK.fused ~pieces ~src ~dst ~steps:fused_chain ();
      Alcotest.(check (list (list int)))
        (Printf.sprintf "identical to unfused (pieces=%d)" pieces)
        (rows_of_ua s4) (rows_of_ua dst))
    [ 1; 4 ]

let test_fused_steps_codec () =
  (match F.decode_steps (F.encode_steps fused_chain) with
  | Some steps -> Alcotest.(check bool) "roundtrip" true (steps = fused_chain)
  | None -> Alcotest.fail "decode failed");
  Alcotest.(check bool) "garbage rejected" true
    (F.decode_steps (Bytes.of_string "\255nonsense") = None);
  Alcotest.(check bool) "empty rejected" true (F.decode_steps Bytes.empty = None)

let test_fused_width_tracking () =
  Alcotest.(check (option int)) "3 -> 2 through project" (Some 2) (F.width_after 3 fused_chain);
  Alcotest.(check (option int)) "field out of width is invalid" None
    (F.width_after 1 fused_chain)

(* --- registry --------------------------------------------------------------------- *)

let test_registry () =
  Alcotest.(check int) "exactly 23 primitives" 23 P.count;
  List.iteri
    (fun i prim ->
      Alcotest.(check int) "stable id" i (P.to_id prim);
      Alcotest.(check bool) "of_id roundtrip" true (P.of_id i = Some prim);
      Alcotest.(check bool) "of_name roundtrip" true (P.of_name (P.name prim) = Some prim))
    P.all;
  Alcotest.(check bool) "of_id out of range" true (P.of_id 23 = None);
  (* Pseudo-ids for audit records must not collide with primitive ids. *)
  Alcotest.(check bool) "pseudo ids distinct" true
    (P.ingress_id >= P.count && P.egress_id >= P.count && P.windowing_id >= P.count)

let test_of_name_total () =
  (* [of_name] is total: unknown and near-miss names return [None], never
     raise.  Names are exact (case-sensitive) matches. *)
  List.iter
    (fun s -> Alcotest.(check bool) (Printf.sprintf "%S unknown" s) true (P.of_name s = None))
    [ ""; "nope"; "sort"; "SORT"; " Sort"; "Sort "; "Sort2"; "Fused" ]

let test_fusable_ops () =
  let fusable = [ P.Filter_band; P.Select; P.Project; P.Shift_key ] in
  List.iter
    (fun prim ->
      Alcotest.(check bool) (P.name prim) (List.mem prim fusable) (P.fusable prim))
    P.all

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "prim"
    [
      ( "sort",
        [
          Alcotest.test_case "radix correct" `Quick (check_sorted_algo Sort.Radix);
          Alcotest.test_case "std correct" `Quick (check_sorted_algo Sort.Std);
          Alcotest.test_case "qsort correct" `Quick (check_sorted_algo Sort.Qsort);
          Alcotest.test_case "negative keys" `Quick test_sort_negative_keys;
          Alcotest.test_case "radix stability" `Quick test_sort_stability_radix;
          Alcotest.test_case "in place" `Quick test_sort_in_place;
          q prop_sort_algorithms_agree;
        ] );
      ( "merge",
        [
          Alcotest.test_case "merge2" `Quick test_merge2;
          Alcotest.test_case "kway" `Quick test_kway_merge;
          Alcotest.test_case "kway single" `Quick test_kway_single_input;
        ] );
      ( "segment",
        [
          Alcotest.test_case "counts and routing" `Quick test_segment_counts_and_routing;
          Alcotest.test_case "negative event time refused" `Quick test_segment_negative_time;
          q prop_segment_model;
        ] );
      ( "agg",
        [
          Alcotest.test_case "whole array" `Quick test_agg_whole_array;
          Alcotest.test_case "empty" `Quick test_agg_empty;
          Alcotest.test_case "64-bit sums" `Quick test_agg_sum_overflow_safe;
        ] );
      ( "keyed",
        [
          Alcotest.test_case "against reference" `Quick test_keyed_against_reference;
          Alcotest.test_case "topk per key" `Quick test_topk_per_key;
          q prop_topk_hot_keys;
          q prop_topk_k_beyond_run;
        ] );
      ( "join",
        [
          Alcotest.test_case "against reference" `Quick test_join_against_reference;
          Alcotest.test_case "disjoint keys" `Quick test_join_disjoint;
        ] );
      ( "filter-misc",
        [
          Alcotest.test_case "filter band" `Quick test_filter_band;
          Alcotest.test_case "select eq" `Quick test_select_eq;
          Alcotest.test_case "sample stride" `Quick test_sample_stride;
          Alcotest.test_case "concat and project" `Quick test_concat_and_project;
          Alcotest.test_case "top k records" `Quick test_top_k_records;
          Alcotest.test_case "shift key" `Quick test_shift_key;
          q prop_shift_key_model;
          q prop_project_model;
          q prop_top_k_records_model;
          q prop_filters_model;
          q prop_sample_stride_model;
        ] );
      ( "fused",
        [
          Alcotest.test_case "equals unfused sequence" `Quick test_fused_equals_unfused_sequence;
          Alcotest.test_case "steps codec" `Quick test_fused_steps_codec;
          Alcotest.test_case "width tracking" `Quick test_fused_width_tracking;
        ] );
      ( "registry",
        [
          Alcotest.test_case "ids names pseudo-ops" `Quick test_registry;
          Alcotest.test_case "of_name total" `Quick test_of_name_total;
          Alcotest.test_case "fusable ops" `Quick test_fusable_ops;
        ] );
    ]
