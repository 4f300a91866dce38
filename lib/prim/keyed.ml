module U = Sbt_umem.Uarray

let get_int (buf : U.buf) w r f = Int32.to_int (Bigarray.Array1.unsafe_get buf ((r * w) + f))

(* Iterate runs of equal keys in a key-sorted array: calls
   [f key run_start run_len] for each run.  Keys compare as native ints
   to keep the scan allocation- and branch-cheap. *)
let iter_runs src ~key_field f =
  let w = U.width src and n = U.length src in
  let buf = U.raw src in
  let r = ref 0 in
  while !r < n do
    let k = get_int buf w !r key_field in
    let start = !r in
    incr r;
    while !r < n && get_int buf w !r key_field = k do incr r done;
    f k start (!r - start)
  done

let check_kv dst = if U.width dst <> 2 then invalid_arg "Keyed: dst width must be 2 (key, value)"

(* Store one (key, value) record through reserve: no per-record array. *)
let emit dst key v =
  let at = U.reserve dst 1 in
  let b = U.raw dst in
  Bigarray.Array1.unsafe_set b (2 * at) (Int32.of_int key);
  Bigarray.Array1.unsafe_set b ((2 * at) + 1) (Int32.of_int v)

(* Exact: a run holds fewer than 2^31 values of at most 2^31 each. *)
let run_sum buf w ~value_field start len =
  let acc = ref 0 in
  for r = start to start + len - 1 do
    acc := !acc + get_int buf w r value_field
  done;
  !acc

let sum_per_key ~src ~dst ~key_field ~value_field =
  check_kv dst;
  let w = U.width src in
  let buf = U.raw src in
  iter_runs src ~key_field (fun k start len -> emit dst k (run_sum buf w ~value_field start len))

let count_per_key ~src ~dst ~key_field =
  check_kv dst;
  iter_runs src ~key_field (fun k _ len -> emit dst k len)

let avg_per_key ~src ~dst ~key_field ~value_field =
  check_kv dst;
  let w = U.width src in
  let buf = U.raw src in
  iter_runs src ~key_field (fun k start len ->
      emit dst k (run_sum buf w ~value_field start len / len))

let median_per_key ~src ~dst ~key_field ~value_field =
  check_kv dst;
  let w = U.width src in
  let buf = U.raw src in
  iter_runs src ~key_field (fun k start len ->
      (* Runs are only key-sorted (merging loses per-key value order), so
         sort each run's values in a temporary — runs are small. *)
      let vals = Array.init len (fun i -> get_int buf w (start + i) value_field) in
      Array.sort compare vals;
      emit dst k vals.((len - 1) / 2))

let topk_per_key ~src ~dst ~key_field ~value_field ~k =
  check_kv dst;
  if k <= 0 then invalid_arg "Keyed.topk_per_key: k must be positive";
  let w = U.width src in
  let buf = U.raw src in
  (* [top.(0 .. m-1)]: the run's largest values so far, descending.  Each
     value costs at most min(k, len) shifts, so a hot key stays linear in
     its run length. *)
  let top = Array.make (max 1 (min k (U.length src))) 0 in
  iter_runs src ~key_field (fun key start len ->
      let m = ref 0 in
      for r = start to start + len - 1 do
        let v = get_int buf w r value_field in
        if !m < k || v > top.(k - 1) then begin
          let i = ref (if !m < k then !m else k - 1) in
          if !m < k then incr m;
          while !i > 0 && top.(!i - 1) < v do
            top.(!i) <- top.(!i - 1);
            decr i
          done;
          top.(!i) <- v
        end
      done;
      let at = U.reserve dst !m in
      let b = U.raw dst in
      let k32 = Int32.of_int key in
      for i = 0 to !m - 1 do
        Bigarray.Array1.unsafe_set b (2 * (at + i)) k32;
        Bigarray.Array1.unsafe_set b ((2 * (at + i)) + 1) (Int32.of_int top.(i))
      done)

let distinct_keys ~src ~dst ~key_field =
  check_kv dst;
  iter_runs src ~key_field (fun k _ _ -> emit dst k 1)

let group_count ~src ~key_field =
  let n = ref 0 in
  iter_runs src ~key_field (fun _ _ _ -> incr n);
  !n
