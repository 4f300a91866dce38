module U = Sbt_umem.Uarray

let get (buf : U.buf) w r f = Bigarray.Array1.unsafe_get buf ((r * w) + f)

(* [1] when [lo <= v <= hi], else [0], without a branch: both differences
   are non-negative exactly when [v] is in the band, and the sign bit of
   their [lor] says whether one is negative.  Operands are 32-bit values
   in 63-bit ints, so the differences cannot overflow. *)
let in_band v ~lo ~hi = 1 - (((v - lo) lor (hi - v)) lsr 62)

let check_field ~w field = if field < 0 || field >= w then invalid_arg "Filter: bad field"

let count_in_band ~src ~field ~lo ~hi =
  let w = U.width src and n = U.length src in
  check_field ~w field;
  let buf = U.raw src in
  let lo = Int32.to_int lo and hi = Int32.to_int hi in
  let c = ref 0 in
  for r = 0 to n - 1 do
    c := !c + in_band (Int32.to_int (get buf w r field)) ~lo ~hi
  done;
  !c

(* Records staged per block: big enough to amortize the reserve and blit,
   small enough for the scratch to stay in L1 (3 KB at width 3). *)
let block = 256

(* Branch-free compaction: every record of a block is copied to the next
   free scratch slot, and the slot advances only when the record is kept,
   so a random keep pattern costs no mispredicted branches.  Each block's
   kept records then reach [dst] with one reserve and one blit.  Runs of
   kept records in filtered streams are short (mean 2 at 50%
   selectivity), so blitting run by run would pay the per-append cost
   about once per two records. *)
let filter_band ~src ~dst ~field ~lo ~hi =
  let w = U.width src and n = U.length src in
  if U.width dst <> w then invalid_arg "Filter: width mismatch";
  check_field ~w field;
  let buf = U.raw src in
  let lo = Int32.to_int lo and hi = Int32.to_int hi in
  let scratch = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout (block * w) in
  let b0 = ref 0 in
  while !b0 < n do
    let b1 = min n (!b0 + block) in
    let kept = ref 0 in
    for r = !b0 to b1 - 1 do
      let s = r * w and d = !kept * w in
      for f = 0 to w - 1 do
        Bigarray.Array1.unsafe_set scratch (d + f) (Bigarray.Array1.unsafe_get buf (s + f))
      done;
      kept := !kept + in_band (Int32.to_int (get buf w r field)) ~lo ~hi
    done;
    if !kept > 0 then begin
      let cells = !kept * w in
      let at = U.reserve dst !kept in
      Bigarray.Array1.blit (Bigarray.Array1.sub scratch 0 cells)
        (Bigarray.Array1.sub (U.raw dst) (at * w) cells)
    end;
    b0 := b1
  done

let select_eq ~src ~dst ~field ~value = filter_band ~src ~dst ~field ~lo:value ~hi:value

let sample_stride ~src ~dst ~stride =
  if stride <= 0 then invalid_arg "Filter.sample_stride: stride must be positive";
  let w = U.width src and n = U.length src in
  if U.width dst <> w then invalid_arg "Filter: width mismatch";
  let kept = if n = 0 then 0 else ((n - 1) / stride) + 1 in
  let at = U.reserve dst kept in
  let buf = U.raw src and dbuf = U.raw dst in
  for i = 0 to kept - 1 do
    let s = i * stride * w and d = (at + i) * w in
    for f = 0 to w - 1 do
      Bigarray.Array1.unsafe_set dbuf (d + f) (Bigarray.Array1.unsafe_get buf (s + f))
    done
  done
