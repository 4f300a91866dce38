module U = Sbt_umem.Uarray

let concat ~inputs ~dst =
  List.iter (fun src -> U.append_blit dst ~src ~src_pos:0 ~len:(U.length src)) inputs

let top_k_records ~src ~dst ~field ~k =
  if k <= 0 then invalid_arg "Misc.top_k_records: k must be positive";
  let w = U.width src and n = U.length src in
  if U.width dst <> w then invalid_arg "Misc.top_k_records: width mismatch";
  if field < 0 || field >= w then invalid_arg "Misc.top_k_records: bad field";
  let buf = U.raw src in
  let value =
    Array.init n (fun r -> Int32.to_int (Bigarray.Array1.unsafe_get buf ((r * w) + field)))
  in
  let order = Array.init n (fun r -> r) in
  Array.sort (fun a b -> compare (value.(b) : int) value.(a)) order;
  let m = min k n in
  let at = U.reserve dst m in
  let dbuf = U.raw dst in
  for i = 0 to m - 1 do
    let s = order.(i) * w and d = (at + i) * w in
    for f = 0 to w - 1 do
      Bigarray.Array1.unsafe_set dbuf (d + f) (Bigarray.Array1.unsafe_get buf (s + f))
    done
  done

let shift_key ~src ~dst ~field ~shift =
  let w = U.width src and n = U.length src in
  if U.width dst <> w then invalid_arg "Misc.shift_key: width mismatch";
  if field < 0 || field >= w then invalid_arg "Misc.shift_key: bad field";
  if shift < 0 || shift > 31 then invalid_arg "Misc.shift_key: bad shift";
  let at = U.length dst in
  U.append_blit dst ~src ~src_pos:0 ~len:n;
  let dbuf = U.raw dst in
  for r = at to at + n - 1 do
    let i = (r * w) + field in
    Bigarray.Array1.unsafe_set dbuf i (Int32.shift_right (Bigarray.Array1.unsafe_get dbuf i) shift)
  done

let project ~src ~dst ~fields =
  let w = U.width src and n = U.length src in
  let dw = Array.length fields in
  if U.width dst <> dw then invalid_arg "Misc.project: dst width mismatch";
  Array.iter (fun f -> if f < 0 || f >= w then invalid_arg "Misc.project: bad field") fields;
  let at = U.reserve dst n in
  let buf = U.raw src and dbuf = U.raw dst in
  for r = 0 to n - 1 do
    let s = r * w and d = (at + r) * dw in
    for i = 0 to dw - 1 do
      Bigarray.Array1.unsafe_set dbuf (d + i)
        (Bigarray.Array1.unsafe_get buf (s + Array.unsafe_get fields i))
    done
  done
