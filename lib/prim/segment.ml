module U = Sbt_umem.Uarray

let windows_of ~ts ~size ~slide =
  if size <= 0 || slide <= 0 then invalid_arg "Segment.windows_of: size and slide must be positive";
  if ts < 0 then invalid_arg "Segment.windows_of: negative event time";
  let hi = ts / slide in
  let lo =
    (* smallest w with w*slide + size > ts *)
    let d = ts - size in
    if d < 0 then 0 else (d / slide) + 1
  in
  (lo, hi)

(* Calls [f start len lo hi] for each maximal run of consecutive records
   whose timestamps share one window span [lo, hi].  The timestamps with
   that span form one interval: [hi] pins ts to
   [hi*slide, hi*slide + slide - 1] and [lo] pins it to
   [(lo-1)*slide + size, lo*slide + size - 1] (to [0, size - 1] when
   [lo = 0]), so extending a run costs two compares.  A negative
   timestamp always lies outside the current interval and so reaches
   {!windows_of}, which refuses it. *)
let iter_spans src ~ts_field ~size ~slide f =
  let w = U.width src and n = U.length src in
  if ts_field < 0 || ts_field >= w then invalid_arg "Segment: ts_field outside the record";
  let buf = U.raw src in
  let ts_at r = Int32.to_int (Bigarray.Array1.unsafe_get buf ((r * w) + ts_field)) in
  let r = ref 0 in
  while !r < n do
    let start = !r in
    let lo, hi = windows_of ~ts:(ts_at start) ~size ~slide in
    let first = if lo = 0 then hi * slide else max (hi * slide) (((lo - 1) * slide) + size) in
    let last = min ((hi * slide) + slide - 1) ((lo * slide) + size - 1) in
    incr r;
    while
      !r < n
      &&
      let ts = ts_at !r in
      ts >= first && ts <= last
    do
      incr r
    done;
    f start (!r - start) lo hi
  done

let count_per_window ~src ~ts_field ~window_size ?slide () =
  let slide = Option.value ~default:window_size slide in
  let counts = Hashtbl.create 8 in
  iter_spans src ~ts_field ~size:window_size ~slide (fun _ len lo hi ->
      for win = lo to hi do
        Hashtbl.replace counts win (len + Option.value ~default:0 (Hashtbl.find_opt counts win))
      done);
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts [])

let segment ~src ~ts_field ~window_size ?slide ~dst_for_window () =
  let slide = Option.value ~default:window_size slide in
  let w = U.width src in
  let dsts = Hashtbl.create 8 in
  let dst_of win =
    match Hashtbl.find_opt dsts win with
    | Some d -> d
    | None ->
        let d = dst_for_window win in
        if U.width d <> w then invalid_arg "Segment.segment: width mismatch";
        Hashtbl.replace dsts win d;
        d
  in
  iter_spans src ~ts_field ~size:window_size ~slide (fun start len lo hi ->
      for win = lo to hi do
        U.append_blit (dst_of win) ~src ~src_pos:start ~len
      done)
