(** Segment trusted primitive: split a batch by event-time window.

    The Windowing operator is compiled to Segment: each input record is
    routed to the output uArray of the fixed window its timestamp falls
    in.  Outputs are pre-sized by a counting pass, keeping uArray
    capacities exact.

    Both passes work a run at a time: a run is a maximal stretch of
    consecutive records whose timestamps fall in the same windows, and
    each run costs one count update and one blit per window it covers.
    Near-time-ordered batches have a run per window, so the per-record
    cost is two compares and the copy. *)

val windows_of : ts:int -> size:int -> slide:int -> int * int
(** Sliding windows: the inclusive [lo, hi] range of window indices
    containing [ts], where window [w] covers
    [\[w*slide, w*slide + size)].  [slide = size] degenerates to the
    fixed-window case with [lo = hi].  Raises [Invalid_argument] on a
    negative [ts]: event time is non-negative ticks, and truncating
    division would otherwise put [ts] in the wrong window or in none. *)

val count_per_window :
  src:Sbt_umem.Uarray.t -> ts_field:int -> window_size:int -> ?slide:int -> unit -> (int * int) list
(** [(window_index, record_count)] for every non-empty window in [src],
    ascending by window index.  With [slide < window_size] a record
    counts toward every window containing it.  Raises [Invalid_argument]
    if [ts_field] lies outside the record or any timestamp is negative
    (see {!windows_of}). *)

val segment :
  src:Sbt_umem.Uarray.t ->
  ts_field:int ->
  window_size:int ->
  ?slide:int ->
  dst_for_window:(int -> Sbt_umem.Uarray.t) ->
  unit ->
  unit
(** Route each record of [src] to [dst_for_window w] for every window [w]
    containing it.  The callback is invoked once per distinct window
    (memoized here), in order of first appearance; each destination
    receives its records in [src] order.  Destinations must be open with
    sufficient capacity. *)
