(** Filter trusted primitives: FilterBand, Select and Sample.

    FilterBand keeps records whose field value lies inside a closed band
    — the paper's Filter benchmark uses it at 1% selectivity.  A counting
    pass sizes the output exactly.  Both passes are branch-free per
    record; the copy compacts a block of records at a time into a small
    scratch and moves each block's kept records with one blit.  Every
    function raises [Invalid_argument] when [field] lies outside the
    record. *)

val count_in_band :
  src:Sbt_umem.Uarray.t -> field:int -> lo:int32 -> hi:int32 -> int

val filter_band :
  src:Sbt_umem.Uarray.t ->
  dst:Sbt_umem.Uarray.t ->
  field:int ->
  lo:int32 ->
  hi:int32 ->
  unit
(** Copy records with [lo <= v <= hi] on [field] into the open [dst]
    (same width). *)

val select_eq :
  src:Sbt_umem.Uarray.t -> dst:Sbt_umem.Uarray.t -> field:int -> value:int32 -> unit
(** Keep records whose [field] equals [value] (the Select primitive). *)

val sample_stride :
  src:Sbt_umem.Uarray.t -> dst:Sbt_umem.Uarray.t -> stride:int -> unit
(** Keep every [stride]-th record (deterministic down-sampling). *)
