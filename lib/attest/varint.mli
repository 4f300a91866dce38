(** LEB128 variable-length integers with zigzag signed mapping.

    Delta-encoded audit-record columns (timestamps, uArray ids, window
    numbers — all near-monotonic) shrink to one or two bytes per value
    this way. *)

val write_unsigned : Buffer.t -> int64 -> unit
val read_unsigned : bytes -> int ref -> int64
(** Reads at the position in the ref, advancing it. *)

val zigzag : int64 -> int64
val unzigzag : int64 -> int64
val write_signed : Buffer.t -> int64 -> unit
val read_signed : bytes -> int ref -> int64

val unsigned_size : int -> int
(** Bytes {!write_unsigned} takes for a non-negative int. *)

val put_unsigned : bytes -> int -> int -> int
(** [put_unsigned out pos n] writes the {!write_unsigned} bytes of the
    non-negative [n] at [pos] and returns the position after them. *)

val read_int : bytes -> int ref -> stop:int -> int
(** Native-int {!read_unsigned} over [data] up to [stop], advancing the
    position.  Total: raises [Invalid_argument] on a varint cut off by
    [stop] or longer than nine bytes; the result is negative when the
    ninth byte sets the sign bit. *)
