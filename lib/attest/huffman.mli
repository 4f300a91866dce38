(** Canonical Huffman coding over a byte alphabet.

    Used for the audit-record columns with skewed value distributions —
    primitive ids and data counts (paper §7).  The code table (one length
    per present symbol) is serialized in front of the payload, so a block
    is self-describing.  The block bytes for a given input are fixed: audit
    batches are MACed over them. *)

val encode : bytes -> bytes
(** Compress a byte sequence.  Degenerate inputs (empty, single distinct
    symbol) are handled. *)

val encode_sub : bytes -> pos:int -> len:int -> bytes
(** [encode_sub b ~pos ~len] is [encode (Bytes.sub b pos len)] without the
    copy. *)

val decode : bytes -> bytes
(** Inverse of {!encode}.  Total: any input gives a value or raises
    [Invalid_argument], and the output is never longer than eight symbols
    per payload byte. *)

val decode_sub : bytes -> pos:int -> len:int -> bytes
(** [decode_sub b ~pos ~len] is [decode (Bytes.sub b pos len)] without the
    copy. *)
