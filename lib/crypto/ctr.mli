(** AES-128 in counter (CTR) mode.

    CTR turns the block cipher into a stream cipher, so encryption and
    decryption are the same operation and arbitrary lengths are supported
    without padding — the right fit for streaming batches of fixed-size
    events. *)

type t
(** A CTR stream keyed with an AES key and a 8-byte nonce. *)

val create : key:bytes -> nonce:int64 -> t
(** [create ~key ~nonce] builds a stream.  [key] must be 16 bytes.
    The counter block is [nonce || block_index]. *)

val xcrypt : t -> pos:int64 -> bytes -> int -> int -> unit
(** [xcrypt t ~pos buf off len] en/decrypts [len] bytes of [buf] in place,
    treating [pos] as the absolute byte offset within the stream (so
    batches can be processed independently and out of order).  Byte
    [pos + i] uses block index [Int64.div (pos + i) 16L]: a negative
    (top-bit-set) [pos] must be a multiple of 16, else [Invalid_argument].
    Whole blocks are XORed as two 64-bit words.  The call keeps its
    counter block in its own scratch, so one [t] may be used from several
    domains at once. *)

val xcrypt_bytes : key:bytes -> nonce:int64 -> bytes -> bytes
(** One-shot convenience: fresh stream, position 0, returns a copy. *)
