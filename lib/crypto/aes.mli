(** AES-128 block cipher (FIPS-197), from scratch.

    Used by the engine for ingress decryption and egress encryption (in CTR
    mode, see {!Ctr}).  {!encrypt_block} is the 32-bit T-table cipher of
    FIPS-197 §5.2, like the paper's table-based software AES: four
    256-word tables (4 KB, generated at startup from the S-box) fold
    SubBytes, ShiftRows and MixColumns into four lookups per column and
    round, and the state lives in four native ints, so a block allocates
    nothing.  AES-CTR over a 4 MB buffer went from 6.3–7.1 MB/s with the
    former byte-at-a-time cipher to a median 122 MB/s
    ([bench/main.exe crypto], 2-vCPU x86-64 VM).  {!decrypt_block} stays
    the textbook inverse cipher: the engine never calls it, and it serves
    as an independent check on the tables. *)

type key
(** Expanded 128-bit key schedule (11 round keys). *)

val expand_key : bytes -> key
(** [expand_key raw] expands a 16-byte key.  Raises [Invalid_argument] if
    [raw] is not 16 bytes long. *)

val encrypt_block : key -> bytes -> int -> bytes -> int -> unit
(** [encrypt_block k src soff dst doff] encrypts the 16-byte block at
    [src+soff] into [dst+doff].  [src] and [dst] may be the same buffer. *)

val decrypt_block : key -> bytes -> int -> bytes -> int -> unit
(** Inverse cipher of {!encrypt_block}. *)

val block_size : int
(** 16. *)
