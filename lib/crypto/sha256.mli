(** SHA-256 (FIPS 180-4), from scratch.

    Backs egress signing (through {!Hmac}) and the verifier's integrity
    checks on uploaded audit-record batches. *)

type ctx
(** Incremental hashing context.  All state, including the message
    schedule, lives in the context, so domains may hash concurrently on
    separate contexts. *)

val init : unit -> ctx
val update : ctx -> bytes -> int -> int -> unit
(** [update ctx buf off len] absorbs [len] bytes of [buf] at [off]. *)

val finalize : ctx -> bytes
(** Returns the 32-byte digest; the context must not be reused. *)

val digest : bytes -> bytes
(** One-shot hash of a whole buffer. *)

val digest_hex : bytes -> string
(** One-shot hash rendered as lowercase hex (for tests and logs). *)
