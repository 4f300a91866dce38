(** Two-lane overlap on one resident helper domain.

    Boundary crypto is encrypt-then-MAC: verifying a tag and decrypting
    the payload both only read the same ciphertext, so the two can run at
    once.  [Lane] keeps one helper domain, started on first use and
    parked on a condition variable between jobs, and runs one half of
    such a pair on it while the caller runs the other.

    There is no switch: small buffers never pay the handoff (a few
    microseconds against ~0.2 ms of HMAC per 32 KB on a 2-vCPU x86 host),
    and a second domain that arrives while the helper is taken runs its
    pair serially. *)

val min_bytes : int
(** 32 KB: pairs over buffers shorter than this run serially on the
    caller and never start the helper. *)

val both : bytes:int -> (unit -> 'a) -> (unit -> 'b) -> 'a * 'b
(** [both ~bytes f g] is [(f (), g ())].  When [bytes >= min_bytes] and
    the helper is free, [f] runs on the helper while [g] runs on the
    caller, and the call returns once both have finished.  Otherwise [f]
    then [g] run on the caller.  An exception from either half reaches
    the caller, [f]'s when both raise; the helper keeps serving. *)

val handoffs : unit -> int
(** Pairs run on the helper so far in this process; while it reads 0
    the helper domain has not been started. *)
