(** HMAC-SHA-256 (RFC 2104).

    The data plane signs every egress batch and every flushed audit-record
    batch with an HMAC under a key shared with the cloud consumer; the
    verifier recomputes it before replaying. *)

val mac : key:bytes -> bytes -> bytes
(** [mac ~key msg] is the 32-byte HMAC-SHA-256 tag of [msg]. *)

val verify : key:bytes -> tag:bytes -> bytes -> bool
(** Constant-time comparison of [tag] against the recomputed tag. *)

val mac_parts : key:bytes -> bytes list -> bytes
(** [mac_parts ~key parts] is [mac ~key (Bytes.concat Bytes.empty parts)],
    absorbing each part in place instead of building the concatenation. *)

val verify_parts : key:bytes -> tag:bytes -> bytes list -> bool
(** {!verify} over the concatenation of [parts], without building it. *)
