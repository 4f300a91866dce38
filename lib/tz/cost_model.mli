(** Platform cost model.

    The repository runs on commodity hardware with no TEE, so the costs a
    real TrustZone deployment would pay are charged in *virtual time* by
    the discrete-event scheduler.  This module centralizes the constants.

    Calibration notes (matching the paper's HiKey + OP-TEE 2.3 platform):

    - [world_switch_ns]: the paper reports that a world switch costs a few
      thousand cycles in CPU hardware but that "most of the world switch
      overhead comes from OP-TEE", i.e. the software path (context
      save/restore, secure-OS dispatch, normal-world driver) dominates.
      The default of 100 us per complete entry/exit pair reproduces the
      Figure 9 breakdown: world switching dominates GroupBy at 8K-event
      batches and falls under 10% at 128K.
    - [crypto_scale]: the HiKey's Kirin 620 lacks usable AES hardware
      offload for this workload, so the paper pays table-based software
      AES.  The model charges ingress AES-CTR at 260 MB/s of virtual
      time: the original calibration was 0.025 against a textbook OCaml
      AES-CTR measured at ~6.5 MB/s (6.5 / 0.025 = 260), which kept the
      decryption overhead in the paper's 4-35% proportion to compute.
      The scale is that modeled rate divided into the measured one: the
      T-table AES-CTR of [Sbt_crypto.Aes] measures a median 122 MB/s
      ([bench/main.exe crypto], 4 MB buffer, 2-vCPU x86-64 VM), so
      [crypto_scale = 122 / 260 = 0.47].  Measured crypto time is
      multiplied by this factor when charged as virtual time; the
      decryption itself is still performed for real.
    - [copy_ns_per_byte]: the IOviaOS path crosses the commodity network
      stack, user space and the TEE boundary - several copies end to
      end, modeled at 0.5 GB/s effective. *)

type t = {
  world_switch_ns : float;
      (** Cost of one complete TEE entry + exit pair (SMC in, return). *)
  copy_ns_per_byte : float;
      (** Cost of copying a byte across the TEE boundary (the IOviaOS
          ingestion path pays this on every ingested byte; trusted IO
          avoids it). *)
  host_scale : float;
      (** Multiplier applied to *measured* compute time when converting it
          into virtual time, to model a slower or faster target CPU.  1.0
          reproduces the host. *)
  crypto_scale : float;
      (** Multiplier applied to measured crypto time (see above). *)
}

val default : t
(** 100 us per switch pair, 2 ns/byte boundary copy (~0.5 GB/s end to
    end), host_scale 1.0, crypto_scale 0.47. *)

val free : t
(** All costs zero, scales 1.0 — the Insecure engine version uses this. *)

val with_switch_ns : float -> t -> t
