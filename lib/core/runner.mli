(** End-to-end experiment runner.

    A report over a one-tenant {!Session}: executes the workload once
    for real under the DES (recording the task graph, memory behaviour,
    audit records and results), then replays the trace at the requested
    core counts to find the maximum sustainable throughput under the
    paper's output-delay targets — the methodology behind Figure 7. *)

type throughput_point = {
  cores : int;
  events_per_sec : float;
  mb_per_sec : float;
  delay_ms : float;  (** worst window delay at the reported rate *)
  utilization : float;
}

type outcome = {
  version : Dataplane.version;
  pipeline_name : string;
  run : Runtime.run_result;
      (** the kept recording: results, corrections, audit, verifier spec,
          loss, registry, TEE snapshot; [exec] is the real-parallel
          report, [Some] iff the session's engine is [`Domains _] *)
  points : throughput_point list;
  mem_steady_mb : float;  (** mean committed secure memory at window closes *)
  mem_high_water_mb : float;
  audit_records : int;
  audit_raw_bytes : int;
  audit_compressed_bytes : int;
  verified : bool;  (** cloud verifier replayed the audit log cleanly *)
  verifier_report : Sbt_attest.Verifier.report;
  results_corrected : (int * Dataplane.sealed_result) list;
      (** the cloud-side merge: the run's results, sorted by window, with
          each corrected window replaced by its highest-generation
          correction re-sealed under the canonical egress nonce
          ({!Dataplane.reseal_correction}) — byte-comparable against an
          in-order run's results *)
}

val merge_corrections :
  egress_key:bytes ->
  (int * Dataplane.sealed_result) list ->
  (int * int * Dataplane.sealed_result) list ->
  (int * Dataplane.sealed_result) list
(** [merge_corrections ~egress_key results corrections] applies the
    cloud-side merge in order: for every window the highest-generation
    correction wins, is re-sealed under the canonical egress nonce and
    replaces (or, for a window with no original egress, joins) the
    sealed results; output sorted by window. *)

val run :
  ?cores_list:int list -> ?target_delay_ms:float -> ?repeats:int -> Session.t -> outcome
(** Report on a one-tenant session.  The session supplies the config,
    engine and exec options.  Defaults: cores [\[2;4;8\]], 500 ms target,
    one recording.  [repeats > 1] records several times and keeps the
    cheapest trace, suppressing host measurement noise (pointless under
    {!Runtime.deterministic_cost}, where every recording is identical).
    A tracer in the config holds the last recording's spans (use
    [repeats = 1] so they match the kept one).  Under a [`Domains n]
    engine the real-parallel phase ({!Session.measure}) runs once, over
    the kept recording.  Raises [Invalid_argument] unless exactly one
    tenant was admitted. *)

val pp_outcome : Format.formatter -> outcome -> unit
