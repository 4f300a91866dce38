(** The Session API: one builder in front of every way to run.

    A Session is a run configuration plus the tenant pipelines admitted
    into the enclave:

    {[
      let res =
        Session.create (Runtime.Config.make ())
        |> Session.add_tenant ~pipeline ~source:frames
        |> Session.run
    ]}

    Single-tenant is the 1-tenant special case — tenant 0 inherits the
    base egress key and an uncapped pool, so a 1-tenant {!run_single} is
    byte-identical to {!Runtime.run}, the engine underneath.  The other
    entry points take a session too: {!Runner.run} reports throughput
    over a 1-tenant session, and [Sbt_fleet.Fleet.run_session]
    partitions one across M edges. *)

type t

val create :
  ?engine:Runtime.engine ->
  ?exec_time_scale:float ->
  ?exec_mode:Sbt_exec.Executor.mode ->
  ?capture:bool ->
  ?registry:Sbt_obs.Metrics.t ->
  ?verify:bool ->
  Runtime.config ->
  t
(** A session with no tenants yet.  [engine] defaults to
    [`Des cfg.cores]; [registry] supplies the shared root registry
    (tenants scope themselves under [tenant<id>.*]); [verify] (default
    true) controls whether {!run} judges the tenants'
    audit sub-streams ({!Sbt_attest.Verifier.verify_tenants}). *)

val add_tenant :
  ?id:int -> ?quota_pages:int -> pipeline:Pipeline.t -> source:Sbt_net.Frame.t list -> t -> t
(** Admit a tenant.  [id] defaults to one past the highest admitted id
    (0 for the first); [quota_pages] caps the tenant's secure pool in
    4 KiB pages (omitted = uncapped). *)

val tenants : t -> Multi.tenant list
(** Admitted tenants, id-ascending. *)

val config : t -> Runtime.config

val engine : t -> Runtime.engine option

val run : t -> Multi.result
(** Run all admitted tenants in one enclave — see {!Multi.run}.
    Raises [Invalid_argument] if no tenant was admitted. *)

val run_single : t -> Runtime.run_result
(** The single-tenant fast path: one recording, no merged-schedule
    replay, no verification — {!Runtime.run} semantics, byte-identical
    observables included.  Raises [Invalid_argument] unless exactly one
    tenant was admitted. *)

val record : t -> Runtime.run_result
(** {!run_single} without the real-parallel phase: a [`Domains n]
    session records under [`Des cfg.cores]. *)

val measure : t -> Runtime.run_result -> Runtime.run_result
(** The session's real-parallel phase over a recording: under
    [`Domains n] it sets [exec] from {!Runtime.exec_trace} with the
    session's exec options; the identity under [`Des].
    [run_single t = measure t (record t)]. *)

val run_supervised :
  ?max_restarts:int -> ?ckpt_every:int -> t -> (int * Runtime.supervised) list
(** Crash-recovering run, one independent supervisor per tenant (own
    sealed checkpoints, replay buffer, epoch manifests); returns
    per-tenant supervised results, id-ascending.  See
    {!Runtime.run_supervised} for the recovery semantics. *)
