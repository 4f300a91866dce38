(* The Session API: one builder in front of every way to run a pipeline.

   A Session is a run configuration plus the set of tenant pipelines
   admitted into the enclave.  Single-tenant is the 1-tenant special case
   (tenant 0 inherits the base egress key, so a 1-tenant [run_single] is
   byte-identical to [Runtime.run], the engine underneath).  Every run
   starts here: [run] (N tenants, one enclave), [run_single] (one
   recording), [run_supervised] (crash recovery over [Runtime.Node]),
   [Runner.run] (a throughput report over a session) and
   [Fleet.run_session] (one tenant partitioned over M edges). *)

type t = {
  cfg : Runtime.config;
  engine : Runtime.engine option;
  exec_time_scale : float option;
  exec_mode : Sbt_exec.Executor.mode option;
  capture : bool option;
  registry : Sbt_obs.Metrics.t option;
  verify : bool;
  tenants : Multi.tenant list; (* newest first *)
}

let create ?engine ?exec_time_scale ?exec_mode ?capture ?registry ?(verify = true) cfg =
  { cfg; engine; exec_time_scale; exec_mode; capture; registry; verify; tenants = [] }

let next_id tenants =
  List.fold_left (fun acc t -> max acc (t.Multi.id + 1)) 0 tenants

let add_tenant ?id ?quota_pages ~pipeline ~source t =
  let id = match id with Some i -> i | None -> next_id t.tenants in
  { t with tenants = { Multi.id; pipeline; source; quota_pages } :: t.tenants }

let tenants t = List.sort (fun a b -> compare a.Multi.id b.Multi.id) t.tenants
let config t = t.cfg
let engine t = t.engine

let run t =
  Multi.run ?engine:t.engine ?exec_time_scale:t.exec_time_scale ?exec_mode:t.exec_mode
    ?capture:t.capture ?registry:t.registry ~verify:t.verify t.cfg (tenants t)

let the_tenant t =
  match t.tenants with
  | [ tn ] -> tn
  | [] -> invalid_arg "Session: no tenant admitted"
  | _ -> invalid_arg "Session: expected exactly one tenant"

(* The single-tenant fast path: one recording, no merged-schedule
   replay, no verification.  A [`Domains n] engine records under the DES
   at the config's cores — the recording its measurement phase replays. *)
let record t =
  let tn = the_tenant t in
  let owners : (int64, int) Hashtbl.t = Hashtbl.create 64 in
  let tcfg = Multi.tenant_config t.cfg ~owners tn in
  let registry =
    match t.registry with
    | Some root -> Some (Sbt_obs.Metrics.scoped root (Printf.sprintf "tenant%d" tn.Multi.id))
    | None -> None
  in
  let engine =
    match t.engine with Some (`Domains _) -> Some (`Des t.cfg.Runtime.cores) | e -> e
  in
  Runtime.run ?engine ?exec_time_scale:t.exec_time_scale ?exec_mode:t.exec_mode
    ?capture:t.capture ?registry tcfg tn.Multi.pipeline tn.Multi.source

let measure t (r : Runtime.run_result) =
  match t.engine with
  | Some (`Domains domains) ->
      let report =
        Runtime.exec_trace ?time_scale:t.exec_time_scale ?mode:t.exec_mode ~domains t.cfg r
      in
      { r with Runtime.exec = Some report }
  | Some (`Des _) | None -> r

let run_single t = measure t (record t)

(* Crash recovery composes per tenant: each tenant's supervised run is
   already independent (own sealed checkpoints, own replay buffer, own
   epoch manifests), so N-tenant supervision is N independent
   supervisors over tenant-scoped configs. *)
let run_supervised ?max_restarts ?ckpt_every t =
  (match t.tenants with [] -> invalid_arg "Session: no tenant admitted" | _ -> ());
  let owners : (int64, int) Hashtbl.t = Hashtbl.create 64 in
  List.map
    (fun tn ->
      let tcfg = Multi.tenant_config t.cfg ~owners tn in
      (tn.Multi.id, Runtime.run_supervised ?max_restarts ?ckpt_every tcfg tn.Multi.pipeline tn.Multi.source))
    (tenants t)
