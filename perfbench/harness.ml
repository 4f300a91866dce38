(* One repetition of a workload: edge pass, cloud side, reference check,
   and (traced runs only) the per-layer split; plus the boot timing, the
   modeled replay and the real-parallel replay. *)

module R = Sbt_core.Runtime
module S = Sbt_core.Session
module D = Sbt_core.Dataplane
module P = Sbt_prim.Primitive
module Frame = Sbt_net.Frame
module Log = Sbt_attest.Log
module Verifier = Sbt_attest.Verifier
module Metrics = Sbt_obs.Metrics
module Trace = Sbt_sim.Trace
module W = Workload

(* Pinned here, not read from Cost_model.default: crypto is charged at its
   measured cost, and later edits to the library default cannot move the
   modeled metrics. *)
let cost =
  { Sbt_tz.Cost_model.world_switch_ns = 100_000.0; copy_ns_per_byte = 2.0; host_scale = 1.0; crypto_scale = 1.0 }

let cores = 8
let egress_key = Bytes.of_string "sbt-egress-key16"
let ingress_key = (Sbt_workloads.Datagen.default_spec ()).Sbt_workloads.Datagen.key
let quote_nonce = Bytes.of_string "sbt-run-final"

(* A fresh config per run: the platform inside it keeps the world-switch
   counters, so sharing one across runs would accumulate them. *)
let config ?tracer ?(cost = cost) (w : W.t) =
  R.Config.make ~version:w.W.version ~cores ~cost ~ingress_key ~egress_key ~fuse:false ?tracer ()

let now = Sbt_sim.Clock.now_ns

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Boot an enclave for the workload before its first frame: platform and
   data plane, then the session with its one tenant. *)
let setup_seconds w ~pipeline ~frames =
  let t0 = now () in
  let cfg = config w in
  let dp = D.create cfg.R.dp_config in
  let session = S.create ~verify:false cfg |> S.add_tenant ~pipeline ~source:frames in
  let dt = (now () -. t0) /. 1e9 in
  ignore (Sys.opaque_identity (dp, session));
  dt

type rep = {
  events : int;
  edge_ns : float;  (** Session.run_single *)
  cloud_ns : float;  (** audit open + verify + results open *)
  windows : int;
  failed : int;
  verdict_ok : bool;
  trace : Trace.t;
  peak_bytes : int;
  uplink_bytes : int;
  switch_pairs : int;
  audit_records : int;
  audit_raw_bytes : int;
  audit_compressed_bytes : int;
  results_digest : string;
  layers : (string * float) list;  (** traced runs only *)
}

let wall_ns r = r.edge_ns +. r.cloud_ns
let events_per_s r = float_of_int r.events /. (wall_ns r /. 1e9)

(* Windows whose opened result differs from the reference, or is missing
   or duplicated.  A verifier violation fails every window of the run. *)
let failed_windows (w : W.t) ~expected ~verdict_ok opened =
  if not verdict_ok then w.W.windows
  else
    let canon = if w.W.ordered then Fun.id else W.canonical in
    let seen = Array.make w.W.windows 0 in
    let bad = ref 0 in
    List.iter
      (fun (win, rows) ->
        if win < 0 || win >= w.W.windows then incr bad
        else begin
          seen.(win) <- seen.(win) + 1;
          if canon rows <> canon expected.(win) then incr bad
        end)
      opened;
    Array.iter (fun n -> if n <> 1 then incr bad) seen;
    min w.W.windows !bad

let sum_bytes f l = List.fold_left (fun acc x -> acc + f x) 0 l

(* Ingress checks as the program performs them, run by the benchmark on
   the workload's frames: the MAC of every sealed frame, then decryption
   of every encrypted payload.  Clear frames skip both. *)
let net_pass sp frames =
  Spans.with_span sp "net" (fun () ->
      List.iter
        (fun f ->
          match f with
          | Frame.Events { encrypted; stream; _ } ->
              if Frame.sealed f && not (Spans.with_span sp "net.mac" (fun () -> Frame.mac_valid ~key:ingress_key f))
              then failwith "net: frame MAC rejected";
              if encrypted then
                ignore
                  (Spans.with_span sp "net.decrypt" (fun () ->
                       Frame.decrypt_payload ~key:ingress_key ~stream_nonce:(Int64.of_int stream) f))
          | Frame.Watermark _ -> ())
        frames)

let snapshot_value samples name =
  List.fold_left
    (fun acc s ->
      match s with
      | Metrics.S_counter { name = n; value } when n = name -> float_of_int value
      | Metrics.S_gauge { name = n; high_water; _ } when n = name -> high_water
      | _ -> acc)
    0.0 samples

(* Virtual-time self time per primitive, from the program's own tracer
   (primitive spans do not nest, so a span's duration is its self time). *)
let prim_ms tracer =
  let tbl = Hashtbl.create 16 in
  List.iter
    (function
      | Sbt_obs.Tracer.Complete { cat = "prim"; name; dur_ns; _ } ->
          Hashtbl.replace tbl name (dur_ns +. Option.value ~default:0.0 (Hashtbl.find_opt tbl name))
      | _ -> ())
    (Sbt_obs.Tracer.events tracer);
  fun name -> Option.value ~default:0.0 (Hashtbl.find_opt tbl name) /. 1e6

let prim_names =
  List.map P.name P.[ Segment; Sum; Sort; Kway_merge; Top_k_per_key; Filter_band; Project; Shift_key; Select; Concat ]
  @ [ "seal" ]

let run ?spans ?(run_id = "") ?cost (w : W.t) ~pipeline ~frames ~expected =
  Option.iter (fun t -> Spans.set_run t run_id) spans;
  let sp = spans in
  let tracer = Option.map (fun _ -> Sbt_obs.Tracer.create ()) sp in
  let session = S.create ~verify:false (config ?tracer ?cost w) |> S.add_tenant ~pipeline ~source:frames in
  let t0 = now () in
  let r = Spans.with_span sp "edge" (fun () -> S.run_single session) in
  let t1 = now () in
  let records, report, opened =
    Spans.with_span sp "cloud" (fun () ->
        let records =
          List.concat_map
            (fun b -> Spans.with_span sp "cloud.open" (fun () -> Log.open_batch ~key:egress_key b))
            r.R.audit
        in
        let report = Spans.with_span sp "cloud.verify" (fun () -> Verifier.verify r.R.verifier_spec records) in
        let opened =
          List.map
            (fun (win, sr) ->
              (win, Spans.with_span sp "cloud.results_open" (fun () -> D.open_result ~egress_key sr)))
            r.R.results
        in
        (records, report, opened))
  in
  let t2 = now () in
  let verdict_ok = Verifier.ok report in
  let st = r.R.dp_stats in
  let audit_compressed = sum_bytes (fun b -> Bytes.length b.Log.payload) r.R.audit in
  let edge_ns = t1 -. t0 in
  let layers =
    match (sp, tracer) with
    | Some spans, Some tracer ->
        ignore (Spans.with_span sp "audit.encode" (fun () -> Sbt_attest.Columnar.compress records));
        net_pass sp frames;
        let self = Spans.self_ms spans ~run_id in
        if
          not
            (Sbt_attest.Quote.verify ~device_key:egress_key
               ~expected:(Sbt_crypto.Sha256.digest r.R.tee_metrics)
               ~nonce:quote_nonce r.R.tee_quote)
        then failwith "TEE metrics snapshot failed its quote";
        let tee = Metrics.decode_snapshot r.R.tee_metrics in
        let prim = prim_ms tracer in
        let buckets = st.D.compute_ns +. st.D.mem_ns +. st.D.crypto_ns +. st.D.ingest_ns in
        [
          ("edge.wall_ms", edge_ns /. 1e6);
          ("net.mac_ms", self "net.mac");
          ("net.decrypt_ms", self "net.decrypt");
          ("dataplane.crypto_ms", st.D.crypto_ns /. 1e6);
          ("dataplane.compute_ms", st.D.compute_ns /. 1e6);
          ("dataplane.mem_ms", st.D.mem_ns /. 1e6);
          ("dataplane.unpack_ms", st.D.ingest_ns /. 1e6);
          ("dataplane.invocations", float_of_int st.D.invocations);
          ("dataplane.events", float_of_int st.D.events_ingested);
          ("control.residual_ms", (edge_ns -. buckets) /. 1e6);
          ("smc.switch_pairs", float_of_int st.D.switch_pairs);
          ("smc.switch_pairs_per_kev", float_of_int st.D.switch_pairs /. (float_of_int r.R.total_events /. 1e3));
          ("smc.modeled_switch_ms", st.D.modeled_switch_ns /. 1e6);
          ("umem.peak_mb", snapshot_value tee "tee.pool_committed_bytes" /. 1e6);
          ("umem.arena.refills", snapshot_value tee "umem.arena.refills");
        ]
        @ List.map (fun p -> (Printf.sprintf "prim.%s.ms" p, prim p)) prim_names
        @ [
            ("audit.records", float_of_int (List.length records));
            ("audit.raw_bytes", float_of_int (Sbt_attest.Columnar.raw_size records));
            ("audit.compressed_bytes", float_of_int audit_compressed);
            ("audit.encode_ms", self "audit.encode");
            ("cloud.open_ms", self "cloud.open");
            ("cloud.verify_ms", self "cloud.verify");
            ("cloud.results_open_ms", self "cloud.results_open");
          ]
    | _ -> []
  in
  {
    events = r.R.total_events;
    edge_ns;
    cloud_ns = t2 -. t1;
    windows = w.W.windows;
    failed = failed_windows w ~expected ~verdict_ok opened;
    verdict_ok;
    trace = r.R.trace;
    peak_bytes = r.R.pool_high_water_bytes;
    uplink_bytes =
      sum_bytes (fun b -> Bytes.length b.Log.payload + Bytes.length b.Log.tag) r.R.audit
      + sum_bytes (fun (_, sr) -> Bytes.length sr.D.cipher + Bytes.length sr.D.tag) r.R.results;
    switch_pairs = st.D.switch_pairs;
    audit_records = List.length records;
    audit_raw_bytes = Sbt_attest.Columnar.raw_size records;
    audit_compressed_bytes = audit_compressed;
    results_digest =
      Digest.to_hex
        (Digest.string
           (String.concat ""
              (List.map (fun (_, sr) -> Bytes.to_string sr.D.cipher ^ Bytes.to_string sr.D.tag) r.R.results)));
    layers;
  }

(* The pinned model with measured host time switched off: a run under it
   charges each task only its modeled world switches and boundary copies. *)
let noise_free = { cost with Sbt_tz.Cost_model.host_scale = 0.0; crypto_scale = 0.0 }

(* The recorded task graph at the reference host speed.  [modeled] is the
   same graph recorded under [noise_free], so it holds each task's modeled
   part alone; [reps] pairs each measured trace with the host-speed kernel
   time around it.  A task costs its modeled part plus the median over
   repetitions of its measured part rescaled to the reference speed
   (Hostspeed).  Every repetition records the same graph; if one ever
   differs, the first trace is used as measured. *)
let reference_trace ~modeled reps =
  let base = Trace.nodes modeled in
  let same (a : Trace.node) (b : Trace.node) =
    a.label = b.label && a.deps = b.deps && a.arrival_events = b.arrival_events && a.role = b.role
  in
  let graphs = List.map (fun (t, kernel_ms) -> (Trace.nodes t, Hostspeed.reference_ms /. kernel_ms)) reps in
  if List.for_all (fun (ns, _) -> Array.length ns = Array.length base && Array.for_all2 same base ns) graphs then
    Trace.of_nodes
      (Array.mapi
         (fun i (m : Trace.node) ->
           let measured = List.map (fun (ns, scale) -> (ns.(i).Trace.cost_ns -. m.cost_ns) *. scale) graphs in
           { m with cost_ns = m.cost_ns +. median measured })
         base)
  else fst (List.hd reps)

(* The real-parallel replay of one captured recording ([`Work] mode on at
   most [nproc] domains) and the shard refills it publishes. *)
let exec_work (w : W.t) ~pipeline ~frames =
  let cfg = config w in
  let r = S.create ~verify:false ~capture:true cfg |> S.add_tenant ~pipeline ~source:frames |> S.run_single in
  let domains = max 1 (min 2 (Domain.recommended_domain_count ())) in
  let report = R.exec_trace ~mode:`Work ~domains cfg r in
  ( report.Sbt_exec.Executor.wall_ns /. 1e6,
    float_of_int (try Metrics.find_counter r.R.registry "umem.shard.refills" with Not_found -> 0) )
