(* Deterministic-counter self-test of the benchmark, at a reduced size.
   For a fixed seed, two runs from freshly generated frames must agree on
   the benchmark's deterministic counters and on the sealed result bytes;
   another seed must change the frames.

   Under the pinned cost model virtual time includes measured host time.
   Audit timestamps carry it, and the virtual-core schedule (hence the
   order Concat sees segments in, and allocation order) follows it.  So
   compressed audit bytes, uplink bytes, peak secure memory and sealed
   bytes are compared under the same model with host_scale and
   crypto_scale at 0; switch pairs and audit record counts and raw sizes
   are compared under both models. *)

module W = Workload
module H = Harness

let payloads frames =
  String.concat ""
    (List.filter_map
       (function Sbt_net.Frame.Events { payload; _ } -> Some (Bytes.to_string payload) | _ -> None)
       frames)

let failures = ref 0

let check w name a b =
  if a <> b then begin
    Printf.printf "FAIL %s: %s differs between two runs of seed 1\n" w.W.name name;
    incr failures
  end

let run_once ?cost w ~seed =
  let pipeline, frames = W.frames w ~seed in
  (frames, H.run ?cost w ~pipeline ~frames ~expected:(W.expected w ~seed))

let () =
  List.iter
    (fun w ->
      let w = W.shrink w in
      let frames_a, a = run_once w ~seed:1 in
      let _, b = run_once w ~seed:1 in
      let frames_c, _ = run_once w ~seed:2 in
      let _, fa = run_once ~cost:H.noise_free w ~seed:1 in
      let _, fb = run_once ~cost:H.noise_free w ~seed:1 in
      if a.H.failed <> 0 || not a.H.verdict_ok then begin
        Printf.printf "FAIL %s: reference or verifier check\n" w.W.name;
        incr failures
      end;
      List.iter
        (fun (model, a, b) ->
          check w ("smc.switch_pairs" ^ model) a.H.switch_pairs b.H.switch_pairs;
          check w ("audit.records" ^ model) a.H.audit_records b.H.audit_records;
          check w ("audit.raw_bytes" ^ model) a.H.audit_raw_bytes b.H.audit_raw_bytes)
        [ ("", a, b); (" (noise-free)", fa, fb) ];
      check w "audit.compressed_bytes (noise-free)" fa.H.audit_compressed_bytes fb.H.audit_compressed_bytes;
      check w "uplink bytes (noise-free)" fa.H.uplink_bytes fb.H.uplink_bytes;
      check w "peak secure bytes (noise-free)" fa.H.peak_bytes fb.H.peak_bytes;
      check w "sealed-result digest (noise-free)" fa.H.results_digest fb.H.results_digest;
      if payloads frames_a = payloads frames_c then begin
        Printf.printf "FAIL %s: seeds 1 and 2 give the same frames\n" w.W.name;
        incr failures
      end)
    W.all;
  if !failures > 0 then exit 1
