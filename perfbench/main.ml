(* The repository benchmark: one workload per invocation, one process.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Frames are generated from the seed before any timing starts; the
   program sees only those frames.  Repetitions (edge pass, then the cloud
   side) run back to back until S seconds have been measured; after each
   come five timed enclave boots and, with [--trace 0], five throughput
   slices.  Every sealed window result is checked against a plain OCaml
   reference.  The last stdout line is one JSON object: the end-to-end
   metrics with [--trace 0], the per-layer split (medians over the traced
   repetitions) with [--trace 1].  The exit code is non-zero if any window
   fails its check.

   The shared host runs the same code up to 1.6x slower in phases of
   seconds to minutes, so wall-clock figures are rescaled to a reference
   host speed, measured by timing a fixed kernel next to them (see
   Hostspeed):

   - events_per_s: a slice is the stream of the workload's first
     [slice_windows] windows, through the same edge pass and cloud side,
     between two kernel timings.  The metric is the median over slices of
     their rates at the reference speed.  Repetitions are too long for
     this: the host speed changes while one runs.
   - setup_s: the median over boots, at the reference speed.
   - the modeled metrics replay the recorded task graph with each task's
     measured cost rescaled per repetition and combined by the median
     over repetitions (Harness.reference_trace): they model a dedicated
     edge device, which does not see the host's slow phases. *)

module W = Workload
module H = Harness

let usage () =
  prerr_endline "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref 0 and seconds = ref 10.0 and trace = ref false in
  let rec go = function
    | "--workload" :: v :: rest ->
        workload := Some v;
        go rest
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        go rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string v;
        go rest
    | "--trace" :: v :: rest ->
        trace := v = "1";
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  match Option.bind !workload W.find with
  | Some w -> (w, !seed, !seconds, !trace)
  | None ->
      prerr_endline ("unknown workload; choose one of: " ^ String.concat ", " (List.map (fun w -> w.W.name) W.all));
      exit 2

(* Nearest-rank percentile. *)
let percentile l p =
  let a = Array.of_list l in
  Array.sort compare a;
  a.(max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int (Array.length a)))) - 1)

(* Samples of [n] beyond the nearest-rank [p]th percentile, and the highest
   percentile with at least ten beyond it. *)
let beyond n p = n - int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))
let tail_pct n = List.find (fun p -> beyond n p >= 10) [ 99.0; 95.0; 90.0; 75.0; 50.0 ]

(* Windows per throughput slice: 15-100 ms of work, short enough that
   the kernel timings on either side see the host speed it ran at. *)
let slice_windows = 2

let slices_per_round = 5
let boots_per_round = 5

(* Kernel timings around a repetition: the median of three on each side. *)
let kernel_ms_3 () = H.median (List.init 3 (fun _ -> Hostspeed.sample_ms ()))

let at_reference_rate ~kernel_ms rate = rate *. kernel_ms /. Hostspeed.reference_ms
let at_reference_time ~kernel_ms t = t *. Hostspeed.reference_ms /. kernel_ms

let host_report () =
  let c = H.cost in
  Printf.printf "host: cores=%d (Domain.recommended_domain_count) ocaml=%s\n" (Domain.recommended_domain_count ())
    Sys.ocaml_version;
  Printf.printf
    "cost model (pinned): world_switch_ns=%.0f copy_ns_per_byte=%.1f host_scale=%.1f crypto_scale=%.1f virtual_cores=%d\n"
    c.Sbt_tz.Cost_model.world_switch_ns c.copy_ns_per_byte c.host_scale c.crypto_scale H.cores;
  Printf.printf "host-speed kernel: reference %.2f ms\n" Hostspeed.reference_ms

let json_line ~correct ~attempted ~failed metrics =
  let metric (name, value, unit) = Printf.sprintf "%S:{\"value\":%.17g,\"unit\":%S}" name value unit in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n" correct attempted failed
    (String.concat "," (List.map metric metrics))

let print_metric (name, value, unit) = Printf.printf "  %-28s %16.6g %s\n" name value unit

let () =
  let w, seed, seconds, trace = parse_args () in
  host_report ();
  Printf.printf "workload %s seed=%d seconds=%g trace=%b: %d windows x %d events, batches of %d, %s\n%!"
    w.W.name seed seconds trace w.W.windows w.W.events_per_window w.W.batch_events
    (Sbt_core.Dataplane.version_name w.W.version);
  let pipeline, frames = W.frames w ~seed in
  let expected = W.expected w ~seed in
  let run ?spans ?run_id ?(w = w) ?(frames = frames) ?(expected = expected) ?cost () =
    Gc.full_major ();
    H.run ?spans ?run_id ?cost w ~pipeline ~frames ~expected
  in
  let slice_w = { w with W.windows = slice_windows } in
  let slice_frames = W.prefix frames ~windows:slice_windows in
  let slice_expected = Array.sub expected 0 slice_windows in
  let run_slice () = run ~w:slice_w ~frames:slice_frames ~expected:slice_expected () in
  (* Warm-up: caches and lazy set-up settle before anything is timed. *)
  let warm = run () in
  let warm_slice = run_slice () in
  (* The same graph with only the modeled part of each task's cost. *)
  let modeled = run ~cost:H.noise_free () in
  let spans = if trace then Some (Spans.create ()) else None in
  let slices = ref [] and setups = ref [] in
  (* Each slice sits between two kernel timings; a slice's closing timing
     opens the next one. *)
  let slice_round ~opening_ms =
    let before = ref opening_ms in
    for _ = 1 to slices_per_round do
      let r = run_slice () in
      let after = Hostspeed.sample_ms () in
      slices := (r, (!before +. after) /. 2.0) :: !slices;
      before := after
    done
  in
  let boot ~kernel_ms =
    for _ = 1 to boots_per_round do
      setups := at_reference_time ~kernel_ms (H.setup_seconds w ~pipeline ~frames) :: !setups
    done
  in
  let start = H.now () in
  let rec loop i acc =
    if i >= (if trace then 4 else 3) && H.now () -. start >= seconds *. 1e9 then List.rev acc
    else
      (* Traced runs alternate untraced and traced repetitions, so the
         tracing overhead is measured on the same machine state. *)
      let traced = trace && i mod 2 = 1 in
      let before = kernel_ms_3 () in
      let r =
        if traced then run ?spans ~run_id:(Printf.sprintf "%s-seed%d-rep%d" w.W.name seed i) () else run ()
      in
      let after = kernel_ms_3 () in
      boot ~kernel_ms:after;
      if not trace then slice_round ~opening_ms:after;
      loop (i + 1) ((traced, r, (before +. after) /. 2.0) :: acc)
  in
  let reps = loop 0 [] in
  let all = (warm :: warm_slice :: modeled :: List.map (fun (_, r, _) -> r) reps) @ List.map fst !slices in
  let attempted = List.fold_left (fun a r -> a + r.H.windows) 0 all in
  let failed = List.fold_left (fun a r -> a + r.H.failed) 0 all in
  let verdict_ok = List.for_all (fun r -> r.H.verdict_ok) all in
  let untraced = List.filter_map (fun (t, r, k) -> if t then None else Some (r, k)) reps in
  let traced = List.filter_map (fun (t, r, _) -> if t then Some r else None) reps in
  let eps l = H.median (List.map H.events_per_s l) in
  Printf.printf "repetitions: %d measured (%d traced) + 1 warm-up in %.1f s\n" (List.length reps)
    (List.length traced) ((H.now () -. start) /. 1e9);
  Printf.printf "untraced events/s per repetition, as measured: %s\n"
    (String.concat " " (List.map (fun (r, _) -> Printf.sprintf "%.0f" (H.events_per_s r)) untraced));
  let slice_eps () =
    H.median (List.map (fun (r, kernel_ms) -> at_reference_rate ~kernel_ms (H.events_per_s r)) !slices)
  in
  if not trace then
    Printf.printf
      "slices: %d of %d windows, events/s median %.0f as measured, %.0f at reference speed; kernel median %.2f ms\n"
      (List.length !slices) slice_windows
      (H.median (List.map (fun (r, _) -> H.events_per_s r) !slices))
      (slice_eps ())
      (H.median (List.map snd !slices));
  Printf.printf "verifier: %s; windows_failed_frac=%g (%d of %d)\n" (if verdict_ok then "OK" else "VIOLATIONS")
    (float_of_int failed /. float_of_int attempted)
    failed attempted;
  let trace_ref =
    H.reference_trace ~modeled:modeled.H.trace (List.map (fun (r, k) -> (r.H.trace, k)) untraced)
  in
  let replay = Sbt_sim.Trace.replay trace_ref ~cores:H.cores ~rate_eps:w.W.fixed_rate_eps in
  let metrics =
    if not trace then begin
      let sustained =
        Sbt_sim.Rate_search.max_rate ~tolerance:0.005 ~trace:trace_ref ~cores:H.cores
          ~target_delay_ns:(w.W.target_delay_ms *. 1e6) ()
      in
      let delays = List.map (fun (_, ns) -> ns /. 1e6) replay.Sbt_sim.Trace.delays in
      let n = List.length delays in
      let tail = tail_pct n in
      Printf.printf "sustained_eps_8c: target %.0f ms; delay at %.0f ev/s offered: p50 and p%g of %d windows (%d beyond)\n"
        w.W.target_delay_ms w.W.fixed_rate_eps tail n (beyond n tail);
      let untraced = List.map fst untraced in
      [
        ("events_per_s", slice_eps (), "ev/s");
        ("sustained_eps_8c", sustained.Sbt_sim.Rate_search.rate_eps, "ev/s");
        ("delay_p50_ms", percentile delays 50.0, "ms");
        ("delay_tail_ms", percentile delays tail, "ms");
        ("peak_secure_mb", H.median (List.map (fun r -> float_of_int r.H.peak_bytes /. 1e6) untraced), "MB");
        ( "uplink_bytes_per_kev",
          H.median (List.map (fun r -> float_of_int r.H.uplink_bytes /. (float_of_int r.H.events /. 1e3)) untraced),
          "B/kev" );
        ("setup_s", H.median !setups, "s");
        ("windows_ok_frac", 1.0 -. (float_of_int failed /. float_of_int attempted), "frac");
      ]
    end
    else begin
      let unit_of name =
        if Filename.check_suffix name "_ms" || Filename.check_suffix name ".ms" then "ms"
        else if Filename.check_suffix name "_mb" then "MB"
        else if Filename.check_suffix name "_bytes" then "B"
        else if Filename.check_suffix name "_per_kev" then "1/kev"
        else "count"
      in
      let work_ms, shard_refills = H.exec_work w ~pipeline ~frames in
      let u = eps (List.map fst untraced) and t = eps traced in
      (* Spans stay in memory until here, then go under perfbench/out. *)
      let dir = Filename.concat "perfbench" "out" in
      (match spans with
      | Some sp when Sys.file_exists "perfbench" ->
          if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
          let path = Filename.concat dir (Printf.sprintf "spans-%s-seed%d.jsonl" w.W.name seed) in
          Spans.write sp path;
          Printf.printf "spans: %s\n" path
      | _ -> ());
      let layer n = H.median (List.map (fun r -> List.assoc n r.H.layers) traced) in
      List.map (fun (n, _) -> (n, layer n, unit_of n)) (List.hd traced).H.layers
      @ [
          ("umem.shard.refills", shard_refills, "count");
          ("sim.utilization", replay.Sbt_sim.Trace.utilization, "frac");
          ("exec.work_ms", work_ms, "ms");
          ("trace.untraced_events_per_s", u, "ev/s");
          ("trace.traced_events_per_s", t, "ev/s");
          ("trace.overhead_pct", 100.0 *. (u -. t) /. u, "%");
        ]
    end
  in
  List.iter print_metric metrics;
  let correct = failed = 0 && verdict_ok in
  json_line ~correct ~attempted ~failed metrics;
  exit (if correct then 0 else 1)
