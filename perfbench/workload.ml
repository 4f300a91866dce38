(* The benchmark's workloads: frame generation from a seed, and the plain
   OCaml reference each sealed window result is checked against.

   Each workload is a closed batch of pre-generated frames with fusion
   off.  The three are chosen so that each one stresses a different layer
   and bypasses the others (see BENCHMARK.json for the one-line reasons):

   - secure_winsum: ingress MAC + decryption dominate; kernels and the
     allocator are nearly idle.
   - clear_topk: radix sort, k-way merge and per-key top-k; no ingress
     crypto, but ~9k records sealed per window on egress.
   - small_batch_fps: 500-event batches, so per-call costs (world
     switches, audit records, allocator churn, verifier replay)
     dominate. *)

module B = Sbt_workloads.Benchmarks
module Datagen = Sbt_workloads.Datagen
module D = Sbt_core.Dataplane
module Frame = Sbt_net.Frame

type t = {
  name : string;
  version : D.version;
  windows : int;
  events_per_window : int;
  batch_events : int;
  secure_ingress : bool;  (** encrypted and HMAC-authenticated frames *)
  target_delay_ms : float;  (** delay target of [sustained_eps_8c] *)
  fixed_rate_eps : float;  (** offered rate of the [delay_*] replay *)
  make : ?windows:int -> ?events_per_window:int -> ?batch_events:int -> ?encrypted:bool -> unit -> B.t;
  reference : int array -> int32 array array;
      (** expected window output from the window's cleartext records,
          flattened (key, value, ts) triples *)
  ordered : bool;  (** row order is part of the result; otherwise a multiset *)
}

(* FpsChain's five batch stages (Pipeline.fps_chain), applied per record:
   value band [0, max_int], project (key, value, ts), key >> 8, select key
   5, value band [0, 1431655765].  The window concatenates segments, so
   only the multiset is fixed. *)
let reference_fps recs =
  let out = ref [] in
  for i = (Array.length recs / 3) - 1 downto 0 do
    let key = recs.(3 * i) and value = recs.((3 * i) + 1) and ts = recs.((3 * i) + 2) in
    if value >= 0 && value <= 1431655765 && key asr 8 = 5 then
      out := [| Int32.of_int (key asr 8); Int32.of_int value; Int32.of_int ts |] :: !out
  done;
  Array.of_list !out

(* WinSum: one row holding the 64-bit sum as (low, high) 32-bit words. *)
let reference_winsum recs =
  let s = ref 0L in
  for i = 0 to (Array.length recs / 3) - 1 do
    s := Int64.add !s (Int64.of_int recs.((3 * i) + 1))
  done;
  [| [| Int64.to_int32 !s; Int64.to_int32 (Int64.shift_right_logical !s 32) |] |]

(* TopK per key (k = 10): keys ascending, each key's largest values
   descending. *)
let reference_topk recs =
  let by_key = Hashtbl.create 16_384 in
  for i = 0 to (Array.length recs / 3) - 1 do
    let key = recs.(3 * i) and value = recs.((3 * i) + 1) in
    Hashtbl.replace by_key key (value :: Option.value ~default:[] (Hashtbl.find_opt by_key key))
  done;
  let keys = List.sort compare (List.of_seq (Hashtbl.to_seq_keys by_key)) in
  Array.of_list
    (List.concat_map
       (fun key ->
         let vals = List.sort (fun a b -> compare b a) (Hashtbl.find by_key key) in
         List.filteri (fun i _ -> i < 10) vals
         |> List.map (fun v -> [| Int32.of_int key; Int32.of_int v |]))
       keys)

(* TopK keeps the paper's ~10 events per key and window (100k events over
   10k keys there): 1k uniform keys for 10k-event windows, so the top-10
   selection really discards values. *)
let topk ?windows ?events_per_window ?batch_events ?encrypted () =
  let b = B.topk ?windows ?events_per_window ?batch_events ?encrypted () in
  let gen rng ~ts = [| Int32.of_int (Sbt_crypto.Rng.int_below rng 1_000); Sbt_crypto.Rng.int32_any rng; ts |] in
  { b with B.spec = { b.B.spec with Datagen.gen_record = gen } }

(* Forty windows per repetition, so the modeled delay tail (p75) has ten
   windows beyond it; windows of 10-20k events keep one repetition near a
   second or two, so a run holds many. *)
let all =
  [
    {
      name = "secure_winsum";
      version = D.Full;
      windows = 40;
      events_per_window = 10_000;
      batch_events = 10_000;
      secure_ingress = true;
      target_delay_ms = 100.0;
      fixed_rate_eps = 2_000_000.0;
      make = B.win_sum;
      reference = reference_winsum;
      ordered = true;
    };
    {
      name = "clear_topk";
      version = D.Clear_ingress;
      windows = 40;
      events_per_window = 10_000;
      batch_events = 5_000;
      secure_ingress = false;
      target_delay_ms = 100.0;
      fixed_rate_eps = 450_000.0;
      make = topk;
      reference = reference_topk;
      ordered = true;
    };
    {
      name = "small_batch_fps";
      version = D.Clear_ingress;
      windows = 40;
      events_per_window = 20_000;
      batch_events = 500;
      secure_ingress = false;
      target_delay_ms = 100.0;
      fixed_rate_eps = 2_500_000.0;
      make = B.fps;
      reference = reference_fps;
      ordered = false;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* Smaller copies for the self-test: same pipelines and engines. *)
let shrink w =
  { w with windows = 3; events_per_window = min w.events_per_window 4_000; batch_events = min w.batch_events 2_000 }

let bench ?(secure = true) w ~seed =
  let b =
    w.make ~windows:w.windows ~events_per_window:w.events_per_window ~batch_events:w.batch_events
      ~encrypted:(secure && w.secure_ingress) ()
  in
  {
    b with
    B.spec =
      { b.B.spec with Datagen.seed = Int64.of_int seed; authenticated = secure && w.secure_ingress };
  }

(* The frames the program sees.  Generators keep per-call state (mote
   random walks), so every call builds a fresh generator. *)
let frames w ~seed =
  let b = bench w ~seed in
  (b.B.pipeline, Datagen.frames b.B.spec)

(* Expected output of every window, from a cleartext regeneration of the
   same seed: the generator consumes its RNG identically whether or not
   it encrypts, so the records are the ones inside the sealed frames. *)
let expected w ~seed =
  let spec = (bench ~secure:false w ~seed).B.spec in
  let ticks = spec.Datagen.window_ticks in
  let recs = Array.init w.windows (fun _ -> Array.make (3 * w.events_per_window) 0) in
  let filled = Array.make w.windows 0 in
  List.iter
    (function
      | Frame.Events { payload; events; _ } ->
          for i = 0 to events - 1 do
            let field f = Int32.to_int (Bytes.get_int32_le payload (4 * ((3 * i) + f))) in
            let win = field 2 / ticks in
            let n = filled.(win) in
            for f = 0 to 2 do
              recs.(win).(n + f) <- field f
            done;
            filled.(win) <- n + 3
          done
      | Frame.Watermark _ -> ())
    (Datagen.frames spec);
  Array.mapi (fun win r -> w.reference (Array.sub r 0 filled.(win))) recs

(* The stream up to and including the watermark that closes window
   [windows - 1]: a complete stream of its first [windows] windows, in the
   frames the program sees. *)
let prefix frames ~windows =
  let rec go n acc = function
    | [] -> List.rev acc
    | (Frame.Watermark _ as f) :: rest -> if n + 1 = windows then List.rev (f :: acc) else go (n + 1) (f :: acc) rest
    | f :: rest -> go n (f :: acc) rest
  in
  go 0 [] frames

(* Row order is fixed by the kernels for WinSum and TopK; Concat order is
   segment order, so FpsChain compares canonical multisets. *)
let canonical rows =
  let c = Array.copy rows in
  Array.sort compare c;
  c
