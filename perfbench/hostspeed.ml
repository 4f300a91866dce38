(* Host-speed calibration for the wall-clock metrics.

   A shared virtual machine runs the same code up to 1.6x slower in
   phases of seconds to minutes: neighbours on the same physical cores
   slow every instruction, so process CPU time tracks wall time, and no
   statistic over the run's own timings removes it when a whole run falls
   in a slow phase.  The benchmark therefore times a fixed kernel next to
   each timed piece of work and rescales the piece to the reference host
   speed:

     time_at_reference = time * reference_ms / kernel_ms

   The kernel is plain OCaml written here, independent of the program, so
   no change to the program can move it, while a change that makes the
   program faster or slower moves the rescaled figures by the same factor.
   Its two parts, a sort through the polymorphic compare and a burst of
   short-lived allocations, are the kinds of work whose slowdown tracked
   the program's best on every workload (correlation 0.85-0.91 per
   throughput slice); tight integer loops, as in AES and SHA-256, barely
   slow down and predicted nothing, so the kernel leaves them out. *)

(* The kernel's time, in ms, at the reference speed: about the fastest of
   many timings on a 2-vCPU Intel Xeon VM at 2.0 GHz with OCaml 5.1.1.  At
   that speed the rescaling factor is 1. *)
let reference_ms = 3.8

let sort_src = Array.init 8_192 (fun j -> (j * 2_654_435_761) land 0xffffff)
let sort_buf = Array.make (Array.length sort_src) 0

(* The sort is in place and the allocations die young (at most sixteen
   are live), so the kernel's cost does not depend on the program's
   heap. *)
let kernel () =
  Array.blit sort_src 0 sort_buf 0 (Array.length sort_src);
  Array.sort compare sort_buf;
  let live = ref [] in
  for j = 0 to 100_000 do
    live := (j, Array.make 4 j) :: !live;
    if j land 15 = 0 then live := []
  done;
  ignore (Sys.opaque_identity !live)

(* One timing of the kernel, in ms. *)
let sample_ms () =
  let t0 = Sbt_sim.Clock.now_ns () in
  kernel ();
  (Sbt_sim.Clock.now_ns () -. t0) /. 1e6
