(* Round constants: first 32 bits of the fractional parts of the cube roots
   of the first 64 primes (FIPS 180-4 §4.2.2); we derive them numerically
   rather than embedding the table, which doubles as a self-check. *)

let primes =
  let rec sieve acc n =
    if List.length acc = 64 then List.rev acc
    else
      let is_prime = List.for_all (fun p -> n mod p <> 0) acc in
      sieve (if is_prime then n :: acc else acc) (n + 1)
  in
  Array.of_list (sieve [] 2)

(* Words are native ints holding 32-bit values: every sum is masked back
   to 32 bits, and nothing is boxed. *)
let mask = 0xFFFFFFFF
let frac_bits f = Int64.to_int (Int64.of_float (Float.rem f 1.0 *. 4294967296.0)) land mask

let k = Array.map (fun p -> frac_bits (Float.cbrt (float_of_int p))) primes
let h0 = Array.init 8 (fun i -> frac_bits (sqrt (float_of_int primes.(i))))

type ctx = {
  h : int array;
  w : int array; (* 64-word message schedule, private to this context *)
  buf : bytes; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int64; (* bytes absorbed *)
}

let init () =
  { h = Array.copy h0; w = Array.make 64 0; buf = Bytes.create 64; buf_len = 0; total = 0L }

(* 32-bit rotate right of a 32-bit value; the bits above 32 it leaves
   are cleared by the mask applied after each XOR of rotations. *)
let[@inline] ( >>> ) x n = (x lsr n) lor (x lsl (32 - n))

let compress ctx block off =
  let w = ctx.w and h = ctx.h in
  for t = 0 to 15 do
    w.(t) <- Int32.to_int (Bytes.get_int32_be block (off + (4 * t))) land mask
  done;
  (* Indices below are within [0, 64), the length of [w] and [k]. *)
  for t = 16 to 63 do
    let x = Array.unsafe_get w (t - 15) and y = Array.unsafe_get w (t - 2) in
    let s0 = ((x >>> 7) lxor (x >>> 18) lxor (x lsr 3)) land mask in
    let s1 = ((y >>> 17) lxor (y >>> 19) lxor (y lsr 10)) land mask in
    Array.unsafe_set w t
      ((Array.unsafe_get w (t - 16) + s0 + Array.unsafe_get w (t - 7) + s1) land mask)
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for t = 0 to 63 do
    let e' = !e and a' = !a in
    let s1 = ((e' >>> 6) lxor (e' >>> 11) lxor (e' >>> 25)) land mask in
    let ch = (e' land !f) lxor (lnot e' land !g) in
    let t1 = !hh + s1 + ch + Array.unsafe_get k t + Array.unsafe_get w t in
    let s0 = ((a' >>> 2) lxor (a' >>> 13) lxor (a' >>> 22)) land mask in
    let maj = (a' land !b) lxor (a' land !c) lxor (!b land !c) in
    hh := !g; g := !f; f := e'; e := (!d + t1) land mask;
    d := !c; c := !b; b := a'; a := (t1 + s0 + maj) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask; h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask; h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask; h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask; h.(7) <- (h.(7) + !hh) land mask

let update ctx buf off len =
  if off < 0 || len < 0 || off + len > Bytes.length buf then invalid_arg "Sha256.update";
  ctx.total <- Int64.add ctx.total (Int64.of_int len);
  let pos = ref off and remaining = ref len in
  if ctx.buf_len > 0 then begin
    let n = min (64 - ctx.buf_len) !remaining in
    Bytes.blit buf !pos ctx.buf ctx.buf_len n;
    ctx.buf_len <- ctx.buf_len + n;
    pos := !pos + n;
    remaining := !remaining - n;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while !remaining >= 64 do
    compress ctx buf !pos;
    pos := !pos + 64;
    remaining := !remaining - 64
  done;
  if !remaining > 0 then begin
    Bytes.blit buf !pos ctx.buf 0 !remaining;
    ctx.buf_len <- !remaining
  end

let finalize ctx =
  let bit_len = Int64.mul ctx.total 8L in
  let pad_len =
    let rem = Int64.to_int (Int64.rem ctx.total 64L) in
    if rem < 56 then 56 - rem else 120 - rem
  in
  let tail = Bytes.make (pad_len + 8) '\000' in
  Bytes.set tail 0 '\x80';
  Bytes.set_int64_be tail pad_len bit_len;
  (* Bypass [update]'s total accounting for the padding. *)
  let total_saved = ctx.total in
  update ctx tail 0 (Bytes.length tail);
  ctx.total <- total_saved;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int ctx.h.(i))
  done;
  out

let digest buf =
  let ctx = init () in
  update ctx buf 0 (Bytes.length buf);
  finalize ctx

let digest_hex buf =
  let d = digest buf in
  let b = Buffer.create 64 in
  Bytes.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) d;
  Buffer.contents b
