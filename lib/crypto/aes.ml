let block_size = 16

(* The AES S-box, generated from multiplicative inverses in GF(2^8)
   followed by the affine transform (FIPS-197 §5.1.1).  We compute it at
   startup instead of embedding the 256-entry literal: fewer magic numbers
   and the generation doubles as a self-check of our GF(2^8) arithmetic. *)

let xtime b = if b land 0x80 <> 0 then ((b lsl 1) lxor 0x1B) land 0xFF else (b lsl 1) land 0xFF

let gf_mul a b =
  let acc = ref 0 and a = ref a and b = ref b in
  while !b <> 0 do
    if !b land 1 <> 0 then acc := !acc lxor !a;
    a := xtime !a;
    b := !b lsr 1
  done;
  !acc land 0xFF

let gf_inv a =
  if a = 0 then 0
  else begin
    (* a^254 = a^-1 in GF(2^8); square-and-multiply over the 8-bit field. *)
    let rec pow base e acc =
      if e = 0 then acc
      else pow (gf_mul base base) (e lsr 1) (if e land 1 = 1 then gf_mul acc base else acc)
    in
    pow a 254 1
  end

let sbox =
  let rotl8 x k = ((x lsl k) lor (x lsr (8 - k))) land 0xFF in
  Array.init 256 (fun i ->
      let b = gf_inv i in
      b lxor rotl8 b 1 lxor rotl8 b 2 lxor rotl8 b 3 lxor rotl8 b 4 lxor 0x63)

let inv_sbox =
  let t = Array.make 256 0 in
  Array.iteri (fun i s -> t.(s) <- i) sbox;
  t

let rcon = [| 0x01; 0x02; 0x04; 0x08; 0x10; 0x20; 0x40; 0x80; 0x1B; 0x36 |]

type key = { rk : int array (* 44 words, big-endian per FIPS-197 *) }

let expand_key raw =
  if Bytes.length raw <> 16 then invalid_arg "Aes.expand_key: key must be 16 bytes";
  let w = Array.make 44 0 in
  for i = 0 to 3 do
    w.(i) <-
      (Char.code (Bytes.get raw (4 * i)) lsl 24)
      lor (Char.code (Bytes.get raw ((4 * i) + 1)) lsl 16)
      lor (Char.code (Bytes.get raw ((4 * i) + 2)) lsl 8)
      lor Char.code (Bytes.get raw ((4 * i) + 3))
  done;
  let sub_word x =
    (sbox.((x lsr 24) land 0xFF) lsl 24)
    lor (sbox.((x lsr 16) land 0xFF) lsl 16)
    lor (sbox.((x lsr 8) land 0xFF) lsl 8)
    lor sbox.(x land 0xFF)
  in
  let rot_word x = ((x lsl 8) lor (x lsr 24)) land 0xFFFFFFFF in
  for i = 4 to 43 do
    let tmp = w.(i - 1) in
    let tmp = if i mod 4 = 0 then sub_word (rot_word tmp) lxor (rcon.((i / 4) - 1) lsl 24) else tmp in
    w.(i) <- w.(i - 4) lxor tmp land 0xFFFFFFFF
  done;
  { rk = w }

(* The inverse cipher stays textbook (FIPS-197 §5.3): nothing in the engine
   decrypts blocks, and an independent inverse is what the roundtrip
   property checks the table-driven encryptor against.  Its state is 16
   ints in column-major order (s.(4*c+r)). *)

let add_round_key st rk round =
  for c = 0 to 3 do
    let w = rk.((4 * round) + c) in
    st.(4 * c) <- st.(4 * c) lxor ((w lsr 24) land 0xFF);
    st.((4 * c) + 1) <- st.((4 * c) + 1) lxor ((w lsr 16) land 0xFF);
    st.((4 * c) + 2) <- st.((4 * c) + 2) lxor ((w lsr 8) land 0xFF);
    st.((4 * c) + 3) <- st.((4 * c) + 3) lxor (w land 0xFF)
  done

let inv_sub_bytes st = for i = 0 to 15 do st.(i) <- inv_sbox.(st.(i)) done

let inv_shift_rows st =
  let t = st.(13) in
  st.(13) <- st.(9); st.(9) <- st.(5); st.(5) <- st.(1); st.(1) <- t;
  let a = st.(2) and b = st.(6) in
  st.(2) <- st.(10); st.(6) <- st.(14); st.(10) <- a; st.(14) <- b;
  let t = st.(3) in
  st.(3) <- st.(7); st.(7) <- st.(11); st.(11) <- st.(15); st.(15) <- t

let inv_mix_columns st =
  for c = 0 to 3 do
    let i = 4 * c in
    let a0 = st.(i) and a1 = st.(i + 1) and a2 = st.(i + 2) and a3 = st.(i + 3) in
    st.(i) <- gf_mul a0 0x0E lxor gf_mul a1 0x0B lxor gf_mul a2 0x0D lxor gf_mul a3 0x09;
    st.(i + 1) <- gf_mul a0 0x09 lxor gf_mul a1 0x0E lxor gf_mul a2 0x0B lxor gf_mul a3 0x0D;
    st.(i + 2) <- gf_mul a0 0x0D lxor gf_mul a1 0x09 lxor gf_mul a2 0x0E lxor gf_mul a3 0x0B;
    st.(i + 3) <- gf_mul a0 0x0B lxor gf_mul a1 0x0D lxor gf_mul a2 0x09 lxor gf_mul a3 0x0E
  done

let load st src soff =
  for i = 0 to 15 do st.(i) <- Char.code (Bytes.get src (soff + i)) done

let store st dst doff =
  for i = 0 to 15 do Bytes.set dst (doff + i) (Char.unsafe_chr st.(i)) done

(* Encryption T-tables (FIPS-197 §5.2, the 32-bit implementation): one
   round's SubBytes+ShiftRows+MixColumns+AddRoundKey on a column is four
   table lookups XORed with the round-key word.  [te0.(x)] is the column [02·S(x), S(x), S(x), 03·S(x)]
   as a big-endian word; [te1..te3] are its byte rotations, so each state
   byte indexes the table for its row.  Built from [sbox] and [xtime]
   like everything else here; 4 KB together. *)

let te0 =
  Array.map
    (fun s -> (xtime s lsl 24) lor (s lsl 16) lor (s lsl 8) lor (xtime s lxor s))
    sbox

let ror8 x = ((x lsr 8) lor (x lsl 24)) land 0xFFFFFFFF
let te1 = Array.map ror8 te0
let te2 = Array.map ror8 te1
let te3 = Array.map ror8 te2

(* Table indices are masked to a byte, so the lookups cannot leave the
   256-entry tables. *)
let[@inline] t0 x = Array.unsafe_get te0 ((x lsr 24) land 0xFF)
let[@inline] t1 x = Array.unsafe_get te1 ((x lsr 16) land 0xFF)
let[@inline] t2 x = Array.unsafe_get te2 ((x lsr 8) land 0xFF)
let[@inline] t3 x = Array.unsafe_get te3 (x land 0xFF)
let[@inline] sb x shift = Array.unsafe_get sbox ((x lsr shift) land 0xFF) lsl shift

(* Final round, column [c]: SubBytes+ShiftRows without MixColumns. *)
let[@inline] final rk c a0 a1 a2 a3 =
  sb a0 24 lor sb a1 16 lor sb a2 8 lor sb a3 0 lxor rk.(40 + c)

let[@inline] get_word b off = Int32.to_int (Bytes.get_int32_be b off) land 0xFFFFFFFF
let[@inline] set_word b off x = Bytes.set_int32_be b off (Int32.of_int x)

(* The state is four native-int columns; nothing is allocated per block. *)
let encrypt_block key src soff dst doff =
  let rk = key.rk in
  let s0 = ref (get_word src soff lxor rk.(0)) in
  let s1 = ref (get_word src (soff + 4) lxor rk.(1)) in
  let s2 = ref (get_word src (soff + 8) lxor rk.(2)) in
  let s3 = ref (get_word src (soff + 12) lxor rk.(3)) in
  for round = 1 to 9 do
    let k = 4 * round in
    let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
    s0 := t0 a0 lxor t1 a1 lxor t2 a2 lxor t3 a3 lxor Array.unsafe_get rk k;
    s1 := t0 a1 lxor t1 a2 lxor t2 a3 lxor t3 a0 lxor Array.unsafe_get rk (k + 1);
    s2 := t0 a2 lxor t1 a3 lxor t2 a0 lxor t3 a1 lxor Array.unsafe_get rk (k + 2);
    s3 := t0 a3 lxor t1 a0 lxor t2 a1 lxor t3 a2 lxor Array.unsafe_get rk (k + 3)
  done;
  let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
  set_word dst doff (final rk 0 a0 a1 a2 a3);
  set_word dst (doff + 4) (final rk 1 a1 a2 a3 a0);
  set_word dst (doff + 8) (final rk 2 a2 a3 a0 a1);
  set_word dst (doff + 12) (final rk 3 a3 a0 a1 a2)

let decrypt_block key src soff dst doff =
  let st = Array.make 16 0 in
  load st src soff;
  add_round_key st key.rk 10;
  for round = 9 downto 1 do
    inv_shift_rows st;
    inv_sub_bytes st;
    add_round_key st key.rk round;
    inv_mix_columns st
  done;
  inv_shift_rows st;
  inv_sub_bytes st;
  add_round_key st key.rk 0;
  store st dst doff
