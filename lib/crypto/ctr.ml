type t = { key : Aes.key; nonce : int64 }

let create ~key ~nonce = { key = Aes.expand_key key; nonce }

let xcrypt t ~pos buf off len =
  if len < 0 || off < 0 || off + len > Bytes.length buf then invalid_arg "Ctr.xcrypt";
  (* A negative position that is not block-aligned has no block index
     under truncating division (the remainder would be negative). *)
  if Int64.compare pos 0L < 0 && Int64.rem pos 16L <> 0L then
    invalid_arg "Ctr.xcrypt: unaligned negative position";
  (* Scratch owned by this call: counter block [nonce || index] (both
     big-endian) at 0, its keystream at 16.  Nothing is shared between
     calls, so streams may run on any number of domains at once. *)
  let scratch = Bytes.create 32 in
  Bytes.set_int64_be scratch 0 t.nonce;
  let i = ref 0 in
  while !i < len do
    let abs = Int64.add pos (Int64.of_int !i) in
    let blk_index = Int64.div abs 16L in
    let blk_off = Int64.to_int (Int64.rem abs 16L) in
    Bytes.set_int64_be scratch 8 blk_index;
    Aes.encrypt_block t.key scratch 0 scratch 16;
    let n = min (16 - blk_off) (len - !i) in
    let p = off + !i in
    if n = 16 then begin
      (* Whole block: two 64-bit XORs. *)
      Bytes.set_int64_ne buf p
        (Int64.logxor (Bytes.get_int64_ne buf p) (Bytes.get_int64_ne scratch 16));
      Bytes.set_int64_ne buf (p + 8)
        (Int64.logxor (Bytes.get_int64_ne buf (p + 8)) (Bytes.get_int64_ne scratch 24))
    end
    else
      (* Partial head or tail block. *)
      for j = 0 to n - 1 do
        let k = Char.code (Bytes.get scratch (16 + blk_off + j)) in
        Bytes.set buf (p + j) (Char.unsafe_chr (Char.code (Bytes.get buf (p + j)) lxor k))
      done;
    i := !i + n
  done

let xcrypt_bytes ~key ~nonce src =
  let t = create ~key ~nonce in
  let dst = Bytes.copy src in
  xcrypt t ~pos:0L dst 0 (Bytes.length dst);
  dst
