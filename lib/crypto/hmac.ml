let block = 64

let mac_parts ~key parts =
  let k0 =
    if Bytes.length key > block then
      let d = Sha256.digest key in
      let b = Bytes.make block '\000' in
      Bytes.blit d 0 b 0 32;
      b
    else begin
      let b = Bytes.make block '\000' in
      Bytes.blit key 0 b 0 (Bytes.length key);
      b
    end
  in
  let xor_pad pad =
    let b = Bytes.create block in
    for i = 0 to block - 1 do
      Bytes.set b i (Char.unsafe_chr (Char.code (Bytes.get k0 i) lxor pad))
    done;
    b
  in
  let inner = Sha256.init () in
  let ipad = xor_pad 0x36 in
  Sha256.update inner ipad 0 block;
  List.iter (fun part -> Sha256.update inner part 0 (Bytes.length part)) parts;
  let inner_digest = Sha256.finalize inner in
  let outer = Sha256.init () in
  let opad = xor_pad 0x5C in
  Sha256.update outer opad 0 block;
  Sha256.update outer inner_digest 0 32;
  Sha256.finalize outer

let mac ~key msg = mac_parts ~key [ msg ]

let verify_parts ~key ~tag parts =
  let expected = mac_parts ~key parts in
  if Bytes.length tag <> 32 then false
  else begin
    let diff = ref 0 in
    for i = 0 to 31 do
      diff := !diff lor (Char.code (Bytes.get tag i) lxor Char.code (Bytes.get expected i))
    done;
    !diff = 0
  end

let verify ~key ~tag msg = verify_parts ~key ~tag [ msg ]
