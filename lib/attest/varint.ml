let write_unsigned buf v =
  let v = ref v in
  let continue = ref true in
  while !continue do
    let low = Int64.to_int (Int64.logand !v 0x7FL) in
    v := Int64.shift_right_logical !v 7;
    if Int64.equal !v 0L then begin
      Buffer.add_char buf (Char.unsafe_chr low);
      continue := false
    end
    else Buffer.add_char buf (Char.unsafe_chr (low lor 0x80))
  done

let read_unsigned data pos =
  let v = ref 0L and shift = ref 0 and continue = ref true in
  while !continue do
    if !pos >= Bytes.length data then invalid_arg "Varint.read_unsigned: truncated";
    let b = Char.code (Bytes.get data !pos) in
    incr pos;
    v := Int64.logor !v (Int64.shift_left (Int64.of_int (b land 0x7F)) !shift);
    shift := !shift + 7;
    if b land 0x80 = 0 then continue := false
  done;
  !v

let zigzag v = Int64.logxor (Int64.shift_left v 1) (Int64.shift_right v 63)
let unzigzag v = Int64.logxor (Int64.shift_right_logical v 1) (Int64.neg (Int64.logand v 1L))
let write_signed buf v = write_unsigned buf (zigzag v)
let read_signed data pos = unzigzag (read_unsigned data pos)

let unsigned_size n =
  let rec go n k = if n lsr 7 = 0 then k else go (n lsr 7) (k + 1) in
  go n 1

let put_unsigned out pos n =
  let rec go pos n =
    if n lsr 7 = 0 then begin
      Bytes.set out pos (Char.unsafe_chr n);
      pos + 1
    end
    else begin
      Bytes.set out pos (Char.unsafe_chr (n land 0x7F lor 0x80));
      go (pos + 1) (n lsr 7)
    end
  in
  go pos n

let read_int data pos ~stop =
  let v = ref 0 and shift = ref 0 and continue = ref true in
  while !continue do
    if !pos >= stop then invalid_arg "Varint.read_int: truncated";
    if !shift > 56 then invalid_arg "Varint.read_int: longer than nine bytes";
    let b = Char.code (Bytes.get data !pos) in
    incr pos;
    v := !v lor ((b land 0x7F) lsl !shift);
    shift := !shift + 7;
    if b land 0x80 = 0 then continue := false
  done;
  !v
