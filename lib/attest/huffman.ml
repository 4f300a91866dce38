(* Canonical Huffman over bytes.  A block is

     varint n                        symbol count
     table                           d < 128 present symbols: byte d, then
                                     (symbol, length) pairs, symbols
                                     ascending; otherwise 0xFF and one
                                     length byte per symbol 0..255
     payload                         each symbol's code, most significant
                                     bit first, zero-padded to a byte

   Code lengths come from a binary min-heap that compares weights only,
   filled with the present symbols in ascending order; merged nodes are
   pushed as they are made.  Equal weights therefore resolve by heap
   position, and that order is part of the format: the same input must
   give the same lengths, the same codes and the same block forever
   (audit batches are MACed over these bytes). *)

(* Longest code the encoder's 63-bit accumulator can take whole (7
   pending bits + the code).  A Huffman code this deep needs more than
   fib(56) ~ 2.2e11 input bytes. *)
let max_code_bits = 54

(* Bits the decoder resolves with one table lookup; longer codes take
   the canonical walk. *)
let table_bits = 9

(* Code lengths for [d] present symbols of weights [w] (ascending symbol
   order).  Nodes 0..d-1 are the leaves, d+j is the j-th merge.  The heap
   is two parallel arrays with the sift rules of a (weight, node) heap
   ordered on weight alone. *)
let code_lengths w d =
  let len = Array.make d 1 in
  if d > 1 then begin
    let hw = Array.make d 0 and hn = Array.make d 0 in
    let size = ref 0 in
    let swap i j =
      let tw = hw.(i) and tn = hn.(i) in
      hw.(i) <- hw.(j);
      hn.(i) <- hn.(j);
      hw.(j) <- tw;
      hn.(j) <- tn
    in
    let push weight node =
      let i = ref !size in
      hw.(!i) <- weight;
      hn.(!i) <- node;
      incr size;
      while !i > 0 && hw.((!i - 1) / 2) > hw.(!i) do
        swap ((!i - 1) / 2) !i;
        i := (!i - 1) / 2
      done
    in
    (* Remove the top; the caller reads hw.(0)/hn.(0) first. *)
    let drop_top () =
      decr size;
      hw.(0) <- hw.(!size);
      hn.(0) <- hn.(!size);
      let i = ref 0 and continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < !size && hw.(l) < hw.(!smallest) then smallest := l;
        if r < !size && hw.(r) < hw.(!smallest) then smallest := r;
        if !smallest = !i then continue := false
        else begin
          swap !i !smallest;
          i := !smallest
        end
      done
    in
    for k = 0 to d - 1 do
      push w.(k) k
    done;
    let kids = Array.make (2 * (d - 1)) 0 in
    for j = 0 to d - 2 do
      let wa = hw.(0) and a = hn.(0) in
      drop_top ();
      let wb = hw.(0) and b = hn.(0) in
      drop_top ();
      kids.(2 * j) <- a;
      kids.((2 * j) + 1) <- b;
      push (wa + wb) (d + j)
    done;
    (* Merges come after their children, so one backward pass gives every
       node its depth below the root (the last merge). *)
    let depth = Array.make ((2 * d) - 1) 0 in
    for j = d - 2 downto 0 do
      let dc = depth.(d + j) + 1 in
      depth.(kids.(2 * j)) <- dc;
      depth.(kids.((2 * j) + 1)) <- dc
    done;
    Array.blit depth 0 len 0 d
  end;
  len

(* First canonical code of each length 1..max_len (DEFLATE's rule):
   codes of one length are consecutive, in ascending symbol order, and
   each length starts where the shorter ones left off, doubled. *)
let first_codes count max_len =
  let first = Array.make (max_len + 1) 0 in
  let code = ref 0 in
  for bits = 1 to max_len do
    code := (!code + count.(bits - 1)) lsl 1;
    first.(bits) <- !code
  done;
  first

let encode_sub data ~pos ~len:n =
  if pos < 0 || n < 0 || pos > Bytes.length data - n then invalid_arg "Huffman.encode_sub";
  if n = 0 then begin
    let out = Bytes.create 1 in
    ignore (Varint.put_unsigned out 0 0);
    out
  end
  else begin
    (* [tab] holds each byte's count, then its packed code. *)
    let tab = Array.make 256 0 in
    for i = pos to pos + n - 1 do
      let s = Char.code (Bytes.unsafe_get data i) in
      Array.unsafe_set tab s (Array.unsafe_get tab s + 1)
    done;
    let d = ref 0 in
    for s = 0 to 255 do
      if tab.(s) > 0 then incr d
    done;
    let d = !d in
    let syms = Array.make d 0 and w = Array.make d 0 in
    let k = ref 0 in
    for s = 0 to 255 do
      if tab.(s) > 0 then begin
        syms.(!k) <- s;
        w.(!k) <- tab.(s);
        incr k
      end
    done;
    let lens = code_lengths w d in
    let max_len = Array.fold_left max 0 lens in
    if max_len > max_code_bits then invalid_arg "Huffman.encode: code too long";
    let count = Array.make (max_len + 1) 0 in
    let bits = ref 0 in
    for k = 0 to d - 1 do
      count.(lens.(k)) <- count.(lens.(k)) + 1;
      bits := !bits + (w.(k) * lens.(k))
    done;
    let next = first_codes count max_len in
    for k = 0 to d - 1 do
      let l = lens.(k) in
      tab.(syms.(k)) <- (next.(l) lsl 6) lor l;
      next.(l) <- next.(l) + 1
    done;
    let header = if d < 128 then 1 + (2 * d) else 257 in
    let out = Bytes.create (Varint.unsigned_size n + header + ((!bits + 7) / 8)) in
    let o = Varint.put_unsigned out 0 n in
    if d < 128 then begin
      Bytes.unsafe_set out o (Char.unsafe_chr d);
      for k = 0 to d - 1 do
        Bytes.unsafe_set out (o + 1 + (2 * k)) (Char.unsafe_chr syms.(k));
        Bytes.unsafe_set out (o + 2 + (2 * k)) (Char.unsafe_chr lens.(k))
      done
    end
    else begin
      Bytes.unsafe_set out o '\xFF';
      Bytes.fill out (o + 1) 256 '\000';
      for k = 0 to d - 1 do
        Bytes.unsafe_set out (o + 1 + syms.(k)) (Char.unsafe_chr lens.(k))
      done
    end;
    let o = ref (o + header) and acc = ref 0 and nacc = ref 0 in
    for i = pos to pos + n - 1 do
      let p = Array.unsafe_get tab (Char.code (Bytes.unsafe_get data i)) in
      let l = p land 63 in
      acc := (!acc lsl l) lor (p lsr 6);
      nacc := !nacc + l;
      while !nacc >= 8 do
        nacc := !nacc - 8;
        Bytes.unsafe_set out !o (Char.unsafe_chr ((!acc lsr !nacc) land 0xFF));
        incr o
      done;
      acc := !acc land ((1 lsl !nacc) - 1)
    done;
    if !nacc > 0 then Bytes.unsafe_set out !o (Char.unsafe_chr ((!acc lsl (8 - !nacc)) land 0xFF));
    out
  end

let encode data = encode_sub data ~pos:0 ~len:(Bytes.length data)

let bad what = invalid_arg ("Huffman.decode: " ^ what)

let decode_sub data ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length data - len then invalid_arg "Huffman.decode_sub";
  let stop = pos + len in
  let p = ref pos in
  let n = Varint.read_int data p ~stop in
  if n < 0 then bad "count too large";
  if n = 0 then Bytes.create 0
  else begin
    if !p >= stop then bad "truncated table";
    let marker = Char.code (Bytes.unsafe_get data !p) in
    incr p;
    (* Present symbols in ascending order with their lengths. *)
    let syms, lens =
      if marker = 0xFF then begin
        if stop - !p < 256 then bad "truncated table";
        let d = ref 0 in
        for s = 0 to 255 do
          if Bytes.unsafe_get data (!p + s) <> '\000' then incr d
        done;
        let syms = Array.make !d 0 and lens = Array.make !d 0 in
        let k = ref 0 in
        for s = 0 to 255 do
          let l = Char.code (Bytes.unsafe_get data (!p + s)) in
          if l > 0 then begin
            syms.(!k) <- s;
            lens.(!k) <- l;
            incr k
          end
        done;
        p := !p + 256;
        (syms, lens)
      end
      else begin
        if stop - !p < 2 * marker then bad "truncated table";
        let syms = Array.make marker 0 and lens = Array.make marker 0 in
        for k = 0 to marker - 1 do
          let s = Char.code (Bytes.unsafe_get data (!p + (2 * k))) in
          if k > 0 && s <= syms.(k - 1) then bad "table symbols out of order";
          syms.(k) <- s;
          lens.(k) <- Char.code (Bytes.unsafe_get data (!p + (2 * k) + 1))
        done;
        p := !p + (2 * marker);
        (syms, lens)
      end
    in
    let d = Array.length syms in
    if d = 0 then bad "empty table";
    let max_len = Array.fold_left max 0 lens in
    if max_len > max_code_bits || Array.exists (fun l -> l = 0) lens then bad "bad code length";
    let avail_bits = 8 * (stop - !p) in
    if n > avail_bits then bad "count exceeds the payload";
    let count = Array.make (max_len + 1) 0 in
    Array.iter (fun l -> count.(l) <- count.(l) + 1) lens;
    (* Kraft: refuse an over-subscribed table, whose codes would collide.
       [left] saturates: past 256 no count can bring it below zero. *)
    let left = ref 1 in
    for l = 1 to max_len do
      left := min (2 * !left) 512 - count.(l);
      if !left < 0 then bad "over-subscribed table"
    done;
    (* Symbols in canonical order: by length, then by symbol. *)
    let offs = Array.make (max_len + 2) 0 in
    for l = 1 to max_len do
      offs.(l + 1) <- offs.(l) + count.(l)
    done;
    let sorted = Array.make d 0 in
    let fill = Array.copy offs in
    for k = 0 to d - 1 do
      let l = lens.(k) in
      sorted.(fill.(l)) <- syms.(k);
      fill.(l) <- fill.(l) + 1
    done;
    let first = first_codes count max_len in
    (* Codes up to [tb] bits resolve in one lookup of the next [tb] bits:
       entry = symbol lsl 6 lor length, -1 for a longer code's prefix. *)
    let tb = min max_len table_bits in
    let table = Array.make (1 lsl tb) (-1) in
    for l = 1 to tb do
      for i = 0 to count.(l) - 1 do
        let e = (sorted.(offs.(l) + i) lsl 6) lor l in
        let lo = (first.(l) + i) lsl (tb - l) in
        Array.fill table lo (1 lsl (tb - l)) e
      done
    done;
    let start = !p in
    let byte i = if i < stop then Char.code (Bytes.unsafe_get data i) else 0 in
    let bit q = (byte (start + (q lsr 3)) lsr (7 - (q land 7))) land 1 in
    (* The canonical walk for codes longer than [tb]: extend the code a bit
       at a time until it falls inside some length's range. *)
    let walk q =
      let code = ref 0 and l = ref 0 and e = ref (-1) in
      while !e < 0 do
        incr l;
        if !l > max_len then bad "invalid code";
        code := (!code lsl 1) lor bit (q + !l - 1);
        let i = !code - first.(!l) in
        if i >= 0 && i < count.(!l) then e := (sorted.(offs.(!l) + i) lsl 6) lor !l
      done;
      !e
    in
    let out = Bytes.create n in
    let q = ref 0 in
    let shift0 = 16 - tb and mask = (1 lsl tb) - 1 in
    for i = 0 to n - 1 do
      let b = start + (!q lsr 3) in
      let window = (byte b lsl 8) lor byte (b + 1) in
      let e = Array.unsafe_get table ((window lsr (shift0 - (!q land 7))) land mask) in
      let e = if e >= 0 then e else walk !q in
      q := !q + (e land 63);
      if !q > avail_bits then bad "truncated payload";
      Bytes.unsafe_set out i (Char.unsafe_chr (e lsr 6))
    done;
    out
  end

let decode data = decode_sub data ~pos:0 ~len:(Bytes.length data)
