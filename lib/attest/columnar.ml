(* Column streams. Every record contributes its tag; other columns are
   appended to only by the record kinds that have the field.  Decoding
   replays tags first, then pulls from each column in the same order. *)

(* A growable byte column.  Unlike [Buffer] it hands its bytes to the
   Huffman coder in place, and its varints work on native ints: the
   zigzag/LEB128 bytes equal [Varint]'s for every int. *)
module Col = struct
  type t = { mutable b : bytes; mutable len : int }

  let create n = { b = Bytes.create n; len = 0 }

  let reserve c k =
    if c.len + k > Bytes.length c.b then begin
      let b = Bytes.create (max (2 * Bytes.length c.b) (c.len + k)) in
      Bytes.blit c.b 0 b 0 c.len;
      c.b <- b
    end

  let byte c v =
    reserve c 1;
    Bytes.unsafe_set c.b c.len (Char.unsafe_chr (v land 0xFF));
    c.len <- c.len + 1

  let unsigned c v =
    reserve c 9;
    c.len <- Varint.put_unsigned c.b c.len v

  let signed c v = unsigned c ((v lsl 1) lxor (v asr 62))

  let bytes c s =
    reserve c (Bytes.length s);
    Bytes.blit s 0 c.b c.len (Bytes.length s);
    c.len <- c.len + Bytes.length s
end

type columns = {
  tags : Col.t; (* byte per record -> Huffman *)
  ts : Col.t; (* delta varint *)
  ops : Col.t; (* byte per execution -> Huffman *)
  counts : Col.t; (* bytes (in/out/hint counts) -> Huffman *)
  new_ids : Col.t; (* ids at creation (near-monotonic) - delta varint *)
  used_ids : Col.t; (* ids at consumption - delta varint, own cursor *)
  win_nos : Col.t; (* delta varint *)
  values : Col.t; (* delta varint (watermark values, gap event counts) *)
  hints : Col.t; (* (pred, succ) id pairs, delta varints *)
  streams : Col.t; (* ingress/gap stream ids - delta varint *)
  seqs : Col.t; (* ingress/gap frame seqs (near-monotonic) - delta varint *)
  blobs : Col.t; (* length-prefixed opaque bytes (fused params + chain hashes) *)
}

let split records =
  let c =
    {
      tags = Col.create 256;
      ts = Col.create 256;
      ops = Col.create 64;
      counts = Col.create 64;
      new_ids = Col.create 256;
      used_ids = Col.create 256;
      win_nos = Col.create 64;
      values = Col.create 64;
      hints = Col.create 64;
      streams = Col.create 64;
      seqs = Col.create 64;
      blobs = Col.create 64;
    }
  in
  let prev_ts = ref 0 and prev_id = ref 0 and prev_win = ref 0 and prev_val = ref 0 in
  let prev_hint = ref 0 in
  let put_hint h =
    (* Hints pack two 32-bit ids; both are near the current id cursor, so
       encode each as a delta against a dedicated cursor. *)
    let pred = Int64.to_int (Int64.shift_right_logical h 32) in
    let succ = Int64.to_int (Int64.logand h 0xFFFFFFFFL) in
    Col.signed c.hints (pred - !prev_hint);
    prev_hint := pred;
    Col.signed c.hints (succ - !prev_hint);
    prev_hint := succ
  in
  let put_ts v =
    Col.signed c.ts (v - !prev_ts);
    prev_ts := v
  in
  let prev_used = ref 0 in
  let put_new_id v =
    Col.signed c.new_ids (v - !prev_id);
    prev_id := v
  in
  let put_used_id v =
    Col.signed c.used_ids (v - !prev_used);
    prev_used := v
  in
  let put_win v =
    Col.signed c.win_nos (v - !prev_win);
    prev_win := v
  in
  let put_val v =
    Col.signed c.values (v - !prev_val);
    prev_val := v
  in
  (* Fused params and chain hashes repeat verbatim across segments of the
     same pipeline (the chain is a function of ops+params alone), so the
     blob column back-references per field: 0 = "same as this field's
     previous blob", n > 0 = a literal of n-1 bytes.  This is what keeps
     composite audit records cheaper than the per-op rows they replace. *)
  let prev_params_blob = ref Bytes.empty and prev_chain_blob = ref Bytes.empty in
  let put_blob prev b =
    if Bytes.equal b !prev then Col.unsigned c.blobs 0
    else begin
      Col.unsigned c.blobs (Bytes.length b + 1);
      Col.bytes c.blobs b;
      prev := b
    end
  in
  let prev_stream = ref 0 and prev_seq = ref 0 in
  let put_stream v =
    Col.signed c.streams (v - !prev_stream);
    prev_stream := v
  in
  let put_seq v =
    Col.signed c.seqs (v - !prev_seq);
    prev_seq := v
  in
  List.iter
    (fun r ->
      match r with
      | Record.Ingress { ts; uarray; stream; seq } ->
          Col.byte c.tags 0;
          put_ts ts;
          put_new_id uarray;
          put_stream stream;
          put_seq seq
      | Record.Ingress_watermark { ts; id; value } ->
          Col.byte c.tags 1;
          put_ts ts;
          put_new_id id;
          put_val value
      | Record.Windowing { ts; data_in; win_no; data_out } ->
          Col.byte c.tags 2;
          put_ts ts;
          put_used_id data_in;
          put_win win_no;
          put_new_id data_out
      | Record.Execution { ts; op; inputs; outputs; hints } ->
          Col.byte c.tags 3;
          put_ts ts;
          Col.byte c.ops op;
          Col.byte c.counts (List.length inputs);
          Col.byte c.counts (List.length outputs);
          Col.byte c.counts (List.length hints);
          List.iter put_used_id inputs;
          List.iter put_new_id outputs;
          List.iter put_hint hints
      | Record.Egress { ts; uarray; win_no } ->
          Col.byte c.tags 4;
          put_ts ts;
          put_used_id uarray;
          put_win win_no
      | Record.Gap { ts; stream; seq; events; windows; reason } ->
          Col.byte c.tags 5;
          put_ts ts;
          put_stream stream;
          put_seq seq;
          put_val events;
          Col.byte c.counts (Record.gap_reason_tag reason);
          Col.byte c.counts (List.length windows);
          List.iter put_win windows
      | Record.Checkpoint { ts; seq; watermark } ->
          Col.byte c.tags 6;
          put_ts ts;
          put_seq seq;
          put_val watermark
      | Record.Fused { ts; ops; params; chain; inputs; outputs; hints } ->
          Col.byte c.tags 7;
          put_ts ts;
          Col.byte c.counts (List.length ops);
          List.iter (fun op -> Col.byte c.ops op) ops;
          put_blob prev_params_blob params;
          put_blob prev_chain_blob chain;
          Col.byte c.counts (List.length inputs);
          Col.byte c.counts (List.length outputs);
          Col.byte c.counts (List.length hints);
          List.iter put_used_id inputs;
          List.iter put_new_id outputs;
          List.iter put_hint hints
      | Record.Late_drop { ts; uarray; win_no; events } ->
          Col.byte c.tags 8;
          put_ts ts;
          put_used_id uarray;
          put_win win_no;
          put_val events
      | Record.Correction { ts; uarray; win_no; gen } ->
          Col.byte c.tags 9;
          put_ts ts;
          put_used_id uarray;
          put_win win_no;
          put_val gen)
    records;
  c

let compress records =
  let c = split records in
  (* Every column gets an entropy stage on top: delta-varint bytes are
     heavily skewed toward small values, so canonical Huffman shaves
     another 25-40% beyond the delta coding. *)
  let blocks =
    List.map
      (fun (col : Col.t) -> Huffman.encode_sub col.b ~pos:0 ~len:col.len)
      [ c.tags; c.ts; c.ops; c.counts; c.new_ids; c.used_ids; c.win_nos; c.values; c.hints;
        c.streams; c.seqs; c.blobs ]
  in
  let n = List.length records in
  let size =
    List.fold_left
      (fun acc b -> acc + Varint.unsigned_size (Bytes.length b) + Bytes.length b)
      (Varint.unsigned_size n) blocks
  in
  let out = Bytes.create size in
  let o = ref (Varint.put_unsigned out 0 n) in
  List.iter
    (fun b ->
      o := Varint.put_unsigned out !o (Bytes.length b);
      Bytes.blit b 0 out !o (Bytes.length b);
      o := !o + Bytes.length b)
    blocks;
  out

(* A read cursor over one decoded column; every read is bounds-checked
   and a short column raises [Invalid_argument]. *)
type cursor = { col : bytes; at : int ref }

let truncated () = invalid_arg "Columnar.decompress: truncated"

let get_byte c =
  if !(c.at) >= Bytes.length c.col then truncated ();
  let v = Char.code (Bytes.unsafe_get c.col !(c.at)) in
  incr c.at;
  v

let get_unsigned c = Varint.read_int c.col c.at ~stop:(Bytes.length c.col)

let get_signed c =
  let z = get_unsigned c in
  (z lsr 1) lxor -(z land 1)

let decompress data =
  let top = { col = data; at = ref 0 } in
  let n = get_unsigned top in
  let column () =
    let len = get_unsigned top in
    if len < 0 || len > Bytes.length data - !(top.at) then truncated ();
    let pos = !(top.at) in
    top.at := pos + len;
    { col = Huffman.decode_sub data ~pos ~len; at = ref 0 }
  in
  let tags = column () in
  if Bytes.length tags.col <> n then
    invalid_arg "Columnar.decompress: record count differs from the tags column";
  let ts_col = column () in
  let ops = column () in
  let counts = column () in
  let new_ids_col = column () in
  let used_ids_col = column () in
  let wins_col = column () in
  let vals_col = column () in
  let hints_col = column () in
  let streams_col = column () in
  let seqs_col = column () in
  let blobs_col = column () in
  let prev_params_blob = ref Bytes.empty and prev_chain_blob = ref Bytes.empty in
  let get_blob prev =
    (* 0 is a back-reference to this field's previous blob; n > 0 is a
       literal of n-1 bytes (see [split]). *)
    let tag = get_unsigned blobs_col in
    if tag = 0 then !prev
    else begin
      let len = tag - 1 in
      let at = blobs_col.at in
      if len < 0 || len > Bytes.length blobs_col.col - !at then truncated ();
      let b = Bytes.sub blobs_col.col !at len in
      at := !at + len;
      prev := b;
      b
    end
  in
  let prev_ts = ref 0 and prev_id = ref 0 and prev_win = ref 0 and prev_val = ref 0 in
  let prev_hint = ref 0 and prev_stream = ref 0 and prev_seq = ref 0 in
  let get_hint () =
    prev_hint := !prev_hint + get_signed hints_col;
    let pred = !prev_hint in
    prev_hint := !prev_hint + get_signed hints_col;
    let succ = !prev_hint in
    Int64.logor (Int64.shift_left (Int64.of_int pred) 32) (Int64.of_int succ)
  in
  let delta prev c =
    prev := !prev + get_signed c;
    !prev
  in
  let prev_used = ref 0 in
  let get_ts () = delta prev_ts ts_col in
  let get_new_id () = delta prev_id new_ids_col in
  let get_used_id () = delta prev_used used_ids_col in
  let get_win () = delta prev_win wins_col in
  let get_val () = delta prev_val vals_col in
  let get_stream () = delta prev_stream streams_col in
  let get_seq () = delta prev_seq seqs_col in
  List.init n (fun i ->
      match Char.code (Bytes.get tags.col i) with
      | 0 ->
          let ts = get_ts () in
          let uarray = get_new_id () in
          let stream = get_stream () in
          let seq = get_seq () in
          Record.Ingress { ts; uarray; stream; seq }
      | 1 ->
          let ts = get_ts () in
          let id = get_new_id () in
          let value = get_val () in
          Record.Ingress_watermark { ts; id; value }
      | 2 ->
          let ts = get_ts () in
          let data_in = get_used_id () in
          let win_no = get_win () in
          let data_out = get_new_id () in
          Record.Windowing { ts; data_in; win_no; data_out }
      | 3 ->
          let ts = get_ts () in
          let op = get_byte ops in
          let n_in = get_byte counts in
          let n_out = get_byte counts in
          let n_h = get_byte counts in
          let inputs = List.init n_in (fun _ -> get_used_id ()) in
          let outputs = List.init n_out (fun _ -> get_new_id ()) in
          let hints = List.init n_h (fun _ -> get_hint ()) in
          Record.Execution { ts; op; inputs; outputs; hints }
      | 4 ->
          let ts = get_ts () in
          let uarray = get_used_id () in
          let win_no = get_win () in
          Record.Egress { ts; uarray; win_no }
      | 5 ->
          let ts = get_ts () in
          let stream = get_stream () in
          let seq = get_seq () in
          let events = get_val () in
          let reason = Record.gap_reason_of_tag (get_byte counts) in
          let n_w = get_byte counts in
          let windows = List.init n_w (fun _ -> get_win ()) in
          Record.Gap { ts; stream; seq; events; windows; reason }
      | 6 ->
          let ts = get_ts () in
          let seq = get_seq () in
          let watermark = get_val () in
          Record.Checkpoint { ts; seq; watermark }
      | 7 ->
          let ts = get_ts () in
          let n_ops = get_byte counts in
          let ops = List.init n_ops (fun _ -> get_byte ops) in
          let params = get_blob prev_params_blob in
          let chain = get_blob prev_chain_blob in
          let n_in = get_byte counts in
          let n_out = get_byte counts in
          let n_h = get_byte counts in
          let inputs = List.init n_in (fun _ -> get_used_id ()) in
          let outputs = List.init n_out (fun _ -> get_new_id ()) in
          let hints = List.init n_h (fun _ -> get_hint ()) in
          Record.Fused { ts; ops; params; chain; inputs; outputs; hints }
      | 8 ->
          let ts = get_ts () in
          let uarray = get_used_id () in
          let win_no = get_win () in
          let events = get_val () in
          Record.Late_drop { ts; uarray; win_no; events }
      | 9 ->
          let ts = get_ts () in
          let uarray = get_used_id () in
          let win_no = get_win () in
          let gen = get_val () in
          Record.Correction { ts; uarray; win_no; gen }
      | t -> invalid_arg (Printf.sprintf "Columnar.decompress: bad tag %d" t))

let raw_size records =
  List.fold_left
    (fun acc r -> acc + Record.encoded_size r)
    (Varint.unsigned_size (List.length records))
    records

let ratio records =
  match records with
  | [] -> 1.0
  | _ :: _ -> float_of_int (raw_size records) /. float_of_int (Bytes.length (compress records))
