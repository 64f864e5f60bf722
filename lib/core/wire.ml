open Lbc_util

(* Range header tag bits. *)
let tag_new_region = 0x01 (* explicit region varint follows *)
let tag_abs_addr = 0x02 (* absolute address instead of delta *)

(* The header bytes written since [from], as a window on the arena's
   current buffer.  Growing the arena copies it into a fresh buffer and
   never writes the old one again, so a window cut before a growth keeps
   its bytes. *)
let header w ~from = Codec.slice_sub w ~pos:from ~len:(Codec.length w - from)

(* One header window and one payload slice per range, front to back.
   The first window also carries the message header, which goes out
   alone when there is no range. *)
let[@tail_mod_cons] rec range_slices w from prev_region prev_offset first =
  function
  | [] -> if Codec.length w > from then [ header w ~from ] else []
  | (r : Lbc_wal.Record.range) :: rest ->
      let region = r.region and offset = r.offset in
      let new_region = region <> prev_region in
      (* Within a region, sorted order guarantees a non-negative delta;
         the first range of each region is absolute. *)
      let abs = first || new_region in
      let tag =
        (if new_region then tag_new_region else 0)
        lor if abs then tag_abs_addr else 0
      in
      Codec.u8 w tag;
      if new_region then Codec.varint w region;
      if abs then Codec.varint w offset
      else Codec.varint w (offset - prev_offset);
      Codec.varint w (Bytes.length r.data);
      let hdr = header w ~from in
      let data = Slice.of_bytes r.data in
      hdr :: data
      :: range_slices w (Codec.length w) region offset false rest

(* The gather-list encoder is the only encoder: message and range
   headers are written into one arena, while each range's payload is
   referenced in place — the committed data is never copied onto the
   wire. *)
let encode_iov (t : Lbc_wal.Record.txn) =
  let w = Codec.writer ~capacity:128 () in
  (* Message kinds: 1 = value record (range list), 2 = command record. *)
  Codec.u8 w (match t.cmd with None -> 1 | Some _ -> 2);
  Codec.u16 w t.node;
  Codec.varint w t.tid;
  Codec.varint w (List.length t.locks);
  List.iter
    (fun l ->
      Codec.varint w l.Lbc_wal.Record.lock_id;
      Codec.varint w l.Lbc_wal.Record.seqno;
      Codec.varint w l.Lbc_wal.Record.prev_write_seq)
    t.locks;
  match t.cmd with
  | Some c ->
      Codec.varint w c.Lbc_wal.Record.op;
      Codec.varint w (Bytes.length c.Lbc_wal.Record.params);
      Codec.varint w (List.length c.Lbc_wal.Record.cmd_regions);
      List.iter (Codec.varint w) c.Lbc_wal.Record.cmd_regions;
      (* The parameter blob rides as payload, like range data: small, but
         referencing it in place keeps the zero-copy invariant (the lint
         counts every wire-path copy). *)
      [ header w ~from:0; Slice.of_bytes c.Lbc_wal.Record.params ]
  | None ->
      let ranges = Lbc_wal.Record.sort_ranges t.ranges in
      Codec.varint w (List.length ranges);
      range_slices w 0 0 0 true ranges

let encode t = Slice.concat (encode_iov t)

let decode_reader r =
  let kind = Codec.get_u8 r in
  if kind <> 1 && kind <> 2 then
    raise (Codec.Truncated "Wire: bad message kind");
  let node = Codec.get_u16 r in
  let tid = Codec.get_varint r in
  let n_locks = Codec.get_count r in
  let locks =
    List.init n_locks (fun _ ->
        let lock_id = Codec.get_varint r in
        let seqno = Codec.get_varint r in
        let prev_write_seq = Codec.get_varint r in
        { Lbc_wal.Record.lock_id; seqno; prev_write_seq })
  in
  if kind = 2 then begin
    let op = Codec.get_varint r in
    let plen = Codec.get_varint r in
    let n_regions = Codec.get_count r in
    let cmd_regions = List.init n_regions (fun _ -> Codec.get_varint r) in
    let params = Codec.get_raw r ~len:plen in
    { Lbc_wal.Record.node; tid; locks; ranges = [];
      cmd = Some { op; params; cmd_regions } }
  end
  else begin
    let n_ranges = Codec.get_count r in
    let prev_region = ref 0 and prev_offset = ref 0 in
    let ranges =
      List.init n_ranges (fun _ ->
          let tag = Codec.get_u8 r in
          let region =
            if tag land tag_new_region <> 0 then Codec.get_varint r
            else !prev_region
          in
          let offset =
            if tag land tag_abs_addr <> 0 then Codec.get_varint r
            else !prev_offset + Codec.get_varint r
          in
          let len = Codec.get_varint r in
          let data = Codec.get_raw r ~len in
          prev_region := region;
          prev_offset := offset;
          { Lbc_wal.Record.region; offset; data })
    in
    { Lbc_wal.Record.node; tid; locks; ranges; cmd = None }
  end

let decode b = decode_reader (Codec.reader b)
let decode_iov iov = decode_reader (Codec.reader_of_slices iov)
let size t = Slice.iov_length (encode_iov t)

let size_uncompressed (t : Lbc_wal.Record.txn) =
  if t.cmd <> None then
    (* Command records have no range headers to compress; the ablation
       baseline is the message itself. *)
    size t
  else
  let tail =
    Codec.varint_size t.tid
    + Codec.varint_size (List.length t.locks)
    + Codec.varint_size (List.length t.ranges)
  in
  let locks =
    List.fold_left
      (fun acc l ->
        acc
        + Codec.varint_size l.Lbc_wal.Record.lock_id
        + Codec.varint_size l.Lbc_wal.Record.seqno
        + Codec.varint_size l.Lbc_wal.Record.prev_write_seq)
      0 t.locks
  in
  let fixed = 1 + 2 + tail + locks in
  List.fold_left
    (fun acc r ->
      acc + Lbc_wal.Record.rvm_disk_header_size
      + Bytes.length r.Lbc_wal.Record.data)
    fixed t.ranges

let header_overhead t = size t - Lbc_wal.Record.ranges_bytes t
