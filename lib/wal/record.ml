open Lbc_util

type lock_info = { lock_id : int; seqno : int; prev_write_seq : int }
type range = { region : int; offset : int; data : Bytes.t }
type cmd = { op : int; params : Bytes.t; cmd_regions : int list }

type txn = {
  node : int;
  tid : int;
  locks : lock_info list;
  ranges : range list;
  cmd : cmd option;
}

let magic = 0x4C424354 (* "LBCT" *)
let cmd_magic = 0x4C424343 (* "LBCC" *)
let rvm_disk_header_size = 104
let min_header_size = 4 + 8 + 8 (* region, offset, length *)

(* Single-pass encode into a caller-supplied writer: the record may land
   after bytes already in the arena, so every patch offset is relative
   to the arena length at entry.  The total-length field is patched in
   place once the body size is known, and the CRC is computed over the
   arena bytes directly — no intermediate buffer is materialized.  Both
   record kinds (value and command) share this framing: magic, total at
   +4, trailing CRC. *)
let seal w ~start =
  let total = Codec.length w - start + 4 in
  Codec.patch_u32 w ~at:(start + 4) total;
  let covered = Codec.slice_sub w ~pos:start ~len:(total - 4) in
  let crc =
    Crc32.bytes (Slice.base covered) ~pos:(Slice.pos covered)
      ~len:(Slice.length covered)
  in
  Codec.u32 w (Int32.to_int crc)

let put_locks w locks =
  Codec.varint w (List.length locks);
  List.iter
    (fun l ->
      Codec.varint w l.lock_id;
      Codec.varint w l.seqno;
      Codec.varint w l.prev_write_seq)
    locks

(* Command records reuse the value framing so the log scanner and point
   reads need no second layout; only the body differs: the operation id,
   its parameter blob, and the regions the replayed operation will
   touch. *)
let encode_cmd_into w t c =
  if t.ranges <> [] then
    invalid_arg "Record.encode: a command record carries no value ranges";
  let start = Codec.length w in
  Codec.u32 w cmd_magic;
  Codec.u32 w 0 (* total, patched by [seal] *);
  Codec.u16 w t.node;
  Codec.int_as_u64 w t.tid;
  put_locks w t.locks;
  Codec.varint w c.op;
  Codec.varint w (Bytes.length c.params);
  Codec.raw w c.params ~pos:0 ~len:(Bytes.length c.params);
  Codec.varint w (List.length c.cmd_regions);
  List.iter (Codec.varint w) c.cmd_regions;
  seal w ~start

(* Every range header is padded to RVM's 104 bytes; the size still rides
   in the record, and the decoder honours whatever size a record
   carries. *)
let encode_into w t =
  match t.cmd with
  | Some c -> encode_cmd_into w t c
  | None ->
      let start = Codec.length w in
      Codec.u32 w magic;
      Codec.u32 w 0 (* total, patched by [seal] *);
      Codec.u16 w t.node;
      Codec.int_as_u64 w t.tid;
      Codec.u16 w rvm_disk_header_size;
      put_locks w t.locks;
      Codec.varint w (List.length t.ranges);
      List.iter
        (fun r ->
          Codec.u32 w r.region;
          Codec.int_as_u64 w r.offset;
          Codec.int_as_u64 w (Bytes.length r.data);
          Codec.zeros w (rvm_disk_header_size - min_header_size);
          Codec.raw w r.data ~pos:0 ~len:(Bytes.length r.data))
        t.ranges;
      seal w ~start

let encode t =
  let w = Codec.writer ~capacity:1024 () in
  encode_into w t;
  Codec.contents w

let locks_size t =
  List.fold_left
    (fun acc l ->
      acc + Codec.varint_size l.lock_id + Codec.varint_size l.seqno
      + Codec.varint_size l.prev_write_seq)
    (Codec.varint_size (List.length t.locks))
    t.locks

let encoded_size t =
  match t.cmd with
  | Some c ->
      let regions =
        List.fold_left
          (fun acc r -> acc + Codec.varint_size r)
          (Codec.varint_size (List.length c.cmd_regions))
          c.cmd_regions
      in
      4 + 4 + 2 + 8 + locks_size t + Codec.varint_size c.op
      + Codec.varint_size (Bytes.length c.params)
      + Bytes.length c.params + regions + 4
  | None ->
      let ranges =
        List.fold_left
          (fun acc r -> acc + rvm_disk_header_size + Bytes.length r.data)
          0 t.ranges
      in
      4 + 4 + 2 + 8 + 2 + locks_size t
      + Codec.varint_size (List.length t.ranges)
      + ranges + 4

type decode_result =
  | Txn of txn * int
  | End
  | Torn of string

(* Decoding operates on a window so log scans can hand in bounded views
   of the device instead of full snapshots; positions (including the
   [Txn] continuation offset) are relative to the window. *)

let all_zero s ~pos =
  let n = Slice.length s in
  let rec loop i = i >= n || (Slice.get s i = '\000' && loop (i + 1)) in
  loop pos

(* The stored CRC against the one computed over the record's bytes. *)
let crc_ok s ~pos ~total =
  let b = Slice.base s and at = Slice.pos s + pos in
  Int32.equal
    (Bytes.get_int32_le b (at + total - 4))
    (Crc32.bytes b ~pos:at ~len:(total - 4))

let get_locks body =
  List.init (Codec.get_count body) (fun _ ->
      let lock_id = Codec.get_varint body in
      let seqno = Codec.get_varint body in
      let prev_write_seq = Codec.get_varint body in
      { lock_id; seqno; prev_write_seq })

let decode_txn body ~is_cmd =
  let node = Codec.get_u16 body in
  let tid = Codec.get_int_as_u64 body in
  if is_cmd then begin
    let locks = get_locks body in
    let op = Codec.get_varint body in
    let plen = Codec.get_varint body in
    let params = Codec.get_raw body ~len:plen in
    let cmd_regions =
      List.init (Codec.get_count body) (fun _ -> Codec.get_varint body)
    in
    { node; tid; locks; ranges = []; cmd = Some { op; params; cmd_regions } }
  end
  else begin
    let header_size = Codec.get_u16 body in
    if header_size < min_header_size then
      raise (Codec.Truncated "header size");
    let locks = get_locks body in
    let ranges =
      List.init (Codec.get_count body) (fun _ ->
          let region = Codec.get_u32 body in
          let offset = Codec.get_int_as_u64 body in
          let dlen = Codec.get_int_as_u64 body in
          Codec.skip body (header_size - min_header_size);
          let data = Codec.get_raw body ~len:dlen in
          { region; offset; data })
    in
    { node; tid; locks; ranges; cmd = None }
  end

let decode_slice s ~pos =
  let len = Slice.length s in
  if pos >= len then End
  else if len - pos < 8 then if all_zero s ~pos then End else Torn "short tail"
  else begin
    let r = Codec.reader_of_slice (Slice.sub s ~pos ~len:(len - pos)) in
    let m = Codec.get_u32 r in
    let total = Codec.get_u32 r in
    if not (m = magic || m = cmd_magic) then
      if all_zero s ~pos then End else Torn "bad magic"
    else if total < 12 then Torn "bad length"
    else if pos + total > len then Torn "truncated record"
    else if not (crc_ok s ~pos ~total) then Torn "bad crc"
    else begin
      let body =
        Codec.reader_of_slice (Slice.sub s ~pos:(pos + 8) ~len:(total - 12))
      in
      try Txn (decode_txn body ~is_cmd:(m = cmd_magic), pos + total)
      with Codec.Truncated why -> Torn ("malformed body: " ^ why)
    end
  end

let decode b ~pos = decode_slice (Slice.of_bytes b) ~pos

let ranges_bytes t =
  List.fold_left (fun acc r -> acc + Bytes.length r.data) 0 t.ranges

(* A record advances its locks' write chains iff it carries redo state:
   either new-value ranges or a replayable command.  Read-only acquires
   carry neither and leave prev_write_seq untouched. *)
let is_write t = t.ranges <> [] || t.cmd <> None

(* The distinct regions of ranges in region order, in one pass; [None]
   at the first range whose region is lower than its predecessor's. *)
let rec distinct_regions acc = function
  | [] -> Some (List.rev acc)
  | r :: rest -> (
      match acc with
      | prev :: _ when r.region = prev -> distinct_regions acc rest
      | prev :: _ when r.region < prev -> None
      | _ -> distinct_regions (r.region :: acc) rest)

let regions t =
  match t.cmd with
  | Some c -> List.sort_uniq Int.compare c.cmd_regions
  | None -> (
      match distinct_regions [] t.ranges with
      | Some regions -> regions
      | None ->
          List.sort_uniq Int.compare (List.map (fun r -> r.region) t.ranges))

let compare_position a b =
  let c = Int.compare a.region b.region in
  if c <> 0 then c else Int.compare a.offset b.offset

let rec in_position_order = function
  | a :: (b :: _ as rest) -> compare_position a b <= 0 && in_position_order rest
  | [ _ ] | [] -> true

let sort_ranges ranges =
  if in_position_order ranges then ranges
  else List.stable_sort compare_position ranges

let equal_lock a b =
  a.lock_id = b.lock_id && a.seqno = b.seqno
  && a.prev_write_seq = b.prev_write_seq

let equal_range a b =
  a.region = b.region && a.offset = b.offset && Bytes.equal a.data b.data

let equal_cmd a b =
  a.op = b.op && Bytes.equal a.params b.params
  && List.equal Int.equal a.cmd_regions b.cmd_regions

let equal_txn (a : txn) (b : txn) =
  a.node = b.node && a.tid = b.tid
  && List.length a.locks = List.length b.locks
  && List.for_all2 equal_lock a.locks b.locks
  && List.length a.ranges = List.length b.ranges
  && List.for_all2 equal_range a.ranges b.ranges
  && Option.equal equal_cmd a.cmd b.cmd

let pp_txn ppf (t : txn) =
  Format.fprintf ppf "@[<h>txn node=%d tid=%d locks=[%a] ranges=[%a]%a@]" t.node
    t.tid
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       (fun ppf l -> Format.fprintf ppf "%d@%d<-%d" l.lock_id l.seqno l.prev_write_seq))
    t.locks
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       (fun ppf r ->
         Format.fprintf ppf "r%d+%d:%dB" r.region r.offset (Bytes.length r.data)))
    t.ranges
    (fun ppf -> function
      | None -> ()
      | Some c ->
          Format.fprintf ppf " cmd=op%d:%dB@[%a@]" c.op (Bytes.length c.params)
            (Format.pp_print_list
               ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
               (fun ppf r -> Format.fprintf ppf "r%d" r))
            c.cmd_regions)
    t.cmd
