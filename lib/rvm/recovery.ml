type outcome = { records_replayed : int; bytes_replayed : int; torn_tail : bool }

module Mem = Lbc_util.Mem

(* Command records re-execute their operation against a per-replay
   in-memory image of each region they touch, not against the device:
   an operation makes many small accesses (it is a program, not a range
   list), and paying device latency per access would make command
   replay arbitrarily slower than the bulk blit it replaces.  The image
   is snapshotted from the device on first touch — after any value
   ranges already replayed — kept coherent with later value blits, and
   its dirty extent is written back once when the session ends. *)
type cmd_buf = {
  buf_dev : Lbc_storage.Dev.t;
  mutable buf_mem : Mem.t;  (* the image; grows past the device's end *)
  mutable buf_lo : int;
  mutable buf_hi : int;  (* dirty extent; empty when [lo >= hi] *)
}

(* One replay session: the devices written and the command images. *)
type session = {
  mutable touched : Lbc_storage.Dev.t list;
  mutable bufs : cmd_buf list;
  mutable cmd_bytes : int;  (* bytes stored by commands so far *)
}

let session () = { touched = []; bufs = []; cmd_bytes = 0 }

let touch s dev =
  if not (List.memq dev s.touched) then s.touched <- dev :: s.touched

let find_buf s dev = List.find_opt (fun b -> b.buf_dev == dev) s.bufs

let buf_for s dev =
  match find_buf s dev with
  | Some b -> b
  | None ->
      let len = Lbc_storage.Dev.size dev in
      let data =
        if len = 0 then Bytes.create 0 else Lbc_storage.Dev.read dev ~off:0 ~len
      in
      let b =
        { buf_dev = dev; buf_mem = Mem.of_bytes data; buf_lo = max_int;
          buf_hi = 0 }
      in
      (* The write declaration needs the buffer it belongs to: a
         command's store extends the dirty extent, and the image if it
         writes past the device's end. *)
      b.buf_mem <-
        Mem.of_bytes data ~declare:(fun ~offset ~len ->
            Mem.extend b.buf_mem (offset + len);
            b.buf_lo <- min b.buf_lo offset;
            b.buf_hi <- max b.buf_hi (offset + len);
            s.cmd_bytes <- s.cmd_bytes + len);
      s.bufs <- b :: s.bufs;
      b

(* A value blit that already went to the device: mirror it into the
   image so later commands see it, without dirtying the extent. *)
let buf_note b ~off src =
  let n = Bytes.length src in
  Mem.extend b.buf_mem (off + n);
  Bytes.blit src 0 (Mem.image b.buf_mem) off n

(* Replay one record into the database devices.  Value records blit
   their saved ranges; command records re-execute the operation, reading
   the pre-state from (and writing the redo state to) the session image
   of the devices — the checkpoint image plus earlier replayed records
   IS the operation's pre-state, because merge order preserves each
   lock's write chain. *)
let apply_ranges ~db_for_region s txn (records, bytes) =
  let bytes = ref bytes in
  (match txn.Lbc_wal.Record.cmd with
  | Some c ->
      let missing =
        List.exists
          (fun r -> db_for_region r = None)
          c.Lbc_wal.Record.cmd_regions
      in
      if not missing then begin
        let mem ~region =
          match db_for_region region with
          | Some dev -> (buf_for s dev).buf_mem
          | None -> assert false
        in
        let stored = s.cmd_bytes in
        Lbc_wal.Command.execute mem ~op:c.Lbc_wal.Record.op
          ~params:c.Lbc_wal.Record.params;
        bytes := !bytes + s.cmd_bytes - stored
      end
  | None ->
      List.iter
        (fun { Lbc_wal.Record.region; offset; data } ->
          match db_for_region region with
          | Some dev ->
              Lbc_storage.Dev.write dev ~off:offset data ~pos:0
                ~len:(Bytes.length data);
              Option.iter
                (fun b -> buf_note b ~off:offset data)
                (find_buf s dev);
              bytes := !bytes + Bytes.length data;
              touch s dev
          | None -> ())
        txn.Lbc_wal.Record.ranges);
  (records + 1, !bytes)

(* Write each dirty image extent back to its device in one bulk write,
   then sync every device the session wrote. *)
let finish s =
  List.iter
    (fun b ->
      if b.buf_hi > b.buf_lo then begin
        Lbc_storage.Dev.write b.buf_dev ~off:b.buf_lo (Mem.image b.buf_mem)
          ~pos:b.buf_lo ~len:(b.buf_hi - b.buf_lo);
        touch s b.buf_dev
      end)
    s.bufs;
  List.iter Lbc_storage.Dev.sync s.touched

let replay_records txns ~db_for_region =
  let s = session () in
  let records, bytes =
    List.fold_left
      (fun acc txn -> apply_ranges ~db_for_region s txn acc)
      (0, 0) txns
  in
  finish s;
  { records_replayed = records; bytes_replayed = bytes; torn_tail = false }

let replay_chain ~log ~offsets ~db_for_region =
  (* On-demand recovery: apply exactly one region-index chain, reading
     its records by offset instead of scanning the whole tail. *)
  let s = session () in
  match
    Lbc_wal.Log.fold_chain log ~offsets ~init:(0, 0) (fun acc _off txn ->
        apply_ranges ~db_for_region s txn acc)
  with
  | Ok (records, bytes) ->
      finish s;
      Ok { records_replayed = records; bytes_replayed = bytes;
           torn_tail = false }
  | Error _ as e -> e

let replay ~log ~db_for_region =
  let s = session () in
  let (records, bytes), status =
    Lbc_wal.Log.fold log ~init:(0, 0) (fun acc _off txn ->
        apply_ranges ~db_for_region s txn acc)
  in
  finish s;
  {
    records_replayed = records;
    bytes_replayed = bytes;
    torn_tail = (match status with Lbc_wal.Log.Clean -> false | Lbc_wal.Log.Torn_at _ -> true);
  }
