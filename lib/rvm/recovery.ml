type outcome = { records_replayed : int; bytes_replayed : int }

let sum =
  List.fold_left
    (fun a o ->
      {
        records_replayed = a.records_replayed + o.records_replayed;
        bytes_replayed = a.bytes_replayed + o.bytes_replayed;
      })
    { records_replayed = 0; bytes_replayed = 0 }

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

(* One replay session: the devices written, the command images and
   the running totals. *)
type session = {
  mutable touched : Lbc_storage.Dev.t list;
  mutable bufs : cmd_buf list;
  mutable records : int;
  mutable bytes : int;  (* stored by value ranges and by commands *)
}

let session () = { touched = []; bufs = []; records = 0; bytes = 0 }

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
            s.bytes <- s.bytes + len);
      s.bufs <- b :: s.bufs;
      b

(* A value blit that already went to the device: mirror it into the
   image so later commands see it, without dirtying the extent. *)
let buf_note b ~off src =
  let n = Bytes.length src in
  Mem.extend b.buf_mem (off + n);
  Bytes.blit src 0 (Mem.image b.buf_mem) off n

(* Replay one record into the database devices through the one apply
   routine: a value range lands on its device (mirrored into the image
   if a command already snapshotted it); a command re-executes against
   the session image of the devices — the checkpoint image plus earlier
   replayed records IS the operation's pre-state, because merge order
   preserves each lock's write chain. *)
let apply ~db_for_region s txn =
  ignore
    (Lbc_wal.Command.apply txn ~resolve:db_for_region
       ~mem:(fun dev -> (buf_for s dev).buf_mem)
       ~store:(fun dev { Lbc_wal.Record.offset; data; _ } ->
         Lbc_storage.Dev.write dev ~off:offset data ~pos:0
           ~len:(Bytes.length data);
         Option.iter (fun b -> buf_note b ~off:offset data) (find_buf s dev);
         s.bytes <- s.bytes + Bytes.length data;
         touch s dev)
      : int);
  s.records <- s.records + 1

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
  List.iter Lbc_storage.Dev.sync s.touched;
  { records_replayed = s.records; bytes_replayed = s.bytes }

let replay_records txns ~db_for_region =
  let s = session () in
  List.iter (apply ~db_for_region s) txns;
  finish s

let replay_chain ~log ~offsets ~db_for_region =
  (* On-demand recovery: apply exactly one region-index chain, reading
     its records by offset instead of scanning the whole tail. *)
  let s = session () in
  match
    Lbc_wal.Log.fold_chain log ~offsets ~init:() (fun () _off txn ->
        apply ~db_for_region s txn)
  with
  | Ok () -> Ok (finish s)
  | Error e -> Error e
