type outcome =
  { records_replayed : int; bytes_replayed : int; bytes_written : int }

let sum =
  List.fold_left
    (fun a o ->
      { records_replayed = a.records_replayed + o.records_replayed;
        bytes_replayed = a.bytes_replayed + o.bytes_replayed;
        bytes_written = a.bytes_written + o.bytes_written })
    { records_replayed = 0; bytes_replayed = 0; bytes_written = 0 }

module Mem = Lbc_util.Mem

(* Command records re-execute their operation against a per-replay
   in-memory image of each region they touch, not against the device:
   an operation makes many small accesses (it is a program, not a range
   list), and paying device latency per access would make command
   replay arbitrarily slower than the bulk blit it replaces.  The image
   is snapshotted from the device on first touch — after any value
   ranges already replayed — and kept coherent with later value blits.
   A store marks the 8-byte words it covers; the session ends by
   writing each run of marked words back, as every other byte of the
   image is the device's own. *)
type cmd_buf = {
  buf_dev : Lbc_storage.Dev.t;
  mutable buf_mem : Mem.t;  (* the image; grows past the device's end *)
  dirty : Mem.t;  (* one bit per 8-byte word of the image, grown with it *)
}

(* One replay session: the devices written, the command images and
   the running totals. *)
type session = {
  mutable touched : Lbc_storage.Dev.t list;
  mutable bufs : cmd_buf list;
  mutable records : int;
  mutable bytes : int;  (* stored by value ranges and by commands *)
  mutable written : int;  (* device bytes: value blits and command runs *)
}

let session () =
  { touched = []; bufs = []; records = 0; bytes = 0; written = 0 }

let touch s dev =
  if not (List.memq dev s.touched) then s.touched <- dev :: s.touched

let find_buf s dev = List.find_opt (fun b -> b.buf_dev == dev) s.bufs
let bit w = 1 lsl (w land 7)
let marked d w = Bytes.get_uint8 d (w lsr 3) land bit w <> 0

let mark b ~offset ~len =
  if offset >= 0 && len > 0 then begin
    let last = (offset + len - 1) lsr 3 in
    Mem.extend b.dirty ((last lsr 3) + 1);
    let d = Mem.image b.dirty in
    for w = offset lsr 3 to last do
      Bytes.set_uint8 d (w lsr 3) (Bytes.get_uint8 d (w lsr 3) lor bit w)
    done
  end

let buf_for s dev =
  match find_buf s dev with
  | Some b -> b
  | None ->
      let len = Lbc_storage.Dev.size dev in
      let data =
        if len = 0 then Bytes.create 0 else Lbc_storage.Dev.read dev ~off:0 ~len
      in
      let b =
        { buf_dev = dev; buf_mem = Mem.of_bytes data;
          dirty = Mem.of_bytes (Bytes.make ((len + 63) / 64) '\000') }
      in
      (* The write declaration needs the buffer it belongs to: a
         command's store marks its words, and extends the image if it
         writes past the device's end. *)
      b.buf_mem <-
        Mem.of_bytes data ~declare:(fun ~offset ~len ->
            Mem.extend b.buf_mem (offset + len);
            mark b ~offset ~len;
            s.bytes <- s.bytes + len);
      s.bufs <- b :: s.bufs;
      b

(* A value blit that already went to the device: mirror it into the
   image so later commands see it, without marking its words. *)
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
         let len = Bytes.length data in
         Lbc_storage.Dev.write dev ~off:offset data ~pos:0 ~len;
         Option.iter (fun b -> buf_note b ~off:offset data) (find_buf s dev);
         s.bytes <- s.bytes + len;
         s.written <- s.written + len;
         touch s dev)
      : int);
  s.records <- s.records + 1

(* Write each maximal run of marked words back, one device write per
   run (the last clamped to the image's end), then sync every device
   the session wrote. *)
let finish s =
  List.iter
    (fun b ->
      let d = Mem.image b.dirty and size = Mem.size b.buf_mem in
      let words = 8 * Mem.size b.dirty and w = ref 0 in
      while !w < words do
        if Bytes.get_uint8 d (!w lsr 3) = 0 then w := (!w lor 7) + 1
        else if not (marked d !w) then incr w
        else begin
          let off = 8 * !w in
          while !w < words && marked d !w do incr w done;
          let len = min size (8 * !w) - off in
          Lbc_storage.Dev.write b.buf_dev ~off (Mem.image b.buf_mem) ~pos:off ~len;
          s.written <- s.written + len;
          touch s b.buf_dev
        end
      done)
    s.bufs;
  List.iter Lbc_storage.Dev.sync s.touched;
  { records_replayed = s.records; bytes_replayed = s.bytes;
    bytes_written = s.written }

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
