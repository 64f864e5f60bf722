type t = {
  id : int;
  size : int;
  db : Lbc_storage.Dev.t;
  mem : Bytes.t;
  (* Dirty extent [dirty_lo, dirty_hi): bytes of [mem] modified since the
     last flush/reload.  Empty when lo >= hi.  A single extent (not a
     range list) keeps bookkeeping O(1) per store; the cost is flushing
     clean bytes that happen to sit between two dirty ones. *)
  mutable dirty_lo : int;
  mutable dirty_hi : int;
  (* On-demand recovery state: a region mapped during an on-demand rejoin
     is cold until its replay chain has been applied; the node's serving
     gates block first touch on warming it.  Regions are born warm —
     only rejoin marks them cold. *)
  mutable warm : bool;
}

let map ~id ~db ~size =
  if size <= 0 then invalid_arg "Region.map: size must be positive";
  let mem = Bytes.make size '\000' in
  let have = min size (Lbc_storage.Dev.size db) in
  if have > 0 then begin
    let init = Lbc_storage.Dev.read db ~off:0 ~len:have in
    Bytes.blit init 0 mem 0 have
  end;
  { id; size; db; mem; dirty_lo = max_int; dirty_hi = 0; warm = true }

let id t = t.id
let size t = t.size
let db t = t.db

let check t ~offset ~len =
  if offset < 0 || len < 0 || offset + len > t.size then
    invalid_arg
      (Printf.sprintf "Region %d: range [%d,%d) outside size %d" t.id offset
         (offset + len) t.size)

let mark_dirty t ~offset ~len =
  if len > 0 then begin
    if offset < t.dirty_lo then t.dirty_lo <- offset;
    if offset + len > t.dirty_hi then t.dirty_hi <- offset + len
  end

let clear_dirty t =
  t.dirty_lo <- max_int;
  t.dirty_hi <- 0

let set_cold t = t.warm <- false
let set_warm t = t.warm <- true
let is_warm t = t.warm

let is_dirty t = t.dirty_lo < t.dirty_hi
let dirty_bytes t = if is_dirty t then t.dirty_hi - t.dirty_lo else 0
let dirty_extent t = if is_dirty t then Some (t.dirty_lo, t.dirty_hi) else None

let read t ~offset ~len =
  check t ~offset ~len;
  Bytes.sub t.mem offset len

let write t ~offset b =
  check t ~offset ~len:(Bytes.length b);
  Bytes.blit b 0 t.mem offset (Bytes.length b);
  mark_dirty t ~offset ~len:(Bytes.length b)

let get_u64 t ~offset =
  check t ~offset ~len:8;
  Bytes.get_int64_le t.mem offset

let set_u64 t ~offset v =
  check t ~offset ~len:8;
  Bytes.set_int64_le t.mem offset v;
  mark_dirty t ~offset ~len:8

let mem t ~declare =
  Lbc_util.Mem.of_bytes t.mem ~declare:(fun ~offset ~len ->
      declare ~offset ~len;
      mark_dirty t ~offset ~len)

let reload_from_db t =
  Bytes.fill t.mem 0 t.size '\000';
  let have = min t.size (Lbc_storage.Dev.size t.db) in
  if have > 0 then begin
    let image = Lbc_storage.Dev.read t.db ~off:0 ~len:have in
    Bytes.blit image 0 t.mem 0 have
  end;
  clear_dirty t

let flush_to_db t =
  Lbc_storage.Dev.write t.db ~off:0 t.mem ~pos:0 ~len:t.size;
  Lbc_storage.Dev.sync t.db;
  clear_dirty t

let flush_slice t ~max_bytes =
  if max_bytes <= 0 then invalid_arg "Region.flush_slice: max_bytes";
  if not (is_dirty t) then 0
  else begin
    let lo = t.dirty_lo in
    let len = min max_bytes (t.dirty_hi - lo) in
    (* Capture the bytes and shrink the extent before touching the device:
       Dev.write charges virtual time (a scheduling point), and a store
       landing during that sleep must both miss the captured slice and
       re-extend the extent so it gets flushed by a later slice. *)
    let chunk = Bytes.sub t.mem lo len in
    if lo + len >= t.dirty_hi then clear_dirty t else t.dirty_lo <- lo + len;
    Lbc_storage.Dev.write t.db ~off:lo chunk ~pos:0 ~len;
    len
  end

let flush_dirty t =
  if is_dirty t then begin
    let lo = t.dirty_lo and len = t.dirty_hi - t.dirty_lo in
    let chunk = Bytes.sub t.mem lo len in
    clear_dirty t;
    Lbc_storage.Dev.write t.db ~off:lo chunk ~pos:0 ~len;
    Lbc_storage.Dev.sync t.db
  end
