type t = {
  id : int;
  size : int;
  db : Lbc_storage.Dev.t;
  mem : Bytes.t;
}

let map ~id ~db ~size =
  if size <= 0 then invalid_arg "Region.map: size must be positive";
  let mem = Bytes.make size '\000' in
  let have = min size (Lbc_storage.Dev.size db) in
  if have > 0 then begin
    let init = Lbc_storage.Dev.read db ~off:0 ~len:have in
    Bytes.blit init 0 mem 0 have
  end;
  { id; size; db; mem }

let id t = t.id
let size t = t.size

let check t ~offset ~len =
  if offset < 0 || len < 0 || offset + len > t.size then
    invalid_arg
      (Printf.sprintf "Region %d: range [%d,%d) outside size %d" t.id offset
         (offset + len) t.size)

let read t ~offset ~len =
  check t ~offset ~len;
  Bytes.sub t.mem offset len

let write t ~offset b =
  check t ~offset ~len:(Bytes.length b);
  Bytes.blit b 0 t.mem offset (Bytes.length b)

let get_u64 t ~offset =
  check t ~offset ~len:8;
  Bytes.get_int64_le t.mem offset

let set_u64 t ~offset v =
  check t ~offset ~len:8;
  Bytes.set_int64_le t.mem offset v

let mem t ~declare = Lbc_util.Mem.of_bytes t.mem ~declare

let reload_from_db t =
  Bytes.fill t.mem 0 t.size '\000';
  let have = min t.size (Lbc_storage.Dev.size t.db) in
  if have > 0 then begin
    let image = Lbc_storage.Dev.read t.db ~off:0 ~len:have in
    Bytes.blit image 0 t.mem 0 have
  end
