exception Error of string

type t = {
  mutable image : Bytes.t;
  mutable size : int;  (* addressable prefix of [image] *)
  declare : offset:int -> len:int -> unit;
}

let no_declare ~offset:_ ~len:_ = ()

let of_bytes ?(declare = no_declare) image =
  { image; size = Bytes.length image; declare }

let size t = t.size
let image t = t.image

let extend t n =
  if n > Bytes.length t.image then begin
    let image = Bytes.make (max n (2 * Bytes.length t.image)) '\000' in
    Bytes.blit t.image 0 image 0 t.size;
    t.image <- image
  end;
  if n > t.size then t.size <- n

let check t ~offset ~len what =
  if offset < 0 || len < 0 || offset > t.size - len then
    raise
      (Error
         (Printf.sprintf "%s [%d,%d) outside size %d" what offset (offset + len)
            t.size))

(* Reads go straight to the image: no copy, no boxed int64 (the
   primitives below compile to unboxed loads and stores). *)
let get_int t offset =
  check t ~offset ~len:8 "get_int";
  let v = Bytes.get_int64_le t.image offset in
  if Int64.shift_right_logical v 62 <> 0L then
    raise (Error "get_int: value out of int range");
  Int64.to_int v

let get_u64 t offset =
  check t ~offset ~len:8 "get_u64";
  Bytes.get_int64_le t.image offset

let read t ~offset ~len =
  check t ~offset ~len "read";
  Bytes.sub t.image offset len

(* Every store declares its range to the backing first, then lands. *)
let set_int t offset v =
  if v < 0 then raise (Error "set_int: negative");
  t.declare ~offset ~len:8;
  check t ~offset ~len:8 "set_int";
  Bytes.set_int64_le t.image offset (Int64.of_int v)

let set_u64 t offset v =
  t.declare ~offset ~len:8;
  check t ~offset ~len:8 "set_u64";
  Bytes.set_int64_le t.image offset v

let write t ~offset b =
  let len = Bytes.length b in
  t.declare ~offset ~len;
  check t ~offset ~len "write";
  Bytes.blit b 0 t.image offset len
