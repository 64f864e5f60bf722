module Mem = Lbc_util.Mem

exception Heap_error = Mem.Error

type t = Mem.t

let magic = 0x50484541L (* "PHEA" *)
let header_size = 16
let data_start = header_size

let format image =
  if Bytes.length image < header_size then raise (Heap_error "image too small");
  Bytes.set_int64_le image 0 magic;
  Bytes.set_int64_le image 8 (Int64.of_int data_start)

let attach mem =
  if not (Int64.equal (Mem.get_u64 mem 0) magic) then
    raise (Heap_error "bad heap magic");
  mem

let of_bytes image =
  let m = Bytes.get_int64_le image 0 in
  if not (Int64.equal m magic) then
    if Int64.equal m 0L then format image
    else raise (Heap_error "image is not a heap");
  Mem.of_bytes image

let mem t = t
let size = Mem.size
let get_u64 = Mem.get_u64
let set_u64 = Mem.set_u64
let get_int = Mem.get_int
let set_int = Mem.set_int
let get_bytes t addr ~len = Mem.read t ~offset:addr ~len
let set_bytes t addr b = Mem.write t ~offset:addr b

let allocated t = get_int t 8

let alloc t n =
  if n <= 0 then raise (Heap_error "alloc: size must be positive");
  let ptr = allocated t in
  if ptr + n > size t then
    raise
      (Heap_error
         (Printf.sprintf "alloc: out of space (%d + %d > %d)" ptr n (size t)));
  set_int t 8 (ptr + n);
  ptr
