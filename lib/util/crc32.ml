type t = int32

(* Slicing-by-8: eight 256-entry tables in one flat int array.  Table 0
   is the classic bytewise table; entry [n] of table [k] is the CRC of
   byte [n] followed by [k] zero bytes, so one step folds eight input
   bytes with eight lookups. *)
let table =
  let t = Array.make 2048 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for n = 256 to 2047 do
    let prev = t.(n - 256) in
    t.(n) <- (prev lsr 8) lxor t.(prev land 0xFF)
  done;
  t

let[@inline] tbl k i = Array.unsafe_get table ((k lsl 8) lor (i land 0xFF))

let empty = 0xFFFFFFFFl

let update crc b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc32.update";
  let crc = ref (Int32.to_int crc land 0xFFFFFFFF) in
  let i = ref pos in
  let stop = pos + len in
  while !i + 8 <= stop do
    let lo =
      !crc lxor (Int32.to_int (Bytes.get_int32_le b !i) land 0xFFFFFFFF)
    in
    let hi = Int32.to_int (Bytes.get_int32_le b (!i + 4)) land 0xFFFFFFFF in
    crc :=
      tbl 7 lo lxor tbl 6 (lo lsr 8) lxor tbl 5 (lo lsr 16)
      lxor tbl 4 (lo lsr 24) lxor tbl 3 hi lxor tbl 2 (hi lsr 8)
      lxor tbl 1 (hi lsr 16) lxor tbl 0 (hi lsr 24);
    i := !i + 8
  done;
  (* The 0-7 byte tail: table 0 alone, one byte per lookup. *)
  while !i < stop do
    let byte = Char.code (Bytes.unsafe_get b !i) in
    crc := tbl 0 (!crc lxor byte) lxor (!crc lsr 8);
    incr i
  done;
  Int32.of_int !crc

let update_string crc s =
  update crc (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

let finish crc = Int32.logxor crc 0xFFFFFFFFl
let bytes b ~pos ~len = finish (update empty b ~pos ~len)
let string s = finish (update_string empty s)
