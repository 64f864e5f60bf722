exception Truncated of string

(* The writer is a growable arena: unlike [Buffer], its contents are
   taken as a slice without copying, and a word written earlier can be
   patched in place. *)
type writer = { mutable buf : Bytes.t; mutable len : int }

let writer ?(capacity = 256) () =
  Slice.count_alloc ();
  { buf = Bytes.create (max capacity 16); len = 0 }

let length w = w.len
let clear w = w.len <- 0

(* Growth reallocation is not charged to the copy counters: [Buffer]
   grows the same way, so it cancels out of the before/after story. *)
let ensure w n =
  if w.len + n > Bytes.length w.buf then begin
    let buf = Bytes.create (max (w.len + n) (2 * Bytes.length w.buf)) in
    Bytes.blit w.buf 0 buf 0 w.len;
    w.buf <- buf
  end

let contents w =
  (* Materializing copy; zero-copy consumers use [slice] instead. *)
  Slice.count_copy w.len;
  Bytes.sub w.buf 0 w.len

let slice w = Slice.window w.buf ~pos:0 ~len:w.len

let slice_sub w ~pos ~len =
  if pos < 0 || len < 0 || pos + len > w.len then invalid_arg "Codec.slice_sub";
  Slice.window w.buf ~pos ~len

let u8 w v =
  ensure w 1;
  Bytes.unsafe_set w.buf w.len (Char.unsafe_chr (v land 0xFF));
  w.len <- w.len + 1

(* Fixed-width little-endian words: one capacity check, one store. *)
let u16 w v =
  ensure w 2;
  Bytes.set_uint16_le w.buf w.len v;
  w.len <- w.len + 2

let u32 w v =
  ensure w 4;
  Bytes.set_int32_le w.buf w.len (Int32.of_int v);
  w.len <- w.len + 4

let u64 w v =
  ensure w 8;
  Bytes.set_int64_le w.buf w.len v;
  w.len <- w.len + 8

let zeros w n =
  if n < 0 then invalid_arg "Codec.zeros";
  ensure w n;
  Bytes.fill w.buf w.len n '\000';
  w.len <- w.len + n

let int_as_u64 w v =
  if v < 0 then invalid_arg "Codec.int_as_u64: negative";
  u64 w (Int64.of_int v)

let rec varint w v =
  if v < 0 then invalid_arg "Codec.varint: negative"
  else if v < 0x80 then u8 w v
  else begin
    u8 w (0x80 lor (v land 0x7F));
    varint w (v lsr 7)
  end

let varint_size v =
  if v < 0 then invalid_arg "Codec.varint_size: negative";
  let rec loop v n = if v < 0x80 then n else loop (v lsr 7) (n + 1) in
  loop v 1

let raw w b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Codec.raw";
  ensure w len;
  Bytes.blit b pos w.buf w.len len;
  w.len <- w.len + len

let raw_string w s =
  let len = String.length s in
  ensure w len;
  Bytes.blit_string s 0 w.buf w.len len;
  w.len <- w.len + len

let patch_u32 w ~at v =
  if at < 0 || at + 4 > w.len then invalid_arg "Codec.patch_u32";
  Bytes.set_int32_le w.buf at (Int32.of_int v)

(* ---------------------------------------------------------------- *)
(* Reading.  A reader walks either one byte range or a gather list of
   slices; multi-byte primitives work across segment boundaries. *)

type reader = {
  mutable buf : Bytes.t;
  mutable pos : int;
  mutable limit : int;
  mutable rest : Slice.t list;  (* segments not yet entered *)
  mutable rest_len : int;  (* their total length, kept by [advance] *)
}

let reader ?(pos = 0) ?len buf =
  let len = match len with Some l -> l | None -> Bytes.length buf - pos in
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    invalid_arg "Codec.reader";
  { buf; pos; limit = pos + len; rest = []; rest_len = 0 }

let reader_of_slice s =
  { buf = Slice.base s; pos = Slice.pos s; limit = Slice.pos s + Slice.length s;
    rest = []; rest_len = 0 }

let reader_of_slices = function
  | [] -> { buf = Bytes.create 0; pos = 0; limit = 0; rest = []; rest_len = 0 }
  | s :: rest ->
      let r = reader_of_slice s in
      { r with rest; rest_len = Slice.iov_length rest }

let pos r = r.pos

(* O(1), so a decode that calls [need] per field stays linear in the
   gather list's length. *)
let remaining r = r.limit - r.pos + r.rest_len

(* Enter the next non-empty segment once the current one is exhausted. *)
let rec advance r =
  if r.pos = r.limit then
    match r.rest with
    | [] -> ()
    | s :: tl ->
        r.buf <- Slice.base s;
        r.pos <- Slice.pos s;
        r.limit <- Slice.pos s + Slice.length s;
        r.rest <- tl;
        r.rest_len <- r.rest_len - Slice.length s;
        advance r

(* Checked before any allocation sized by [n]: a length read from
   hostile input must raise here, not ask [Bytes.create] for it. *)
let need r n what = if n < 0 || remaining r < n then raise (Truncated what)

let get_u8 r =
  advance r;
  if r.pos >= r.limit then raise (Truncated "u8");
  let v = Char.code (Bytes.unsafe_get r.buf r.pos) in
  r.pos <- r.pos + 1;
  v

(* A word inside the current segment is one load; one that straddles a
   segment boundary, or runs past the end (raising [Truncated] at the
   first missing byte), is read a byte at a time. *)
let fits r n =
  advance r;
  r.limit - r.pos >= n

let get_u16 r =
  if fits r 2 then begin
    let v = Bytes.get_uint16_le r.buf r.pos in
    r.pos <- r.pos + 2;
    v
  end
  else
    let lo = get_u8 r in
    let hi = get_u8 r in
    lo lor (hi lsl 8)

let get_u32 r =
  if fits r 4 then begin
    let v = Int32.to_int (Bytes.get_int32_le r.buf r.pos) land 0xFFFFFFFF in
    r.pos <- r.pos + 4;
    v
  end
  else
    let lo = get_u16 r in
    let hi = get_u16 r in
    lo lor (hi lsl 16)

let get_u64 r =
  if fits r 8 then begin
    let v = Bytes.get_int64_le r.buf r.pos in
    r.pos <- r.pos + 8;
    v
  end
  else begin
    let v = ref 0L in
    for i = 0 to 7 do
      v := Int64.logor !v (Int64.shift_left (Int64.of_int (get_u8 r)) (8 * i))
    done;
    !v
  end

let get_int_as_u64 r =
  let v = get_u64 r in
  if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_int) > 0 then
    raise (Truncated "int_as_u64: out of int range");
  Int64.to_int v

let get_varint r =
  let rec loop shift acc =
    if shift > 62 then raise (Truncated "varint: too long");
    let b = get_u8 r in
    let acc = acc lor ((b land 0x7F) lsl shift) in
    if b land 0x80 = 0 then acc else loop (shift + 7) acc
  in
  loop 0 0

(* Every element a count announces takes at least one byte, so a count
   larger than the bytes left — or a negative one, which [get_varint]
   returns for a 9-byte varint with bit 62 set — is malformed input. *)
let get_count r =
  let n = get_varint r in
  need r n "count";
  n

let get_raw r ~len =
  need r len "raw";
  advance r;
  let out = Bytes.create len in
  let filled = ref 0 in
  while !filled < len do
    advance r;
    let n = min (len - !filled) (r.limit - r.pos) in
    Bytes.blit r.buf r.pos out !filled n;
    r.pos <- r.pos + n;
    filled := !filled + n
  done;
  Slice.count_copy len;
  out

let get_iov r ~len =
  need r len "iov";
  if r.pos = r.limit && len = r.rest_len then begin
    (* The whole rest from a segment boundary: the unread list itself. *)
    let iov = r.rest in
    r.rest <- [];
    r.rest_len <- 0;
    iov
  end
  else
    let rec take left =
      if left = 0 then []
      else begin
        advance r;
        let n = min left (r.limit - r.pos) in
        let s = Slice.of_bytes r.buf ~pos:r.pos ~len:n in
        r.pos <- r.pos + n;
        s :: take (left - n)
      end
    in
    take len

let skip r n =
  need r n "skip";
  let left = ref n in
  while !left > 0 do
    advance r;
    let k = min !left (r.limit - r.pos) in
    r.pos <- r.pos + k;
    left := !left - k
  done
