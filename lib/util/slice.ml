type t = { b : Bytes.t; off : int; len : int }

(* ---------------------------------------------------------------- *)
(* Copy accounting *)

(* The counters are process-global and shared by every backend: on the
   real backend each node is an OCaml 5 domain, so plain [ref] cells
   would lose increments under concurrent fetch-and-add. *)
let copied = Atomic.make 0
let saved = Atomic.make 0
let allocs = Atomic.make 0
let count_copy n = ignore (Atomic.fetch_and_add copied n : int)
let count_saved n = ignore (Atomic.fetch_and_add saved n : int)
let count_alloc () = Atomic.incr allocs
let bytes_copied () = Atomic.get copied
let bytes_copied_baseline () = Atomic.get copied + Atomic.get saved
let encode_allocs () = Atomic.get allocs

let reset_counters () =
  Atomic.set copied 0;
  Atomic.set saved 0;
  Atomic.set allocs 0

(* ---------------------------------------------------------------- *)

let of_bytes ?(pos = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - pos in
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Slice.of_bytes";
  { b; off = pos; len }

let of_string s = { b = Bytes.of_string s; off = 0; len = String.length s }
let length s = s.len
let base s = s.b
let pos s = s.off

let get s i =
  if i < 0 || i >= s.len then invalid_arg "Slice.get";
  Bytes.get s.b (s.off + i)

let sub s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > s.len then invalid_arg "Slice.sub";
  { b = s.b; off = s.off + pos; len }

let iter f s =
  for i = s.off to s.off + s.len - 1 do
    f (Bytes.get s.b i)
  done

let to_bytes s =
  count_copy s.len;
  Bytes.sub s.b s.off s.len

let to_string s = Bytes.sub_string s.b s.off s.len

let iov_length iov = List.fold_left (fun acc s -> acc + s.len) 0 iov

let concat iov =
  let total = iov_length iov in
  let out = Bytes.create total in
  let p = ref 0 in
  List.iter
    (fun s ->
      Bytes.blit s.b s.off out !p s.len;
      p := !p + s.len)
    iov;
  count_copy total;
  out

(* ---------------------------------------------------------------- *)

module Arena = struct
  type slice = t
  type t = { mutable buf : Bytes.t; mutable len : int }

  let create ?(capacity = 256) () =
    count_alloc ();
    { buf = Bytes.create (max capacity 16); len = 0 }

  let length a = a.len
  let clear a = a.len <- 0

  (* Growth reallocation is not charged to the copy counters: [Buffer]
     grows the same way, so it cancels out of the before/after story. *)
  let ensure a n =
    if a.len + n > Bytes.length a.buf then begin
      let cap = max (a.len + n) (2 * Bytes.length a.buf) in
      let nb = Bytes.create cap in
      Bytes.blit a.buf 0 nb 0 a.len;
      a.buf <- nb
    end

  let add_char a c =
    ensure a 1;
    Bytes.unsafe_set a.buf a.len c;
    a.len <- a.len + 1

  (* Fixed-width little-endian words: one capacity check, one store. *)
  let add_u16 a v =
    ensure a 2;
    Bytes.set_uint16_le a.buf a.len v;
    a.len <- a.len + 2

  let add_u32 a v =
    ensure a 4;
    Bytes.set_int32_le a.buf a.len (Int32.of_int v);
    a.len <- a.len + 4

  let add_u64 a v =
    ensure a 8;
    Bytes.set_int64_le a.buf a.len v;
    a.len <- a.len + 8

  let add_zeros a n =
    if n < 0 then invalid_arg "Arena.add_zeros";
    ensure a n;
    Bytes.fill a.buf a.len n '\000';
    a.len <- a.len + n

  let add_bytes a b ~pos ~len =
    if pos < 0 || len < 0 || pos + len > Bytes.length b then
      invalid_arg "Arena.add_bytes";
    ensure a len;
    Bytes.blit b pos a.buf a.len len;
    a.len <- a.len + len

  let add_string a s =
    let len = String.length s in
    ensure a len;
    Bytes.blit_string s 0 a.buf a.len len;
    a.len <- a.len + len

  let patch a ~at b =
    let len = Bytes.length b in
    if at < 0 || at + len > a.len then invalid_arg "Arena.patch";
    Bytes.blit b 0 a.buf at len

  let set_byte a ~at v =
    if at < 0 || at >= a.len then invalid_arg "Arena.set_byte";
    Bytes.unsafe_set a.buf at (Char.chr (v land 0xFF))

  let contents a = { b = a.buf; off = 0; len = a.len }

  let sub a ~pos ~len =
    if pos < 0 || len < 0 || pos + len > a.len then invalid_arg "Arena.sub";
    { b = a.buf; off = pos; len }

  let to_bytes a =
    count_copy a.len;
    Bytes.sub a.buf 0 a.len
end
