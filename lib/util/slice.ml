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

let window b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Slice.of_bytes";
  { b; off = pos; len }

let of_bytes ?(pos = 0) ?len b =
  window b ~pos ~len:(match len with Some l -> l | None -> Bytes.length b - pos)

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
