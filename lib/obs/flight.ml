(* Always-on flight recorder ring.

   One ring per node (per domain on the real backend), written only by
   that node's execution context — single-writer, so the hot path takes
   no lock and performs no per-event heap allocation: events are
   varint-encoded directly into a fixed byte ring with [Bytes.unsafe_set].
   When the ring wraps, whole oldest records are overwritten and counted
   in [dropped]; the survivors are always the newest suffix.

   Record layout (length-prefixed, so the eviction scan never decodes
   payloads):

     +-----+--------------------------------------+
     | len |  tag  field*  (varints)              |
     +-----+--------------------------------------+

     tag 0 span     : lane, name_id, ts_delta, dur_ns, zigzag(arg)
     tag 1 instant  : lane, name_id, ts_delta, zigzag(arg)
     tag 2 count    : name_id, ts_delta, zigzag(delta)
     tag 3 flow tail: lane, ts_delta, flow_id
     tag 4 flow head: lane, ts_delta, flow_id

   Timestamps are integer nanoseconds, clamped monotone per ring and
   stored as deltas from the previous record.  Because eviction can
   remove the base a delta chain started from, absolute times are
   reconstructed at decode time from [last_ts_ns] (the newest record's
   absolute timestamp, kept outside the ring): decode relative, then
   shift so the final event lands on [last_ts_ns].

   The string table is interned outside the ring (names are a small
   static set), so wrap can never orphan an id: every id a surviving
   record references stays resolvable. *)

type t = {
  ring : Bytes.t;
  mask : int;  (* capacity - 1; capacity is a power of two *)
  mutable head : int;  (* monotone byte offset of the next write *)
  mutable oldest : int;  (* monotone byte offset of the oldest record *)
  mutable recorded : int;
  mutable dropped : int;
  mutable last_ts : int;  (* ns, monotone per ring *)
  intern : (string, int) Hashtbl.t;
  mutable names : string list;  (* newest first; reversed at dump *)
  mutable name_count : int;
}

let tag_span = 0
let tag_instant = 1
let tag_count = 2
let tag_flow_start = 3
let tag_flow_end = 4

(* Pipeline lane names, shared with the dump renderer. *)
let lane_name = function
  | 0 -> "txn"
  | 1 -> "apply"
  | 2 -> "wal"
  | 3 -> "lock"
  | 4 -> "net"
  | n -> "lane-" ^ string_of_int n

let min_capacity = 256

let create ?(cap_bytes = 65536) () =
  let cap = ref min_capacity in
  while !cap < cap_bytes do
    cap := !cap * 2
  done;
  {
    ring = Bytes.create !cap;  (* alloc-ok: one-time ring allocation *)
    mask = !cap - 1;
    head = 0;
    oldest = 0;
    recorded = 0;
    dropped = 0;
    last_ts = 0;
    intern = Hashtbl.create 32;
    names = [];
    name_count = 0;
  }

let recorded t = t.recorded
let dropped t = t.dropped
let bytes_used t = t.head - t.oldest
let capacity t = t.mask + 1
let last_ts_ns t = t.last_ts
let name_count t = t.name_count

(* ---------------------------------------------------------------- *)
(* Hot path *)

(* Exception match rather than [find_opt]: the steady-state hit must
   not allocate an option (this runs once per record). *)
let[@inline] intern t name =
  match Hashtbl.find t.intern name with
  | id -> id
  | exception Not_found ->
      (* First occurrence only: the name set is small and static. *)
      let id = t.name_count in
      Hashtbl.add t.intern name id;
      t.names <- name :: t.names;
      t.name_count <- id + 1;
      id

let[@inline] varint_len v =
  let v = ref v and n = ref 1 in
  while !v >= 128 do
    v := !v lsr 7;
    incr n
  done;
  !n

let[@inline] put8 t pos b =
  Bytes.unsafe_set t.ring (pos land t.mask) (Char.unsafe_chr (b land 0xff))

let[@inline] put_varint t pos v =
  let pos = ref pos and v = ref v in
  while !v >= 128 do
    put8 t !pos ((!v land 0x7f) lor 0x80);
    incr pos;
    v := !v lsr 7
  done;
  put8 t !pos !v;
  !pos + 1

let[@inline] zigzag v = (v lsl 1) lxor (v asr 62)

(* Overwrite-oldest: drop whole records until [total] bytes fit.  The
   length prefix makes this a byte-offset hop, not a decode. *)
let[@inline] evict_for t total =
  let cap = t.mask + 1 in
  while t.head + total - t.oldest > cap do
    let len = Char.code (Bytes.unsafe_get t.ring (t.oldest land t.mask)) in
    t.oldest <- t.oldest + 1 + len;
    t.dropped <- t.dropped + 1
  done

(* Monotone clamp: the ring's timestamps never step backwards, so the
   delta is always non-negative and the self-check invariant holds by
   construction. *)
let[@inline] ts_delta t ts_ns =
  let ts = if ts_ns < t.last_ts then t.last_ts else ts_ns in
  let d = ts - t.last_ts in
  t.last_ts <- ts;
  d

let record_span t ~ts_ns ~name ~lane ~dur_ns ~arg =
  let id = intern t name in
  let dur = if dur_ns < 0 then 0 else dur_ns in
  let d = ts_delta t ts_ns in
  let z = zigzag arg in
  let len =
    1 + varint_len lane + varint_len id + varint_len d + varint_len dur
    + varint_len z
  in
  evict_for t (1 + len);
  put8 t t.head len;
  put8 t (t.head + 1) tag_span;
  let p = put_varint t (t.head + 2) lane in
  let p = put_varint t p id in
  let p = put_varint t p d in
  let p = put_varint t p dur in
  let p = put_varint t p z in
  t.head <- p;
  t.recorded <- t.recorded + 1

let record_instant t ~ts_ns ~name ~lane ~arg =
  let id = intern t name in
  let d = ts_delta t ts_ns in
  let z = zigzag arg in
  let len = 1 + varint_len lane + varint_len id + varint_len d + varint_len z in
  evict_for t (1 + len);
  put8 t t.head len;
  put8 t (t.head + 1) tag_instant;
  let p = put_varint t (t.head + 2) lane in
  let p = put_varint t p id in
  let p = put_varint t p d in
  let p = put_varint t p z in
  t.head <- p;
  t.recorded <- t.recorded + 1

let record_count t ~ts_ns ~name ~delta =
  let id = intern t name in
  let d = ts_delta t ts_ns in
  let z = zigzag delta in
  let len = 1 + varint_len id + varint_len d + varint_len z in
  evict_for t (1 + len);
  put8 t t.head len;
  put8 t (t.head + 1) tag_count;
  let p = put_varint t (t.head + 2) id in
  let p = put_varint t p d in
  let p = put_varint t p z in
  t.head <- p;
  t.recorded <- t.recorded + 1

let record_flow t ~ts_ns ~head ~id:flow ~lane =
  let d = ts_delta t ts_ns in
  let tag = if head then tag_flow_end else tag_flow_start in
  let len = 1 + varint_len lane + varint_len d + varint_len flow in
  evict_for t (1 + len);
  put8 t t.head len;
  put8 t (t.head + 1) tag;
  let p = put_varint t (t.head + 2) lane in
  let p = put_varint t p d in
  let p = put_varint t p flow in
  t.head <- p;
  t.recorded <- t.recorded + 1

(* ---------------------------------------------------------------- *)
(* Dump-side accessors (cold path; allocation is fine here) *)

let names t = Array.of_list (List.rev t.names)

(* The surviving records, linearized oldest-to-newest. *)
let dump_body t =
  let n = t.head - t.oldest in
  let b = Bytes.create n in  (* alloc-ok: dump path, not per-event *)
  for i = 0 to n - 1 do
    Bytes.unsafe_set b i (Bytes.unsafe_get t.ring ((t.oldest + i) land t.mask))
  done;
  Bytes.unsafe_to_string b
