type case = Ordered_append | Exact_match | Extended | Inserted

(* The ranges live in parallel int arrays in call order (one slot per
   distinct offset).  [index] is an open-addressing table over the slots,
   keyed by offset: it holds [slot + 1], 0 marks an empty cell, and it is
   kept at most half full.  Nothing on the [add] path allocates except
   the doubling of a full array.  A log is created at its region's first
   [set_range] in a transaction, so it allocates its arrays at once. *)
type t = {
  mutable offs : int array;  (* slot -> offset *)
  mutable lens : int array;  (* slot -> length *)
  mutable n : int;  (* slots in use *)
  mutable index : int array;
  mutable shift : int;  (* 63 - log2 (Array.length index) *)
  mutable stored_bytes : int;
  mutable max_end : int;  (* end of the highest range; 0 when empty *)
  mutable max_off : int;  (* highest offset stored; -1 when empty *)
  mutable in_order : bool;  (* slots are in ascending offset order *)
  mutable last : int;  (* slot of the last range stored (cache); -1 none *)
}

let rec log2 k = if k <= 1 then 0 else 1 + log2 (k lsr 1)
let initial_slots = 16

let create () =
  {
    offs = Array.make initial_slots 0;
    lens = Array.make initial_slots 0;
    n = 0;
    index = Array.make (2 * initial_slots) 0;
    shift = 63 - log2 (2 * initial_slots);
    stored_bytes = 0;
    max_end = 0;
    max_off = -1;
    in_order = true;
    last = -1;
  }

let count t = t.n
let total_bytes t = t.stored_bytes

(* Fibonacci hashing: the top bits of the product, so offsets that are
   multiples of an object size still spread over the table. *)
let hash shift offset = (offset * 0x1E3779B97F4A7C15) lsr shift

let rec probe index offs offset mask i =
  let s = Array.unsafe_get index i - 1 in
  if s < 0 then -1
  else if Array.unsafe_get offs s = offset then s
  else probe index offs offset mask ((i + 1) land mask)

(* Slot holding [offset], or -1. *)
let find t offset =
  probe t.index t.offs offset (Array.length t.index - 1) (hash t.shift offset)

let rec place index mask i v =
  if Array.unsafe_get index i = 0 then Array.unsafe_set index i v
  else place index mask ((i + 1) land mask) v

let index_slot t s =
  place t.index
    (Array.length t.index - 1)
    (hash t.shift (Array.unsafe_get t.offs s))
    (s + 1)

(* Double the slot arrays and rebuild the index at twice their size. *)
let grow t =
  let cap = 2 * Array.length t.offs in
  let offs = Array.make cap 0 and lens = Array.make cap 0 in
  Array.blit t.offs 0 offs 0 t.n;
  Array.blit t.lens 0 lens 0 t.n;
  t.offs <- offs;
  t.lens <- lens;
  t.index <- Array.make (2 * cap) 0;
  t.shift <- 63 - log2 (2 * cap);
  for s = 0 to t.n - 1 do
    index_slot t s
  done

(* Store [offset, offset+len) in a fresh slot. *)
let append t ~offset ~len =
  if t.n = Array.length t.offs then grow t;
  let s = t.n in
  t.offs.(s) <- offset;
  t.lens.(s) <- len;
  t.n <- s + 1;
  index_slot t s;
  if offset < t.max_off then t.in_order <- false else t.max_off <- offset;
  t.stored_bytes <- t.stored_bytes + len;
  if offset + len > t.max_end then t.max_end <- offset + len;
  t.last <- s

let add t ~offset ~len =
  if len <= 0 then invalid_arg "Range_tree.add: len must be positive";
  if offset < 0 then invalid_arg "Range_tree.add: negative offset";
  let last = t.last in
  if last >= 0 && t.offs.(last) = offset && len <= t.lens.(last) then
    (* Last-range cache: repeated modification of the same object. *)
    Exact_match
  else if offset >= t.max_end then begin
    (* Address-ordered call past everything stored (or the first call):
       no lookup, since no stored range can start here. *)
    append t ~offset ~len;
    Ordered_append
  end
  else
    (* Coalesce only exact/extending matches at the same offset; other
       overlaps are stored as separate ranges (possibly logging some
       bytes twice), which is the trade the paper makes for speed. *)
    let s = find t offset in
    if s < 0 then begin
      append t ~offset ~len;
      Inserted
    end
    else if len <= t.lens.(s) then Exact_match
    else begin
      t.stored_bytes <- t.stored_bytes - t.lens.(s) + len;
      t.lens.(s) <- len;
      if offset + len > t.max_end then t.max_end <- offset + len;
      t.last <- s;
      Extended
    end

(* Slots in ascending offset order.  Offsets are distinct, so an LSD
   radix sort on them — 8-bit digits, one stable counting pass per
   significant byte of the highest offset — orders them exactly. *)
let sorted_slots t =
  let n = t.n and offs = t.offs in
  let src = ref (Array.init n Fun.id) and dst = ref (Array.make n 0) in
  let starts = Array.make 257 0 in
  let shift = ref 0 in
  while t.max_off lsr !shift > 0 do
    let a = !src and b = !dst and sh = !shift in
    Array.fill starts 0 257 0;
    for i = 0 to n - 1 do
      let d = ((offs.(a.(i)) lsr sh) land 255) + 1 in
      starts.(d) <- starts.(d) + 1
    done;
    for d = 1 to 256 do
      starts.(d) <- starts.(d) + starts.(d - 1)
    done;
    for i = 0 to n - 1 do
      let s = a.(i) in
      let d = (offs.(s) lsr sh) land 255 in
      b.(starts.(d)) <- s;
      starts.(d) <- starts.(d) + 1
    done;
    src := b;
    dst := a;
    shift := sh + 8
  done;
  !src

let fold_right t ~f init =
  let slot = if t.in_order then Fun.id else Array.get (sorted_slots t) in
  let acc = ref init in
  for i = t.n - 1 downto 0 do
    let s = slot i in
    acc := f ~offset:t.offs.(s) ~len:t.lens.(s) !acc
  done;
  !acc

let ranges t = fold_right t ~f:(fun ~offset ~len acc -> (offset, len) :: acc) []

(* Linear scan: the log may store overlapping ranges, so a
   nearest-predecessor lookup is not sufficient.  Test-only helper. *)
let mem_byte t pos =
  let rec scan s =
    s < t.n && ((t.offs.(s) <= pos && pos < t.offs.(s) + t.lens.(s)) || scan (s + 1))
  in
  scan 0
