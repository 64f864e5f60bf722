open Lbc_pheap
open Lbc_util

let set_field heap layout ~addr name v =
  Heap.set_int heap (addr + Layout.offset layout name) v

let build_one heap (c : Schema.config) ~rng ~id:ci =
  let composite_layout = Schema.composite_part c in
  let comp = Heap.alloc heap (Layout.size composite_layout) in
  let atomics =
    Array.init c.Schema.atomics_per_composite (fun _ ->
        Heap.alloc heap (Layout.size Schema.atomic_part))
  in
  Array.iteri
    (fun ai part ->
      let id = (ci * c.Schema.atomics_per_composite) + ai in
      let setf name v = set_field heap Schema.atomic_part ~addr:part name v in
      setf "id" id;
      setf "date" (Rng.int rng c.Schema.date_range);
      setf "x" (Rng.int rng 10_000);
      setf "y" (Rng.int rng 10_000);
      setf "doc_id" id)
    atomics;
  (* Connection objects: the first out-edge of each atomic part forms a
     ring so the graph is connected; the rest are random within the
     composite. *)
  Array.iteri
    (fun ai part ->
      for k = 0 to c.Schema.connections_per_atomic - 1 do
        let conn = Heap.alloc heap (Layout.size Schema.connection) in
        let target =
          if k = 0 then (ai + 1) mod c.Schema.atomics_per_composite
          else Rng.int rng c.Schema.atomics_per_composite
        in
        set_field heap Schema.connection ~addr:conn "from" part;
        set_field heap Schema.connection ~addr:conn "to" atomics.(target);
        set_field heap Schema.connection ~addr:conn "type" k;
        set_field heap Schema.connection ~addr:conn "length" (Rng.int rng 1000);
        set_field heap Schema.atomic_part ~addr:part (Schema.conn_to k) conn
      done)
    atomics;
  let doc = Heap.alloc heap Schema.doc_size in
  Heap.set_bytes heap doc
    (Bytes.make Schema.doc_size (Char.chr (0x41 + (ci mod 26))));
  let setc name v = set_field heap composite_layout ~addr:comp name v in
  setc "id" ci;
  setc "date" (Rng.int rng c.Schema.date_range);
  setc "root_part" atomics.(0);
  setc "document" doc;
  Array.iteri (fun ai part -> setc (Schema.part_slot ai) part) atomics;
  comp

let iter_parts db ~comp f =
  let c = Database.config db in
  for ai = 0 to c.Schema.atomics_per_composite - 1 do
    f (Database.composite_part db comp ai)
  done

let index_parts db ~comp =
  let idx = Database.index db in
  iter_parts db ~comp (fun part ->
      if not (Iavl.insert idx part) then
        raise (Database.Bad_database "index_parts: duplicate entry"))
