open Lbc_pheap

exception Bad_database of string

(* Field offsets, looked up in the layouts once: the fixed layouts here
   at module initialization, the configuration-dependent ones at attach.
   No access searches a layout by name. *)
let header_addr = Heap.data_start
let header_field = Layout.offset Schema.header
let hdr_magic = header_field "db_magic"
let hdr_root = header_field "root_assembly"
let hdr_n_composites = header_field "n_composites"
let hdr_dir = header_field "composite_dir"
let hdr_index_slots = header_field "index_slots"
let part_date_off = Layout.offset Schema.atomic_part "date"
let part_x_off = Layout.offset Schema.atomic_part "x"
let part_y_off = Layout.offset Schema.atomic_part "y"

let part_conn_offs =
  Array.init Schema.max_connections (fun k ->
      Layout.offset Schema.atomic_part (Schema.conn_to k))

let conn_to_off = Layout.offset Schema.connection "to"

type t = {
  config : Schema.config;
  heap : Heap.t;
  index : Iavl.t;
  comp_root : int;
  comp_document : int;
  comp_parts : int array;
  asm_children : int array;
}

let of_heap config heap =
  let magic = Heap.get_u64 heap (header_addr + hdr_magic) in
  if not (Int64.equal magic Schema.db_magic) then
    raise (Bad_database "bad OO7 magic");
  let comp = Layout.offset (Schema.composite_part config) in
  let asm = Layout.offset (Schema.assembly config) in
  {
    config;
    heap;
    (* The part index orders atomic parts by their (mutable) date field,
       read indirectly through the part. *)
    index =
      Iavl.attach heap ~slots:(header_addr + hdr_index_slots)
        ~key_of:(fun part ->
          (Heap.get_u64 heap (part + part_date_off), Int64.of_int part));
    comp_root = comp "root_part";
    comp_document = comp "document";
    comp_parts =
      Array.init config.Schema.atomics_per_composite (fun i ->
          comp (Schema.part_slot i));
    asm_children =
      Array.init
        (max config.Schema.assembly_fanout config.Schema.composites_per_base)
        (fun i -> asm (Schema.child_slot i));
  }

let attach_mem config mem = of_heap config (Heap.attach mem)
let attach_bytes config image = of_heap config (Heap.of_bytes image)

let attach_txn config txn ~region =
  attach_mem config (Lbc_core.Node.Txn.mem txn ~region)

let attach_node config node ~region =
  attach_mem config
    (Lbc_core.Node.mem node ~region ~declare:(fun ~offset:_ ~len:_ ->
         raise (Bad_database "read-only attachment")))

let config t = t.config
let heap t = t.heap
let index t = t.index
let get t addr = Heap.get_int t.heap addr
let set t addr v = Heap.set_int t.heap addr v
let root_assembly t = get t (header_addr + hdr_root)
let num_composites t = get t (header_addr + hdr_n_composites)
let dir t = get t (header_addr + hdr_dir)

let composite t i =
  if i < 0 || i >= num_composites t then
    invalid_arg (Printf.sprintf "Database.composite: index %d" i);
  get t (dir t + (8 * i))

let part_date t part = get t (part + part_date_off)
let set_part_date t part v = set t (part + part_date_off) v
let part_x t part = get t (part + part_x_off)
let set_part_x t part v = set t (part + part_x_off) v
let part_y t part = get t (part + part_y_off)

let connection_target t part k =
  get t (get t (part + part_conn_offs.(k)) + conn_to_off)

let composite_root t comp = get t (comp + t.comp_root)
let composite_document t comp = get t (comp + t.comp_document)
let composite_part t comp i = get t (comp + t.comp_parts.(i))
let assembly_child t asm i = get t (asm + t.asm_children.(i))

let checksum t =
  (* Mix each atomic part's mutable fields into an order-independent sum. *)
  let mix acc v =
    Int64.add acc (Int64.mul (Int64.of_int v) 0x9E3779B97F4A7C15L)
  in
  let acc = ref 0L in
  for ci = 0 to num_composites t - 1 do
    let comp = composite t ci in
    for ai = 0 to t.config.Schema.atomics_per_composite - 1 do
      let part = composite_part t comp ai in
      acc := mix !acc (part_date t part);
      acc := mix !acc (part_x t part);
      acc := mix !acc (part_y t part)
    done
  done;
  !acc
