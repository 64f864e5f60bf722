open Lbc_pheap

open Lbc_util

let build (c : Schema.config) =
  if c.Schema.connections_per_atomic > Schema.max_connections then
    invalid_arg "Builder.build: too many connections per atomic part";
  let image = Bytes.make (Schema.region_size c) '\000' in
  let heap = Heap.of_bytes image in
  let rng = Rng.create c.Schema.seed in
  let assembly_layout = Schema.assembly c in
  let header = Heap.alloc heap (Layout.size Schema.header) in
  let set_header name v =
    Heap.set_int heap (header + Layout.offset Schema.header name) v
  in
  (* Design library: one cluster per composite part. *)
  let composites =
    Array.init c.Schema.num_composites (fun ci ->
        Clusters.build_one heap c ~rng ~id:ci)
  in
  (* Assembly hierarchy: a complete tree whose leaves (base assemblies)
     reference random composite parts.  The paper's Table 3 shows all 500
     composites reached (4000 unique bytes for T2-A), so the random
     assignment guarantees coverage: the first [num_composites] reference
     slots are a shuffled enumeration of the library, the rest are drawn
     uniformly, and the whole sequence is shuffled again. *)
  let refs =
    let slots = Schema.composite_visits c in
    let a =
      Array.init slots (fun i ->
          if i < c.Schema.num_composites then composites.(i)
          else Rng.pick rng composites)
    in
    Rng.shuffle rng a;
    a
  in
  let next_ref = ref 0 in
  let next_assembly_id = ref 0 in
  let rec build_assembly level =
    let a = Heap.alloc heap (Layout.size assembly_layout) in
    let seta name v = Clusters.set_field heap assembly_layout ~addr:a name v in
    seta "id" !next_assembly_id;
    incr next_assembly_id;
    if level = c.Schema.assembly_levels then begin
      seta "kind" 1;
      for i = 0 to c.Schema.composites_per_base - 1 do
        seta (Schema.child_slot i) refs.(!next_ref);
        incr next_ref
      done
    end
    else begin
      seta "kind" 0;
      for i = 0 to c.Schema.assembly_fanout - 1 do
        seta (Schema.child_slot i) (build_assembly (level + 1))
      done
    end;
    a
  in
  let root = build_assembly 1 in
  (* Composite directory.  Its spare half holds no entries; it keeps the
     heap's layout, and so every simulated address, as it has been. *)
  let capacity = 2 * c.Schema.num_composites in
  let dir = Heap.alloc heap (8 * capacity) in
  Array.iteri (fun i comp -> Heap.set_int heap (dir + (8 * i)) comp) composites;
  set_header "root_assembly" root;
  set_header "n_composites" c.Schema.num_composites;
  set_header "composite_dir" dir;
  set_header "dir_capacity" capacity;
  Heap.set_u64 heap (header + Layout.offset Schema.header "db_magic")
    Schema.db_magic;
  (* Part index over every atomic part, ordered by build date (read
     indirectly through the part). *)
  let db = Database.attach_bytes c image in
  Array.iter (fun comp -> Clusters.index_parts db ~comp) composites;
  image
