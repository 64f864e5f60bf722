open Lbc_pheap

type config = {
  num_composites : int;
  atomics_per_composite : int;
  connections_per_atomic : int;
  assembly_fanout : int;
  assembly_levels : int;
  composites_per_base : int;
  date_range : int;
  seed : int;
}

let small =
  {
    num_composites = 500;
    atomics_per_composite = 20;
    connections_per_atomic = 3;
    assembly_fanout = 3;
    assembly_levels = 7;
    composites_per_base = 3;
    date_range = 15_000;
    seed = 1994;
  }

let tiny =
  {
    num_composites = 12;
    atomics_per_composite = 4;
    connections_per_atomic = 3;
    assembly_fanout = 2;
    assembly_levels = 3;
    composites_per_base = 2;
    date_range = 1000;
    seed = 42;
  }

let describe c =
  if c = small then "small"
  else if c = tiny then "tiny"
  else Printf.sprintf "custom(%dx%d)" c.num_composites c.atomics_per_composite

let rec pow b e = if e = 0 then 1 else b * pow b (e - 1)
let base_assemblies c = pow c.assembly_fanout (c.assembly_levels - 1)
let composite_visits c = base_assemblies c * c.composites_per_base

let max_connections = 3
let conn_to i = Printf.sprintf "conn_to%d" i

let atomic_part =
  Layout.make ~pad_to:200
    ([ ("id", 8); ("date", 8); ("x", 8); ("y", 8); ("doc_id", 8) ]
    @ List.init max_connections (fun i -> (conn_to i, 8)))

let connection =
  Layout.make ~pad_to:64 [ ("from", 8); ("to", 8); ("type", 8); ("length", 8) ]

let doc_size = 2000

let part_slot i = Printf.sprintf "part%d" i

let composite_part c =
  let fields =
    [ ("id", 8); ("date", 8); ("root_part", 8); ("document", 8) ]
    @ List.init c.atomics_per_composite (fun i -> (part_slot i, 8))
  in
  let natural = List.fold_left (fun a (_, s) -> a + s) 0 fields in
  if natural <= 200 then Layout.make ~pad_to:200 fields else Layout.make fields

let child_slot i = Printf.sprintf "child%d" i

let assembly c =
  let slots = max c.assembly_fanout c.composites_per_base in
  let fields =
    [ ("kind", 8); ("id", 8) ] @ List.init slots (fun i -> (child_slot i, 8))
  in
  let natural = List.fold_left (fun a (_, s) -> a + s) 0 fields in
  if natural <= 64 then Layout.make ~pad_to:64 fields else Layout.make fields

let header =
  Layout.make
    [
      ("db_magic", 8);
      ("root_assembly", 8);
      ("n_composites", 8);
      ("composite_dir", 8);
      ("dir_capacity", 8);
      ("index_slots", Iavl.slots_size);
    ]

let db_magic = 0x4F4F374442L (* "OO7DB" *)

let total_assemblies c =
  (* complete tree: 1 + f + f^2 + ... + f^(levels-1) *)
  let rec sum l acc p =
    if l = 0 then acc else sum (l - 1) (acc + p) (p * c.assembly_fanout)
  in
  sum c.assembly_levels 0 1

(* Bytes one composite part occupies together with its atomic parts,
   connection objects and document: > 8 KB in the paper's configuration,
   which is why each composite's updates land on pages of their own. *)
let cluster_size c =
  Layout.size (composite_part c)
  + (c.atomics_per_composite
    * (Layout.size atomic_part
      + (c.connections_per_atomic * Layout.size connection)))
  + doc_size

let region_size c =
  let atoms = c.num_composites * c.atomics_per_composite in
  let objects =
    (c.num_composites * cluster_size c)
    + (total_assemblies c * Layout.size (assembly c))
    + (c.num_composites * 8)
    + (atoms * Iavl.node_size)
  in
  let with_headers =
    Heap.header_size + Layout.size header + objects
  in
  (* Slack for alignment and index churn, plus a cluster's worth more:
     kept at this size so heap layouts, and with them simulated
     addresses, stay as they are. *)
  let padded = with_headers + (with_headers / 4) + (8 * cluster_size c) + 65536 in
  (padded + 65535) / 65536 * 65536
