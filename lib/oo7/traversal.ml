open Lbc_pheap

type variant = A | B | C
type kind =
  | T1
  | T2 of variant
  | T3 of variant
  | T4
  | T5
  | T6
  | T7
  | T12 of variant

let variant_name = function A -> "A" | B -> "B" | C -> "C"

let name = function
  | T1 -> "T1"
  | T2 v -> "T2-" ^ variant_name v
  | T3 v -> "T3-" ^ variant_name v
  | T4 -> "T4"
  | T5 -> "T5"
  | T6 -> "T6"
  | T7 -> "T7"
  | T12 v -> "T12-" ^ variant_name v

let of_name s =
  match String.uppercase_ascii s with
  | "T1" -> Some T1
  | "T2-A" -> Some (T2 A)
  | "T2-B" -> Some (T2 B)
  | "T2-C" -> Some (T2 C)
  | "T3-A" -> Some (T3 A)
  | "T3-B" -> Some (T3 B)
  | "T3-C" -> Some (T3 C)
  | "T4" -> Some T4
  | "T5" -> Some T5
  | "T6" -> Some T6
  | "T7" -> Some T7
  | "T12-A" -> Some (T12 A)
  | "T12-C" -> Some (T12 C)
  | _ -> None

let table3_kinds = [ T12 A; T12 C; T2 A; T2 B; T2 C; T3 A; T3 B; T3 C ]

type result = {
  composite_visits : int;
  atomic_visits : int;
  field_updates : int;
  index_ops : int;
  read_sum : int64;
}

type state = {
  db : Database.t;
  visited : int array;  (* one composite's graph walk: the parts seen *)
  mutable n_visited : int;
  mutable composite_visits : int;
  mutable atomic_visits : int;
  mutable field_updates : int;
  mutable index_ops : int;
  mutable read_sum : int;
}

(* One plain 8-byte field overwrite: T2/T12's update. *)
let update_plain st part =
  Database.set_part_x st.db part (Database.part_x st.db part + 1);
  st.field_updates <- st.field_updates + 1

(* Indexed-field update: delete the index entry for the old date, change
   the date, insert the new entry (T3). *)
let update_indexed st part =
  let date' = Database.part_date st.db part + 1 in
  ignore
    (Iavl.update (Database.index st.db) part
       ~new_key:(Int64.of_int date', Int64.of_int part)
       ~set:(fun () -> Database.set_part_date st.db part date'));
  st.field_updates <- st.field_updates + 1;
  st.index_ops <- st.index_ops + 1

let visit_atomic st part ~update ~times =
  st.atomic_visits <- st.atomic_visits + 1;
  st.read_sum <- st.read_sum + Database.part_x st.db part;
  match update with
  | None -> ()
  | Some f ->
      for _ = 1 to times do
        f st part
      done

let rec seen st part i =
  i < st.n_visited && (st.visited.(i) = part || seen st part (i + 1))

(* DFS over the atomic-part graph of one composite.  A connection stays
   inside its composite, so a walk sees at most [atomics_per_composite]
   parts, and a linear scan of them beats hashing each one. *)
let walk_graph st root ~per_atomic =
  let c = Database.config st.db in
  st.n_visited <- 0;
  let rec go part =
    if not (seen st part 0) then begin
      st.visited.(st.n_visited) <- part;
      st.n_visited <- st.n_visited + 1;
      per_atomic part;
      for k = 0 to c.Schema.connections_per_atomic - 1 do
        go (Database.connection_target st.db part k)
      done
    end
  in
  go root

let times_of_variant = function A -> 1 | B -> 1 | C -> 4

(* T4: scan the composite's document for a character; T5: overwrite the
   start of the document. *)
let doc_of st comp = Database.composite_document st.db comp

let scan_document st comp =
  let doc = doc_of st comp in
  let b = Heap.get_bytes (Database.heap st.db) doc ~len:Schema.doc_size in
  let hits = ref 0 in
  Bytes.iter (fun ch -> if ch = 'A' then incr hits) b;
  st.read_sum <- st.read_sum + !hits

let update_document st comp =
  let doc = doc_of st comp in
  Heap.set_bytes (Database.heap st.db) doc (Bytes.of_string "REVISED!");
  st.field_updates <- st.field_updates + 1

let visit_composite st comp kind =
  st.composite_visits <- st.composite_visits + 1;
  let root = Database.composite_root st.db comp in
  match kind with
  | T4 -> scan_document st comp
  | T5 -> update_document st comp
  | T7 ->
      (* T7 shares T1's per-composite behaviour; selection of the single
         assembly happens in [run]. *)
      walk_graph st root ~per_atomic:(fun p -> visit_atomic st p ~update:None ~times:0)
  | T6 -> visit_atomic st root ~update:None ~times:0
  | T12 v ->
      visit_atomic st root ~update:(Some update_plain)
        ~times:(match v with A -> 1 | B -> 1 | C -> 4)
  | T1 -> walk_graph st root ~per_atomic:(fun p -> visit_atomic st p ~update:None ~times:0)
  | T2 v ->
      let times = times_of_variant v in
      walk_graph st root ~per_atomic:(fun p ->
          let update =
            match v with
            | A -> if p = root then Some update_plain else None
            | B | C -> Some update_plain
          in
          visit_atomic st p ~update ~times)
  | T3 v ->
      let times = times_of_variant v in
      walk_graph st root ~per_atomic:(fun p ->
          let update =
            match v with
            | A -> if p = root then Some update_indexed else None
            | B | C -> Some update_indexed
          in
          visit_atomic st p ~update ~times)

let run db kind =
  let c = Database.config db in
  let st =
    {
      db;
      visited = Array.make c.Schema.atomics_per_composite 0;
      n_visited = 0;
      composite_visits = 0;
      atomic_visits = 0;
      field_updates = 0;
      index_ops = 0;
      read_sum = 0;
    }
  in
  let rec walk_assembly addr level =
    if level = c.Schema.assembly_levels then
      for i = 0 to c.Schema.composites_per_base - 1 do
        visit_composite st
          (Database.assembly_child db addr i)
          kind
      done
    else
      for i = 0 to c.Schema.assembly_fanout - 1 do
        walk_assembly (Database.assembly_child db addr i) (level + 1)
      done
  in
  (* T7 processes one pseudo-randomly chosen base assembly; all other
     traversals walk the whole hierarchy. *)
  (match kind with
  | T7 ->
      let rec descend addr level salt =
        if level = c.Schema.assembly_levels then
          for i = 0 to c.Schema.composites_per_base - 1 do
            visit_composite st
              (Database.assembly_child db addr i)
              kind
          done
        else begin
          let pick = salt * 2654435761 mod c.Schema.assembly_fanout in
          descend
            (Database.assembly_child db addr (abs pick))
            (level + 1) (salt + 1)
        end
      in
      descend (Database.root_assembly db) 1 c.Schema.seed
  | T1 | T2 _ | T3 _ | T4 | T5 | T6 | T12 _ ->
      walk_assembly (Database.root_assembly db) 1);
  {
    composite_visits = st.composite_visits;
    atomic_visits = st.atomic_visits;
    field_updates = st.field_updates;
    index_ops = st.index_ops;
    read_sum = Int64.of_int st.read_sum;
  }
