open Lbc_pheap

let q1_exact_lookups db ~lookups =
  let c = Database.config db in
  let total = Database.num_composites db * c.Schema.atomics_per_composite in
  let found = ref 0 in
  for i = 0 to lookups - 1 do
    let id = i * 2654435761 land max_int mod total in
    let ci = id / c.Schema.atomics_per_composite in
    let slot = id mod c.Schema.atomics_per_composite in
    let comp = Database.composite db ci in
    let part = Database.composite_part db comp slot in
    if part <> 0 then incr found
  done;
  !found

let range_count db ~frac =
  let c = Database.config db in
  let hi_date = int_of_float (frac *. float_of_int c.Schema.date_range) in
  Iavl.fold_range (Database.index db)
    ~lo:(0L, 0L)
    ~hi:(Int64.of_int hi_date, Int64.max_int)
    ~init:0
    ~f:(fun acc _ -> acc + 1)

let q2_range_1pct db = range_count db ~frac:0.01
let q3_range_10pct db = range_count db ~frac:0.10

let q4_document_scan db ~pattern =
  let hits = ref 0 in
  for ci = 0 to Database.num_composites db - 1 do
    let comp = Database.composite db ci in
    let doc = Database.composite_document db comp in
    let b = Heap.get_bytes (Database.heap db) doc ~len:Schema.doc_size in
    Bytes.iter (fun ch -> if ch = pattern then incr hits) b
  done;
  !hits

let q7_full_scan db =
  Iavl.fold (Database.index db) ~init:0 ~f:(fun acc _ -> acc + 1)
