(* Tests for the OO7 benchmark database and traversals, including the
   structural counts that feed Table 3. *)

open Lbc_oo7
open Lbc_core

let check_int = Alcotest.(check int)

let tiny = Schema.tiny
let tiny_db () = Database.attach_bytes tiny (Builder.build tiny)

(* ------------------------------------------------------------------ *)
(* Construction *)

let test_build_deterministic () =
  let a = Builder.build tiny and b = Builder.build tiny in
  Alcotest.(check bool) "identical images" true (Bytes.equal a b)

let test_build_structure () =
  let db = tiny_db () in
  check_int "composites" tiny.Schema.num_composites (Database.num_composites db);
  (* Index holds one entry per atomic part. *)
  check_int "index cardinality"
    (tiny.Schema.num_composites * tiny.Schema.atomics_per_composite)
    (Lbc_pheap.Iavl.cardinal (Database.index db));
  Lbc_pheap.Iavl.check_invariants (Database.index db)

let test_atomic_clustering () =
  (* The atomic parts of one composite are contiguous — the layout property
     behind the paper's pages-updated numbers. *)
  let db = tiny_db () in
  let comp = Database.composite db 0 in
  let parts =
    List.init tiny.Schema.atomics_per_composite (fun i ->
        Database.composite_part db comp i)
  in
  let sorted = List.sort compare parts in
  Alcotest.(check (list int)) "contiguous 200-byte objects"
    (List.init (List.length parts) (fun i -> List.hd sorted + (200 * i)))
    sorted

let test_graph_connected () =
  (* DFS from the root part must reach every atomic part (ring edge). *)
  let db = tiny_db () in
  let r = Traversal.run db Traversal.T1 in
  check_int "every atomic visited per composite visit"
    (r.Traversal.composite_visits * tiny.Schema.atomics_per_composite)
    r.Traversal.atomic_visits

(* ------------------------------------------------------------------ *)
(* Traversal counts (structure of Table 3) *)

let visits = Schema.composite_visits tiny

let test_traversal_counts () =
  let db = tiny_db () in
  let expect kind field_updates index_ops =
    let r = Traversal.run db kind in
    check_int (Traversal.name kind ^ " updates") field_updates
      r.Traversal.field_updates;
    check_int (Traversal.name kind ^ " index ops") index_ops r.Traversal.index_ops
  in
  let atomics = tiny.Schema.atomics_per_composite in
  expect Traversal.T6 0 0;
  expect (Traversal.T12 Traversal.A) visits 0;
  expect (Traversal.T12 Traversal.C) (4 * visits) 0;
  expect (Traversal.T2 Traversal.A) visits 0;
  expect (Traversal.T2 Traversal.B) (visits * atomics) 0;
  expect (Traversal.T2 Traversal.C) (4 * visits * atomics) 0;
  expect (Traversal.T3 Traversal.A) visits visits;
  expect (Traversal.T3 Traversal.B) (visits * atomics) (visits * atomics)

let test_t3_preserves_index () =
  let db = tiny_db () in
  let before = Lbc_pheap.Iavl.cardinal (Database.index db) in
  ignore (Traversal.run db (Traversal.T3 Traversal.B));
  check_int "cardinality preserved" before
    (Lbc_pheap.Iavl.cardinal (Database.index db));
  Lbc_pheap.Iavl.check_invariants (Database.index db)

let test_t2_actually_updates () =
  let db = tiny_db () in
  let before = Database.checksum db in
  ignore (Traversal.run db (Traversal.T2 Traversal.B));
  Alcotest.(check bool) "checksum changed" false
    (Int64.equal before (Database.checksum db))

let test_readonly_traversals_no_mutation () =
  let image = Builder.build tiny in
  let db = Database.attach_bytes tiny image in
  let before = Bytes.copy image in
  ignore (Traversal.run db Traversal.T1);
  ignore (Traversal.run db Traversal.T6);
  Alcotest.(check bool) "image untouched" true (Bytes.equal before image)

let test_traversal_names () =
  List.iter
    (fun k ->
      Alcotest.(check (option string))
        "name roundtrip"
        (Some (Traversal.name k))
        (Option.map Traversal.name (Traversal.of_name (Traversal.name k))))
    (Traversal.T1 :: Traversal.T6 :: Traversal.table3_kinds)

(* ------------------------------------------------------------------ *)
(* Coherency integration: a traversal on one node updates its peer *)

let test_traversal_propagates_to_peer () =
  let cluster = Runner.setup ~nodes:2 tiny in
  let outcome = Runner.run ~cluster ~writer:0 tiny (Traversal.T2 Traversal.B) in
  Alcotest.(check bool) "updates happened" true
    (outcome.Runner.result.Traversal.field_updates > 0);
  let db0 = Database.attach_node tiny (Cluster.node cluster 0) ~region:Runner.region in
  let db1 = Database.attach_node tiny (Cluster.node cluster 1) ~region:Runner.region in
  Alcotest.(check int64) "peer cache converged" (Database.checksum db0)
    (Database.checksum db1)

let test_t3_propagates_index_updates () =
  let cluster = Runner.setup ~nodes:2 tiny in
  ignore (Runner.run ~cluster ~writer:0 tiny (Traversal.T3 Traversal.A));
  (* The receiver's copy of the index must be structurally valid and equal. *)
  let db1 = Database.attach_node tiny (Cluster.node cluster 1) ~region:Runner.region in
  Lbc_pheap.Iavl.check_invariants (Database.index db1);
  let db0 = Database.attach_node tiny (Cluster.node cluster 0) ~region:Runner.region in
  Alcotest.(check int64) "caches equal" (Database.checksum db0)
    (Database.checksum db1)

let test_profile_plausible () =
  let cluster = Runner.setup ~nodes:2 tiny in
  let o = Runner.run ~cluster ~writer:0 tiny (Traversal.T2 Traversal.A) in
  let p = o.Runner.profile in
  (* One 8-byte update per composite visit; every composite covered at
     most once in unique bytes. *)
  check_int "updates = visits" visits p.Lbc_costmodel.Model.updates;
  Alcotest.(check bool) "unique bytes = 8 * unique composites" true
    (p.Lbc_costmodel.Model.unique_bytes <= 8 * tiny.Schema.num_composites
    && p.Lbc_costmodel.Model.unique_bytes >= 8);
  Alcotest.(check bool) "message bigger than payload" true
    (p.Lbc_costmodel.Model.message_bytes > p.Lbc_costmodel.Model.unique_bytes);
  Alcotest.(check bool) "pages > 0" true (p.Lbc_costmodel.Model.pages_updated > 0)

let test_consecutive_traversals_two_writers () =
  let cluster = Runner.setup ~nodes:2 tiny in
  ignore (Runner.run ~cluster ~writer:0 tiny (Traversal.T2 Traversal.A));
  ignore (Runner.run ~cluster ~writer:1 tiny (Traversal.T2 Traversal.B));
  let db0 = Database.attach_node tiny (Cluster.node cluster 0) ~region:Runner.region in
  let db1 = Database.attach_node tiny (Cluster.node cluster 1) ~region:Runner.region in
  Alcotest.(check int64) "converged after alternating writers"
    (Database.checksum db0) (Database.checksum db1)

(* The paper-scale configuration: structural counts of Table 3 rows that
   are exact (updates and unique bytes for T12/T2). *)
let test_small_config_table3_anchors () =
  let small = Schema.small in
  check_int "2187 composite visits" 2187 (Schema.composite_visits small);
  let cluster = Runner.setup ~nodes:2 small in
  let o = Runner.run ~cluster ~writer:0 small (Traversal.T2 Traversal.A) in
  let p = o.Runner.profile in
  check_int "T2-A updates = 2187" 2187 p.Lbc_costmodel.Model.updates;
  check_int "T2-A unique bytes = 4000" 4000 p.Lbc_costmodel.Model.unique_bytes;
  check_int "T2-A pages = 500" 500 p.Lbc_costmodel.Model.pages_updated

(* ------------------------------------------------------------------ *)
(* Full-suite traversals (T4, T5, T7) *)

let test_t4_scans_documents () =
  let db = tiny_db () in
  let r = Traversal.run db Traversal.T4 in
  check_int "visits all composites" visits r.Traversal.composite_visits;
  (* Documents are filled with a repeated letter; composite 0 gets 'A's,
     so scans find plenty. *)
  Alcotest.(check bool) "found characters" true (Int64.compare r.Traversal.read_sum 0L > 0);
  check_int "no updates" 0 r.Traversal.field_updates

let test_t5_updates_documents () =
  let image = Builder.build tiny in
  let db = Database.attach_bytes tiny image in
  let r = Traversal.run db Traversal.T5 in
  check_int "one doc update per visit" visits r.Traversal.field_updates;
  let comp = Database.composite db 0 in
  let doc = Database.composite_document db comp in
  Alcotest.(check string) "document rewritten" "REVISED!"
    (Bytes.to_string (Lbc_pheap.Heap.get_bytes (Database.heap db) doc ~len:8))

let test_t7_visits_one_assembly () =
  let db = tiny_db () in
  let r = Traversal.run db Traversal.T7 in
  check_int "one base assembly's composites"
    tiny.Schema.composites_per_base r.Traversal.composite_visits;
  check_int "full graphs walked"
    (tiny.Schema.composites_per_base * tiny.Schema.atomics_per_composite)
    r.Traversal.atomic_visits

(* ------------------------------------------------------------------ *)
(* The shared accessor: field access allocates nothing, bounds hold *)

let test_t2b_access_allocation () =
  (* Offsets are resolved at attach and fields read as unboxed ints, and
     the graph walk keeps its visited parts in a reused int array, so a
     T2-B update allocates a few words, not a hash-table bucket per
     visited part. *)
  let small = Schema.small in
  let db = Database.attach_bytes small (Builder.build small) in
  let w0 = Gc.minor_words () in
  let r = Traversal.run db (Traversal.T2 Traversal.B) in
  let per_update =
    (Gc.minor_words () -. w0) /. float_of_int r.Traversal.field_updates
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per update <= 4" per_update)
    true (per_update <= 4.0)

(* The whole detect path of a measured sim transaction: object access,
   [set_range] on the flat range log, and the charged per-update cost —
   a sleep that advances the clock in place. *)
let test_t2b_detect_allocation () =
  let small = Schema.small in
  let cluster = Runner.setup ~config:Config.measured ~nodes:2 small in
  let per_update = ref Float.nan in
  Cluster.spawn cluster ~node:0 (fun node ->
      let txn = Node.Txn.begin_ node in
      Node.Txn.acquire txn Runner.lock;
      let db = Database.attach_txn small txn ~region:Runner.region in
      let w0 = Gc.minor_words () in
      let r = Traversal.run db (Traversal.T2 Traversal.B) in
      per_update :=
        (Gc.minor_words () -. w0) /. float_of_int r.Traversal.field_updates;
      Node.Txn.commit txn);
  Cluster.run cluster;
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per update <= 30" !per_update)
    true (!per_update <= 30.0);
  (* The coalescing decisions behind the charged costs, as the
     persistent-map range tree made them on this database. *)
  let st = Lbc_rvm.Rvm.stats (Node.rvm (Cluster.node cluster 0)) in
  check_int "redundant" 33_740 st.Lbc_rvm.Rvm.redundant_calls;
  check_int "ordered" 140 st.Lbc_rvm.Rvm.ordered_calls;
  check_int "unordered" 9_860 st.Lbc_rvm.Rvm.unordered_calls;
  check_int "ranges logged" 10_000 st.Lbc_rvm.Rvm.ranges_logged

let test_access_errors () =
  let open Lbc_pheap in
  let image = Builder.build tiny in
  let heap = Database.heap (Database.attach_bytes tiny image) in
  let size = Bytes.length image in
  let raises what f =
    Alcotest.(check bool) what true
      (try
         ignore (f ());
         false
       with Heap.Heap_error _ -> true)
  in
  raises "read past the end" (fun () -> Heap.get_int heap (size - 4));
  raises "negative address" (fun () -> Heap.get_int heap (-8));
  raises "write past the end" (fun () -> Heap.set_int heap size 1);
  raises "byte range past the end" (fun () ->
      Heap.get_bytes heap (size - 8) ~len:16);
  let addr = Heap.alloc heap 8 in
  Heap.set_u64 heap addr (-1L);
  raises "negative field read as an int" (fun () -> Heap.get_int heap addr);
  Heap.set_u64 heap addr Int64.max_int;
  raises "field beyond max_int read as an int" (fun () ->
      Heap.get_int heap addr);
  raises "negative int stored" (fun () -> Heap.set_int heap addr (-1));
  Heap.set_int heap addr max_int;
  check_int "max_int round-trips" max_int (Heap.get_int heap addr)

let test_document_bytes_roundtrip () =
  (* T5's byte-range store goes through the transaction's accessor, T4's
     byte-range read through the peer's: the peer reads the rewritten
     prefix and the untouched tail. *)
  let cluster = Runner.setup ~nodes:2 tiny in
  ignore (Runner.run ~cluster ~writer:0 tiny Traversal.T5);
  let db1 =
    Database.attach_node tiny (Cluster.node cluster 1) ~region:Runner.region
  in
  let doc = Database.composite_document db1 (Database.composite db1 0) in
  Alcotest.(check string) "document on the peer"
    ("REVISED!" ^ String.make (Schema.doc_size - 8) 'A')
    (Bytes.to_string
       (Lbc_pheap.Heap.get_bytes (Database.heap db1) doc ~len:Schema.doc_size));
  let r = Traversal.run db1 Traversal.T4 in
  check_int "T4 over the peer reads every composite" visits
    r.Traversal.composite_visits;
  Alcotest.(check bool) "read-only attachment refuses stores" true
    (try
       ignore (Traversal.run db1 Traversal.T5);
       false
     with Database.Bad_database _ -> true)

(* ------------------------------------------------------------------ *)
(* Adaptive logging: write-heavy traversals ship the command instead *)

let test_adaptive_t3c_command_encoding () =
  let config =
    { Config.default with Config.log_mode = Lbc_wal.Command.Adaptive }
  in
  let cluster = Runner.setup ~config ~nodes:2 tiny in
  let o = Runner.run ~cluster ~writer:0 tiny (Traversal.T3 Traversal.C) in
  (* T3-C updates four indexed fields per atomic part: the value
     encoding is large, the command (op + schema + traversal tag) tiny. *)
  Alcotest.(check bool) "command record chosen" true
    (o.Runner.record.Lbc_wal.Record.cmd <> None);
  Alcotest.(check (list int)) "no ranges on the logged record" []
    (List.map (fun _ -> 0) o.Runner.record.Lbc_wal.Record.ranges);
  Alcotest.(check bool)
    (Printf.sprintf "wire bytes shrink (%d cmd vs %d value)"
       (Wire.size o.Runner.record) (Wire.size o.Runner.value))
    true
    (Wire.size o.Runner.record < Wire.size o.Runner.value);
  (* The receiver re-executed the traversal against its cached pages. *)
  let db0 =
    Database.attach_node tiny (Cluster.node cluster 0) ~region:Runner.region
  in
  let db1 =
    Database.attach_node tiny (Cluster.node cluster 1) ~region:Runner.region
  in
  Alcotest.(check int64) "receiver re-execution converged"
    (Database.checksum db0) (Database.checksum db1);
  (* Recovery re-executes the command against the checkpoint image and
     lands on the same bytes. *)
  let outcome = Cluster.recover_database cluster in
  check_int "one record replayed" 1 outcome.Lbc_rvm.Recovery.records_replayed;
  match Lbc_storage.Store.find (Cluster.store cluster) "region.0" with
  | None -> Alcotest.fail "region device missing from the store"
  | Some dev ->
      let img = Lbc_storage.Dev.stable_snapshot dev in
      Alcotest.(check int64) "recovered image matches the writer cache"
        (Database.checksum db0)
        (Database.checksum (Database.attach_bytes tiny img))

let test_value_mode_unchanged_by_default () =
  (* The default config still logs values: the record is its own value
     equivalent. *)
  let cluster = Runner.setup ~nodes:2 tiny in
  let o = Runner.run ~cluster ~writer:0 tiny (Traversal.T3 Traversal.C) in
  Alcotest.(check bool) "no command" true
    (o.Runner.record.Lbc_wal.Record.cmd = None);
  Alcotest.(check bool) "record = value equivalent" true
    (Lbc_wal.Record.equal_txn o.Runner.record o.Runner.value)

let suites =
  [
    ( "oo7.build",
      [
        Alcotest.test_case "deterministic" `Quick test_build_deterministic;
        Alcotest.test_case "structure" `Quick test_build_structure;
        Alcotest.test_case "atomic clustering" `Quick test_atomic_clustering;
        Alcotest.test_case "graph connected" `Quick test_graph_connected;
      ] );
    ( "oo7.traversal",
      [
        Alcotest.test_case "update counts" `Quick test_traversal_counts;
        Alcotest.test_case "t3 preserves index" `Quick test_t3_preserves_index;
        Alcotest.test_case "t2 updates data" `Quick test_t2_actually_updates;
        Alcotest.test_case "read-only no mutation" `Quick
          test_readonly_traversals_no_mutation;
        Alcotest.test_case "names roundtrip" `Quick test_traversal_names;
      ] );
    ( "oo7.coherency",
      [
        Alcotest.test_case "T2-B propagates" `Quick
          test_traversal_propagates_to_peer;
        Alcotest.test_case "T3-A propagates index" `Quick
          test_t3_propagates_index_updates;
        Alcotest.test_case "profile plausible" `Quick test_profile_plausible;
        Alcotest.test_case "two writers converge" `Quick
          test_consecutive_traversals_two_writers;
        Alcotest.test_case "small-config anchors" `Slow
          test_small_config_table3_anchors;
      ] );
    ( "oo7.fullsuite",
      [
        Alcotest.test_case "T4 document scan" `Quick test_t4_scans_documents;
        Alcotest.test_case "T5 document update" `Quick test_t5_updates_documents;
        Alcotest.test_case "T7 single assembly" `Quick test_t7_visits_one_assembly;
      ] );
    ( "oo7.access",
      [
        Alcotest.test_case "T2-B allocation per update" `Quick
          test_t2b_access_allocation;
        Alcotest.test_case "bounds and int range" `Quick test_access_errors;
        Alcotest.test_case "document bytes round-trip" `Quick
          test_document_bytes_roundtrip;
      ] );
    ( "oo7.detect",
      [
        Alcotest.test_case "allocation" `Quick test_t2b_detect_allocation;
      ] );
    ( "oo7.adaptive",
      [
        Alcotest.test_case "T3-C ships the command" `Quick
          test_adaptive_t3c_command_encoding;
        Alcotest.test_case "default stays value-encoded" `Quick
          test_value_mode_unchanged_by_default;
      ] );
  ]
