(* Tests for the baseline DSM backends: twin/diff detection, page
   shipping, and the adaptive hybrid selector. *)

open Lbc_core
open Lbc_dsm

let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Twin/diff *)

let mk_mem size = Bytes.make size '\000'

let reader mem ~offset ~len = Bytes.sub mem offset len

let test_twin_detects_exact_words () =
  let mem = mk_mem (3 * 8192) in
  let tw = Twin.create ~page_size:8192 in
  let store offset s =
    ignore (Twin.touch tw ~read:(reader mem) ~offset ~len:(String.length s));
    Bytes.blit_string s 0 mem offset (String.length s)
  in
  store 16 "12345678";
  store 8192 "abcdefgh";
  (* Unaligned write straddling two words: the run covers both. *)
  store 20006 "XYZW";
  let runs = Twin.diff tw ~read:(reader mem) in
  Alcotest.(check (list (pair int int)))
    "modified word runs"
    [ (16, 8); (8192, 8); (20000, 16) ]
    runs

let test_twin_faults_once_per_page () =
  let mem = mk_mem 8192 in
  let tw = Twin.create ~page_size:8192 in
  let f1 = Twin.touch tw ~read:(reader mem) ~offset:0 ~len:8 in
  let f2 = Twin.touch tw ~read:(reader mem) ~offset:100 ~len:8 in
  check_int "first touch faults" 1 f1;
  check_int "second touch free" 0 f2;
  Alcotest.(check (list int)) "one dirty page" [ 0 ] (Twin.dirty_pages tw)

let test_twin_unmodified_page_diffs_empty () =
  let mem = mk_mem 8192 in
  let tw = Twin.create ~page_size:8192 in
  ignore (Twin.touch tw ~read:(reader mem) ~offset:0 ~len:8);
  (* Touched but never actually changed: no runs. *)
  Alcotest.(check (list (pair int int))) "no runs" [] (Twin.diff tw ~read:(reader mem))

let test_twin_write_spanning_pages () =
  let mem = mk_mem (2 * 8192) in
  let tw = Twin.create ~page_size:8192 in
  let faults = Twin.touch tw ~read:(reader mem) ~offset:8188 ~len:8 in
  check_int "two faults" 2 faults;
  Bytes.blit_string "WWWWWWWW" 0 mem 8188 8;
  Alcotest.(check (list (pair int int)))
    "run spans boundary"
    [ (8184, 16) ]
    (Twin.diff tw ~read:(reader mem))

let prop_twin_diff_matches_model =
  QCheck.Test.make ~name:"twin diff covers exactly the modified words"
    ~count:150
    (QCheck.make
       QCheck.Gen.(
         list_size (1 -- 30)
           (pair (int_bound (16384 - 16)) (pair (1 -- 16) printable))))
    (fun writes ->
      let mem = mk_mem 16384 in
      let tw = Twin.create ~page_size:8192 in
      let modified = Array.make 16384 false in
      List.iter
        (fun (offset, (len, c)) ->
          ignore (Twin.touch tw ~read:(reader mem) ~offset ~len);
          for i = offset to offset + len - 1 do
            if Bytes.get mem i <> c then modified.(i) <- true;
            Bytes.set mem i c
          done)
        writes;
      let runs = Twin.diff tw ~read:(reader mem) in
      (* Every modified byte is covered... *)
      let covered = Array.make 16384 false in
      List.iter
        (fun (o, l) ->
          for i = o to o + l - 1 do
            covered.(i) <- true
          done)
        runs;
      let ok = ref true in
      for i = 0 to 16383 do
        if modified.(i) && not covered.(i) then ok := false;
        (* ...and covered bytes are within a word of a modification. *)
        if covered.(i) then begin
          let word = i / 8 * 8 in
          let any = ref false in
          for j = word to word + 7 do
            if modified.(j) then any := true
          done;
          if not !any then ok := false
        end
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Backends over a live cluster *)

let region = 0

let mk_cluster () =
  let c = Cluster.create ~nodes:2 () in
  Cluster.add_region c ~id:region ~size:65536;
  Cluster.map_region_all c ~region;
  c

let run_backend kind =
  let c = mk_cluster () in
  let stats = ref None in
  let record = ref None in
  Cluster.spawn c ~node:0 (fun node ->
      let txn = Backend.Dtxn.begin_ node ~kind in
      Backend.Dtxn.acquire txn 0;
      Backend.Dtxn.set_u64 txn ~region ~offset:64 7L;
      Backend.Dtxn.set_u64 txn ~region ~offset:9000 9L;
      record := Some (Backend.Dtxn.commit txn);
      stats := Some (Backend.Dtxn.stats txn));
  Cluster.run c;
  (c, Option.get !stats, Option.get !record)

let test_backends_agree_on_data () =
  List.iter
    (fun kind ->
      let c, _, _ = run_backend kind in
      Alcotest.(check int64)
        (Backend.kind_name kind ^ " value at peer")
        7L
        (Node.get_u64 (Cluster.node c 1) ~region ~offset:64);
      Alcotest.(check int64)
        (Backend.kind_name kind ^ " second value")
        9L
        (Node.get_u64 (Cluster.node c 1) ~region ~offset:9000))
    [ Backend.Log; Backend.Cpy_cmp; Backend.Page ]

let test_cpycmp_stats_and_fine_ranges () =
  let _, stats, record = run_backend Backend.Cpy_cmp in
  check_int "two write faults (two pages)" 2 stats.Backend.write_faults;
  check_int "two pages compared" 2 stats.Backend.pages_compared;
  (* Diff finds just the two 8-byte words. *)
  check_int "payload is 16 bytes" 16 (Lbc_wal.Record.ranges_bytes (Option.get (Some record)))

let test_page_ships_whole_pages () =
  let _, stats, record = run_backend Backend.Page in
  check_int "two pages shipped" 2 stats.Backend.pages_shipped;
  check_int "payload is two full pages" (2 * 8192)
    (Lbc_wal.Record.ranges_bytes record)

let test_log_has_no_faults () =
  let _, stats, record = run_backend Backend.Log in
  check_int "no faults" 0 stats.Backend.write_faults;
  check_int "payload is 16 bytes" 16 (Lbc_wal.Record.ranges_bytes record)

(* OO7 under every detection backend: whatever detects the writes, the
   receiver must end up with the same database. *)
let test_oo7_backends_equivalent () =
  let open Lbc_oo7 in
  let tiny = Schema.tiny in
  let digest_after kind =
    let cluster = Runner.setup ~nodes:2 tiny in
    (match kind with
    | Backend.Log -> ignore (Runner.run ~cluster ~writer:0 tiny (Traversal.T2 Traversal.B))
    | backend ->
        Cluster.spawn cluster ~node:0 (fun node ->
            let txn = Backend.Dtxn.begin_ node ~kind:backend in
            Backend.Dtxn.acquire txn Runner.lock;
            let db =
              Database.attach_mem tiny
                (Backend.Dtxn.mem txn ~region:Runner.region)
            in
            ignore (Traversal.run db (Traversal.T2 Traversal.B));
            ignore (Backend.Dtxn.commit txn));
        Cluster.run cluster);
    let writer =
      Database.checksum
        (Database.attach_node tiny (Cluster.node cluster 0) ~region:Runner.region)
    in
    let receiver =
      Database.checksum
        (Database.attach_node tiny (Cluster.node cluster 1) ~region:Runner.region)
    in
    Alcotest.(check int64)
      (Backend.kind_name kind ^ " receiver converged")
      writer receiver;
    writer
  in
  let d_log = digest_after Backend.Log in
  let d_cc = digest_after Backend.Cpy_cmp in
  let d_page = digest_after Backend.Page in
  (* Same deterministic traversal on the same database: all three detection
     mechanisms must yield the same final state. *)
  Alcotest.(check int64) "log = cpy/cmp" d_log d_cc;
  Alcotest.(check int64) "log = page" d_log d_page

(* ------------------------------------------------------------------ *)
(* Adaptive hybrid *)

let test_adaptive_defaults_to_log () =
  let a = Adaptive.create () in
  Alcotest.(check bool) "no history -> Log" true
    (Adaptive.choose a ~lock:0 = Backend.Log)

let test_adaptive_breakeven_value () =
  let a = Adaptive.create () in
  (* 813 µs of trap+copy+compare over the 18.1 µs unordered update cost:
     the paper's "45 or fewer updates per page". *)
  Alcotest.(check bool)
    (Printf.sprintf "breakeven %.1f in [44,46]" (Adaptive.breakeven a))
    true
    (Adaptive.breakeven a >= 44.0 && Adaptive.breakeven a <= 46.0)

let test_adaptive_switches_on_dense_updates () =
  let a = Adaptive.create () in
  for _ = 1 to 10 do
    Adaptive.observe a ~lock:3 ~updates:2000 ~pages:5
  done;
  Alcotest.(check bool) "dense -> Cpy/Cmp" true
    (Adaptive.choose a ~lock:3 = Backend.Cpy_cmp);
  (* Sparse segment unaffected. *)
  Adaptive.observe a ~lock:4 ~updates:10 ~pages:5;
  Alcotest.(check bool) "sparse -> Log" true
    (Adaptive.choose a ~lock:4 = Backend.Log)

let test_adaptive_recovers_when_density_drops () =
  let a = Adaptive.create ~alpha:0.5 () in
  Adaptive.observe a ~lock:0 ~updates:1000 ~pages:2;
  Alcotest.(check bool) "dense" true (Adaptive.choose a ~lock:0 = Backend.Cpy_cmp);
  for _ = 1 to 8 do
    Adaptive.observe a ~lock:0 ~updates:1 ~pages:1
  done;
  Alcotest.(check bool) "sparse again" true
    (Adaptive.choose a ~lock:0 = Backend.Log)

let suites =
  [
    ( "dsm.twin",
      [
        Alcotest.test_case "detects exact words" `Quick
          test_twin_detects_exact_words;
        Alcotest.test_case "faults once per page" `Quick
          test_twin_faults_once_per_page;
        Alcotest.test_case "clean page diffs empty" `Quick
          test_twin_unmodified_page_diffs_empty;
        Alcotest.test_case "write spans pages" `Quick
          test_twin_write_spanning_pages;
        QCheck_alcotest.to_alcotest prop_twin_diff_matches_model;
      ] );
    ( "dsm.backend",
      [
        Alcotest.test_case "all backends propagate" `Quick
          test_backends_agree_on_data;
        Alcotest.test_case "cpy/cmp stats + ranges" `Quick
          test_cpycmp_stats_and_fine_ranges;
        Alcotest.test_case "page ships pages" `Quick test_page_ships_whole_pages;
        Alcotest.test_case "log has no faults" `Quick test_log_has_no_faults;
        Alcotest.test_case "OO7 backends equivalent" `Quick
          test_oo7_backends_equivalent;
      ] );
    ( "dsm.adaptive",
      [
        Alcotest.test_case "defaults to Log" `Quick test_adaptive_defaults_to_log;
        Alcotest.test_case "breakeven ~45" `Quick test_adaptive_breakeven_value;
        Alcotest.test_case "switches when dense" `Quick
          test_adaptive_switches_on_dense_updates;
        Alcotest.test_case "recovers when sparse" `Quick
          test_adaptive_recovers_when_density_drops;
      ] );
  ]
