(* Tests for lbc.analysis: the race detector, log invariant verifier and
   source lint, over both model-generated histories (qcheck) and logs
   produced by real simulated workloads. *)

open Lbc_analysis
module R = Lbc_wal.Record

let names vs = List.sort_uniq String.compare (List.map Violation.name vs)

let check_no_violations what vs =
  Alcotest.(check (list string)) what [] (List.map Violation.to_string vs)

(* ------------------------------------------------------------------ *)
(* Model-level generator: a random valid multi-node history, built by
   simulating a serial execution with per-lock seqno counters.  Locks
   partition the address space (lock l covers region l/2, half l mod 2),
   exactly like the chaos tests, so properly-locked writes never race. *)

let build_random_streams ~nodes ~locks ~txns ~seed =
  let rng = Lbc_util.Rng.create (seed + 1) in
  let next_seq = Array.make locks 0 in
  let last_write = Array.make locks 0 in
  let next_tid = Array.make nodes 1 in
  let streams = Array.make nodes [] in
  let span = 128 in
  for _ = 1 to txns do
    let node = Lbc_util.Rng.int rng nodes in
    let l1 = Lbc_util.Rng.int rng locks in
    let l2 = Lbc_util.Rng.int rng locks in
    let ls = List.sort_uniq Int.compare [ l1; l2 ] in
    let aborted = Lbc_util.Rng.int rng 10 = 0 in
    let lock_infos =
      List.map
        (fun l ->
          next_seq.(l) <- next_seq.(l) + 1;
          {
            R.lock_id = l;
            seqno = next_seq.(l);
            prev_write_seq = last_write.(l);
          })
        ls
    in
    if not aborted then begin
      let ranges =
        List.concat_map
          (fun l ->
            if Lbc_util.Rng.int rng 4 > 0 then begin
              let len = 1 + Lbc_util.Rng.int rng 16 in
              let offset = (l mod 2 * span) + Lbc_util.Rng.int rng (span - len) in
              let data =
                Bytes.init len (fun _ -> Char.chr (Lbc_util.Rng.int rng 256))
              in
              [ { R.region = l / 2; offset; data } ]
            end
            else [])
          ls
      in
      let txn =
        { R.node; tid = next_tid.(node); locks = lock_infos; ranges;
          cmd = None }
      in
      next_tid.(node) <- next_tid.(node) + 1;
      streams.(node) <- txn :: streams.(node);
      if ranges <> [] then
        List.iter
          (fun (l : R.lock_info) -> last_write.(l.R.lock_id) <- l.R.seqno)
          lock_infos
    end
  done;
  Array.to_list (Array.map List.rev streams)

let shape_gen =
  QCheck.make
    ~print:(fun (n, l, t, s) -> Printf.sprintf "nodes=%d locks=%d txns=%d seed=%d" n l t s)
    QCheck.Gen.(
      map
        (fun ((n, l), (t, s)) -> (n, l, t, s))
        (pair (pair (int_range 2 4) (int_range 1 6))
           (pair (int_range 0 60) (int_range 0 10_000))))

(* (a) the verifier accepts every valid history, the merged log it
   induces, and Merge.merge_records's own output re-checked as a single
   serial stream. *)
let prop_valid_histories_accepted =
  QCheck.Test.make ~name:"verifier accepts valid histories and their merge"
    ~count:60 shape_gen (fun (nodes, locks, txns, seed) ->
      let streams = build_random_streams ~nodes ~locks ~txns ~seed in
      Invariants.check_streams streams = []
      &&
      match Lbc_core.Merge.merge_records streams with
      | Error _ -> false
      | Ok merged -> Invariants.check_streams [ merged ] = [])

(* ------------------------------------------------------------------ *)
(* (b) mutation properties: each corruption is caught with the right
   violation kind.  Histories too small to host a given corruption pass
   trivially (the generator makes them rare). *)

let prop_swap_caught =
  QCheck.Test.make ~name:"seqno swap -> seqno-monotonicity" ~count:60
    shape_gen (fun (nodes, locks, txns, seed) ->
      let streams = build_random_streams ~nodes ~locks ~txns ~seed in
      match Selftest.corrupt_seqno_swap streams with
      | None -> true
      | Some mutated ->
          List.mem "seqno-monotonicity"
            (names (Invariants.check_streams mutated)))

let prop_gap_caught =
  QCheck.Test.make ~name:"dropped write record -> seqno-gap" ~count:60
    shape_gen (fun (nodes, locks, txns, seed) ->
      let streams = build_random_streams ~nodes ~locks ~txns ~seed in
      match Selftest.corrupt_seqno_gap streams with
      | None -> true
      | Some mutated ->
          List.mem "seqno-gap" (names (Invariants.check_streams mutated)))

(* Drop one lock record (the lock_info, not the whole transaction) from a
   writing transaction whose seqno a later record references: the write
   chain now names a write no log carries. *)
let drop_lock_record streams =
  let all = List.concat streams in
  let referenced lock seqno =
    List.exists
      (fun (t : R.txn) ->
        List.exists
          (fun l -> l.R.lock_id = lock && l.R.prev_write_seq = seqno)
          t.R.locks)
      all
  in
  let has_earlier lock seqno =
    List.exists
      (fun (t : R.txn) ->
        List.exists (fun l -> l.R.lock_id = lock && l.R.seqno < seqno) t.R.locks)
      all
  in
  let target = ref None in
  List.iteri
    (fun si stream ->
      List.iteri
        (fun i (txn : R.txn) ->
          if Option.is_none !target && txn.R.ranges <> [] then
            List.iter
              (fun l ->
                if
                  Option.is_none !target
                  && referenced l.R.lock_id l.R.seqno
                  && has_earlier l.R.lock_id l.R.seqno
                then target := Some (si, i, l.R.lock_id))
              txn.R.locks)
        stream)
    streams;
  match !target with
  | None -> None
  | Some (si, i, lock) ->
      Some
        (List.mapi
           (fun s stream ->
             if s <> si then stream
             else
               List.mapi
                 (fun j (txn : R.txn) ->
                   if j <> i then txn
                   else
                     {
                       txn with
                       R.locks =
                         List.filter
                           (fun l -> l.R.lock_id <> lock)
                           txn.R.locks;
                     })
                 stream)
           streams)

let prop_dropped_lock_record_caught =
  QCheck.Test.make ~name:"dropped lock record -> seqno-gap" ~count:60
    shape_gen (fun (nodes, locks, txns, seed) ->
      let streams = build_random_streams ~nodes ~locks ~txns ~seed in
      match drop_lock_record streams with
      | None -> true
      | Some mutated ->
          List.mem "seqno-gap" (names (Invariants.check_streams mutated)))

(* Corrupt a range: a negative offset can never have been produced by
   set_range and the wire codec cannot represent it. *)
let corrupt_range streams =
  let target = ref None in
  List.iteri
    (fun si stream ->
      List.iteri
        (fun i (txn : R.txn) ->
          if Option.is_none !target && txn.R.ranges <> [] then
            target := Some (si, i))
        stream)
    streams;
  match !target with
  | None -> None
  | Some (si, i) ->
      Some
        (List.mapi
           (fun s stream ->
             if s <> si then stream
             else
               List.mapi
                 (fun j (txn : R.txn) ->
                   if j <> i then txn
                   else
                     {
                       txn with
                       R.ranges =
                         (match txn.R.ranges with
                         | r :: rest -> { r with R.offset = -1 } :: rest
                         | [] -> []);
                     })
                 stream)
           streams)

let prop_corrupt_range_caught =
  QCheck.Test.make ~name:"corrupted range -> codec-roundtrip" ~count:60
    shape_gen (fun (nodes, locks, txns, seed) ->
      let streams = build_random_streams ~nodes ~locks ~txns ~seed in
      match corrupt_range streams with
      | None -> true
      | Some mutated ->
          List.mem "codec-roundtrip"
            (names (Invariants.check_streams mutated)))

let prop_unlocked_write_caught =
  QCheck.Test.make ~name:"unlocked overlapping write -> unlocked-race"
    ~count:60 shape_gen (fun (nodes, locks, txns, seed) ->
      let streams = build_random_streams ~nodes ~locks ~txns ~seed in
      match Selftest.corrupt_unlocked_write streams with
      | None -> true
      | Some mutated ->
          List.mem "unlocked-race" (names (Invariants.check_streams mutated)))

(* ------------------------------------------------------------------ *)
(* Deterministic unit tests *)

let test_chain_break_detected () =
  let streams = build_random_streams ~nodes:3 ~locks:4 ~txns:40 ~seed:7 in
  (* Find a record whose prev_write_seq is non-zero and damage it. *)
  let mutated =
    List.map
      (List.map (fun (txn : R.txn) ->
           {
             txn with
             R.locks =
               List.map
                 (fun l ->
                   if l.R.prev_write_seq > 1 then
                     { l with R.prev_write_seq = l.R.prev_write_seq - 1 }
                   else l)
                 txn.R.locks;
           }))
      streams
  in
  if mutated = streams then ()
  else
    Alcotest.(check bool)
      "write-chain violation reported" true
      (List.exists
         (fun n -> n = "write-chain" || n = "seqno-gap")
         (names (Invariants.check_streams mutated)))

let test_codec_truncation_detected () =
  let streams = build_random_streams ~nodes:2 ~locks:2 ~txns:20 ~seed:3 in
  match Selftest.corrupt_codec_truncation streams with
  | None -> Alcotest.fail "no writing record to truncate"
  | Some payload ->
      Alcotest.(check (list string))
        "codec-decode violation" [ "codec-decode" ]
        (names (Invariants.check_wire_image payload))

let test_merge_output_is_serial () =
  let streams = build_random_streams ~nodes:4 ~locks:6 ~txns:80 ~seed:11 in
  check_no_violations "merge legality" (Invariants.check_merge streams)

let test_race_detector_orders_by_common_lock () =
  (* Two writers to the same bytes under the same lock: ordered, silent. *)
  let t1 =
    {
      R.node = 0;
      tid = 1;
      locks = [ { R.lock_id = 0; seqno = 1; prev_write_seq = 0 } ];
      ranges = [ { R.region = 0; offset = 0; data = Bytes.make 8 'a' } ];
      cmd = None;
    }
  in
  let t2 =
    {
      R.node = 1;
      tid = 1;
      locks = [ { R.lock_id = 0; seqno = 2; prev_write_seq = 1 } ];
      ranges = [ { R.region = 0; offset = 4; data = Bytes.make 8 'b' } ];
      cmd = None;
    }
  in
  check_no_violations "locked overlap is ordered" (Race.check [ [ t1 ]; [ t2 ] ]);
  (* The same two writes without the common lock race. *)
  let t2' = { t2 with R.locks = [] } in
  Alcotest.(check (list string))
    "unlocked overlap races" [ "unlocked-race" ]
    (names (Race.check [ [ t1 ]; [ t2' ] ]))

let test_race_detector_transitive_order () =
  (* t1 -> t2 via lock 0, t2 -> t3 via lock 1; t1 and t3 share no lock but
     overlap — happens-before through the chain, so no race. *)
  let mk node tid locks ranges = { R.node; tid; locks; ranges; cmd = None } in
  let li lock_id seqno prev_write_seq = { R.lock_id; seqno; prev_write_seq } in
  let t1 =
    mk 0 1 [ li 0 1 0 ] [ { R.region = 0; offset = 0; data = Bytes.make 8 'x' } ]
  in
  let t2 = mk 1 1 [ li 0 2 1; li 1 1 0 ] [] in
  let t3 =
    mk 2 1 [ li 1 2 1 ] [ { R.region = 0; offset = 4; data = Bytes.make 8 'y' } ]
  in
  check_no_violations "transitive happens-before"
    (Race.check [ [ t1 ]; [ t2 ]; [ t3 ] ])

let test_lint_rules () =
  let vs =
    Lint.scan_source ~file:"lib/rvm/fixture.ml"
      (String.concat "\n"
         [
           "let a = List.sort compare xs";
           "let b = Stdlib.compare x y";
           "let c = try f () with _ -> 0";
           "let d : int = Obj.magic e";
           "(* compare in a comment is fine *)";
           "let e = \"with _ -> compare Obj.magic\"";
           "let sort = List.sort ~cmp:Int.compare";
           "let g ~compare = compare";
           "let t0 = Unix.gettimeofday ()";
           "let nap () = Unix.sleepf 0.5 (* clock-ok: test fixture *)";
         ])
  in
  let lines =
    List.filter_map
      (function Violation.Lint { line; rule; _ } -> Some (line, rule) | _ -> None)
      vs
  in
  Alcotest.(check (list (pair int string)))
    "exact findings"
    [
      (1, "poly-compare");
      (2, "poly-compare");
      (3, "catch-all-handler");
      (4, "obj-magic");
      (8, "poly-compare");
      (9, "wall-clock");
    ]
    (List.sort
       (fun (l1, _) (l2, _) -> Int.compare l1 l2)
       lines)

(* dune copies the library sources beside the test binary's directory
   (_build/default/lib), so the tree is found from any working
   directory. *)
let test_lint_tree_clean () =
  let lib =
    Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "lib"
  in
  check_no_violations "lib/ lints clean" (Lint.scan_paths [ lib ])

(* ------------------------------------------------------------------ *)
(* Against real workloads: the sim's chaos-style traffic and OO7 *)

let test_selftest_passes () =
  let results = Selftest.run () in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (r.Selftest.check ^ ": " ^ r.Selftest.detail)
        true r.Selftest.ok)
    results

let test_oo7_logs_verify () =
  let open Lbc_oo7 in
  let tiny = Schema.tiny in
  let cluster = Runner.setup ~nodes:2 tiny in
  ignore (Runner.run ~cluster ~writer:0 tiny (Traversal.T2 Traversal.A));
  ignore (Runner.run ~cluster ~writer:1 tiny (Traversal.T2 Traversal.B));
  let logs =
    List.init 2 (fun n ->
        Lbc_rvm.Rvm.log (Lbc_core.Node.rvm (Lbc_core.Cluster.node cluster n)))
  in
  check_no_violations "OO7 logs verify" (Invariants.check_logs logs)

(* ------------------------------------------------------------------ *)
(* Command records in the analysis layer *)

(* Deterministic test op: write the params blob at offset 8 of region 0. *)
let stamp_op = 921

let register_stamp_op () =
  Lbc_wal.Command.register ~op:stamp_op ~name:"test-stamp-analysis"
    (fun mem ~params -> Lbc_util.Mem.write (mem ~region:0) ~offset:8 params)

let cmd_txn ?(node = 0) ?(tid = 1) ?(locks = []) ?(op = stamp_op)
    ?(params = Bytes.of_string "CMD") ?(regions = [ 0 ]) () =
  { R.node; tid; locks; ranges = [];
    cmd = Some { R.op; params; cmd_regions = regions } }

let li lock_id seqno prev_write_seq = { R.lock_id; seqno; prev_write_seq }

let test_serialize_executes_commands () =
  register_stamp_op ();
  let t1 =
    { R.node = 0; tid = 1; locks = [ li 0 1 0 ];
      ranges = [ { R.region = 0; offset = 0; data = Bytes.make 16 'a' } ];
      cmd = None }
  in
  let t2 = cmd_txn ~node:1 ~tid:1 ~locks:[ li 0 2 1 ] () in
  let expected = Bytes.make 32 '\000' in
  Bytes.fill expected 0 16 'a';
  Bytes.blit_string "CMD" 0 expected 8 3;
  check_no_violations "command re-executes against the spec"
    (Serialize.check ~regions:[ (0, 32) ]
       ~finals:[ ("model", fun _ -> expected) ]
       [ [ t1 ]; [ t2 ] ]);
  (* A diverging witness is still caught on a mixed-kind stream. *)
  let wrong = Bytes.copy expected in
  Bytes.set wrong 9 '!';
  Alcotest.(check (list string))
    "divergence reported" [ "serializability" ]
    (names
       (Serialize.check ~regions:[ (0, 32) ]
          ~finals:[ ("model", fun _ -> wrong) ]
          [ [ t1 ]; [ t2 ] ]))

let test_unknown_command_flagged () =
  let t = cmd_txn ~op:922_001 () in
  Alcotest.(check (list string))
    "unregistered op -> command-unknown" [ "command-unknown" ]
    (names
       (Serialize.check ~regions:[ (0, 32) ]
          ~finals:[ ("model", fun _ -> Bytes.make 32 '\000') ]
          [ [ t ] ]))

let test_race_cmd_conservative () =
  (* The race detector cannot see a command's byte spans, so a cmd
     record conservatively claims its whole regions: an unlocked value
     write anywhere in region 0 races with it... *)
  let v =
    { R.node = 0; tid = 1; locks = [];
      ranges = [ { R.region = 0; offset = 4096; data = Bytes.make 8 'v' } ];
      cmd = None }
  in
  let c = cmd_txn ~node:1 ~tid:1 () in
  Alcotest.(check (list string))
    "unlocked cmd overlap races" [ "unlocked-race" ]
    (names (Race.check [ [ v ]; [ c ] ]));
  (* ...while the same pair ordered by a common lock is silent. *)
  let v' = { v with R.locks = [ li 0 1 0 ] } in
  let c' = cmd_txn ~node:1 ~tid:1 ~locks:[ li 0 2 1 ] () in
  check_no_violations "locked cmd is ordered" (Race.check [ [ v' ]; [ c' ] ])

let test_oo7_adaptive_logs_verify () =
  (* An adaptive OO7 run produces a mixed-kind log; every invariant —
     codec roundtrip, chains, merge legality, races — must hold over it. *)
  let open Lbc_oo7 in
  let tiny = Schema.tiny in
  let config =
    { Lbc_core.Config.default with
      Lbc_core.Config.log_mode = Lbc_wal.Command.Adaptive }
  in
  let cluster = Runner.setup ~config ~nodes:2 tiny in
  ignore (Runner.run ~cluster ~writer:0 tiny (Traversal.T3 Traversal.C));
  ignore (Runner.run ~cluster ~writer:1 tiny (Traversal.T2 Traversal.A));
  let logs =
    List.init 2 (fun n ->
        Lbc_rvm.Rvm.log (Lbc_core.Node.rvm (Lbc_core.Cluster.node cluster n)))
  in
  let records =
    List.concat_map (fun l -> fst (Lbc_wal.Log.read_all l)) logs
  in
  Alcotest.(check bool) "the log actually contains a command record" true
    (List.exists (fun (t : R.txn) -> t.R.cmd <> None) records);
  check_no_violations "adaptive OO7 logs verify" (Invariants.check_logs logs)

(* ------------------------------------------------------------------ *)
(* lbc-check verify under hostile log images *)

module Cluster = Lbc_core.Cluster
module Node = Lbc_core.Node
module Log = Lbc_wal.Log

let verify_op = 957

(* Two nodes' log images as the CLI reads them, holding value records
   and command records. *)
let verify_images =
  lazy
    (Lbc_wal.Command.register ~op:verify_op ~name:"test-analysis-incr"
       (fun mem ~params ->
         let r = Lbc_util.Codec.reader params in
         let region = Lbc_util.Codec.get_varint r in
         let offset = Lbc_util.Codec.get_varint r in
         let m = mem ~region in
         Lbc_util.Mem.set_u64 m offset
           (Int64.add (Lbc_util.Mem.get_u64 m offset) 1L));
     let config =
       { Lbc_core.Config.fault_tolerant with
         Lbc_core.Config.log_mode = Lbc_wal.Command.Command }
     in
     let c = Cluster.create ~config ~nodes:2 () in
     (* Node n writes region n under lock n, so a command's claim on its
        whole region races with nothing. *)
     for region = 0 to 1 do
       Cluster.add_region c ~id:region ~size:256;
       Cluster.map_region_all c ~region
     done;
     for n = 0 to 1 do
       Cluster.spawn c ~node:n (fun node ->
           for i = 1 to 3 do
             let offset = 8 * i in
             let txn = Node.Txn.begin_ node in
             Node.Txn.acquire txn n;
             let v = Node.Txn.get_u64 txn ~region:n ~offset in
             Node.Txn.set_u64 txn ~region:n ~offset (Int64.add v 1L);
             if i = 2 then begin
               let w = Lbc_util.Codec.writer () in
               Lbc_util.Codec.varint w n;
               Lbc_util.Codec.varint w offset;
               Node.Txn.set_command txn ~op:verify_op
                 ~params:(Lbc_util.Codec.contents w) ~regions:[ n ]
             end;
             Node.Txn.commit txn
           done)
     done;
     Cluster.run c;
     Array.init 2 (fun n ->
         Lbc_storage.Dev.snapshot
           (Log.dev (Lbc_rvm.Rvm.log (Node.rvm (Cluster.node c n))))))

(* Each record's (offset, total length) in a log image, walking from the
   header over every framed record. *)
let record_spans image =
  let size = Bytes.length image in
  let rec walk pos acc =
    if pos + 8 > size then List.rev acc
    else
      let total = Int32.to_int (Bytes.get_int32_le image (pos + 4)) in
      if total < 12 || pos + total > size then List.rev acc
      else walk (pos + total) ((pos, total) :: acc)
  in
  Array.of_list (walk Log.header_size [])

let load_image image =
  let dev = Lbc_storage.Dev.create () in
  Lbc_storage.Dev.load dev image;
  match Log.attach dev with
  | log -> Ok log
  | exception Log.Bad_log why -> Error why

let test_verify_inputs () =
  Array.iter
    (fun image ->
      let log =
        match load_image image with
        | Ok log -> log
        | Error why -> Alcotest.failf "clean image does not load: %s" why
      in
      let records, _ = Log.read_all log in
      Alcotest.(check bool) "value records" true
        (List.exists (fun (r : R.txn) -> r.R.cmd = None) records);
      Alcotest.(check bool) "command records" true
        (List.exists (fun (r : R.txn) -> r.R.cmd <> None) records))
    (Lazy.force verify_images);
  check_no_violations "clean images verify"
    (Invariants.check_logs
       (Array.to_list
          (Array.map
             (fun image -> Result.get_ok (load_image image))
             (Lazy.force verify_images))))

(* One log image is mutated: 1-4 bytes of its header or of one record's
   body, that record's CRC re-sealed so its body parser runs, and maybe
   the image cut.  Loaded the CLI's way beside the other node's clean
   image, [Invariants.check_logs] must answer a load error or a
   violation list, raise nothing, and allocate no more than a fixed
   multiple of the images' bytes. *)
let prop_verify_hostile =
  let gen =
    QCheck.Gen.(
      let* log = int_bound 1 in
      let image = (Lazy.force verify_images).(log) in
      let spans = record_spans image in
      let value =
        oneof [ int_bound 255; map (( lor ) 0x80) (int_bound 127); int_bound 3 ]
      in
      let* target = int_bound (Array.length spans) in
      let lo, len =
        if target = Array.length spans then (0, Log.header_size)
        else
          let pos, total = spans.(target) in
          (pos + 8, total - 12)
      in
      let* edits = list_size (1 -- 4) (pair (int_bound (len - 1)) value) in
      let* cut =
        oneof [ return None; map Option.some (int_bound (Bytes.length image)) ]
      in
      return (log, target, List.map (fun (p, v) -> (lo + p, v)) edits, cut))
  in
  let print (log, target, edits, cut) =
    Printf.sprintf "log %d, target %d, edits [%s], cut %s" log target
      (String.concat ";"
         (List.map (fun (p, v) -> Printf.sprintf "%d:=%d" p v) edits))
      (match cut with Some n -> string_of_int n | None -> "none")
  in
  QCheck.Test.make ~name:"verify of hostile log images answers" ~count:10_000
    (QCheck.make ~print gen) (fun (log, target, edits, cut) ->
      let images = Array.map Bytes.copy (Lazy.force verify_images) in
      let image = images.(log) in
      List.iter (fun (p, v) -> Bytes.set_uint8 image p v) edits;
      let spans = record_spans (Lazy.force verify_images).(log) in
      if target < Array.length spans then begin
        let pos, total = spans.(target) in
        Bytes.set_int32_le image
          (pos + total - 4)
          (Lbc_util.Crc32.bytes image ~pos ~len:(total - 4))
      end;
      images.(log) <-
        (match cut with Some n -> Bytes.sub image 0 n | None -> image);
      let bytes = Array.fold_left (fun n b -> n + Bytes.length b) 0 images in
      Gc.minor ();
      let before = Gc.allocated_bytes () in
      let loaded = Array.map load_image images in
      (match
         Array.fold_right
           (fun l acc ->
             match (l, acc) with
             | Ok log, Ok logs -> Ok (log :: logs)
             | Error why, _ | _, Error why -> Error why)
           loaded (Ok [])
       with
      | Error (_ : string) -> ()
      | Ok logs -> ignore (Invariants.check_logs logs : Violation.t list));
      (* Clean and mutated cases allocate under 20 bytes per image byte. *)
      Gc.allocated_bytes () -. before < (64.0 *. float_of_int bytes) +. 65536.0)

let suites =
  [
    ( "analysis",
      [
        QCheck_alcotest.to_alcotest prop_valid_histories_accepted;
        QCheck_alcotest.to_alcotest prop_swap_caught;
        QCheck_alcotest.to_alcotest prop_gap_caught;
        QCheck_alcotest.to_alcotest prop_dropped_lock_record_caught;
        QCheck_alcotest.to_alcotest prop_corrupt_range_caught;
        QCheck_alcotest.to_alcotest prop_unlocked_write_caught;
        Alcotest.test_case "chain break detected" `Quick
          test_chain_break_detected;
        Alcotest.test_case "codec truncation detected" `Quick
          test_codec_truncation_detected;
        Alcotest.test_case "merge output is serial" `Quick
          test_merge_output_is_serial;
        Alcotest.test_case "race: common lock orders" `Quick
          test_race_detector_orders_by_common_lock;
        Alcotest.test_case "race: transitive order" `Quick
          test_race_detector_transitive_order;
        Alcotest.test_case "lint rules" `Quick test_lint_rules;
        Alcotest.test_case "lint: lib tree clean" `Quick test_lint_tree_clean;
        Alcotest.test_case "self-test (sim logs + corruptions)" `Quick
          test_selftest_passes;
        Alcotest.test_case "OO7 cluster logs verify" `Quick
          test_oo7_logs_verify;
        Alcotest.test_case "serialize oracle executes commands" `Quick
          test_serialize_executes_commands;
        Alcotest.test_case "unknown command flagged" `Quick
          test_unknown_command_flagged;
        Alcotest.test_case "race: cmd claims whole region" `Quick
          test_race_cmd_conservative;
        Alcotest.test_case "adaptive OO7 logs verify" `Quick
          test_oo7_adaptive_logs_verify;
      ] );
    ( "analysis.verify",
      [
        Alcotest.test_case "inputs hold every record kind" `Quick
          test_verify_inputs;
        QCheck_alcotest.to_alcotest prop_verify_hostile;
      ] );
  ]
