(* Tests for the RVM work-alike: range tree coalescing, regions,
   transactions, abort, recovery. *)

open Lbc_storage
open Lbc_rvm

let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Range_tree *)

let test_tree_ordered_appends () =
  let t = Range_tree.create () in
  Alcotest.(check bool) "first is ordered" true
    (Range_tree.add t ~offset:0 ~len:8 = Range_tree.Ordered_append);
  Alcotest.(check bool) "forward is ordered" true
    (Range_tree.add t ~offset:16 ~len:8 = Range_tree.Ordered_append);
  Alcotest.(check bool) "adjacent forward is ordered" true
    (Range_tree.add t ~offset:24 ~len:8 = Range_tree.Ordered_append);
  check_int "three ranges" 3 (Range_tree.count t)

let test_tree_exact_match_last_cache () =
  let t = Range_tree.create () in
  ignore (Range_tree.add t ~offset:100 ~len:8);
  Alcotest.(check bool) "same range again" true
    (Range_tree.add t ~offset:100 ~len:8 = Range_tree.Exact_match);
  Alcotest.(check bool) "shorter subsumed" true
    (Range_tree.add t ~offset:100 ~len:4 = Range_tree.Exact_match);
  check_int "still one range" 1 (Range_tree.count t);
  check_int "bytes" 8 (Range_tree.total_bytes t)

let test_tree_exact_match_via_search () =
  let t = Range_tree.create () in
  ignore (Range_tree.add t ~offset:0 ~len:8);
  ignore (Range_tree.add t ~offset:50 ~len:8);
  (* Not the last range, so it must be found by search. *)
  Alcotest.(check bool) "tree hit" true
    (Range_tree.add t ~offset:0 ~len:8 = Range_tree.Exact_match)

let test_tree_optimized_extend () =
  let t = Range_tree.create () in
  ignore (Range_tree.add t ~offset:0 ~len:4);
  ignore (Range_tree.add t ~offset:100 ~len:4);
  Alcotest.(check bool) "longer at same offset extends" true
    (Range_tree.add t ~offset:0 ~len:10 = Range_tree.Extended);
  Alcotest.(check (list (pair int int))) "ranges" [ (0, 10); (100, 4) ]
    (Range_tree.ranges t)

let test_tree_optimized_keeps_overlap () =
  (* Mere overlaps are not merged: both ranges are stored and their
     bytes are logged redundantly. *)
  let t = Range_tree.create () in
  ignore (Range_tree.add t ~offset:0 ~len:10);
  ignore (Range_tree.add t ~offset:4 ~len:10);
  (* starts inside the previous range, so it is not an ordered append *)
  check_int "two ranges" 2 (Range_tree.count t);
  check_int "redundant bytes counted" 20 (Range_tree.total_bytes t)

let test_tree_bad_args () =
  let t = Range_tree.create () in
  Alcotest.(check bool) "zero len rejected" true
    (try ignore (Range_tree.add t ~offset:0 ~len:0); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative offset rejected" true
    (try ignore (Range_tree.add t ~offset:(-1) ~len:4); false
     with Invalid_argument _ -> true)

(* Model-based property: coverage equals a naive interval model. *)
let gen_ops = QCheck.Gen.(list_size (1 -- 60) (pair (int_bound 200) (1 -- 20)))

let coverage_matches =
  QCheck.Test.make ~name:"coverage matches model (optimized)" ~count:200
    (QCheck.make gen_ops)
    (fun ops ->
      let t = Range_tree.create () in
      let model = Array.make 256 false in
      List.iter
        (fun (offset, len) ->
          ignore (Range_tree.add t ~offset ~len);
          for i = offset to offset + len - 1 do
            if i < 256 then model.(i) <- true
          done)
        ops;
      let ok = ref true in
      for i = 0 to 255 do
        if Range_tree.mem_byte t i <> model.(i) then ok := false
      done;
      !ok)

(* The persistent-map range tree the flat range log replaced, kept as
   the reference model: same policy, same case per call. *)
module Map_tree = struct
  module Imap = Map.Make (Int)

  type t = {
    mutable map : int Imap.t;  (* offset -> len *)
    mutable stored_bytes : int;
    mutable max_end : int;
    mutable last : (int * int) option;
  }

  let create () =
    { map = Imap.empty; stored_bytes = 0; max_end = 0; last = None }

  let store t ~offset ~old_len ~len =
    t.map <- Imap.add offset len t.map;
    t.stored_bytes <- t.stored_bytes - old_len + len;
    if offset + len > t.max_end then t.max_end <- offset + len;
    t.last <- Some (offset, len)

  let add t ~offset ~len =
    match t.last with
    | Some (o, l) when o = offset && len <= l -> Range_tree.Exact_match
    | _ when offset >= t.max_end ->
        store t ~offset ~old_len:0 ~len;
        Range_tree.Ordered_append
    | _ -> (
        match Imap.find_opt offset t.map with
        | Some l when len <= l -> Range_tree.Exact_match
        | Some l ->
            store t ~offset ~old_len:l ~len;
            Range_tree.Extended
        | None ->
            store t ~offset ~old_len:0 ~len;
            Range_tree.Inserted)

  let count t = Imap.cardinal t.map
  let ranges t = Imap.bindings t.map
end

(* Add sequences built from the patterns detect sees: ordered runs past
   the highest range, repeats of the last range, extensions of an earlier
   one, and inserts anywhere (some far out, so the commit sort takes
   several radix passes).  Runs of up to 40 give sequences of hundreds of
   distinct offsets, past several index resizes. *)
type move =
  | Run of int list * int  (* gaps past the highest end, length *)
  | Repeat of int  (* shorten the last range by this much (floor 1) *)
  | Extend of int * int  (* which earlier call, bytes added *)
  | Insert of int * int

let gen_move =
  QCheck.Gen.(
    frequency
      [
        (3, map2 (fun gaps len -> Run (gaps, len))
              (list_size (1 -- 40) (int_bound 24)) (1 -- 16));
        (2, map (fun d -> Repeat d) (int_bound 4));
        (2, map2 (fun i extra -> Extend (i, extra)) (int_bound 1000) (1 -- 8));
        (3, map2 (fun o len -> Insert (o, len)) (int_bound 4096) (1 -- 16));
        (1, map2 (fun o len -> Insert (o, len)) (int_bound (1 lsl 30)) (1 -- 16));
      ])

(* The concrete (offset, len) calls of a move list. *)
let calls_of_moves moves =
  let calls = ref [] and hi = ref 0 in
  let call offset len =
    calls := (offset, len) :: !calls;
    hi := max !hi (offset + len)
  in
  List.iter
    (function
      | Run (gaps, len) -> List.iter (fun g -> call (!hi + g) len) gaps
      | Repeat d -> (
          match !calls with
          | (o, l) :: _ -> call o (max 1 (l - d))
          | [] -> call 0 8)
      | Extend (i, extra) -> (
          match !calls with
          | [] -> call 0 extra
          | cs ->
              let o, l = List.nth cs (i mod List.length cs) in
              call o (l + extra))
      | Insert (o, len) -> call o len)
    moves;
  List.rev !calls

let flat_log_matches_map_tree =
  QCheck.Test.make ~name:"flat range log = map tree" ~count:300
    (QCheck.make
       ~print:(fun moves ->
         String.concat " "
           (List.map (fun (o, l) -> Printf.sprintf "%d+%d" o l)
              (calls_of_moves moves)))
       QCheck.Gen.(list_size (1 -- 30) gen_move))
    (fun moves ->
      let calls = calls_of_moves moves in
      let flat = Range_tree.create () and model = Map_tree.create () in
      let half = List.length calls / 2 in
      List.for_all Fun.id
        (List.mapi
           (fun i (offset, len) ->
             (* Walking the log mid-sequence must not disturb later adds. *)
             (i <> half || Range_tree.ranges flat = Map_tree.ranges model)
             && Range_tree.add flat ~offset ~len = Map_tree.add model ~offset ~len)
           calls)
      && Range_tree.count flat = Map_tree.count model
      && Range_tree.total_bytes flat = model.Map_tree.stored_bytes
      && Range_tree.ranges flat = Map_tree.ranges model)

(* ------------------------------------------------------------------ *)
(* Region *)

let test_region_map_loads_db () =
  let db = Dev.create () in
  Dev.write_string db ~off:0 "persist";
  Dev.sync db;
  let r = Region.map ~id:0 ~db ~size:16 in
  Alcotest.(check string) "loaded" "persist"
    (Bytes.to_string (Region.read r ~offset:0 ~len:7));
  Alcotest.(check string) "zero filled" "\000\000"
    (Bytes.to_string (Region.read r ~offset:7 ~len:2))

let test_region_u64 () =
  let r = Region.map ~id:0 ~db:(Dev.create ()) ~size:64 in
  Region.set_u64 r ~offset:8 0x1122334455667788L;
  Alcotest.(check int64) "u64 roundtrip" 0x1122334455667788L
    (Region.get_u64 r ~offset:8)

(* ------------------------------------------------------------------ *)
(* Rvm transactions *)

let mk_node ?(options = Rvm.default_options) ?(size = 256) () =
  let log_dev = Dev.create ~name:"log" () in
  let db = Dev.create ~name:"db" () in
  let rvm = Rvm.init ~options ~node:0 ~log_dev () in
  let region = Rvm.map_region rvm ~id:0 ~db ~size in
  (rvm, region, db, log_dev)

let test_txn_commit_record () =
  let rvm, _region, _, _ = mk_node () in
  let txn = Rvm.begin_txn rvm in
  Rvm.write txn ~region:0 ~offset:10 (Bytes.of_string "hello");
  Rvm.set_u64 txn ~region:0 ~offset:32 42L;
  Rvm.set_lock txn ~lock_id:7 ~seqno:3 ~prev_write_seq:1;
  let record = Rvm.commit txn in
  check_int "two ranges" 2 (List.length record.Lbc_wal.Record.ranges);
  check_int "one lock" 1 (List.length record.Lbc_wal.Record.locks);
  let r1 = List.hd record.Lbc_wal.Record.ranges in
  Alcotest.(check string) "new value captured" "hello"
    (Bytes.to_string r1.Lbc_wal.Record.data);
  Alcotest.(check bool) "txn dead" false (Rvm.is_live txn)

let test_txn_coalesces_repeated_updates () =
  let rvm, _, _, _ = mk_node () in
  let txn = Rvm.begin_txn rvm in
  for _ = 1 to 10 do
    Rvm.set_u64 txn ~region:0 ~offset:16 9L
  done;
  let record = Rvm.commit txn in
  check_int "one coalesced range" 1 (List.length record.Lbc_wal.Record.ranges);
  let st = Rvm.stats rvm in
  check_int "9 redundant calls" 9 st.Rvm.redundant_calls

let test_txn_commit_goes_to_log () =
  let rvm, _, _, log_dev = mk_node () in
  let txn = Rvm.begin_txn rvm in
  Rvm.write txn ~region:0 ~offset:0 (Bytes.of_string "logme");
  ignore (Rvm.commit txn);
  Dev.crash log_dev;
  (* A commit is durable: the record survives the crash. *)
  let log = Lbc_wal.Log.attach log_dev in
  let records, _ = Lbc_wal.Log.read_all log in
  check_int "one record" 1 (List.length records)

let test_txn_disk_logging_disabled () =
  let options = { Rvm.default_options with Rvm.disk_logging = false } in
  let rvm, _, _, log_dev = mk_node ~options () in
  let txn = Rvm.begin_txn rvm in
  Rvm.write txn ~region:0 ~offset:0 (Bytes.of_string "ether");
  let record = Rvm.commit txn in
  check_int "record still built" 1 (List.length record.Lbc_wal.Record.ranges);
  check_int "log empty" Lbc_wal.Log.header_size (Dev.size log_dev |> min 16)

let test_txn_abort_restores () =
  let rvm, region, _, _ = mk_node () in
  let seed = Rvm.begin_txn rvm in
  Rvm.write seed ~region:0 ~offset:0 (Bytes.of_string "original");
  ignore (Rvm.commit seed);
  let txn = Rvm.begin_txn ~restore:Rvm.Restore rvm in
  Rvm.write txn ~region:0 ~offset:0 (Bytes.of_string "scribble");
  Rvm.write txn ~region:0 ~offset:4 (Bytes.of_string "more");
  Rvm.abort txn;
  Alcotest.(check string) "restored" "original"
    (Bytes.to_string (Region.read region ~offset:0 ~len:8))

let test_txn_abort_no_restore_rejected () =
  let rvm, _, _, _ = mk_node () in
  let txn = Rvm.begin_txn rvm in
  Alcotest.(check bool) "abort rejected" true
    (try Rvm.abort txn; false with Rvm.Txn_error _ -> true)

let test_txn_dead_rejects_ops () =
  let rvm, _, _, _ = mk_node () in
  let txn = Rvm.begin_txn rvm in
  ignore (Rvm.commit txn);
  Alcotest.(check bool) "set_range on dead txn" true
    (try Rvm.set_range txn ~region:0 ~offset:0 ~len:1; false
     with Rvm.Txn_error _ -> true);
  Alcotest.(check bool) "double commit" true
    (try ignore (Rvm.commit txn); false with Rvm.Txn_error _ -> true)

let test_txn_unmapped_region () =
  let rvm, _, _, _ = mk_node () in
  let txn = Rvm.begin_txn rvm in
  Alcotest.(check bool) "unmapped region" true
    (try Rvm.set_range txn ~region:9 ~offset:0 ~len:1; false
     with Rvm.Txn_error _ -> true)

let test_apply_record_peer_update () =
  (* Node B applies a record produced by node A: the DSM apply path. *)
  let a, _, _, _ = mk_node () in
  let b, region_b, _, _ = mk_node () in
  let txn = Rvm.begin_txn a in
  Rvm.write txn ~region:0 ~offset:5 (Bytes.of_string "shared");
  let record = Rvm.commit txn in
  Rvm.apply_record b record;
  Alcotest.(check string) "propagated" "shared"
    (Bytes.to_string (Region.read region_b ~offset:5 ~len:6));
  check_int "stats" 1 (Rvm.stats b).Rvm.records_applied

let test_apply_record_skips_unmapped () =
  let b, _, _, _ = mk_node () in
  let record =
    {
      Lbc_wal.Record.node = 9;
      tid = 1;
      locks = [];
      ranges = [ { Lbc_wal.Record.region = 5; offset = 0; data = Bytes.of_string "x" } ];
      cmd = None;
    }
  in
  Rvm.apply_record b record;
  check_int "applied count still bumps" 1 (Rvm.stats b).Rvm.records_applied;
  check_int "no bytes" 0 (Rvm.stats b).Rvm.bytes_applied

(* Recovery of one node's log: its live records, in log order. *)
let replay_log log ~db_for_region =
  Recovery.replay_records (fst (Lbc_wal.Log.read_all log)) ~db_for_region

let test_recovery_replays_log () =
  let rvm, _, db, log_dev = mk_node () in
  let txn = Rvm.begin_txn rvm in
  Rvm.write txn ~region:0 ~offset:0 (Bytes.of_string "committed");
  ignore (Rvm.commit txn);
  let txn2 = Rvm.begin_txn rvm in
  Rvm.write txn2 ~region:0 ~offset:9 (Bytes.of_string "!too");
  ignore (Rvm.commit txn2);
  (* The node dies: memory is lost, only devices survive. *)
  Dev.crash log_dev;
  Dev.crash db;
  let log = Lbc_wal.Log.attach log_dev in
  let records, status = Lbc_wal.Log.read_all log in
  Alcotest.(check bool) "clean" true (status = Lbc_wal.Log.Clean);
  let outcome =
    Recovery.replay_records records ~db_for_region:(fun id ->
        if id = 0 then Some db else None)
  in
  check_int "two records" 2 outcome.Recovery.records_replayed;
  (* The database device now holds the committed state, durably. *)
  Dev.crash db;
  Alcotest.(check string) "db recovered" "committed!too"
    (Bytes.to_string (Dev.read db ~off:0 ~len:13))

let test_multi_region_txn () =
  let log_dev = Dev.create () in
  let rvm = Rvm.init ~node:0 ~log_dev () in
  let _r0 = Rvm.map_region rvm ~id:0 ~db:(Dev.create ()) ~size:64 in
  let _r1 = Rvm.map_region rvm ~id:1 ~db:(Dev.create ()) ~size:64 in
  let txn = Rvm.begin_txn rvm in
  Rvm.write txn ~region:1 ~offset:0 (Bytes.of_string "one");
  Rvm.write txn ~region:0 ~offset:0 (Bytes.of_string "zero");
  let record = Rvm.commit txn in
  let regions =
    List.map (fun r -> r.Lbc_wal.Record.region) record.Lbc_wal.Record.ranges
  in
  Alcotest.(check (list int)) "regions ordered" [ 0; 1 ] regions

(* End-to-end property: random transactional writes, then crash and
   recover; the recovered database must equal an independent model. *)
let prop_recovery_matches_model =
  QCheck.Test.make ~name:"recovery matches shadow model" ~count:60
    (QCheck.make
       QCheck.Gen.(
         list_size (1 -- 10)
           (list_size (1 -- 5)
              (triple (int_bound 200) (1 -- 20) (char_range 'a' 'z')))))
    (fun txns ->
      let size = 256 in
      let rvm, _, db, log_dev =
        let log_dev = Dev.create () in
        let db = Dev.create () in
        let rvm = Rvm.init ~node:0 ~log_dev () in
        let r = Rvm.map_region rvm ~id:0 ~db ~size in
        (rvm, r, db, log_dev)
      in
      let shadow = Bytes.make size '\000' in
      List.iter
        (fun writes ->
          let txn = Rvm.begin_txn rvm in
          List.iter
            (fun (offset, len, c) ->
              let len = min len (size - offset) in
              if len > 0 then begin
                let data = Bytes.make len c in
                Rvm.write txn ~region:0 ~offset data;
                Bytes.blit data 0 shadow offset len
              end)
            writes;
          ignore (Rvm.commit txn))
        txns;
      Dev.crash log_dev;
      Dev.crash db;
      let log = Lbc_wal.Log.attach log_dev in
      ignore (replay_log log ~db_for_region:(fun _ -> Some db));
      let recovered = Bytes.make size '\000' in
      let have = min size (Dev.size db) in
      if have > 0 then
        Bytes.blit (Dev.read db ~off:0 ~len:have) 0 recovered 0 have;
      Bytes.equal shadow recovered)

let test_apply_record_counts_unmapped () =
  let b, _, _, _ = mk_node () in
  check_int "starts at zero" 0 (Rvm.stats b).Rvm.unmapped_ranges;
  let record =
    {
      Lbc_wal.Record.node = 9;
      tid = 2;
      locks = [];
      ranges =
        [
          { Lbc_wal.Record.region = 5; offset = 0; data = Bytes.of_string "x" };
          { Lbc_wal.Record.region = 0; offset = 0; data = Bytes.of_string "y" };
          { Lbc_wal.Record.region = 6; offset = 0; data = Bytes.of_string "z" };
        ];
      cmd = None;
    }
  in
  Rvm.apply_record b record;
  check_int "two unmapped ranges counted" 2 (Rvm.stats b).Rvm.unmapped_ranges;
  check_int "mapped range still applied" 1 (Rvm.stats b).Rvm.bytes_applied

(* ------------------------------------------------------------------ *)
(* Adaptive logging: command records *)

(* Synthetic deterministic op for tests: params = region, offset, len,
   delta varints (plus ignored trailing padding); adds delta (mod 256)
   to every byte of the span.  The result depends on the pre-state, so
   replay identity across encodings is a real check, not a blit in
   disguise. *)
let add_op = 901

let add_bytes b delta =
  Bytes.iteri
    (fun i c -> Bytes.set b i (Char.chr ((Char.code c + delta) land 0xff)))
    b

let register_add_op () =
  Lbc_wal.Command.register ~op:add_op ~name:"test-add" (fun mem ~params ->
      let r = Lbc_util.Codec.reader params in
      let region = Lbc_util.Codec.get_varint r in
      let offset = Lbc_util.Codec.get_varint r in
      let len = Lbc_util.Codec.get_varint r in
      let delta = Lbc_util.Codec.get_varint r in
      let m = mem ~region in
      let b = Lbc_util.Mem.read m ~offset ~len in
      add_bytes b delta;
      Lbc_util.Mem.write m ~offset b)

let add_params ?(pad = 0) ~region ~offset ~len ~delta () =
  let w = Lbc_util.Codec.writer () in
  List.iter (Lbc_util.Codec.varint w) [ region; offset; len; delta ];
  if pad > 0 then Lbc_util.Codec.raw_string w (String.make pad 'p');
  Lbc_util.Codec.contents w

(* Run the op against live region memory through Rvm.write — so the
   transaction carries both candidate encodings: captured new-value
   ranges and the declared command — and commit. *)
let txn_add ?pad ?lock ?(declare = true) rvm ~region:rid ~offset ~len ~delta =
  let txn = Rvm.begin_txn rvm in
  let b = Region.read (Rvm.region rvm rid) ~offset ~len in
  add_bytes b delta;
  Rvm.write txn ~region:rid ~offset b;
  if declare then
    Rvm.set_command txn ~op:add_op
      ~params:(add_params ?pad ~region:rid ~offset ~len ~delta ())
      ~regions:[ rid ];
  (match lock with
  | Some (lock_id, seqno, prev_write_seq) ->
      Rvm.set_lock txn ~lock_id ~seqno ~prev_write_seq
  | None -> ());
  Rvm.commit_full txn

let with_log_mode log_mode =
  { Rvm.default_options with Rvm.log_mode }

let test_value_mode_ignores_command () =
  register_add_op ();
  let rvm, _, _, _ = mk_node () in
  (* default options: Value *)
  let o = txn_add rvm ~region:0 ~offset:0 ~len:64 ~delta:1 in
  Alcotest.(check bool) "value encoding" true
    (o.Rvm.record.Lbc_wal.Record.cmd = None);
  check_int "one range" 1 (List.length o.Rvm.record.Lbc_wal.Record.ranges);
  Alcotest.(check bool) "record equals its value equivalent" true
    (Lbc_wal.Record.equal_txn o.Rvm.record o.Rvm.value)

let test_command_mode_forces_cmd () =
  register_add_op ();
  let rvm, region, _, _ =
    mk_node ~options:(with_log_mode Lbc_wal.Command.Command) ()
  in
  let o = txn_add rvm ~region:0 ~offset:8 ~len:16 ~delta:3 in
  let record = o.Rvm.record in
  Alcotest.(check bool) "command encoding" true
    (record.Lbc_wal.Record.cmd <> None);
  Alcotest.(check (list int)) "no ranges on the record" []
    (List.map (fun _ -> 0) record.Lbc_wal.Record.ranges);
  (* The value equivalent still carries the post-bytes for profiling. *)
  check_int "value equivalent has the range" 1
    (List.length o.Rvm.value.Lbc_wal.Record.ranges);
  let r = List.hd o.Rvm.value.Lbc_wal.Record.ranges in
  Alcotest.(check bytes) "value equivalent matches region memory"
    (Region.read region ~offset:8 ~len:16)
    r.Lbc_wal.Record.data;
  (* Both encodings share the dependency-carrying regions. *)
  Alcotest.(check (list int)) "same region keys"
    (Lbc_wal.Record.regions o.Rvm.value)
    (Lbc_wal.Record.regions record)

let test_adaptive_picks_smaller () =
  register_add_op ();
  let rvm, _, _, _ =
    mk_node ~options:(with_log_mode Lbc_wal.Command.Adaptive) ()
  in
  (* A wide span: ~6 param bytes against a 104-byte range header plus
     128 payload bytes — the command must win. *)
  let o = txn_add rvm ~region:0 ~offset:0 ~len:128 ~delta:1 in
  Alcotest.(check bool) "wide span: command chosen" true
    (o.Rvm.record.Lbc_wal.Record.cmd <> None);
  Alcotest.(check bool) "chosen encoding is smaller" true
    (Lbc_wal.Record.encoded_size o.Rvm.record
    < Lbc_wal.Record.encoded_size o.Rvm.value);
  (* Pad the params past the value encoding's size: values must win. *)
  let o' = txn_add ~pad:500 rvm ~region:0 ~offset:0 ~len:8 ~delta:1 in
  Alcotest.(check bool) "bloated params: values chosen" true
    (o'.Rvm.record.Lbc_wal.Record.cmd = None);
  Alcotest.(check bool) "record equals value equivalent" true
    (Lbc_wal.Record.equal_txn o'.Rvm.record o'.Rvm.value)

let test_readonly_stays_value () =
  let rvm, _, _, _ =
    mk_node ~options:(with_log_mode Lbc_wal.Command.Command) ()
  in
  let txn = Rvm.begin_txn rvm in
  Rvm.set_lock txn ~lock_id:3 ~seqno:1 ~prev_write_seq:0;
  let record = Rvm.commit txn in
  Alcotest.(check bool) "no command" true (record.Lbc_wal.Record.cmd = None);
  Alcotest.(check bool) "not a write" false (Lbc_wal.Record.is_write record)

let test_set_command_unregistered_rejected () =
  let rvm, _, _, _ = mk_node () in
  let txn = Rvm.begin_txn rvm in
  Alcotest.(check bool) "unregistered op rejected" true
    (try
       Rvm.set_command txn ~op:999_983 ~params:Bytes.empty ~regions:[ 0 ];
       false
     with Rvm.Txn_error _ -> true)

let test_apply_cmd_record_peer () =
  (* Node B applies A's command record: re-execution against B's cached
     pre-state reproduces A's bytes exactly. *)
  register_add_op ();
  let options = with_log_mode Lbc_wal.Command.Command in
  let a, region_a, _, _ = mk_node ~options () in
  let b, region_b, _, _ = mk_node ~options () in
  (* Identical pre-state on both nodes (a value-encoded seed: no
     set_command, so Command mode still logs ranges). *)
  let seed = Rvm.begin_txn a in
  Rvm.write seed ~region:0 ~offset:0 (Bytes.of_string "0123456789abcdef");
  let seed_record = (Rvm.commit_full seed).Rvm.record in
  Alcotest.(check bool) "seed is value-encoded" true
    (seed_record.Lbc_wal.Record.cmd = None);
  Rvm.apply_record b seed_record;
  let o = txn_add a ~region:0 ~offset:4 ~len:8 ~delta:7 in
  Alcotest.(check bool) "update is command-encoded" true
    (o.Rvm.record.Lbc_wal.Record.cmd <> None);
  Rvm.apply_record b o.Rvm.record;
  Alcotest.(check bytes) "peer cache converged"
    (Region.read region_a ~offset:0 ~len:16)
    (Region.read region_b ~offset:0 ~len:16);
  check_int "records applied" 2 (Rvm.stats b).Rvm.records_applied

let test_recovery_replays_cmd () =
  (* Crash recovery re-executes command records against the database
     image; stacked commands see the preceding command's output as their
     pre-state. *)
  register_add_op ();
  let rvm, region, db, log_dev =
    mk_node ~options:(with_log_mode Lbc_wal.Command.Command) ()
  in
  let seed = Rvm.begin_txn rvm in
  Rvm.write seed ~region:0 ~offset:0 (Bytes.make 64 'A');
  ignore (Rvm.commit seed);
  ignore (txn_add rvm ~region:0 ~offset:0 ~len:32 ~delta:1);
  ignore (txn_add rvm ~region:0 ~offset:16 ~len:32 ~delta:2);
  let expect = Region.read region ~offset:0 ~len:64 in
  Dev.crash log_dev;
  Dev.crash db;
  let log = Lbc_wal.Log.attach log_dev in
  let outcome = replay_log log ~db_for_region:(fun _ -> Some db) in
  check_int "three records" 3 outcome.Recovery.records_replayed;
  Alcotest.(check bytes) "db recovered through command re-execution" expect
    (Dev.read db ~off:0 ~len:64)

(* An op that strays outside its declaration: the record declares
   region 0, the op writes region 7. *)
let stray_op = 931

let test_undeclared_region_one_error () =
  Lbc_wal.Command.register ~op:stray_op ~name:"test-stray" (fun mem ~params:_ ->
      Lbc_util.Mem.write (mem ~region:7) ~offset:0 (Bytes.of_string "x"));
  let record =
    {
      Lbc_wal.Record.node = 1;
      tid = 1;
      locks = [];
      ranges = [];
      cmd =
        Some
          { Lbc_wal.Record.op = stray_op; params = Bytes.empty;
            cmd_regions = [ 0 ] };
    }
  in
  let fails_undeclared what f =
    match f () with
    | () -> Alcotest.failf "%s: the stray op ran" what
    | exception (Lbc_wal.Command.Undeclared_region { op; region } as e) ->
        check_int (what ^ ": op") stray_op op;
        check_int (what ^ ": region") 7 region;
        Alcotest.(check string)
          (what ^ ": message names op and region")
          "Command.Undeclared_region: op 931 (test-stray) touched region 7 \
           outside its declared regions"
          (Printexc.to_string e)
  in
  let rvm, _, db, _ = mk_node () in
  fails_undeclared "receiver" (fun () -> Rvm.apply_record rvm record);
  fails_undeclared "recovery" (fun () ->
      ignore
        (Recovery.replay_records [ record ] ~db_for_region:(fun id ->
             if id = 0 then Some db else None)
          : Recovery.outcome));
  fails_undeclared "oracle" (fun () ->
      ignore
        (Lbc_analysis.Serialize.check ~regions:[ (0, 256) ] ~finals:[]
           [ [ record ] ]
          : Lbc_analysis.Violation.t list))

(* Replay identity: random interleavings of value and command commits
   must recover byte-identically to an all-value log under every replay
   target — serial, partitioned, on-demand per region-index chain, a
   receiver fed through [apply_record] — and the serializability oracle
   must accept every recovered image.  The writer also writes a region
   no target maps: each replayer skips it, and the receiver counts each
   skip. *)
let prop_mixed_replay_identity =
  let size = 256 in
  let regions = 2 in
  (* Region [regions] is the one no replay target maps. *)
  let unmapped = regions in
  let gen_ops =
    QCheck.Gen.(
      list_size (1 -- 12)
        (pair
           (pair (int_bound unmapped) bool)
           (triple (int_bound 190) (1 -- 32) (1 -- 255))))
  in
  QCheck.Test.make ~name:"mixed value/cmd logs replay byte-identical"
    ~count:60 (QCheck.make gen_ops) (fun ops ->
      register_add_op ();
      let log_dev = Dev.create () in
      let rvm =
        Rvm.init
          ~options:(with_log_mode Lbc_wal.Command.Adaptive)
          ~node:0 ~log_dev ()
      in
      for rid = 0 to unmapped do
        ignore (Rvm.map_region rvm ~id:rid ~db:(Dev.create ()) ~size)
      done;
      (* Per-region locks so the merged stream partitions into real
         chains; chain each lock's writes like the lock package would. *)
      let seqno = Array.make (unmapped + 1) 0 in
      let outcomes =
        List.map
          (fun ((rid, as_cmd), (offset, len, delta)) ->
            let prev = seqno.(rid) in
            seqno.(rid) <- prev + 1;
            txn_add ~declare:as_cmd rvm ~region:rid ~offset ~len ~delta
              ~lock:(100 + rid, prev + 1, prev))
          ops
      in
      let mixed = List.map (fun o -> o.Rvm.record) outcomes in
      let values = List.map (fun o -> o.Rvm.value) outcomes in
      let finals =
        List.init regions (fun rid ->
            Region.read (Rvm.region rvm rid) ~offset:0 ~len:size)
      in
      (* Each replay target starts from the same checkpoint image the
         writer started from: all zeroes. *)
      let fresh_devs () =
        let devs =
          Array.init regions (fun _ ->
              let d = Dev.create () in
              Dev.load d (Bytes.make size '\000');
              d)
        in
        (devs, fun rid -> if rid < regions then Some devs.(rid) else None)
      in
      let image devs rid = Dev.read devs.(rid) ~off:0 ~len:size in
      let matches read =
        List.for_all2
          (fun rid final -> Bytes.equal final (read rid))
          (List.init regions Fun.id)
          finals
      in
      (* Baseline: the all-value log. *)
      let vdevs, vfor = fresh_devs () in
      ignore (Recovery.replay_records values ~db_for_region:vfor);
      (* Serial replay of the mixed log. *)
      let sdevs, sfor = fresh_devs () in
      ignore (Recovery.replay_records mixed ~db_for_region:sfor);
      (* Partitioned replay: lock/region-disjoint streams. *)
      let pdevs, pfor = fresh_devs () in
      List.iter
        (fun stream ->
          ignore (Recovery.replay_records stream ~db_for_region:pfor))
        (Lbc_core.Merge.partition mixed);
      (* On-demand replay: region-index chains read by log offset. *)
      let odevs, ofor = fresh_devs () in
      Dev.crash log_dev;
      let log = Lbc_wal.Log.attach log_dev in
      let idx, status = Lbc_wal.Region_index.of_log log in
      let chains_ok = ref (status = Lbc_wal.Log.Clean) in
      List.iter
        (fun offsets ->
          match Recovery.replay_chain ~log ~offsets ~db_for_region:ofor with
          | Ok _ -> ()
          | Error _ -> chains_ok := false)
        (Lbc_wal.Region_index.chains idx);
      (* A receiver mapping the same regions, fed the record stream. *)
      let peer = Rvm.init ~node:1 ~log_dev:(Dev.create ()) () in
      for rid = 0 to regions - 1 do
        ignore (Rvm.map_region peer ~id:rid ~db:(Dev.create ()) ~size)
      done;
      List.iter (Rvm.apply_record peer) mixed;
      let received rid =
        Region.read (Rvm.region peer rid) ~offset:0 ~len:size
      in
      (* One skip per op on the unmapped region: a value record there
         holds one range, a command declares one region. *)
      let skipped =
        List.length (List.filter (fun ((rid, _), _) -> rid = unmapped) ops)
      in
      let violations =
        Lbc_analysis.Serialize.check
          ~regions:(List.init regions (fun rid -> (rid, size)))
          ~finals:
            [
              ("serial", image sdevs); ("partitioned", image pdevs);
              ("ondemand", image odevs); ("receiver", received);
            ]
          [ mixed ]
      in
      !chains_ok && matches (image vdevs) && matches (image sdevs)
      && matches (image pdevs) && matches (image odevs) && matches received
      && violations = []
      && (Rvm.stats peer).Rvm.unmapped_ranges = skipped)

(* A command's replay writes back what it stored, not the extent
   between its stores: T2-A and T3-C on the tiny schema, each logged as
   a command next to its value twin.  Recovery of the command writes no
   more device bytes than the value record's ranges hold, and lands on
   the twin's image. *)
let test_command_writeback_bounded () =
  List.iter
    (fun kind ->
      let module Runner = Lbc_oo7.Runner in
      let name = Lbc_oo7.Traversal.name kind in
      let recover log_mode =
        let config = { Lbc_core.Config.default with Lbc_core.Config.log_mode } in
        let c = Runner.setup ~config ~nodes:2 Lbc_oo7.Schema.tiny in
        let o = Runner.run ~cluster:c ~writer:0 Lbc_oo7.Schema.tiny kind in
        let db =
          Option.get (Store.find (Lbc_core.Cluster.store c) "region.0")
        in
        let before = Dev.bytes_written db in
        let outcome = Lbc_core.Cluster.recover_database c in
        let written = Dev.bytes_written db - before in
        check_int (name ^ ": the session counts what the device took")
          written outcome.Recovery.bytes_written;
        (o, written, Dev.stable_snapshot db)
      in
      let o_v, _, img_v = recover Lbc_wal.Command.Value in
      let o_a, written, img_a = recover Lbc_wal.Command.Adaptive in
      Alcotest.(check bool) (name ^ ": logged as a command") true
        (o_a.Runner.record.Lbc_wal.Record.cmd <> None);
      let value_bytes = Lbc_wal.Record.ranges_bytes o_v.Runner.record in
      Alcotest.(check bool)
        (Printf.sprintf "%s: command replay writes %d bytes, value ranges %d"
           name written value_bytes)
        true (written <= value_bytes);
      Alcotest.(check bool) (name ^ ": images equal") true
        (Bytes.equal img_v img_a))
    Lbc_oo7.Traversal.[ T2 A; T3 C ]

(* Recovery's write-back against a flat model.  A stream on one region
   mixes value records with an increment command: for each (offset, len)
   span it adds 1 to every byte, reading bytes past the image's end as
   zero, so what it stores depends on every earlier write to the span,
   value blits included.  The device starts with a random prefix and
   grows as stores pass its end. *)
let incr_op = 932

let incremented ~read ~size ~offset ~len =
  let b = Bytes.make len '\000' in
  let have = min len (size - offset) in
  if have > 0 then Bytes.blit (read ~offset ~len:have) 0 b 0 have;
  Bytes.map (fun c -> Char.chr ((Char.code c + 1) land 0xff)) b

let register_incr_op () =
  Lbc_wal.Command.register ~op:incr_op ~name:"test-incr" (fun mem ~params ->
      let r = Lbc_util.Codec.reader params in
      let m = mem ~region:0 in
      for _ = 1 to Lbc_util.Codec.get_varint r do
        let offset = Lbc_util.Codec.get_varint r in
        let len = Lbc_util.Codec.get_varint r in
        Lbc_util.Mem.write m ~offset
          (incremented ~read:(Lbc_util.Mem.read m) ~size:(Lbc_util.Mem.size m)
             ~offset ~len)
      done)

type wb_record = Blit of (int * string) list | Incr of (int * int) list

let wb_txn tid = function
  | Blit ranges ->
      { Lbc_wal.Record.node = 0; tid; locks = [];
        ranges =
          List.map
            (fun (offset, data) ->
              { Lbc_wal.Record.region = 0; offset; data = Bytes.of_string data })
            ranges;
        cmd = None }
  | Incr spans ->
      let w = Lbc_util.Codec.writer () in
      Lbc_util.Codec.varint w (List.length spans);
      List.iter
        (fun (offset, len) ->
          Lbc_util.Codec.varint w offset;
          Lbc_util.Codec.varint w len)
        spans;
      { Lbc_wal.Record.node = 0; tid; locks = []; ranges = [];
        cmd =
          Some
            { Lbc_wal.Record.op = incr_op; params = Lbc_util.Codec.contents w;
              cmd_regions = [ 0 ] } }

let prop_writeback_matches_model =
  let span = QCheck.Gen.(pair (int_bound 160) (1 -- 20)) in
  let gen =
    QCheck.Gen.(
      pair
        (string_size ~gen:printable (0 -- 96))
        (list_size (1 -- 12)
           (oneof
              [
                map (fun l -> Blit l)
                  (list_size (1 -- 3)
                     (pair (int_bound 160)
                        (string_size ~gen:printable (1 -- 20))));
                map (fun l -> Incr l) (list_size (1 -- 4) span);
              ])))
  in
  let print (init, records) =
    Printf.sprintf "device %S, %s" init
      (String.concat "; "
         (List.map
            (function
              | Blit l ->
                  "blit "
                  ^ String.concat ","
                      (List.map (fun (o, d) -> Printf.sprintf "%d:%S" o d) l)
              | Incr l ->
                  "incr "
                  ^ String.concat ","
                      (List.map (fun (o, n) -> Printf.sprintf "%d+%d" o n) l))
            records))
  in
  QCheck.Test.make ~name:"write-back matches a flat model" ~count:500
    (QCheck.make ~print gen) (fun (init, records) ->
      register_incr_op ();
      let model = ref (Bytes.of_string init) in
      let model_write ~offset data =
        let n = offset + Bytes.length data in
        if n > Bytes.length !model then begin
          let b = Bytes.make n '\000' in
          Bytes.blit !model 0 b 0 (Bytes.length !model);
          model := b
        end;
        Bytes.blit data 0 !model offset (Bytes.length data)
      in
      (* Stored lengths, a command's each rounded out to whole words. *)
      let bound = ref 0 in
      List.iter
        (function
          | Blit ranges ->
              List.iter
                (fun (offset, data) ->
                  model_write ~offset (Bytes.of_string data);
                  bound := !bound + String.length data)
                ranges
          | Incr spans ->
              List.iter
                (fun (offset, len) ->
                  model_write ~offset
                    (incremented
                       ~read:(fun ~offset ~len -> Bytes.sub !model offset len)
                       ~size:(Bytes.length !model) ~offset ~len);
                  bound := !bound + (8 * (((offset + len + 7) / 8) - (offset / 8))))
                spans)
        records;
      let db = Dev.create () in
      Dev.load db (Bytes.of_string init);
      let outcome =
        Recovery.replay_records (List.mapi wb_txn records)
          ~db_for_region:(fun id -> if id = 0 then Some db else None)
      in
      let written = Dev.bytes_written db in
      if not (Bytes.equal (Dev.stable_snapshot db) !model) then
        QCheck.Test.fail_reportf "recovered %S, model %S"
          (Bytes.to_string (Dev.stable_snapshot db)) (Bytes.to_string !model);
      if written > !bound then
        QCheck.Test.fail_reportf "wrote %d bytes, bound %d" written !bound;
      written = outcome.Recovery.bytes_written)

let qtest = QCheck_alcotest.to_alcotest

let suites =
  [
    ( "rvm.range_tree",
      [
        Alcotest.test_case "ordered appends" `Quick test_tree_ordered_appends;
        Alcotest.test_case "exact match (cache)" `Quick
          test_tree_exact_match_last_cache;
        Alcotest.test_case "exact match (search)" `Quick
          test_tree_exact_match_via_search;
        Alcotest.test_case "optimized extend" `Quick test_tree_optimized_extend;
        Alcotest.test_case "optimized keeps overlap" `Quick
          test_tree_optimized_keeps_overlap;
        Alcotest.test_case "bad args" `Quick test_tree_bad_args;
        qtest coverage_matches;
        qtest flat_log_matches_map_tree;
      ] );
    ( "rvm.region",
      [
        Alcotest.test_case "map loads db" `Quick test_region_map_loads_db;
        Alcotest.test_case "u64 accessors" `Quick test_region_u64;
      ] );
    ( "rvm.txn",
      [
        Alcotest.test_case "commit builds record" `Quick test_txn_commit_record;
        Alcotest.test_case "coalesces repeats" `Quick
          test_txn_coalesces_repeated_updates;
        Alcotest.test_case "commit reaches log" `Quick test_txn_commit_goes_to_log;
        Alcotest.test_case "disk logging disabled" `Quick
          test_txn_disk_logging_disabled;
        Alcotest.test_case "abort restores" `Quick test_txn_abort_restores;
        Alcotest.test_case "abort needs Restore" `Quick
          test_txn_abort_no_restore_rejected;
        Alcotest.test_case "dead txn rejected" `Quick test_txn_dead_rejects_ops;
        Alcotest.test_case "unmapped region" `Quick test_txn_unmapped_region;
        Alcotest.test_case "multi-region" `Quick test_multi_region_txn;
      ] );
    ( "rvm.apply",
      [
        Alcotest.test_case "peer update" `Quick test_apply_record_peer_update;
        Alcotest.test_case "skips unmapped" `Quick test_apply_record_skips_unmapped;
      ] );
    ( "rvm.recovery",
      [
        Alcotest.test_case "replay log" `Quick test_recovery_replays_log;
        qtest prop_recovery_matches_model;
      ] );
    ( "rvm.ckpt",
      [
        Alcotest.test_case "apply_record counts unmapped ranges" `Quick
          test_apply_record_counts_unmapped;
      ] );
    ( "rvm.adaptive",
      [
        Alcotest.test_case "Value mode ignores the declaration" `Quick
          test_value_mode_ignores_command;
        Alcotest.test_case "Command mode forces the cmd encoding" `Quick
          test_command_mode_forces_cmd;
        Alcotest.test_case "Adaptive picks the smaller encoding" `Quick
          test_adaptive_picks_smaller;
        Alcotest.test_case "read-only commits stay value" `Quick
          test_readonly_stays_value;
        Alcotest.test_case "set_command needs a registered op" `Quick
          test_set_command_unregistered_rejected;
        Alcotest.test_case "peer applies a cmd record" `Quick
          test_apply_cmd_record_peer;
        Alcotest.test_case "recovery re-executes cmds" `Quick
          test_recovery_replays_cmd;
        Alcotest.test_case "undeclared region fails one way" `Quick
          test_undeclared_region_one_error;
        qtest prop_mixed_replay_identity;
        Alcotest.test_case "command write-back within the value ranges"
          `Quick test_command_writeback_bounded;
      ] );
    ("rvm.writeback", [ qtest prop_writeback_matches_model ]);
  ]
