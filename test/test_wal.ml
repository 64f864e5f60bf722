(* Tests for the write-ahead log: record codec, log device management,
   crash/torn-tail behaviour. *)

open Lbc_storage
open Lbc_wal

let txn_testable = Alcotest.testable Record.pp_txn Record.equal_txn

let mk_txn ?(node = 1) ?(tid = 7) ?(locks = []) ranges =
  {
    Record.node;
    tid;
    locks;
    ranges =
      List.map
        (fun (region, offset, s) ->
          { Record.region; offset; data = Bytes.of_string s })
        ranges;
    cmd = None;
  }

let lock lock_id seqno prev_write_seq = { Record.lock_id; seqno; prev_write_seq }

(* ------------------------------------------------------------------ *)
(* Record codec *)

let test_record_roundtrip () =
  let t =
    mk_txn ~node:3 ~tid:42
      ~locks:[ lock 5 10 8; lock 77 1 0 ]
      [ (0, 100, "hello"); (1, 4096, "world!") ]
  in
  let b = Record.encode t in
  match Record.decode b ~pos:0 with
  | Record.Txn (t', next) ->
      Alcotest.check txn_testable "roundtrip" t t';
      Alcotest.(check int) "consumed all" (Bytes.length b) next
  | _ -> Alcotest.fail "decode failed"

let test_record_empty () =
  let t = mk_txn ~node:0 ~tid:0 [] in
  match Record.decode (Record.encode t) ~pos:0 with
  | Record.Txn (t', _) -> Alcotest.check txn_testable "empty txn" t t'
  | _ -> Alcotest.fail "decode failed"

let test_record_encoded_size () =
  let t =
    mk_txn ~locks:[ lock 1 2 0 ] [ (0, 0, "abcdefgh"); (0, 64, "Z") ]
  in
  Alcotest.(check int) "size matches"
    (Bytes.length (Record.encode t))
    (Record.encoded_size t)

let test_record_decode_zeros_is_end () =
  match Record.decode (Bytes.make 64 '\000') ~pos:0 with
  | Record.End -> ()
  | _ -> Alcotest.fail "expected End"

let test_record_decode_corrupt_is_torn () =
  let t = mk_txn [ (0, 0, "payload") ] in
  let b = Record.encode t in
  (* Flip a payload byte: CRC must catch it. *)
  let i = Bytes.length b - 6 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
  (match Record.decode b ~pos:0 with
  | Record.Torn _ -> ()
  | _ -> Alcotest.fail "expected Torn (bad crc)");
  (* Truncate: also torn. *)
  let b = Record.encode t in
  let cut = Bytes.sub b 0 (Bytes.length b - 3) in
  match Record.decode cut ~pos:0 with
  | Record.Torn _ -> ()
  | _ -> Alcotest.fail "expected Torn (truncated)"

let test_record_garbage_is_torn () =
  match Record.decode (Bytes.of_string "garbage-not-a-record") ~pos:0 with
  | Record.Torn _ -> ()
  | _ -> Alcotest.fail "expected Torn"

let gen_txn =
  let open QCheck.Gen in
  let gen_range =
    triple (int_bound 3) (int_bound 100_000) (string_size ~gen:printable (1 -- 32))
  in
  let gen_lock =
    map
      (fun (a, b, c) -> lock a (b + 1) c)
      (triple (int_bound 500) (int_bound 1000) (int_bound 1000))
  in
  map
    (fun (node, tid, locks, ranges) ->
      mk_txn ~node ~tid ~locks ranges)
    (quad (int_bound 100) (int_bound 10_000) (list_size (0 -- 5) gen_lock)
       (list_size (0 -- 8) gen_range))

let prop_record_roundtrip =
  QCheck.Test.make ~name:"record roundtrip (random)" ~count:300
    (QCheck.make gen_txn) (fun t ->
      match Record.decode (Record.encode t) ~pos:0 with
      | Record.Txn (t', next) ->
          Record.equal_txn t t' && next = Bytes.length (Record.encode t)
      | _ -> false)

let prop_records_concatenate =
  QCheck.Test.make ~name:"back-to-back records decode in sequence" ~count:100
    (QCheck.make (QCheck.Gen.list_size QCheck.Gen.(1 -- 5) gen_txn))
    (fun txns ->
      let blob =
        Bytes.concat Bytes.empty (List.map (fun t -> Record.encode t) txns)
      in
      let rec loop pos acc =
        match Record.decode blob ~pos with
        | Record.Txn (t, next) -> loop next (t :: acc)
        | Record.End -> List.rev acc
        | Record.Torn _ -> []
      in
      let decoded = loop 0 [] in
      List.length decoded = List.length txns
      && List.for_all2 Record.equal_txn txns decoded)

(* ------------------------------------------------------------------ *)
(* Log *)

let test_log_fresh_attach () =
  let d = Dev.create () in
  let log = Log.attach d in
  Alcotest.(check int) "head" Log.header_size (Log.head log);
  Alcotest.(check int) "tail" Log.header_size (Log.tail log);
  Alcotest.(check int) "live" 0 (Log.live_bytes log)

let test_log_append_read () =
  let d = Dev.create () in
  let log = Log.attach d in
  let t1 = mk_txn ~tid:1 [ (0, 0, "one") ] in
  let t2 = mk_txn ~tid:2 ~locks:[ lock 3 1 0 ] [ (0, 8, "two") ] in
  ignore (Log.append log t1);
  ignore (Log.append log t2);
  let txns, status = Log.read_all log in
  Alcotest.(check (list txn_testable)) "both records" [ t1; t2 ] txns;
  Alcotest.(check bool) "clean" true (status = Log.Clean);
  Alcotest.(check int) "count" 2 (Log.record_count log)

let test_log_force_survives_crash () =
  let d = Dev.create () in
  let log = Log.attach d in
  ignore (Log.append log (mk_txn ~tid:1 [ (0, 0, "durable") ]));
  Log.force log;
  ignore (Log.append log (mk_txn ~tid:2 [ (0, 0, "volatile") ]));
  Dev.crash d;
  let log' = Log.attach d in
  let txns, status = Log.read_all log' in
  Alcotest.(check int) "only forced record" 1 (List.length txns);
  Alcotest.(check bool) "clean" true (status = Log.Clean);
  Alcotest.(check int) "tid" 1 (List.hd txns).Record.tid

let test_log_torn_tail_ignored () =
  let d = Dev.create () in
  let log = Log.attach d in
  ignore (Log.append log (mk_txn ~tid:1 [ (0, 0, "good") ]));
  Log.force log;
  ignore (Log.append log (mk_txn ~tid:2 [ (0, 0, "half-written") ]));
  (* Crash with the second record torn mid-way. *)
  Dev.crash ~tear_bytes:30 d;
  let log' = Log.attach d in
  let txns, _ = Log.read_all log' in
  Alcotest.(check int) "torn tail dropped" 1 (List.length txns);
  (* Appending after the torn tail overwrites it cleanly. *)
  ignore (Log.append log' (mk_txn ~tid:3 [ (0, 0, "after") ]));
  Log.force log';
  let log'' = Log.attach d in
  let txns, status = Log.read_all log'' in
  Alcotest.(check (list int)) "records after repair" [ 1; 3 ]
    (List.map (fun t -> t.Record.tid) txns);
  Alcotest.(check bool) "clean" true (status = Log.Clean)

let test_log_trim () =
  let d = Dev.create () in
  let log = Log.attach d in
  let off1 = Log.append log (mk_txn ~tid:1 [ (0, 0, "aa") ]) in
  let off2 = Log.append log (mk_txn ~tid:2 [ (0, 0, "bb") ]) in
  Log.force log;
  Alcotest.(check int) "first at header" Log.header_size off1;
  Alcotest.(check int) "trim lands on off2" off2 (Log.set_head log off2);
  let txns, _ = Log.read_all log in
  Alcotest.(check (list int)) "only second lives" [ 2 ]
    (List.map (fun t -> t.Record.tid) txns);
  (* Trim point survives reattach. *)
  let log' = Log.attach d in
  Alcotest.(check int) "head persisted" off2 (Log.head log');
  Alcotest.(check int) "count" 1 (Log.record_count log');
  (* On a charged disk a trim costs what it writes (the header and its
     sync), not the tail it keeps: dropping one 1 KiB record takes the
     same virtual time over a 1 KiB tail as over a 1 MiB one. *)
  let trim_us ~keep =
    let d = Dev.create ~latency:Latency.osdi94_disk () in
    let log = Log.attach d in
    let kib = String.make 1024 'k' in
    ignore (Log.append log (mk_txn ~tid:0 [ (0, 0, kib) ]) : int);
    let off = Log.append log (mk_txn ~tid:1 [ (0, 0, kib) ]) in
    for i = 2 to keep do
      ignore (Log.append log (mk_txn ~tid:i [ (0, 0, kib) ]) : int)
    done;
    Log.force log;
    let engine = Lbc_sim.Engine.create () in
    let took = ref nan in
    Lbc_sim.Proc.spawn engine ~name:"trim" (fun () ->
        let t0 = Lbc_sim.Engine.now engine in
        Alcotest.(check int) "charged trim lands" off (Log.set_head log off);
        took := Lbc_sim.Engine.now engine -. t0);
    Lbc_sim.Engine.run engine;
    Alcotest.(check int) "charged trim keeps its tail" keep (Log.record_count log);
    !took
  in
  Alcotest.(check (float 1e-6)) "charged trim: same cost over 1 KiB and 1 MiB"
    (trim_us ~keep:1) (trim_us ~keep:1024)

let test_log_bad_device () =
  let d = Dev.create () in
  Dev.write_string d ~off:0 "this is definitely not a log header";
  Alcotest.(check bool) "raises Bad_log" true
    (try
       ignore (Log.attach d);
       false
     with Log.Bad_log _ -> true)

(* Regression (analysis.verify's fuzzer): a header whose head offset has
   its top bit set escaped [attach] as [Codec.Truncated], so every log
   CLI died with an uncaught exception instead of "not a log". *)
let test_log_head_top_bit () =
  let d = Dev.create () in
  ignore (Log.attach d : Log.t);
  Dev.write_string d ~off:15 "\x89";
  Alcotest.(check bool) "raises Bad_log" true
    (try
       ignore (Log.attach d);
       false
     with Log.Bad_log _ -> true)

(* A version-1 log may hold control records, which this decoder reads as
   a torn tail: attaching one would silently drop every record after the
   first.  The header's version refuses it, on a device and as a file. *)
let test_log_v1_refused () =
  let v1 = "LCBL\x01\x00\x00\x00\x10\x00\x00\x00\x00\x00\x00\x00" in
  let d = Dev.create () in
  Dev.write_string d ~off:0 v1;
  (match Log.attach d with
  | _ -> Alcotest.fail "a version-1 log attached"
  | exception Log.Bad_log why ->
      Alcotest.(check string) "reason" "bad version 1" why);
  let path = Filename.temp_file "lbc-v1" ".log" in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc v1);
  let loaded = Log.load_file path in
  Sys.remove path;
  match loaded with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "load_file accepted a version-1 log"

let test_log_fold_offsets () =
  let d = Dev.create () in
  let log = Log.attach d in
  let offs =
    List.map
      (fun tid -> Log.append log (mk_txn ~tid [ (0, 0, "r") ]))
      [ 1; 2; 3 ]
  in
  let seen, _ = Log.fold log ~init:[] (fun acc off _ -> off :: acc) in
  Alcotest.(check (list int)) "offsets" offs (List.rev seen)

(* ------------------------------------------------------------------ *)
(* Golden vectors: byte-identity with the pre-slice encoders *)

let hex_of_bytes b =
  String.concat ""
    (List.init (Bytes.length b) (fun i ->
         Printf.sprintf "%02x" (Char.code (Bytes.get b i))))

let bytes_of_hex s =
  Bytes.init
    (String.length s / 2)
    (fun i -> Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))

(* golden_vectors.txt: "KIND name hex" lines, generated by the encoders
   as they stood before the Slice refactor. *)
let golden_vectors =
  lazy
    (let path =
       (* dune stages the dep next to the test executable; resolve it
          there so both `dune runtest` and `dune exec` find it. *)
       let beside_exe =
         Filename.concat (Filename.dirname Sys.executable_name)
           "golden_vectors.txt"
       in
       if Sys.file_exists beside_exe then beside_exe
       else if Sys.file_exists "test/golden_vectors.txt" then
         "test/golden_vectors.txt"
       else "golden_vectors.txt"
     in
     let ic = open_in path in
     let rec loop acc =
       match input_line ic with
       | line -> (
           match String.split_on_char ' ' (String.trim line) with
           | [ kind; name; hex ] -> loop (((kind, name), hex) :: acc)
           | _ -> loop acc)
       | exception End_of_file ->
           close_in ic;
           acc
     in
     loop [])

let golden kind name =
  match List.assoc_opt (kind, name) (Lazy.force golden_vectors) with
  | Some hex -> hex
  | None -> Alcotest.fail (Printf.sprintf "no golden vector %s %s" kind name)

(* The same four transactions the golden generator used. *)
let golden_txns =
  let open Record in
  [
    (* single lock, single range *)
    ( "t1",
      { node = 0; tid = 1;
        locks = [ { lock_id = 0; seqno = 1; prev_write_seq = 0 } ];
        ranges =
          [ { region = 0; offset = 16; data = Bytes.of_string "hello world!" } ];
        cmd = None;
      } );
    (* multi-lock, multi-region, big varints *)
    ( "t2",
      { node = 3; tid = 200;
        locks =
          [
            { lock_id = 7; seqno = 300; prev_write_seq = 299 };
            { lock_id = 150; seqno = 2; prev_write_seq = 0 };
          ];
        ranges =
          [
            { region = 2; offset = 100_000; data = Bytes.make 40 '\x5a' };
            { region = 2; offset = 100_300; data = Bytes.of_string "abc" };
            { region = 5; offset = 0; data = Bytes.make 3 '\x00' };
          ];
        cmd = None;
      } );
    (* read-only (no ranges) *)
    ( "t3",
      { node = 1; tid = 9;
        locks = [ { lock_id = 2; seqno = 5; prev_write_seq = 4 } ];
        ranges = [];
        cmd = None;
      } );
    (* unsorted ranges on input, zero-length data *)
    ( "t4",
      { node = 65535; tid = 1_000_000;
        locks = [];
        ranges =
          [
            { region = 1; offset = 512; data = Bytes.make 130 '\x41' };
            { region = 1; offset = 0; data = Bytes.of_string "xy" };
            { region = 0; offset = 8; data = Bytes.empty };
          ];
        cmd = None;
      } )
  ]

let test_record_golden () =
  List.iter
    (fun (name, t) ->
      Alcotest.(check string)
        (name ^ " encodes to the pre-refactor bytes (104B headers)")
        (golden "REC" name)
        (hex_of_bytes (Record.encode t));
      (* and the golden bytes decode back to the transaction, whatever
         header size they carry (REC20 is decode-only: the encoder writes
         104-byte headers) *)
      List.iter
        (fun kind ->
          match Record.decode (bytes_of_hex (golden kind name)) ~pos:0 with
          | Record.Txn (t', _) ->
              Alcotest.check txn_testable
                (Printf.sprintf "%s %s golden decodes" kind name)
                t t'
          | _ ->
              Alcotest.failf "%s %s: golden record did not decode" kind name)
        [ "REC"; "REC20" ])
    golden_txns

(* The compact-header vectors are the same records with 20-byte range
   headers: 84 bytes shorter per range, and both decode (above).  A
   header size below the fixed fields is refused even under a valid
   CRC. *)
let test_record_header_padding () =
  List.iter
    (fun (name, (t : Record.txn)) ->
      Alcotest.(check int)
        (name ^ ": 104-byte RVM headers cost 84 bytes more per range")
        ((Record.rvm_disk_header_size - Record.min_header_size)
        * List.length t.ranges)
        (Bytes.length (bytes_of_hex (golden "REC" name))
        - Bytes.length (bytes_of_hex (golden "REC20" name))))
    golden_txns;
  let b = bytes_of_hex (golden "REC20" "t1") in
  (* magic, total, node, tid, then the u16 header size *)
  Bytes.set_uint16_le b 18 (Record.min_header_size - 1);
  let body = Bytes.length b - 4 in
  Bytes.set_int32_le b body (Lbc_util.Crc32.bytes b ~pos:0 ~len:body);
  match Record.decode b ~pos:0 with
  | Record.Torn _ -> ()
  | _ -> Alcotest.fail "a header size below the minimum must be Torn"

let prop_encode_into_appends =
  (* Encoding several records into one shared arena yields exactly the
     concatenation of their individual encodings. *)
  QCheck.Test.make ~name:"encode_into batches = concatenated encodes"
    ~count:100
    (QCheck.make (QCheck.Gen.list_size QCheck.Gen.(1 -- 5) gen_txn))
    (fun txns ->
      let w = Lbc_util.Codec.writer () in
      List.iter (fun t -> Record.encode_into w t) txns;
      let batched = Lbc_util.Codec.contents w in
      let individual =
        Bytes.concat Bytes.empty (List.map Record.encode txns)
      in
      Bytes.equal batched individual)

(* ------------------------------------------------------------------ *)
(* Windowed scans *)

let test_scan_windowed_large_log () =
  (* A log several windows long: attach must find every record without
     snapshotting the device. *)
  let d = Dev.create () in
  let log = Log.attach d in
  let payload = String.make 8192 'p' in
  let n = 24 in  (* ~197 KiB of records, ~3 windows *)
  for tid = 1 to n do
    ignore (Log.append log (mk_txn ~tid [ (0, 0, payload) ]))
  done;
  Log.force log;
  Alcotest.(check bool) "log spans several scan windows" true
    (Log.tail log > 2 * 64 * 1024);
  let log' = Log.attach d in
  Alcotest.(check int) "all records found" n (Log.record_count log');
  let txns, status = Log.read_all log' in
  Alcotest.(check bool) "clean" true (status = Log.Clean);
  Alcotest.(check (list int)) "tids in order"
    (List.init n (fun i -> i + 1))
    (List.map (fun t -> t.Record.tid) txns)

let test_scan_record_larger_than_window () =
  (* One record bigger than the 64 KiB scan window: the window must grow
     until the record fits, then shrink back to normal progress. *)
  let d = Dev.create () in
  let log = Log.attach d in
  ignore (Log.append log (mk_txn ~tid:1 [ (0, 0, "before") ]));
  ignore (Log.append log (mk_txn ~tid:2 [ (0, 0, String.make 100_000 'B') ]));
  ignore (Log.append log (mk_txn ~tid:3 [ (0, 0, "after") ]));
  Log.force log;
  let log' = Log.attach d in
  let txns, status = Log.read_all log' in
  Alcotest.(check bool) "clean" true (status = Log.Clean);
  Alcotest.(check (list int)) "all three records" [ 1; 2; 3 ]
    (List.map (fun t -> t.Record.tid) txns)

(* ------------------------------------------------------------------ *)
(* Concurrent appends on a charged device *)

(* 2-6 sim processes append to one log on the OSDI-94 disk, whose write
   sleeps, so their appends interleave.  Each append is a payload length,
   a think time before it (virtual µs) and whether a force follows. *)
let prop_concurrent_appends =
  let append = QCheck.Gen.(triple (int_bound 400) (int_bound 80) bool) in
  let gen =
    QCheck.Gen.(
      triple
        (list_size (2 -- 6) (list_size (1 -- 5) append))
        (int_bound 30) (int_bound 600))
  in
  let print (procs, apply, tear) =
    Printf.sprintf "procs [%s], crash apply %d tear %d"
      (String.concat "; "
         (List.map
            (fun ops ->
              String.concat ","
                (List.map
                   (fun (len, think, force) ->
                     Printf.sprintf "%d+%d%s" think len
                       (if force then "!" else ""))
                   ops))
            procs))
      apply tear
  in
  QCheck.Test.make ~name:"concurrent appends land once, in offset order"
    ~count:500 (QCheck.make ~print gen) (fun (procs, apply, tear_bytes) ->
      let d = Dev.create ~latency:Latency.osdi94_disk () in
      let log = Log.attach d in
      let engine = Lbc_sim.Engine.create () in
      let appended = ref [] and forced = ref [] in
      List.iteri
        (fun p ops ->
          Lbc_sim.Proc.spawn engine ~name:(Printf.sprintf "appender-%d" p)
            (fun () ->
              List.iteri
                (fun i (len, think, force) ->
                  if think > 0 then Lbc_sim.Proc.sleep (float_of_int think);
                  let tid = (100 * p) + i in
                  let fill = Char.chr (Char.code 'a' + (tid mod 26)) in
                  let txn = mk_txn ~tid [ (0, 0, String.make len fill) ] in
                  let off = Log.append log txn in
                  appended := (off, txn) :: !appended;
                  if force then begin
                    Log.force log;
                    forced := tid :: !forced
                  end)
                ops))
        procs;
      Lbc_sim.Engine.run engine;
      let by_offset =
        List.sort (fun (a, _) (b, _) -> Int.compare a b) !appended
      in
      let records log =
        let acc, status =
          Log.fold log ~init:[] (fun acc off txn -> (off, txn) :: acc)
        in
        (List.rev acc, status)
      in
      let same (o, t) (o', t') = o = o' && Record.equal_txn t t' in
      let rec prefix xs ys =
        match (xs, ys) with
        | [], _ -> true
        | x :: xs, y :: ys -> same x y && prefix xs ys
        | _ :: _, [] -> false
      in
      let offsets = List.map fst by_offset in
      if List.length (List.sort_uniq Int.compare offsets) <> List.length offsets
      then
        QCheck.Test.fail_reportf "two appends share an offset: [%s]"
          (String.concat ";" (List.map string_of_int offsets));
      let live, status = records log in
      if status <> Log.Clean then QCheck.Test.fail_report "live log torn";
      if
        List.length live <> List.length by_offset
        || not (List.for_all2 same live by_offset)
      then
        QCheck.Test.fail_reportf
          "fold yields %d records, not the %d appends at their offsets"
          (List.length live) (List.length by_offset);
      Dev.crash ~apply ~tear_bytes d;
      let survived, _ = records (Log.attach d) in
      if not (prefix survived by_offset) then
        QCheck.Test.fail_report "re-attached log is not a prefix of the appends";
      let tids = List.map (fun (_, t) -> t.Record.tid) survived in
      List.iter
        (fun tid ->
          if not (List.mem tid tids) then
            QCheck.Test.fail_reportf "forced record %d lost" tid)
        !forced;
      true)

(* ------------------------------------------------------------------ *)
(* Low-water marks, point reads, corrupt-byte scans, the region index *)

let test_set_head_clamps_to_low_water () =
  let d = Dev.create () in
  let log = Log.attach d in
  let off1 = Log.append log (mk_txn ~tid:1 [ (0, 0, "aa") ]) in
  let off2 = Log.append log (mk_txn ~tid:2 [ (0, 0, "bb") ]) in
  Log.force log;
  Alcotest.(check int) "no water: low_water is max_int" max_int
    (Log.low_water log);
  (* A retention mark below the requested head wins. *)
  Log.set_retention_water log off2;
  Alcotest.(check int) "trim clamped to retention mark" off2
    (Log.set_head log (Log.tail log));
  Alcotest.(check int) "record 2 still live" 1 (Log.record_count log);
  ignore off1;
  (* Lifting the mark allows the full trim. *)
  Log.set_retention_water log max_int;
  Alcotest.(check int) "trim reaches tail" (Log.tail log)
    (Log.set_head log (Log.tail log));
  Alcotest.(check int) "log empty" 0 (Log.live_bytes log)

let test_read_at () =
  let d = Dev.create () in
  let log = Log.attach d in
  let o1 = Log.append log (mk_txn ~tid:1 [ (0, 0, "aa") ]) in
  let o2 = Log.append log (mk_txn ~tid:2 [ (0, 8, "bb") ]) in
  Log.force log;
  (match Log.read_at log ~off:o2 with
  | Ok t -> Alcotest.(check int) "tid at offset" 2 t.Record.tid
  | Error e -> Alcotest.fail e);
  (match Log.read_at log ~off:(o1 + 1) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "misaligned offset must error");
  (match Log.read_at log ~off:(Log.tail log) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "offset past tail must error");
  match
    Log.fold_chain log ~offsets:[ o1; o2 ] ~init:[] (fun acc _ t ->
        t.Record.tid :: acc)
  with
  | Ok tids -> Alcotest.(check (list int)) "chain in order" [ 2; 1 ] tids
  | Error e -> Alcotest.fail e

(* Satellite regression: a corrupt byte mid-log must surface as a torn
   verdict carrying the record's offset — never an assert crash — and
   the records before it must still decode. *)
let test_scan_corrupt_byte_reports_offset () =
  let d = Dev.create () in
  let log = Log.attach d in
  ignore (Log.append log (mk_txn ~tid:1 [ (0, 0, "aa") ]) : int);
  let o2 = Log.append log (mk_txn ~tid:2 [ (0, 8, "bb") ]) in
  ignore (Log.append log (mk_txn ~tid:3 [ (0, 16, "cc") ]) : int);
  Log.force log;
  Dev.write d ~off:(o2 + 9) (Bytes.of_string "\xff") ~pos:0 ~len:1;
  let txns, status = Log.read_all log in
  (match status with
  | Log.Torn_at (off, _why) ->
      Alcotest.(check int) "offset of the corrupt record" o2 off
  | Log.Clean -> Alcotest.fail "corruption not reported");
  Alcotest.(check (list int))
    "records before the corruption survive" [ 1 ]
    (List.map (fun t -> t.Record.tid) txns)

let test_region_index_tracks_log () =
  let d = Dev.create () in
  let log = Log.attach d in
  let o1 = Log.append log (mk_txn ~tid:1 ~locks:[ lock 3 1 0 ] [ (0, 0, "aa") ]) in
  let o2 = Log.append log (mk_txn ~tid:2 ~locks:[ lock 9 1 0 ] [ (1, 0, "bb") ]) in
  let o3 = Log.append log (mk_txn ~tid:3 ~locks:[ lock 3 2 1 ] [ (0, 8, "cc") ]) in
  Log.force log;
  let idx, status = Region_index.of_log log in
  Alcotest.(check bool) "clean" true (status = Log.Clean);
  let chains = Region_index.chains idx in
  Alcotest.(check (list (list int))) "two disjoint chains, log order"
    [ [ o1; o3 ]; [ o2 ] ] chains;
  Alcotest.(check (list (pair (list int) (list int))))
    "each chain names its locks and regions"
    [ ([ 3 ], [ 0 ]); ([ 9 ], [ 1 ]) ]
    (List.map
       (fun (c : Region_index.chain) -> (c.locks, c.regions))
       (Region_index.entries idx));
  (* Trim the first record and index again: its offset is gone. *)
  ignore (Log.set_head log o2 : int);
  let idx', status' = Region_index.of_log log in
  Alcotest.(check bool) "clean after trim" true (status' = Log.Clean);
  Alcotest.(check (list (list int))) "trimmed offset dropped"
    [ [ o2 ]; [ o3 ] ]
    (List.sort compare (Region_index.chains idx'))

(* A record with one key (a read-only acquire logs a lock-only record;
   a lockless record with no effect takes the catch-all key, which names
   no lock) has nothing to union, yet {!Region_index.entries} must still
   name its chain. *)
let test_region_index_single_key_records () =
  let d = Dev.create () in
  let log = Log.attach d in
  let o1 = Log.append log (mk_txn ~tid:1 ~locks:[ lock 0 1 0 ] []) in
  let o2 = Log.append log (mk_txn ~tid:2 []) in
  Log.force log;
  let idx, _status = Region_index.of_log log in
  Alcotest.(check (list (triple (list int) (list int) (list int))))
    "one chain per key"
    [ ([ 0 ], [], [ o1 ]); ([], [], [ o2 ]) ]
    (List.map
       (fun (c : Region_index.chain) -> (c.locks, c.regions, c.offsets))
       (Region_index.entries idx))

(* ------------------------------------------------------------------ *)
(* Command records (adaptive logging) *)

let mk_cmd_txn ?(node = 1) ?(tid = 7) ?(locks = []) ?(op = 901)
    ?(params = Bytes.of_string "\x01\x02\x03") ?(regions = [ 0 ]) () =
  {
    Record.node;
    tid;
    locks;
    ranges = [];
    cmd = Some { Record.op; params; cmd_regions = regions };
  }

let test_cmd_roundtrip () =
  let t =
    mk_cmd_txn ~node:3 ~tid:42 ~locks:[ lock 5 10 8 ] ~op:77
      ~params:(Bytes.of_string "some-params") ~regions:[ 2; 0 ] ()
  in
  let b = Record.encode t in
  Alcotest.(check int) "encoded_size matches" (Bytes.length b)
    (Record.encoded_size t);
  match Record.decode b ~pos:0 with
  | Record.Txn (t', next) ->
      Alcotest.check txn_testable "roundtrip" t t';
      Alcotest.(check int) "consumed all" (Bytes.length b) next
  | _ -> Alcotest.fail "cmd record did not decode"

let test_cmd_rejects_ranges () =
  let t =
    {
      (mk_cmd_txn ()) with
      Record.ranges =
        [ { Record.region = 0; offset = 0; data = Bytes.of_string "x" } ];
    }
  in
  Alcotest.(check bool) "ranges + cmd rejected" true
    (try
       ignore (Record.encode t);
       false
     with Invalid_argument _ -> true)

(* A CRC-sealed "LBCC" record whose lock count is a 9-byte varint with
   bit 62 set (negative): the body parser must answer Torn. *)
let test_cmd_negative_count_is_torn () =
  let negative = "\x80\x80\x80\x80\x80\x80\x80\x80\x40" in
  (* node (u16), tid (u64), then the lock count *)
  let body = "\x00\x00" ^ String.make 8 '\x00' ^ negative in
  let total = 8 + String.length body + 4 in
  let b = Bytes.create total in
  Bytes.set_int32_le b 0 0x4C424343l (* "LBCC" *);
  Bytes.set_int32_le b 4 (Int32.of_int total);
  Bytes.blit_string body 0 b 8 (String.length body);
  Bytes.set_int32_le b (total - 4)
    (Lbc_util.Crc32.bytes b ~pos:0 ~len:(total - 4));
  match Record.decode b ~pos:0 with
  | Record.Torn _ -> ()
  | _ -> Alcotest.fail "negative lock count not Torn"

let test_cmd_corrupt_is_torn () =
  let b = Record.encode (mk_cmd_txn ()) in
  let i = Bytes.length b - 6 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
  (match Record.decode b ~pos:0 with
  | Record.Torn _ -> ()
  | _ -> Alcotest.fail "expected Torn (bad crc)");
  let b = Record.encode (mk_cmd_txn ()) in
  let cut = Bytes.sub b 0 (Bytes.length b - 3) in
  match Record.decode cut ~pos:0 with
  | Record.Torn _ -> ()
  | _ -> Alcotest.fail "expected Torn (truncated)"

let test_cmd_write_and_regions () =
  let c = mk_cmd_txn ~regions:[ 4; 1; 4; 0 ] () in
  Alcotest.(check bool) "cmd is a write" true (Record.is_write c);
  Alcotest.(check (list int)) "regions dedup + sort" [ 0; 1; 4 ]
    (Record.regions c);
  let v = mk_txn [ (2, 0, "v"); (0, 8, "w"); (2, 16, "x") ] in
  Alcotest.(check bool) "value record is a write" true (Record.is_write v);
  Alcotest.(check (list int)) "value regions" [ 0; 2 ] (Record.regions v);
  Alcotest.(check bool) "read-only acquire is not a write" false
    (Record.is_write (mk_txn ~locks:[ lock 1 1 0 ] []))

let test_cmd_in_log () =
  (* Value and command records interleave in one log and survive a
     crash like any forced record. *)
  let d = Dev.create () in
  let log = Log.attach d in
  ignore (Log.append log (mk_txn ~tid:1 [ (0, 0, "aa") ]) : int);
  ignore (Log.append log (mk_cmd_txn ~tid:2 ()) : int);
  ignore (Log.append log (mk_txn ~tid:3 [ (0, 8, "bb") ]) : int);
  Log.force log;
  Dev.crash d;
  let log' = Log.attach d in
  let txns, status = Log.read_all log' in
  Alcotest.(check bool) "clean" true (status = Log.Clean);
  Alcotest.(check (list int)) "all three records" [ 1; 2; 3 ]
    (List.map (fun t -> t.Record.tid) txns);
  Alcotest.(check bool) "cmd survived" true
    ((List.nth txns 1).Record.cmd <> None)

let test_region_index_cmd_chains () =
  (* Command records feed the replay-partition index through the same
     region keys a value record derives from its ranges. *)
  let d = Dev.create () in
  let log = Log.attach d in
  let o1 = Log.append log (mk_txn ~tid:1 [ (0, 0, "aa") ]) in
  let o2 = Log.append log (mk_cmd_txn ~tid:2 ~regions:[ 1 ] ()) in
  let o3 = Log.append log (mk_cmd_txn ~tid:3 ~regions:[ 0 ] ()) in
  Log.force log;
  let idx, status = Region_index.of_log log in
  Alcotest.(check bool) "clean" true (status = Log.Clean);
  Alcotest.(check (list (list int)))
    "cmds chain by region" [ [ o1; o3 ]; [ o2 ] ]
    (Region_index.chains idx)

(* The same transactions the CMD golden generator used: the command
   framing (magic, varint layout, trailing CRC) is pinned byte-for-byte. *)
let golden_cmd_txns =
  let open Record in
  [
    ( "c1",
      { node = 0; tid = 1;
        locks = [ { lock_id = 0; seqno = 1; prev_write_seq = 0 } ];
        ranges = [];
        cmd =
          Some
            { op = 1; params = Bytes.of_string "hello world!";
              cmd_regions = [ 0 ] };
      } );
    ( "c2",
      { node = 3; tid = 200;
        locks =
          [
            { lock_id = 7; seqno = 300; prev_write_seq = 299 };
            { lock_id = 150; seqno = 2; prev_write_seq = 0 };
          ];
        ranges = [];
        cmd =
          Some
            { op = 12345; params = Bytes.make 40 '\x5a';
              cmd_regions = [ 2; 5; 100 ] };
      } );
    (* degenerate: no locks, empty params, no regions *)
    ( "c3",
      { node = 65535; tid = 1_000_000; locks = []; ranges = [];
        cmd = Some { op = 0; params = Bytes.empty; cmd_regions = [] };
      } );
  ]

let test_cmd_golden () =
  List.iter
    (fun (name, t) ->
      Alcotest.(check string)
        (name ^ " command framing is byte-stable")
        (golden "CMD" name)
        (hex_of_bytes (Record.encode t));
      match Record.decode (bytes_of_hex (golden "CMD" name)) ~pos:0 with
      | Record.Txn (t', _) ->
          Alcotest.check txn_testable (name ^ " golden decodes") t t'
      | _ -> Alcotest.fail (name ^ ": golden cmd record did not decode"))
    golden_cmd_txns

let gen_cmd_txn =
  let open QCheck.Gen in
  let gen_lock =
    map
      (fun (a, b, c) -> lock a (b + 1) c)
      (triple (int_bound 500) (int_bound 1000) (int_bound 1000))
  in
  map
    (fun (node, tid, locks, (op, params, regions)) ->
      {
        Record.node;
        tid;
        locks;
        ranges = [];
        cmd =
          Some
            { Record.op; params = Bytes.of_string params;
              cmd_regions = regions };
      })
    (quad (int_bound 100) (int_bound 10_000) (list_size (0 -- 5) gen_lock)
       (triple (int_bound 100_000)
          (string_size ~gen:printable (0 -- 64))
          (list_size (0 -- 4) (int_bound 7))))

let prop_cmd_roundtrip =
  QCheck.Test.make ~name:"cmd record roundtrip (random)" ~count:300
    (QCheck.make gen_cmd_txn) (fun t ->
      let b = Record.encode t in
      Bytes.length b = Record.encoded_size t
      &&
      match Record.decode b ~pos:0 with
      | Record.Txn (t', next) ->
          Record.equal_txn t t' && next = Bytes.length b
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Command registry *)

(* Replay through the one apply routine into a single image that every
   region id resolves to. *)
let apply_to img txn =
  Command.apply txn
    ~resolve:(fun _ -> Some img)
    ~mem:(fun b -> Lbc_util.Mem.of_bytes b)
    ~store:(fun b (r : Record.range) ->
      Bytes.blit r.data 0 b r.offset (Bytes.length r.data))

let test_command_registry () =
  let nop _ ~params:_ = () in
  Command.register ~op:910 ~name:"test-nop" nop;
  Alcotest.(check bool) "registered" true (Command.registered 910);
  Alcotest.(check (option string)) "name" (Some "test-nop")
    (Command.name 910);
  (* Re-registering the same op/name pair is idempotent... *)
  Command.register ~op:910 ~name:"test-nop" nop;
  Alcotest.(check bool) "still registered" true (Command.registered 910);
  (* ...but a different name claiming the id is a wiring bug. *)
  Alcotest.(check bool) "conflicting name rejected" true
    (try
       Command.register ~op:910 ~name:"impostor" nop;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "unregistered op" false (Command.registered 911);
  Alcotest.(check (option string)) "no name" None (Command.name 911)

let test_command_unknown_op () =
  Alcotest.(check bool) "apply raises Unknown_op" true
    (try
       ignore (apply_to (Bytes.make 64 '\000') (mk_cmd_txn ~op:912 ()) : int);
       false
     with Command.Unknown_op 912 -> true)

let test_command_apply_dispatch () =
  let img = Bytes.make 32 '\000' in
  (* A value record's ranges are blitted... *)
  ignore (apply_to img (mk_txn [ (0, 4, "val!") ]) : int);
  Alcotest.(check string) "value blit" "val!" (Bytes.sub_string img 4 4);
  (* ...a command record's registered body runs. *)
  Command.register ~op:913 ~name:"test-stamp" (fun m ~params ->
      Lbc_util.Mem.write (m ~region:0) ~offset:20 params);
  ignore
    (apply_to img (mk_cmd_txn ~op:913 ~params:(Bytes.of_string "CMD") ())
      : int);
  Alcotest.(check string) "command executed" "CMD"
    (Bytes.sub_string img 20 3)

let test_log_mode_names () =
  List.iter
    (fun m ->
      Alcotest.(check (option string)) "mode name roundtrips"
        (Some (Command.log_mode_name m))
        (Option.map Command.log_mode_name
           (Command.log_mode_of_name (Command.log_mode_name m))))
    [ Command.Value; Command.Command; Command.Adaptive ];
  Alcotest.(check bool) "unknown mode" true
    (Command.log_mode_of_name "bogus" = None)

(* ------------------------------------------------------------------ *)
(* The record decoder under hostile bytes *)

(* One record of each kind the log holds, and the bytes of a checkpoint
   marker a version-1 log could hold.  Each case overwrites 1-4 bytes of
   a record's body (between the total-length field and the CRC) with a
   random, high-bit or small value, may cut the body short, re-frames it
   with a fresh total and CRC so the body parser runs, and may then cut
   the whole image at random.  [Record.decode_slice] must answer [Txn],
   [End] or [Torn], raise nothing, and allocate under 64 KiB; the
   marker's "LBCK" magic is no record, so any of its bytes answer
   [Torn] (an empty window is [End]).  The image ends its buffer, so a
   word read past the record's end raises rather than reading a
   neighbour. *)
let hostile_records =
  [|
    Record.encode
      (mk_txn ~node:3 ~tid:0x1234_5678_9A
         ~locks:[ lock 5 10 8; lock 300 70_000 69_999 ]
         [ (0, 100, "hello"); (2, 1 lsl 40, "world!!!"); (2, 9, "") ]);
    Record.encode
      (mk_cmd_txn ~tid:99 ~locks:[ lock 4 17 12 ] ~regions:[ 0; 2; 300 ] ());
    Bytes.of_string
      "KCBL\x17\x00\x00\x00\x01\x02\x00\x07\x00\x00\x00\x00\x00\x00\x00\xd9\x55\x07\x7d";
  |]

let v1_marker = 2

let reframe image body =
  let n = Bytes.length body + 12 in
  let b = Bytes.create n in
  Bytes.blit image 0 b 0 4;
  Bytes.set_int32_le b 4 (Int32.of_int n);
  Bytes.blit body 0 b 8 (Bytes.length body);
  Bytes.set_int32_le b (n - 4) (Lbc_util.Crc32.bytes b ~pos:0 ~len:(n - 4));
  b

let prop_decode_hostile =
  let gen =
    QCheck.Gen.(
      int_bound (Array.length hostile_records - 1) >>= fun i ->
      let body = Bytes.length hostile_records.(i) - 12 in
      let value =
        oneof [ int_bound 255; map (( lor ) 0x80) (int_bound 127); int_bound 3 ]
      in
      oneof [ return body; int_bound body ] >>= fun keep ->
      quad (return i)
        (list_size (1 -- 4) (pair (int_bound body) value))
        (return keep)
        (oneof [ return (keep + 12); int_bound (keep + 12) ]))
  in
  let print (i, edits, keep, cut) =
    Printf.sprintf "record %d, edits [%s], body kept %d, cut %d" i
      (String.concat ";"
         (List.map (fun (p, v) -> Printf.sprintf "%d:=%d" p v) edits))
      keep cut
  in
  QCheck.Test.make ~name:"decode_slice of hostile records answers"
    ~count:10_000 (QCheck.make ~print gen) (fun (i, edits, keep, cut) ->
      let image = hostile_records.(i) in
      let body = Bytes.sub image 8 (Bytes.length image - 12) in
      List.iter
        (fun (p, v) -> if p < Bytes.length body then Bytes.set_uint8 body p v)
        edits;
      let framed = reframe image (Bytes.sub body 0 keep) in
      (* A window one byte into its buffer, ending where the buffer does. *)
      let b = Bytes.cat (Bytes.of_string "#") (Bytes.sub framed 0 cut) in
      let s = Lbc_util.Slice.of_bytes b ~pos:1 ~len:cut in
      Gc.minor ();
      let before = Gc.allocated_bytes () in
      match Record.decode_slice s ~pos:0 with
      | (Record.Txn _ | Record.End) when i = v1_marker && cut > 0 -> false
      | Record.Txn _ | Record.End | Record.Torn _ ->
          Gc.allocated_bytes () -. before < 65536.0)

let suites =
  [
    ( "wal.record",
      [
        Alcotest.test_case "roundtrip" `Quick test_record_roundtrip;
        Alcotest.test_case "empty txn" `Quick test_record_empty;
        Alcotest.test_case "encoded_size" `Quick test_record_encoded_size;
        Alcotest.test_case "header padding" `Quick test_record_header_padding;
        Alcotest.test_case "zeros = End" `Quick test_record_decode_zeros_is_end;
        Alcotest.test_case "corrupt = Torn" `Quick
          test_record_decode_corrupt_is_torn;
        Alcotest.test_case "garbage = Torn" `Quick test_record_garbage_is_torn;
        Alcotest.test_case "golden vectors" `Quick test_record_golden;
        QCheck_alcotest.to_alcotest prop_record_roundtrip;
        QCheck_alcotest.to_alcotest prop_records_concatenate;
        QCheck_alcotest.to_alcotest prop_encode_into_appends;
      ] );
    ( "wal.log",
      [
        Alcotest.test_case "fresh attach" `Quick test_log_fresh_attach;
        Alcotest.test_case "append/read" `Quick test_log_append_read;
        Alcotest.test_case "force survives crash" `Quick
          test_log_force_survives_crash;
        Alcotest.test_case "torn tail ignored" `Quick test_log_torn_tail_ignored;
        Alcotest.test_case "trim" `Quick test_log_trim;
        Alcotest.test_case "bad device" `Quick test_log_bad_device;
        Alcotest.test_case "head with its top bit set" `Quick
          test_log_head_top_bit;
        Alcotest.test_case "version 1 refused" `Quick test_log_v1_refused;
        Alcotest.test_case "fold offsets" `Quick test_log_fold_offsets;
        Alcotest.test_case "windowed scan: multi-window log" `Quick
          test_scan_windowed_large_log;
        Alcotest.test_case "windowed scan: record > window" `Quick
          test_scan_record_larger_than_window;
        Alcotest.test_case "set_head clamps to low water" `Quick
          test_set_head_clamps_to_low_water;
        Alcotest.test_case "read_at / fold_chain" `Quick test_read_at;
        Alcotest.test_case "corrupt byte mid-log reports offset" `Quick
          test_scan_corrupt_byte_reports_offset;
        Alcotest.test_case "region index tracks log" `Quick
          test_region_index_tracks_log;
        Alcotest.test_case "region index single-key records" `Quick
          test_region_index_single_key_records;
      ] );
    ( "wal.cmd",
      [
        Alcotest.test_case "cmd roundtrip" `Quick test_cmd_roundtrip;
        Alcotest.test_case "ranges + cmd rejected" `Quick
          test_cmd_rejects_ranges;
        Alcotest.test_case "corrupt cmd = Torn" `Quick test_cmd_corrupt_is_torn;
        Alcotest.test_case "negative count = Torn" `Quick
          test_cmd_negative_count_is_torn;
        Alcotest.test_case "is_write / regions" `Quick
          test_cmd_write_and_regions;
        Alcotest.test_case "cmd interleaves in log" `Quick test_cmd_in_log;
        Alcotest.test_case "region index chains cmds" `Quick
          test_region_index_cmd_chains;
        Alcotest.test_case "cmd golden vectors" `Quick test_cmd_golden;
        Alcotest.test_case "registry" `Quick test_command_registry;
        Alcotest.test_case "unknown op" `Quick test_command_unknown_op;
        Alcotest.test_case "apply dispatch" `Quick test_command_apply_dispatch;
        Alcotest.test_case "log-mode names" `Quick test_log_mode_names;
        QCheck_alcotest.to_alcotest prop_cmd_roundtrip;
      ] );
    ( "wal.decode", [ QCheck_alcotest.to_alcotest prop_decode_hostile ] );
    ( "wal.append", [ QCheck_alcotest.to_alcotest prop_concurrent_appends ] );
  ]
