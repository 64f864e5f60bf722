(* Integration tests for log-based coherency: wire format, propagation,
   ordering interlock, lazy mode, log merge, distributed recovery. *)

open Lbc_core

let check_int = Alcotest.(check int)
let check_i64 = Alcotest.(check int64)

let region = 0
let lock = 0

let mk ?(config = Config.default) ?(nodes = 2) ?(region_size = 4096) () =
  let c = Cluster.create ~config ~nodes () in
  Cluster.add_region c ~id:region ~size:region_size;
  Cluster.map_region_all c ~region;
  c

(* A counter stored as a u64 at a fixed offset, updated under the lock. *)
let increment node ~offset =
  let txn = Node.Txn.begin_ node in
  Node.Txn.acquire txn lock;
  let v = Node.Txn.get_u64 txn ~region ~offset in
  Node.Txn.set_u64 txn ~region ~offset (Int64.add v 1L);
  Node.Txn.commit txn

(* ------------------------------------------------------------------ *)
(* Wire format *)

let wire_txn =
  {
    Lbc_wal.Record.node = 2;
    tid = 99;
    locks = [ { Lbc_wal.Record.lock_id = 4; seqno = 17; prev_write_seq = 12 } ];
    ranges =
      [
        { Lbc_wal.Record.region = 0; offset = 1000; data = Bytes.of_string "abcd" };
        { Lbc_wal.Record.region = 0; offset = 5000; data = Bytes.of_string "efgh" };
        { Lbc_wal.Record.region = 1; offset = 64; data = Bytes.of_string "Z" };
      ];
    cmd = None;
  }

let test_wire_roundtrip () =
  let b = Wire.encode wire_txn in
  let t' = Wire.decode b in
  Alcotest.(check bool) "roundtrip" true (Lbc_wal.Record.equal_txn wire_txn t')

let test_wire_compression () =
  let compressed = Wire.size wire_txn in
  let full = Wire.size_uncompressed wire_txn in
  Alcotest.(check bool)
    (Printf.sprintf "compressed (%d) much smaller than full headers (%d)"
       compressed full)
    true
    (compressed * 3 < full);
  (* Per-range header overhead must be in the paper's 4-24 byte window
     (ours: tag + varint delta + varint size, plus the message header). *)
  let per_range =
    float_of_int (Wire.header_overhead wire_txn) /. 3.0
  in
  Alcotest.(check bool)
    (Printf.sprintf "per-range overhead %.1f in [2,24]" per_range)
    true
    (per_range >= 2.0 && per_range <= 24.0)

let prop_wire_roundtrip =
  let gen =
    QCheck.Gen.(
      let range =
        map
          (fun (region, offset, s) ->
            { Lbc_wal.Record.region; offset; data = Bytes.of_string s })
          (triple (int_bound 2) (int_bound 100_000)
             (string_size ~gen:printable (1 -- 16)))
      in
      let lockinfo =
        map
          (fun (l, s, p) ->
            { Lbc_wal.Record.lock_id = l; seqno = s + 1; prev_write_seq = p })
          (triple (int_bound 50) (int_bound 500) (int_bound 500))
      in
      map
        (fun (node, tid, locks, ranges) ->
          (* The wire format sorts ranges; sort here so equality holds, and
             drop duplicate (region,offset) keys as RVM would have
             coalesced them. *)
          let cmp a b =
            compare
              (a.Lbc_wal.Record.region, a.Lbc_wal.Record.offset)
              (b.Lbc_wal.Record.region, b.Lbc_wal.Record.offset)
          in
          let ranges =
            List.sort_uniq
              (fun a b ->
                let c = cmp a b in
                if c <> 0 then c else 0)
              ranges
          in
          { Lbc_wal.Record.node; tid; locks; ranges; cmd = None })
        (quad (int_bound 30) (int_bound 10_000) (list_size (0 -- 4) lockinfo)
           (list_size (0 -- 10) range)))
  in
  QCheck.Test.make ~name:"wire roundtrip (random)" ~count:300 (QCheck.make gen)
    (fun t ->
      Lbc_wal.Record.equal_txn t (Wire.decode (Wire.encode t)))

let test_wire_golden () =
  (* Byte-identity with the pre-slice encoder (vectors generated before
     the refactor; transactions defined in Test_wal). *)
  List.iter
    (fun (name, t) ->
      Alcotest.(check string)
        (name ^ " encodes to the pre-refactor wire bytes")
        (Test_wal.golden "WIRE" name)
        (Test_wal.hex_of_bytes (Wire.encode t));
      let from_golden =
        Wire.decode (Test_wal.bytes_of_hex (Test_wal.golden "WIRE" name))
      in
      (* The wire sorts ranges; compare against the decoded shape. *)
      Alcotest.(check bool)
        (name ^ " golden decodes to the transaction")
        true
        (Lbc_wal.Record.equal_txn from_golden (Wire.decode (Wire.encode t))))
    Test_wal.golden_txns

let prop_wire_iov_identity =
  QCheck.Test.make ~name:"concat(encode_iov) = encode, decode_iov roundtrips"
    ~count:300
    (QCheck.make Test_wal.gen_txn)
    (fun t ->
      let iov = Wire.encode_iov t in
      let flat = Wire.encode t in
      Bytes.equal (Lbc_util.Slice.concat iov) flat
      && Lbc_wal.Record.equal_txn (Wire.decode flat) (Wire.decode_iov iov)
      && Lbc_util.Slice.iov_length iov = Wire.size t)

(* ------------------------------------------------------------------ *)
(* Eager propagation *)

let test_update_propagates () =
  let c = mk () in
  Cluster.spawn c ~node:0 (fun node ->
      let txn = Node.Txn.begin_ node in
      Node.Txn.acquire txn lock;
      Node.Txn.write txn ~region ~offset:128 (Bytes.of_string "hello peer");
      Node.Txn.commit txn);
  Cluster.run c;
  Alcotest.(check string) "peer cache updated" "hello peer"
    (Bytes.to_string (Node.read (Cluster.node c 1) ~region ~offset:128 ~len:10));
  check_int "peer applied seq" 1 (Node.applied_seq (Cluster.node c 1) lock)

let test_counter_three_nodes () =
  let c = mk ~nodes:3 () in
  for n = 0 to 2 do
    Cluster.spawn c ~node:n (fun node ->
        for _ = 1 to 10 do
          increment node ~offset:0
        done)
  done;
  Cluster.run c;
  for n = 0 to 2 do
    check_i64
      (Printf.sprintf "node %d sees 30" n)
      30L
      (Node.get_u64 (Cluster.node c n) ~region ~offset:0)
  done;
  (* All caches identical, nothing left pending. *)
  for n = 0 to 2 do
    check_int "no pending" 0 (Node.pending_count (Cluster.node c n))
  done

let test_interlock_token_overtakes_updates () =
  (* Commit releases the lock (token may fly) before broadcasting the
     update, so a waiting peer's acquire must block on the interlock. *)
  let c = mk () in
  Cluster.spawn c ~node:0 (fun node ->
      let txn = Node.Txn.begin_ node in
      Node.Txn.acquire txn lock;
      Node.Txn.set_u64 txn ~region ~offset:0 7L;
      (* Give node 1 time to enqueue its request so the token is passed
         directly from the release path. *)
      Lbc_sim.Proc.sleep 100.0;
      Node.Txn.commit txn);
  let seen = ref 0L in
  Cluster.spawn c ~node:1 (fun node ->
      Lbc_sim.Proc.sleep 10.0;
      let txn = Node.Txn.begin_ node in
      Node.Txn.acquire txn lock;
      seen := Node.Txn.get_u64 txn ~region ~offset:0;
      Node.Txn.commit txn);
  Cluster.run c;
  check_i64 "reader saw the write" 7L !seen;
  check_int "interlock engaged" 1 (Node.stats (Cluster.node c 1)).Node.interlock_waits

let test_out_of_order_updates_held () =
  (* Three nodes, writes chained 0 -> 1 -> 2 ... node 2 receives node 1's
     update on a different channel than node 0's and may have to hold it. *)
  let c = mk ~nodes:3 () in
  let chain = Lbc_sim.Mailbox.create () in
  Cluster.spawn c ~node:0 (fun node ->
      let txn = Node.Txn.begin_ node in
      Node.Txn.acquire txn lock;
      Node.Txn.write txn ~region ~offset:0 (Bytes.of_string "A");
      Node.Txn.commit txn;
      Lbc_sim.Mailbox.send chain ());
  Cluster.spawn c ~node:1 (fun node ->
      Lbc_sim.Mailbox.recv chain;
      let txn = Node.Txn.begin_ node in
      Node.Txn.acquire txn lock;
      Node.Txn.write txn ~region ~offset:1 (Bytes.of_string "B");
      Node.Txn.commit txn);
  Cluster.run c;
  let n2 = Cluster.node c 2 in
  Alcotest.(check string) "both updates applied in order" "AB"
    (Bytes.to_string (Node.read n2 ~region ~offset:0 ~len:2));
  check_int "nothing pending" 0 (Node.pending_count n2)

let test_fine_grained_updates_coarse_lock () =
  (* The paper's headline: coarse-grain locks, fine-grain coherency.  The
     whole 4 KB region is under one lock but only the modified bytes
     travel. *)
  let c = mk () in
  Cluster.spawn c ~node:0 (fun node ->
      let txn = Node.Txn.begin_ node in
      Node.Txn.acquire txn lock;
      Node.Txn.set_u64 txn ~region ~offset:0 1L;
      Node.Txn.commit txn);
  Cluster.run c;
  let st = Node.stats (Cluster.node c 0) in
  check_int "one update message" 1 st.Node.updates_sent;
  Alcotest.(check bool)
    (Printf.sprintf "message is tiny (%d bytes), not the 4 KB segment"
       st.Node.update_bytes_sent)
    true
    (st.Node.update_bytes_sent < 64)

let test_no_broadcast_for_readonly () =
  let c = mk () in
  Cluster.spawn c ~node:0 (fun node ->
      let txn = Node.Txn.begin_ node in
      Node.Txn.acquire txn lock;
      ignore (Node.Txn.get_u64 txn ~region ~offset:0);
      Node.Txn.commit txn);
  Cluster.run c;
  check_int "no update traffic" 0 (Node.stats (Cluster.node c 0)).Node.updates_sent

let test_update_only_to_mapping_peers () =
  let c = Cluster.create ~nodes:3 () in
  Cluster.add_region c ~id:region ~size:1024;
  ignore (Cluster.map_region c ~node:0 ~region);
  ignore (Cluster.map_region c ~node:2 ~region);
  (* node 1 does not map the region and must not receive updates *)
  Cluster.spawn c ~node:0 (fun node ->
      let txn = Node.Txn.begin_ node in
      Node.Txn.acquire txn lock;
      Node.Txn.set_u64 txn ~region ~offset:0 5L;
      Node.Txn.commit txn);
  Cluster.run c;
  check_int "one peer only" 1 (Node.stats (Cluster.node c 0)).Node.updates_sent;
  check_int "node2 received" 1 (Node.stats (Cluster.node c 2)).Node.records_received;
  check_int "node1 received nothing" 0
    (Node.stats (Cluster.node c 1)).Node.records_received

let test_abort_propagates_nothing () =
  let c = mk () in
  Cluster.spawn c ~node:0 (fun node ->
      let txn = Node.Txn.begin_ node in
      Node.Txn.acquire txn lock;
      Node.Txn.write txn ~region ~offset:0 (Bytes.of_string "oops");
      Node.Txn.abort txn);
  Cluster.spawn c ~node:1 (fun node ->
      Lbc_sim.Proc.sleep 50.0;
      (* The lock must be acquirable again after the abort. *)
      let txn = Node.Txn.begin_ node in
      Node.Txn.acquire txn lock;
      Node.Txn.commit txn);
  Cluster.run c;
  check_int "no updates sent" 0 (Node.stats (Cluster.node c 0)).Node.updates_sent;
  Alcotest.(check string) "writer's own cache rolled back" "\000\000\000\000"
    (Bytes.to_string (Node.read (Cluster.node c 0) ~region ~offset:0 ~len:4))

(* ------------------------------------------------------------------ *)
(* Lazy propagation (Section 2.2 extension) *)

let lazy_config = { Config.default with Config.propagation = Config.Lazy }

let test_lazy_no_eager_traffic () =
  let c = mk ~config:lazy_config () in
  Cluster.spawn c ~node:0 (fun node ->
      let txn = Node.Txn.begin_ node in
      Node.Txn.acquire txn lock;
      Node.Txn.set_u64 txn ~region ~offset:0 11L;
      Node.Txn.commit txn);
  Cluster.run c;
  check_int "no update messages" 0 (Node.stats (Cluster.node c 0)).Node.updates_sent;
  Alcotest.(check bool) "writer retained the record" true
    (Node.retained_count (Cluster.node c 0) > 0);
  (* Peer cache is stale — by design, until it acquires. *)
  check_i64 "peer stale" 0L (Node.get_u64 (Cluster.node c 1) ~region ~offset:0)

let test_lazy_fetch_on_acquire () =
  let c = mk ~config:lazy_config () in
  Cluster.spawn c ~node:0 (fun node ->
      for _ = 1 to 3 do
        increment node ~offset:0
      done);
  Cluster.spawn c ~node:1 (fun node ->
      Lbc_sim.Proc.sleep 500.0;
      let txn = Node.Txn.begin_ node in
      Node.Txn.acquire txn lock;
      Alcotest.(check int64) "reader caught up on acquire" 3L
        (Node.Txn.get_u64 txn ~region ~offset:0);
      Node.Txn.commit txn);
  Cluster.run c;
  let st = Node.stats (Cluster.node c 1) in
  check_int "one fetch" 1 st.Node.fetches_sent;
  check_int "three records fetched" 3 st.Node.records_fetched

let test_lazy_chain_through_writers () =
  (* 0 writes, 1 writes (fetching 0's update first), then 2 fetches from 1
     and must receive the whole chain. *)
  let c = mk ~config:lazy_config ~nodes:3 () in
  let step = Lbc_sim.Mailbox.create () in
  Cluster.spawn c ~node:0 (fun node ->
      increment node ~offset:0;
      Lbc_sim.Mailbox.send step ());
  Cluster.spawn c ~node:1 (fun node ->
      Lbc_sim.Mailbox.recv step;
      increment node ~offset:0;
      Lbc_sim.Mailbox.send step ());
  Cluster.spawn c ~node:2 (fun node ->
      Lbc_sim.Mailbox.recv step;
      let txn = Node.Txn.begin_ node in
      Node.Txn.acquire txn lock;
      Alcotest.(check int64) "chain complete" 2L
        (Node.Txn.get_u64 txn ~region ~offset:0);
      Node.Txn.commit txn);
  Cluster.run c;
  check_int "no eager updates anywhere" 0
    ((Node.stats (Cluster.node c 0)).Node.updates_sent
    + (Node.stats (Cluster.node c 1)).Node.updates_sent)

let test_lazy_multilock_falls_back_to_eager () =
  let c = mk ~config:lazy_config () in
  Cluster.spawn c ~node:0 (fun node ->
      let txn = Node.Txn.begin_ node in
      Node.Txn.acquire txn 0;
      Node.Txn.acquire txn 1;
      Node.Txn.set_u64 txn ~region ~offset:0 4L;
      Node.Txn.set_u64 txn ~region ~offset:64 5L;
      Node.Txn.commit txn);
  Cluster.run c;
  check_int "multi-lock record broadcast" 1
    (Node.stats (Cluster.node c 0)).Node.updates_sent;
  check_i64 "peer updated" 4L (Node.get_u64 (Cluster.node c 1) ~region ~offset:0)

(* ------------------------------------------------------------------ *)
(* Merge + distributed recovery *)

let test_merge_orders_by_lock_seq () =
  let mk_txn node tid seqno prev ranges =
    {
      Lbc_wal.Record.node;
      tid;
      locks = [ { Lbc_wal.Record.lock_id = 0; seqno; prev_write_seq = prev } ];
      ranges;
      cmd = None;
    }
  in
  (* Node 0 committed seq 1 and 3; node 1 committed seq 2. *)
  let log0 = [ mk_txn 0 1 1 0 []; mk_txn 0 2 3 2 [] ] in
  let log1 = [ mk_txn 1 1 2 1 [] ] in
  match Merge.merge_records [ log0; log1 ] with
  | Error _ -> Alcotest.fail "merge failed"
  | Ok merged ->
      Alcotest.(check (list (pair int int)))
        "interleaved by sequence number"
        [ (0, 1); (1, 2); (0, 3) ]
        (List.map
           (fun (t : Lbc_wal.Record.txn) ->
             (t.Lbc_wal.Record.node, t.Lbc_wal.Record.tid))
           merged
        |> List.map2
             (fun seq (node, _) -> (node, seq))
             [ 1; 2; 3 ])

let test_merge_unorderable () =
  let t node seqno =
    {
      Lbc_wal.Record.node;
      tid = 1;
      locks = [ { Lbc_wal.Record.lock_id = 0; seqno; prev_write_seq = 0 } ];
      ranges = [];
      cmd = None;
    }
  in
  (* Node 0's log has seq 2 then 1 — impossible under 2PL. *)
  (match Merge.merge_records [ [ t 0 2; t 0 1 ] ] with
  | Error (Merge.Unorderable _) -> ()
  | Ok _ -> Alcotest.fail "expected Unorderable")

(* ------------------------------------------------------------------ *)
(* Partitioning for parallel replay *)

let ptxn ?(node = 0) ~tid ~locks ~regions () =
  {
    Lbc_wal.Record.node;
    tid;
    locks =
      List.map
        (fun (l, s) ->
          { Lbc_wal.Record.lock_id = l; seqno = s; prev_write_seq = 0 })
        locks;
    ranges =
      List.map
        (fun r ->
          { Lbc_wal.Record.region = r; offset = 0; data = Bytes.of_string "d" })
        regions;
    cmd = None;
  }

let tids stream = List.map (fun (t : Lbc_wal.Record.txn) -> t.Lbc_wal.Record.tid) stream

let test_partition_disjoint_streams () =
  (* Two independent lock/region families: two streams, order kept. *)
  let records =
    [
      ptxn ~tid:1 ~locks:[ (0, 1) ] ~regions:[ 0 ] ();
      ptxn ~tid:2 ~locks:[ (1, 1) ] ~regions:[ 1 ] ();
      ptxn ~tid:3 ~locks:[ (0, 2) ] ~regions:[ 0 ] ();
      ptxn ~tid:4 ~locks:[ (1, 2) ] ~regions:[ 1 ] ();
    ]
  in
  Alcotest.(check (list (list int)))
    "two streams in first-appearance order, input order within"
    [ [ 1; 3 ]; [ 2; 4 ] ]
    (List.map tids (Merge.partition records))

let test_partition_region_joins_locks () =
  (* Distinct locks writing one region must share a stream: replaying
     them concurrently could reorder overlapping writes. *)
  let records =
    [
      ptxn ~tid:1 ~locks:[ (0, 1) ] ~regions:[ 7 ] ();
      ptxn ~tid:2 ~locks:[ (1, 1) ] ~regions:[ 7 ] ();
    ]
  in
  Alcotest.(check (list (list int)))
    "one stream" [ [ 1; 2 ] ]
    (List.map tids (Merge.partition records))

let test_partition_transitive_closure () =
  (* t2 bridges lock 0 and lock 1; all three collapse into one stream
     even though t1 and t3 share nothing directly. *)
  let records =
    [
      ptxn ~tid:1 ~locks:[ (0, 1) ] ~regions:[ 0 ] ();
      ptxn ~tid:2 ~locks:[ (0, 2); (1, 1) ] ~regions:[ 0; 1 ] ();
      ptxn ~tid:3 ~locks:[ (1, 2) ] ~regions:[ 1 ] ();
    ]
  in
  Alcotest.(check (list (list int)))
    "transitive closure is one stream" [ [ 1; 2; 3 ] ]
    (List.map tids (Merge.partition records))

let test_partition_preserves_all_records () =
  (* Whatever the shape, partitioning is a permutation: every record in
     exactly one stream, each stream a subsequence of the input. *)
  let records =
    List.init 20 (fun i ->
        ptxn ~tid:i
          ~locks:[ (i mod 3, (i / 3) + 1) ]
          ~regions:[ i mod 3 ] ())
  in
  let streams = Merge.partition records in
  check_int "record count preserved" 20
    (List.fold_left (fun a s -> a + List.length s) 0 streams);
  check_int "three lock families" 3 (List.length streams);
  List.iter
    (fun stream ->
      let rec subsequence xs ys =
        match (xs, ys) with
        | [], _ -> true
        | _, [] -> false
        | x :: xt, y :: yt ->
            if x = y then subsequence xt yt else subsequence xs yt
      in
      Alcotest.(check bool) "stream is a subsequence of the input" true
        (subsequence (tids stream) (tids records)))
    streams

let test_partition_empty_and_keyless () =
  Alcotest.(check (list (list int))) "empty input" []
    (List.map tids (Merge.partition []));
  (* Records with no locks and no ranges share one catch-all stream. *)
  let records =
    [ ptxn ~tid:1 ~locks:[] ~regions:[] (); ptxn ~tid:2 ~locks:[] ~regions:[] () ]
  in
  Alcotest.(check (list (list int)))
    "keyless records stay together (and ordered)" [ [ 1; 2 ] ]
    (List.map tids (Merge.partition records))

(* The region index a rejoin builds from its log partitions the live
   records exactly as [Merge.partition] does, after random appends and a
   trim at a random record boundary: a trimmed record that linked two
   chains no longer joins them. *)
let gen_index_case =
  let open QCheck.Gen in
  let gen_keys =
    pair (list_size (0 -- 2) (int_bound 5)) (list_size (0 -- 2) (int_bound 5))
  in
  map
    (fun (keysets, ck, tr) ->
      (List.mapi
         (fun i (locks, regions) ->
           ptxn ~tid:(i + 1)
             ~locks:(List.mapi (fun j l -> (l, ((i + 1) * 10) + j)) locks)
             ~regions ())
         keysets,
       ck, tr))
    (triple (list_size (0 -- 25) gen_keys) (int_bound 1000) (int_bound 1000))

let prop_region_index_matches_partition =
  QCheck.Test.make
    ~name:"region index = Merge.partition of the live records" ~count:200
    (QCheck.make gen_index_case)
    (fun (txns, ck, tr) ->
      let d = Lbc_storage.Dev.create () in
      let log = Lbc_wal.Log.attach d in
      let n = List.length txns in
      let k = if n = 0 then 0 else ck mod (n + 1) in
      let before = List.filteri (fun i _ -> i < k) txns in
      let after = List.filteri (fun i _ -> i >= k) txns in
      let offs_before = List.map (fun t -> Lbc_wal.Log.append log t) before in
      Lbc_wal.Log.force log;
      (* Trim to a random record boundary in the prefix. *)
      let cut =
        match offs_before with
        | [] -> Lbc_wal.Log.head log
        | offs ->
            let j = tr mod (List.length offs + 1) in
            if j = List.length offs then Lbc_wal.Log.tail log
            else List.nth offs j
      in
      ignore (Lbc_wal.Log.set_head log cut : int);
      List.iter (fun t -> ignore (Lbc_wal.Log.append log t : int)) after;
      Lbc_wal.Log.force log;
      let idx, _ = Lbc_wal.Region_index.of_log log in
      let live =
        let items, _ =
          Lbc_wal.Log.fold log ~init:[] (fun acc off t -> (off, t) :: acc)
        in
        List.rev items
      in
      let tid2off = Hashtbl.create 16 in
      List.iter
        (fun (off, (t : Lbc_wal.Record.txn)) ->
          Hashtbl.replace tid2off t.Lbc_wal.Record.tid off)
        live;
      let canon chains =
        List.sort compare (List.map (List.sort compare) chains)
      in
      let expected =
        Merge.partition (List.map snd live)
        |> List.map
             (List.map (fun (t : Lbc_wal.Record.txn) ->
                  Hashtbl.find tid2off t.Lbc_wal.Record.tid))
        |> canon
      in
      let got = canon (Lbc_wal.Region_index.chains idx) in
      expected = got)

let test_distributed_recovery_matches_caches () =
  let c = mk ~nodes:3 () in
  let rng = Lbc_util.Rng.create 7 in
  for n = 0 to 2 do
    let rng = Lbc_util.Rng.split rng in
    Cluster.spawn c ~node:n (fun node ->
        for _ = 1 to 15 do
          let txn = Node.Txn.begin_ node in
          Node.Txn.acquire txn lock;
          let offset = 8 * Lbc_util.Rng.int rng 64 in
          Node.Txn.set_u64 txn ~region ~offset
            (Int64.of_int (Lbc_util.Rng.int rng 1_000_000));
          Node.Txn.commit txn;
          Lbc_sim.Proc.sleep (Lbc_util.Rng.float rng 10.0)
        done)
  done;
  Cluster.run c;
  (* All caches agree. *)
  let image n = Node.read (Cluster.node c n) ~region ~offset:0 ~len:4096 in
  Alcotest.(check bool) "caches 0=1" true (Bytes.equal (image 0) (image 1));
  Alcotest.(check bool) "caches 0=2" true (Bytes.equal (image 0) (image 2));
  (* Server-side recovery from the merged logs reproduces that state. *)
  let outcome = Cluster.recover_database c in
  check_int "all 45 transactions" 45 outcome.Lbc_rvm.Recovery.records_replayed;
  let dev = Cluster.region_dev c region in
  let db = Lbc_storage.Dev.read dev ~off:0 ~len:(min 4096 (Lbc_storage.Dev.size dev)) in
  Alcotest.(check bool) "recovered db = caches" true
    (Bytes.equal db (Bytes.sub (image 0) 0 (Bytes.length db)))

let test_checkpoint_trims_and_preserves () =
  let c = mk () in
  Cluster.spawn c ~node:0 (fun node ->
      for _ = 1 to 5 do
        increment node ~offset:0
      done);
  Cluster.run c;
  check_int "records replayed" 5 (Cluster.checkpoint c);
  check_int "log 0 trimmed" 0
    (Lbc_wal.Log.live_bytes (Lbc_rvm.Rvm.log (Node.rvm (Cluster.node c 0))));
  (* A brand-new cluster sharing the same database devices would see the
     counter; simulate by reading the region device directly. *)
  let dev = Cluster.region_dev c region in
  check_i64 "db has checkpointed counter" 5L
    (Bytes.get_int64_le (Lbc_storage.Dev.read dev ~off:0 ~len:8) 0)

(* A peer's commit that lands while a node reloads its region from the
   database (a charged device read) is judged against the checkpoint
   state the reload ends with: rejoin must not hold it under a write
   that state already covers, where nothing would wake it. *)
let test_reload_judges_arrivals_after () =
  List.iter
    (fun (what, prepare, reload) ->
      let config = { Config.default with Config.charge_costs = true } in
      (* The counter sits at the end of a 128 KiB region, so the database
         image spans the region and reloading it takes ~77 ms, longer
         than a commit's 45 ms log sync. *)
      let region_size = 128 * 1024 in
      let offset = region_size - 8 in
      let c = mk ~config ~region_size () in
      Cluster.spawn c ~node:0 (fun node ->
          for _ = 1 to 3 do
            increment node ~offset
          done);
      Cluster.run c;
      ignore (Cluster.checkpoint c : int);
      let n1 = Cluster.node c 1 in
      let base = Node.applied_seq n1 lock in
      Lbc_sim.Proc.spawn (Cluster.engine c) ~name:"reloader" (fun () ->
          prepare c;
          let received () = (Node.stats n1).Node.records_received in
          let before = received () in
          Cluster.spawn c ~node:0 (fun node -> increment node ~offset);
          reload c ~applied:[ (lock, base) ];
          check_int (what ^ ": the commit landed during the reload")
            (before + 1) (received ()));
      Cluster.run c;
      check_int (what ^ ": nothing pending") 0 (Node.pending_count n1);
      check_int (what ^ ": applied seq") (base + 1) (Node.applied_seq n1 lock);
      check_i64 (what ^ ": converged") 4L (Node.get_u64 n1 ~region ~offset))
    [
      ( "rejoin",
        (fun c ->
          Cluster.crash c ~node:1;
          Lbc_sim.Proc.sleep (Config.default.Config.lease_timeout +. 100.0)),
        fun c ~applied:_ -> Cluster.rejoin c ~node:1 );
    ]

let test_client_crash_loses_uncommitted_only () =
  let c = mk () in
  Cluster.spawn c ~node:0 (fun node ->
      increment node ~offset:0;
      (* Uncommitted work at crash: written into the cache but never
         committed, so it never reaches the log. *)
      let txn = Node.Txn.begin_ node in
      Node.Txn.acquire txn lock;
      Node.Txn.set_u64 txn ~region ~offset:0 999L);
  Cluster.run c;
  let outcome = Cluster.recover_database c in
  check_int "only the committed txn" 1 outcome.Lbc_rvm.Recovery.records_replayed;
  let dev = Cluster.region_dev c region in
  check_i64 "recovered value is the committed one" 1L
    (Bytes.get_int64_le (Lbc_storage.Dev.read dev ~off:0 ~len:8) 0)

(* Wire decoder robustness: arbitrary bytes must fail cleanly. *)
let prop_wire_decode_never_crashes =
  QCheck.Test.make ~name:"wire decode of junk raises Truncated" ~count:500
    QCheck.(string_of_size Gen.(0 -- 200))
    (fun junk ->
      match Wire.decode (Bytes.of_string junk) with
      | _ -> true (* decoding junk successfully is acceptable only if it
                     parses as a record; no crash either way *)
      | exception Lbc_util.Codec.Truncated _ -> true
      | exception _ -> false)

(* A 9-byte varint with bit 62 set decodes to a negative int.  As the
   lock count of a 13-byte frame it must be rejected as malformed input
   before a list is sized by it. *)
let test_wire_negative_count () =
  let frame =
    Bytes.of_string "\x01\x00\x00\x00\x80\x80\x80\x80\x80\x80\x80\x80\x40"
  in
  match Wire.decode frame with
  | _ -> Alcotest.fail "negative lock count decoded"
  | exception Lbc_util.Codec.Truncated _ -> ()

let prop_wire_truncation_detected =
  QCheck.Test.make ~name:"truncated wire messages raise Truncated" ~count:200
    QCheck.(int_bound 200)
    (fun cut ->
      let b = Wire.encode wire_txn in
      QCheck.assume (cut > 0 && cut < Bytes.length b);
      match Wire.decode (Bytes.sub b 0 cut) with
      | _ -> false
      | exception Lbc_util.Codec.Truncated _ -> true)

(* The one message decoder under hostile bytes.  Each constructor's body
   (record payloads included) gets 1-4 bytes overwritten with a random,
   high-bit or small value, is cut short at random and split into random
   gather segments.  [Msg.decode], then [Wire.decode_iov] on every record
   it yields, may raise only [Truncated], allocating under 64 KiB. *)
let msg_bodies =
  let module T = Lbc_locks.Table in
  let cmd =
    { Lbc_wal.Record.op = 3; params = Bytes.of_string "args";
      cmd_regions = [ 0; 2 ] }
  in
  let cmd_txn = { wire_txn with ranges = []; cmd = Some cmd } in
  let update t = Wire.encode_iov t in
  Array.map
    (fun m -> Lbc_util.Slice.concat (Msg.encode m))
    [| Msg.Lock (T.Request { epoch = 1; lock = 300; requester = 2 });
       Msg.Lock (T.Forward { epoch = 0; lock = 5; requester = 1 });
       Msg.Lock
         (T.Token
            { epoch = 2; lock = 9; seqno = 1_000; last_write_seq = 999;
              last_writer = -1 });
       Msg.Update (update wire_txn);
       Msg.Update (update cmd_txn);
       Msg.Fetch { lock = 4; have = 170 };
       Msg.Fetched { lock = 4; payloads = [ update wire_txn; update cmd_txn ] };
       Msg.LowWater { applied = [ (1, 10); (200, 0); (9, 70_000) ] } |]

let prop_msg_decode_hostile =
  let gen =
    QCheck.Gen.(
      int_bound (Array.length msg_bodies - 1) >>= fun i ->
      let n = Bytes.length msg_bodies.(i) in
      let value =
        oneof [ int_bound 255; map (( lor ) 0x80) (int_bound 127); int_bound 3 ]
      in
      quad (return i)
        (list_size (1 -- 4) (pair (int_bound (n - 1)) value))
        (oneof [ return n; int_bound n ])
        (list_size (0 -- 6) (int_bound n)))
  in
  let print (i, edits, cut, cuts) =
    Printf.sprintf "body %d, edits [%s], cut %d, segments at [%s]" i
      (String.concat ";"
         (List.map (fun (p, v) -> Printf.sprintf "%d:=%d" p v) edits))
      cut
      (String.concat ";" (List.map string_of_int cuts))
  in
  QCheck.Test.make ~name:"decode of hostile bodies raises Truncated"
    ~count:10_000 (QCheck.make ~print gen) (fun (i, edits, cut, cuts) ->
      let b = Bytes.copy msg_bodies.(i) in
      List.iter (fun (p, v) -> Bytes.set_uint8 b p v) edits;
      let bounds =
        (0 :: List.sort Int.compare (List.map (min cut) cuts)) @ [ cut ]
      in
      let rec segments = function
        | a :: (z :: _ as rest) ->
            let seg = Bytes.sub b a (z - a) in
            let base = Bytes.cat (Bytes.of_string "#") seg in
            Lbc_util.Slice.of_bytes base ~pos:1 ~len:(z - a) :: segments rest
        | _ -> []
      in
      let records = function
        | Msg.Update iov -> [ iov ]
        | Msg.Fetched { payloads; _ } -> payloads
        | _ -> []
      in
      let iov = segments bounds in
      Gc.minor ();
      let before = Gc.allocated_bytes () in
      (try
         List.iter
           (fun r -> ignore (Wire.decode_iov r))
           (records (Msg.decode iov))
       with Lbc_util.Codec.Truncated _ -> ());
      Gc.allocated_bytes () -. before < 65536.0)

(* A Fetched message with one T2-B-sized record (10,000 ranges, a
   20,001-slice gather list) round-trips without copying that list: the
   encoder shares the last payload list and the decoder hands its unread
   tail on. *)
let test_msg_fetched_shares_payload () =
  let ranges =
    List.init 10_000 (fun i ->
        { Lbc_wal.Record.region = 0; offset = 16 * i; data = Bytes.make 8 'x' })
  in
  let iov = Wire.encode_iov { wire_txn with ranges } in
  let m = Msg.Fetched { lock = 4; payloads = [ iov ] } in
  Gc.minor ();
  let w0 = Gc.minor_words () in
  let back = Msg.decode (Msg.encode m) in
  let words = Gc.minor_words () -. w0 in
  (match back with
  | Msg.Fetched { lock = 4; payloads = [ p ] } ->
      Alcotest.(check bool) "payload list shared" true (p == iov)
  | m -> Alcotest.failf "decoded %a" Msg.pp m);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words per round trip <= 1,000" words)
    true (words <= 1_000.0)

(* Merge correctness on randomly generated serializable histories: a
   virtual total order of transactions touching random locks is split
   into per-node logs; the merge must respect, for every lock, the
   sequence-number order. *)
let prop_merge_respects_lock_order =
  let gen =
    QCheck.Gen.(
      list_size (1 -- 40) (pair (int_bound 2) (list_size (1 -- 3) (int_bound 4))))
  in
  QCheck.Test.make ~name:"merge respects per-lock sequence order" ~count:200
    (QCheck.make gen)
    (fun history ->
      (* Simulate strict 2PL: walk the history in serial order handing
         out per-lock sequence numbers. *)
      let seqs = Hashtbl.create 8 in
      let next_seq l =
        let s = 1 + Option.value ~default:0 (Hashtbl.find_opt seqs l) in
        Hashtbl.replace seqs l s;
        s
      in
      let logs = Array.make 3 [] in
      List.iteri
        (fun i (node, locks) ->
          let locks = List.sort_uniq compare locks in
          let lock_infos =
            List.map
              (fun l ->
                let s = next_seq l in
                { Lbc_wal.Record.lock_id = l; seqno = s; prev_write_seq = s - 1 })
              locks
          in
          let txn =
            { Lbc_wal.Record.node; tid = i; locks = lock_infos; ranges = [];
              cmd = None }
          in
          logs.(node) <- txn :: logs.(node))
        history;
      let logs = Array.to_list (Array.map List.rev logs) in
      match Merge.merge_records logs with
      | Error _ -> false
      | Ok merged ->
          List.length merged = List.length history
          &&
          (* For every lock, seqnos must appear in increasing order. *)
          let last = Hashtbl.create 8 in
          List.for_all
            (fun (t : Lbc_wal.Record.txn) ->
              List.for_all
                (fun l ->
                  let ok =
                    l.Lbc_wal.Record.seqno
                    > Option.value ~default:0
                        (Hashtbl.find_opt last l.Lbc_wal.Record.lock_id)
                  in
                  Hashtbl.replace last l.Lbc_wal.Record.lock_id
                    l.Lbc_wal.Record.seqno;
                  ok)
                t.Lbc_wal.Record.locks)
            merged)

(* ------------------------------------------------------------------ *)
(* Version-pinned readers (Section 2.1's accept primitive) *)

let test_pin_defers_updates () =
  let c = mk () in
  let observed_while_pinned = ref (-1L) in
  let observed_after_accept = ref (-1L) in
  Node.pin (Cluster.node c 1);
  Cluster.spawn c ~node:0 (fun node ->
      let txn = Node.Txn.begin_ node in
      Node.Txn.acquire txn lock;
      Node.Txn.set_u64 txn ~region ~offset:0 42L;
      Node.Txn.commit txn);
  Cluster.spawn c ~node:1 (fun node ->
      Lbc_sim.Proc.sleep 100.0;
      (* The update has arrived but must not have been applied. *)
      observed_while_pinned := Node.get_u64 node ~region ~offset:0;
      Node.accept node;
      observed_after_accept := Node.get_u64 node ~region ~offset:0);
  Cluster.run c;
  check_i64 "pinned reader sees old version" 0L !observed_while_pinned;
  check_i64 "accept moves forward" 42L !observed_after_accept;
  check_int "record was buffered" 1 (Node.stats (Cluster.node c 1)).Node.records_received

let test_pin_blocks_acquire () =
  let c = mk () in
  let raised = ref false in
  Node.pin (Cluster.node c 0);
  Cluster.spawn c ~node:0 (fun node ->
      let txn = Node.Txn.begin_ node in
      (try Node.Txn.acquire txn lock
       with Node.Coherency_error _ -> raised := true));
  Cluster.run c;
  Alcotest.(check bool) "acquire rejected while pinned" true !raised

(* A record a pinned reader still holds after [accept] is repaired like a
   held arrival: the first update to node 1 is lost, two commits on the
   lock follow, then node 1 accepts.  Pinned or not, the gap watchdog
   fetches the lost write once and node 1 converges. *)
let test_accept_repairs_held () =
  List.iter
    (fun pinned ->
      let what = if pinned then "pinned" else "unpinned" in
      let config =
        Config.fault_tolerant
      in
      let c = mk ~config () in
      let lost = ref false in
      Lbc_net.Fabric.set_drop_filter (Cluster.fabric c) ~src:0 ~dst:1
        (Some
           (fun body ->
             match Msg.decode body with
             | Msg.Update _ when not !lost ->
                 lost := true;
                 true
             | _ -> false));
      let n1 = Cluster.node c 1 in
      if pinned then Node.pin n1;
      let committed = Lbc_sim.Mailbox.create () in
      Cluster.spawn c ~node:0 (fun node ->
          for v = 1 to 2 do
            let txn = Node.Txn.begin_ node in
            Node.Txn.acquire txn lock;
            Node.Txn.set_u64 txn ~region ~offset:0 (Int64.of_int v);
            Node.Txn.commit txn
          done;
          Lbc_sim.Mailbox.send committed ());
      Cluster.spawn c ~node:1 (fun node ->
          Lbc_sim.Mailbox.recv committed;
          Lbc_sim.Proc.sleep 1_000.0;
          Node.accept node;
          Lbc_sim.Proc.sleep 50_000.0);
      Cluster.run c;
      check_int (what ^ ": applied seq") 2 (Node.applied_seq n1 lock);
      check_int (what ^ ": one repair fetch") 1
        (Node.stats n1).Node.repair_fetches;
      check_int (what ^ ": nothing pending") 0 (Node.pending_count n1);
      check_i64 (what ^ ": converged") 2L (Node.get_u64 n1 ~region ~offset:0))
    [ false; true ]

let test_pin_accept_ordering_preserved () =
  (* Buffered records must still apply in lock-sequence order. *)
  let c = mk ~nodes:3 () in
  Node.pin (Cluster.node c 2);
  let chain = Lbc_sim.Mailbox.create () in
  Cluster.spawn c ~node:0 (fun node ->
      let txn = Node.Txn.begin_ node in
      Node.Txn.acquire txn lock;
      Node.Txn.write txn ~region ~offset:0 (Bytes.of_string "first");
      Node.Txn.commit txn;
      Lbc_sim.Mailbox.send chain ());
  Cluster.spawn c ~node:1 (fun node ->
      Lbc_sim.Mailbox.recv chain;
      let txn = Node.Txn.begin_ node in
      Node.Txn.acquire txn lock;
      Node.Txn.write txn ~region ~offset:0 (Bytes.of_string "SECON");
      Node.Txn.commit txn);
  Cluster.run c;
  let n2 = Cluster.node c 2 in
  check_int "both buffered" 2 (Node.pending_count n2);
  Node.accept n2;
  Alcotest.(check string) "newest version after accept" "SECON"
    (Bytes.to_string (Node.read n2 ~region ~offset:0 ~len:5));
  check_int "drained" 0 (Node.pending_count n2)

(* Records by node 0 delivered to a receiver by hand: a u64 store
   ([Some v]) or, as a command record, a counter increment, at [offset]
   of the test region. *)
let incr_op = 941

let register_incr () =
  Lbc_wal.Command.register ~op:incr_op ~name:"test-core-incr"
    (fun mem ~params ->
      let offset = Lbc_util.Codec.get_varint (Lbc_util.Codec.reader params) in
      let m = mem ~region in
      Lbc_util.Mem.set_u64 m offset (Int64.add (Lbc_util.Mem.get_u64 m offset) 1L))

let hand_record ~tid ~locks ~offset store =
  let ranges, cmd =
    match store with
    | Some v ->
        let data = Bytes.create 8 in
        Bytes.set_int64_le data 0 v;
        ([ { Lbc_wal.Record.region; offset; data } ], None)
    | None ->
        let w = Lbc_util.Codec.writer () in
        Lbc_util.Codec.varint w offset;
        ( [],
          Some
            { Lbc_wal.Record.op = incr_op; params = Lbc_util.Codec.contents w;
              cmd_regions = [ region ] } )
  in
  { Lbc_wal.Record.node = 0; tid; locks; ranges; cmd }

let deliver node record =
  Node.handle node ~src:0 (Msg.Update (Wire.encode_iov record))

let records_applied node =
  (Lbc_rvm.Rvm.stats (Node.rvm node)).Lbc_rvm.Rvm.records_applied

let test_duplicate_delivery_ignored () =
  (* Deliver the same committed record twice by hand: the second copy is
     recognized by its sequence numbers and dropped. *)
  let c = mk () in
  let record = ref None in
  Cluster.spawn c ~node:0 (fun node ->
      let txn = Node.Txn.begin_ node in
      Node.Txn.acquire txn lock;
      Node.Txn.set_u64 txn ~region ~offset:0 5L;
      record := Some (Node.Txn.commit_record txn));
  Cluster.run c;
  let n1 = Cluster.node c 1 in
  let payload = Wire.encode_iov (Option.get !record) in
  Node.handle n1 ~src:0 (Msg.Update payload);
  Node.handle n1 ~src:0 (Msg.Update payload);
  check_i64 "value intact" 5L (Node.get_u64 n1 ~region ~offset:0);
  check_int "applied seq not advanced twice" 1 (Node.applied_seq n1 lock);
  check_int "no pending garbage" 0 (Node.pending_count n1);
  (* Two copies held behind a missing predecessor are woken under one
     key; the second is judged a duplicate when it is offered, so only
     the first applies.  A value record applied twice is counted twice;
     a command record applied twice runs twice. *)
  register_incr ();
  List.iter
    (fun (what, store) ->
      let c = mk () in
      let n1 = Cluster.node c 1 in
      let r seqno =
        hand_record ~tid:seqno ~offset:0 (store seqno)
          ~locks:
            [ { Lbc_wal.Record.lock_id = lock; seqno;
                prev_write_seq = seqno - 1 } ]
      in
      deliver n1 (r 2);
      deliver n1 (r 2);
      check_int (what ^ ": both copies held") 2 (Node.pending_count n1);
      deliver n1 (r 1);
      check_i64 (what ^ ": serial value") 2L (Node.get_u64 n1 ~region ~offset:0);
      check_int (what ^ ": each record applied once") 2 (records_applied n1);
      check_int (what ^ ": applied seq") 2 (Node.applied_seq n1 lock);
      check_int (what ^ ": nothing pending") 0 (Node.pending_count n1))
    [ ("value", fun seqno -> Some (Int64.of_int seqno)); ("command", fun _ -> None) ];
  (* Two processes on one node each offer a copy of one ready increment.
     Under charged costs the first copy's apply sleeps before its write
     counts as applied; the second copy, offered meanwhile, is a
     duplicate all the same, or the increment runs twice. *)
  let c = mk ~config:{ Config.default with Config.charge_costs = true } ~nodes:3 () in
  let r =
    hand_record ~tid:1 ~offset:0 None
      ~locks:[ { Lbc_wal.Record.lock_id = lock; seqno = 1; prev_write_seq = 0 } ]
  in
  for _ = 1 to 2 do
    Cluster.spawn c ~node:1 (fun node -> deliver node r)
  done;
  Cluster.run c;
  let n1 = Cluster.node c 1 in
  check_i64 "charged copies: incremented once" 1L (Node.get_u64 n1 ~region ~offset:0);
  check_int "charged copies: applied once" 1 (records_applied n1);
  check_int "charged copies: applied seq" 1 (Node.applied_seq n1 lock);
  check_int "charged copies: nothing pending" 0 (Node.pending_count n1)

(* The receiver against a serial model.  A serial history of writes by
   node 0: each takes one or two of four locks (sometimes after a
   read-only acquire, which bumps a seqno without a record) and stores
   to, or increments, a u64 in a slot its first lock owns.  It reaches
   node 1 in a random order with random duplicates, sometimes partly
   while node 1 is pinned.  Every record must apply exactly once, none
   may stay pending, and the cache must equal the serial image. *)
let prop_receiver_model =
  let nlocks = 4 and slots = 4 in
  let size = nlocks * slots * 8 in
  let gen =
    QCheck.Gen.(
      pair
        (list_size (1 -- 25)
           (pair
              (quad (int_bound (nlocks - 1)) (int_bound (nlocks - 1))
                 (int_bound (slots - 1)) bool)
              (opt (int_bound 1000))))
        (quad (list_size (0 -- 10) nat) int bool nat))
  in
  QCheck.Test.make ~name:"receiver applies a shuffled, duplicated history once"
    ~count:300 (QCheck.make gen)
    (fun (writes, (dups, shuffle_seed, pinned, cut)) ->
      register_incr ();
      let seq = Array.make nlocks 0 in
      let serial = Bytes.make size '\000' in
      let records =
        Array.of_list
          (List.mapi
             (fun i ((a, b, slot, read_first), store) ->
               let ls = List.sort_uniq Int.compare [ a; b ] in
               let locks =
                 List.map
                   (fun l ->
                     let prev_write_seq = seq.(l) in
                     (* a read-only acquire takes a seqno and logs nothing *)
                     if read_first then seq.(l) <- seq.(l) + 1;
                     seq.(l) <- seq.(l) + 1;
                     { Lbc_wal.Record.lock_id = l; seqno = seq.(l);
                       prev_write_seq })
                   ls
               in
               let offset = ((List.hd ls * slots) + slot) * 8 in
               let store = Option.map Int64.of_int store in
               Bytes.set_int64_le serial offset
                 (match store with
                 | Some v -> v
                 | None -> Int64.add (Bytes.get_int64_le serial offset) 1L);
               hand_record ~tid:(i + 1) ~locks ~offset store)
             writes)
      in
      let n = Array.length records in
      let arrivals =
        Array.of_list (List.init n Fun.id @ List.map (fun d -> d mod n) dups)
      in
      Lbc_util.Rng.shuffle (Lbc_util.Rng.create shuffle_seed) arrivals;
      let c = mk ~region_size:size () in
      let n1 = Cluster.node c 1 in
      (* pinned: the first [cut] arrivals are buffered, then accepted *)
      let cut = if pinned then cut mod (Array.length arrivals + 1) else 0 in
      if cut > 0 then Node.pin n1;
      Array.iteri
        (fun k i ->
          if k = cut then Node.accept n1;
          deliver n1 records.(i))
        arrivals;
      Node.accept n1;
      records_applied n1 = n
      && List.for_all
           (fun l -> Node.applied_seq n1 l = seq.(l))
           (List.init nlocks Fun.id)
      && Node.pending_count n1 = 0
      && Bytes.equal serial (Node.read n1 ~region ~offset:0 ~len:size))

(* Held records drain in linear work: an 8,000-record chain on one lock
   reaches node 1 in reverse order, and then in order while node 1 is
   pinned until it accepts.  Rescanning everything held after each apply
   would cost about 144K minor words per record here. *)
let test_held_chain_linear () =
  let n = 8000 in
  let chain =
    List.init n (fun i ->
        let seqno = i + 1 in
        Wire.encode_iov
          (hand_record ~tid:seqno ~offset:0 (Some (Int64.of_int seqno))
             ~locks:
               [ { Lbc_wal.Record.lock_id = lock; seqno;
                   prev_write_seq = seqno - 1 } ]))
  in
  List.iter
    (fun (what, pinned, arrivals) ->
      let c = mk () in
      let n1 = Cluster.node c 1 in
      Gc.minor ();
      let words0 = Gc.minor_words () in
      if pinned then Node.pin n1;
      List.iter (fun iov -> Node.handle n1 ~src:0 (Msg.Update iov)) arrivals;
      Node.accept n1;
      let per_record = (Gc.minor_words () -. words0) /. float_of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f minor words per record (at most 2,000)"
           what per_record)
        true (per_record <= 2000.0);
      check_int (what ^ ": each record applied once") n (records_applied n1);
      check_int (what ^ ": applied seq") n (Node.applied_seq n1 lock);
      check_int (what ^ ": nothing pending") 0 (Node.pending_count n1);
      check_i64 (what ^ ": last value") (Int64.of_int n)
        (Node.get_u64 n1 ~region ~offset:0))
    [ ("reversed", false, List.rev chain); ("pinned", true, chain) ]

let test_group_commit_cluster () =
  (* End to end through Config -> Node -> Rvm -> Log: concurrent
     committers on one node share batches, so the log syncs fewer times
     than it commits, and peers still converge. *)
  let config = { Config.default with Config.group_commit = true } in
  let c = mk ~config ~nodes:2 () in
  let locks = [ 0; 1; 2; 3 ] in
  List.iter
    (fun l ->
      Cluster.spawn c ~node:0 (fun node ->
          for _ = 1 to 5 do
            let txn = Node.Txn.begin_ node in
            Node.Txn.acquire txn l;
            Node.Txn.set_u64 txn ~region ~offset:(8 * l) 7L;
            Node.Txn.commit txn
          done))
    locks;
  Cluster.run c;
  let n0 = Cluster.node c 0 in
  let log = Lbc_rvm.Rvm.log (Node.rvm n0) in
  Alcotest.(check bool) "group commit enabled" true
    (Lbc_wal.Log.group_commit_enabled log);
  check_int "all commits logged" 20 (Lbc_wal.Log.record_count log);
  let syncs = Lbc_storage.Dev.sync_count (Lbc_wal.Log.dev log) in
  Alcotest.(check bool)
    (Printf.sprintf "fewer syncs (%d) than commits (20)" syncs)
    true (syncs < 20);
  Alcotest.(check bool) "records were batched" true
    (Lbc_wal.Log.batches_flushed log < Lbc_wal.Log.records_batched log);
  (* Peers converged despite the batched durability. *)
  List.iter
    (fun l ->
      check_i64
        (Printf.sprintf "peer sees lock %d's write" l)
        7L
        (Node.get_u64 (Cluster.node c 1) ~region ~offset:(8 * l)))
    locks;
  (* The batched log replays identically. *)
  let txns, status = Lbc_wal.Log.read_all log in
  Alcotest.(check bool) "log clean" true (status = Lbc_wal.Log.Clean);
  check_int "replay count" 20 (List.length txns)

let test_double_acquire_same_lock_rejected () =
  let c = mk () in
  let raised = ref false in
  Cluster.spawn c ~node:0 (fun node ->
      let txn = Node.Txn.begin_ node in
      Node.Txn.acquire txn lock;
      (try Node.Txn.acquire txn lock
       with Node.Coherency_error _ -> raised := true);
      Node.Txn.commit txn);
  Cluster.run c;
  Alcotest.(check bool) "second acquire rejected" true !raised

let test_wire_large_offsets () =
  let t =
    {
      Lbc_wal.Record.node = 1;
      tid = 1;
      locks = [];
      ranges =
        [
          {
            Lbc_wal.Record.region = 7;
            offset = 1 lsl 40;  (* beyond 32 bits: varints must cope *)
            data = Bytes.of_string "far";
          };
        ];
      cmd = None;
    }
  in
  Alcotest.(check bool) "roundtrip" true
    (Lbc_wal.Record.equal_txn t (Wire.decode (Wire.encode t)))

(* ------------------------------------------------------------------ *)
(* Multicast (Section 4.3.1) *)

let test_multicast_single_transmission () =
  let config = { Config.default with Config.multicast = true } in
  let c = mk ~config ~nodes:4 () in
  Cluster.spawn c ~node:0 (fun node ->
      let txn = Node.Txn.begin_ node in
      Node.Txn.acquire txn lock;
      Node.Txn.set_u64 txn ~region ~offset:0 9L;
      Node.Txn.commit txn);
  Cluster.run c;
  (* One transmission on the wire; all three peers updated. *)
  check_int "one message" 1 (Cluster.total_messages c);
  for n = 1 to 3 do
    check_i64 (Printf.sprintf "peer %d" n) 9L
      (Node.get_u64 (Cluster.node c n) ~region ~offset:0)
  done

let test_multicast_sender_time_constant_in_peers () =
  let elapsed_with nodes multicast =
    let config =
      { Config.measured with Config.multicast; Config.disk_logging = false }
    in
    let c = mk ~config ~nodes () in
    let finish = ref 0.0 in
    Cluster.spawn c ~node:0 (fun node ->
        let txn = Node.Txn.begin_ node in
        Node.Txn.acquire txn lock;
        Node.Txn.write txn ~region ~offset:0 (Bytes.make 256 'x');
        Node.Txn.commit txn;
        finish := Lbc_sim.Proc.now ());
    Cluster.run c;
    !finish
  in
  let uni2 = elapsed_with 2 false and uni5 = elapsed_with 5 false in
  let multi2 = elapsed_with 2 true and multi5 = elapsed_with 5 true in
  Alcotest.(check bool)
    (Printf.sprintf "unicast writer cost grows with peers (%.1f -> %.1f)" uni2 uni5)
    true (uni5 > uni2 +. 100.0);
  Alcotest.(check (float 1e-6))
    "multicast writer cost independent of peers" multi2 multi5

(* ------------------------------------------------------------------ *)
(* Failure injection *)

let test_recovery_ignores_torn_tails () =
  let c = mk () in
  Cluster.spawn c ~node:0 (fun node ->
      increment node ~offset:0;
      increment node ~offset:0);
  Cluster.run c;
  (* Tear the tail of node 0's log: crash keeps only a 30-byte prefix of
     the last unsynced write.  Committed (forced) records survive. *)
  let log_dev =
    match Lbc_storage.Store.find (Cluster.store c) "log.0" with
    | Some d -> d
    | None -> Alcotest.fail "no log device"
  in
  Lbc_storage.Dev.write_string log_dev ~off:(Lbc_storage.Dev.size log_dev) "partial garbage after the real records";
  Lbc_storage.Dev.crash ~tear_bytes:10 log_dev;
  let outcome = Cluster.recover_database c in
  check_int "both committed txns recovered" 2
    outcome.Lbc_rvm.Recovery.records_replayed;
  let dev = Cluster.region_dev c region in
  check_i64 "value intact" 2L
    (Bytes.get_int64_le (Lbc_storage.Dev.read dev ~off:0 ~len:8) 0)

let test_server_crash_then_recovery () =
  (* Flush-on-commit means every committed transaction survives a full
     storage-server crash. *)
  let c = mk ~nodes:3 () in
  for n = 0 to 2 do
    Cluster.spawn c ~node:n (fun node ->
        for _ = 1 to 5 do
          increment node ~offset:(8 * n);
          Lbc_sim.Proc.sleep 7.0
        done)
  done;
  Cluster.run c;
  Lbc_storage.Store.crash_all (Cluster.store c);
  let outcome = Cluster.recover_database c in
  check_int "15 transactions" 15 outcome.Lbc_rvm.Recovery.records_replayed;
  let dev = Cluster.region_dev c region in
  for n = 0 to 2 do
    check_i64
      (Printf.sprintf "counter %d" n)
      5L
      (Bytes.get_int64_le (Lbc_storage.Dev.read dev ~off:(8 * n) ~len:8) 0)
  done

(* ------------------------------------------------------------------ *)
(* Checkpointing a live cluster (Section 3.5) *)

let test_checkpoint_midstream () =
  let c = mk () in
  Cluster.spawn c ~node:0 (fun node ->
      for _ = 1 to 10 do
        increment node ~offset:0
      done);
  Cluster.run c;
  let n = Cluster.checkpoint c in
  check_int "first batch checkpointed" 10 n;
  check_int "log 0 trimmed" 0
    (Lbc_wal.Log.live_bytes (Lbc_rvm.Rvm.log (Node.rvm (Cluster.node c 0))));
  (* The cluster keeps running afterwards... *)
  Cluster.spawn c ~node:1 (fun node ->
      for _ = 1 to 10 do
        increment node ~offset:0
      done);
  Cluster.run c;
  (* ...and full recovery = checkpointed database + remaining logs. *)
  let outcome = Cluster.recover_database c in
  check_int "only the new records replayed" 10
    outcome.Lbc_rvm.Recovery.records_replayed;
  let dev = Cluster.region_dev c region in
  check_i64 "final value durable" 20L
    (Bytes.get_int64_le (Lbc_storage.Dev.read dev ~off:0 ~len:8) 0)

let test_checkpoint_idempotent () =
  let c = mk () in
  Cluster.spawn c ~node:0 (fun node -> increment node ~offset:0);
  Cluster.run c;
  check_int "first" 1 (Cluster.checkpoint c);
  check_int "second finds nothing" 0 (Cluster.checkpoint c)

(* A checkpoint replays a lazy writer's chain into the database but trims
   nothing a straggler still needs: the writer keeps the chain for the
   straggler's fetch, and releases it once the straggler reports it
   applied. *)
let test_checkpoint_keeps_lazy_chains () =
  let c = mk ~config:{ Config.default with Config.propagation = Config.Lazy } () in
  Cluster.spawn c ~node:0 (fun node ->
      for _ = 1 to 5 do
        increment node ~offset:0
      done);
  Cluster.run c;
  (* Node 1 never acquired: its cache is stale and no chain was pushed. *)
  check_i64 "stale before checkpoint" 0L
    (Node.get_u64 (Cluster.node c 1) ~region ~offset:0);
  check_int "chain replayed" 5 (Cluster.checkpoint c);
  Cluster.run c;
  let n0 = Cluster.node c 0 and n1 = Cluster.node c 1 in
  check_int "writer keeps its chain" 5 (Node.retained_count n0);
  check_int "and its log" 5
    (Lbc_wal.Log.record_count (Lbc_rvm.Rvm.log (Node.rvm n0)));
  check_i64 "straggler still stale" 0L (Node.get_u64 n1 ~region ~offset:0);
  let fetches0 = (Node.stats n1).Node.fetches_sent in
  Cluster.spawn c ~node:1 (fun node ->
      let txn = Node.Txn.begin_ node in
      Node.Txn.acquire txn lock;
      Alcotest.(check int64) "reads the fetched chain" 5L
        (Node.Txn.get_u64 txn ~region ~offset:0);
      Node.Txn.commit txn);
  Cluster.run c;
  check_int "one fetch" (fetches0 + 1) (Node.stats n1).Node.fetches_sent;
  check_int "only the straggler's read replays" 1 (Cluster.checkpoint c);
  Cluster.run c;
  check_int "released once reported" 0 (Node.retained_count n0)

let test_online_after_offline_checkpoint () =
  (* A checkpoint feeds the next one's baseline: a write whose
     predecessor an earlier checkpoint trimmed is still replayed. *)
  let c = mk () in
  Cluster.spawn c ~node:0 (fun node -> increment node ~offset:0);
  Cluster.run c;
  check_int "first write checkpointed" 1 (Cluster.checkpoint c);
  Cluster.spawn c ~node:0 (fun node -> increment node ~offset:0);
  Cluster.run c;
  check_int "second write checkpointed" 1 (Cluster.checkpoint c)

(* Redo never re-applies what the database already holds.  With
   retention on, a checkpoint's trim stops at the retention mark, so the
   records it replayed stay live in the logs; a command record replayed
   again would add 1 again.  The writer is either node: a checkpoint
   writes the merged logs, never one node's cache, so it is the same
   when a reader runs it. *)
let test_checkpoints_skip_replayed () =
  register_incr ();
  let config =
    { Config.fault_tolerant with Config.log_mode = Lbc_wal.Command.Command }
  in
  let run ~writer =
    let c = mk ~config () in
    (* the counter's database bytes, for the command to read *)
    Lbc_storage.Dev.write (Cluster.region_dev c region) ~off:0
      (Bytes.make 8 '\000') ~pos:0 ~len:8;
    Cluster.spawn c ~node:writer (fun node ->
        for _ = 1 to 3 do
          let txn = Node.Txn.begin_ node in
          Node.Txn.acquire txn lock;
          let v = Node.Txn.get_u64 txn ~region ~offset:0 in
          Node.Txn.set_u64 txn ~region ~offset:0 (Int64.add v 1L);
          let w = Lbc_util.Codec.writer () in
          Lbc_util.Codec.varint w 0;
          Node.Txn.set_command txn ~op:incr_op
            ~params:(Lbc_util.Codec.contents w) ~regions:[ region ];
          Node.Txn.commit txn
        done);
    Cluster.run c;
    check_int "first checkpoint" 3 (Cluster.checkpoint c);
    c
  in
  let db c =
    Bytes.get_int64_le
      (Lbc_storage.Dev.read (Cluster.region_dev c region) ~off:0 ~len:8)
      0
  in
  let db_is_cache what c =
    check_i64 what (Node.get_u64 (Cluster.node c 0) ~region ~offset:0) (db c)
  in
  List.iter
    (fun writer ->
      let c = run ~writer in
      check_int "second checkpoint finds nothing" 0 (Cluster.checkpoint c);
      db_is_cache "database after two checkpoints" c;
      let c = run ~writer in
      check_int "recovery replays nothing" 0
        (Cluster.recover_database c).Lbc_rvm.Recovery.records_replayed;
      db_is_cache "database after checkpoint and recovery" c;
      check_i64 "database holds three increments" 3L (db c))
    [ 0; 1 ]

(* A rejoin reloads the database with the checkpoint table as its
   applied state, so the two must describe one prefix.  Two checkpoints
   with the gossip between them let every node release the writer's
   five records; node 2 then crashes and rejoins, and its acquire must
   read 5 without needing any of them. *)
let test_rejoin_after_checkpoints () =
  let c = mk ~config:Config.fault_tolerant ~nodes:3 () in
  Cluster.spawn c ~node:0 (fun node ->
      for _ = 1 to 5 do
        increment node ~offset:0
      done);
  Cluster.run c;
  check_int "first checkpoint" 5 (Cluster.checkpoint c);
  Cluster.run c;
  check_int "second checkpoint" 0 (Cluster.checkpoint c);
  Cluster.run c;
  List.iter
    (fun n ->
      check_int (Printf.sprintf "node %d released the records" n) 0
        (Node.retained_count (Cluster.node c n)))
    [ 0; 1; 2 ];
  Lbc_sim.Proc.spawn (Cluster.engine c) ~name:"controller" (fun () ->
      Cluster.crash c ~node:2;
      Lbc_sim.Proc.sleep (Config.default.Config.lease_timeout +. 100.0);
      Cluster.rejoin c ~node:2);
  Cluster.run c;
  Cluster.spawn c ~node:2 (fun node ->
      let txn = Node.Txn.begin_ node in
      Node.Txn.acquire txn lock;
      Alcotest.(check int64) "rejoined node reads 5" 5L
        (Node.Txn.get_u64 txn ~region ~offset:0);
      Node.Txn.commit txn);
  Cluster.run c

(* A rejoin's replay chains are the partition of the records its log
   still holds.  Under lazy propagation node 0's first record, which
   links lock 1 (region 0) and lock 2 (region 1), is broadcast and
   applied at once; the two single-lock records after it stay unapplied
   at the peer, so their retention stops the second checkpoint's trim
   right after the link.  The two locks then replay as two chains. *)
let test_rejoin_chains_after_trim () =
  let c = mk ~config:{ Config.default with propagation = Config.Lazy } () in
  Cluster.add_region c ~id:1 ~size:4096;
  Cluster.map_region_all c ~region:1;
  let log0 = Lbc_rvm.Rvm.log (Node.rvm (Cluster.node c 0)) in
  Cluster.spawn c ~node:0 (fun node ->
      List.iter
        (fun locks ->
          let txn = Node.Txn.begin_ node in
          List.iter (Node.Txn.acquire txn) locks;
          (* lock l guards region l - 1 *)
          List.iter
            (fun l -> Node.Txn.set_u64 txn ~region:(l - 1) ~offset:0 1L)
            locks;
          Node.Txn.commit txn)
        [ [ 1; 2 ]; [ 1 ]; [ 2 ] ]);
  Cluster.run c;
  check_int "first checkpoint" 3 (Cluster.checkpoint c);
  check_int "retention keeps all three" 3 (Lbc_wal.Log.record_count log0);
  Cluster.run c;
  check_int "second checkpoint" 0 (Cluster.checkpoint c);
  check_int "the trim drops the link" 2 (Lbc_wal.Log.record_count log0);
  Lbc_sim.Proc.spawn (Cluster.engine c) ~name:"controller" (fun () ->
      Cluster.crash c ~node:0;
      Lbc_sim.Proc.sleep (Config.default.Config.lease_timeout +. 100.0);
      Cluster.rejoin c ~node:0);
  Cluster.run c;
  check_int "one chain per lock" 2
    (Lbc_obs.Obs.counter (Cluster.obs c) "recovery_partitions")

(* A read-only commit logs a lock-only record, whose one key has nothing
   to union with.  A rejoin must still give it a chain, under its lock. *)
let test_rejoin_after_read_only_commit () =
  let c = mk () in
  Cluster.spawn c ~node:1 (fun node ->
      let txn = Node.Txn.begin_ node in
      Node.Txn.acquire txn lock;
      Alcotest.(check int64) "reads 0" 0L
        (Node.Txn.get_u64 txn ~region ~offset:0);
      Node.Txn.commit txn);
  Cluster.run c;
  Lbc_sim.Proc.spawn (Cluster.engine c) ~name:"controller" (fun () ->
      Cluster.crash c ~node:1;
      Lbc_sim.Proc.sleep (Config.default.Config.lease_timeout +. 100.0);
      Cluster.rejoin c ~node:1);
  Cluster.run c;
  check_int "one chain, the lock's" 1
    (Lbc_obs.Obs.counter (Cluster.obs c) "recovery_partitions");
  Cluster.spawn c ~node:1 (fun node -> increment node ~offset:0);
  Cluster.run c;
  check_i64 "rejoined node commits" 1L
    (Node.get_u64 (Cluster.node c 0) ~region ~offset:0)

let test_merge_prefix_holds_back_gaps () =
  (* Log 0 holds (lock 0, seq 2) but seq 1 is in no log and not
     checkpointed: nothing can be emitted. *)
  let t seqno =
    {
      Lbc_wal.Record.node = 0;
      tid = 1;
      locks = [ { Lbc_wal.Record.lock_id = 0; seqno; prev_write_seq = seqno - 1 } ];
      ranges = [];
      cmd = None;
    }
  in
  let dev = Lbc_storage.Dev.create () in
  let log = Lbc_wal.Log.attach dev in
  ignore (Lbc_wal.Log.append log (t 2));
  let p = Merge.merge_logs_prefix [ log ] in
  check_int "nothing ordered" 0 (List.length p.Merge.ordered);
  check_int "one leftover" 1 p.Merge.leftover;
  Alcotest.(check (list int)) "head unchanged" [ Lbc_wal.Log.head log ]
    p.Merge.new_heads;
  (* Once seq 1 appears (in another log), everything merges. *)
  let dev1 = Lbc_storage.Dev.create () in
  let log1 = Lbc_wal.Log.attach dev1 in
  ignore
    (Lbc_wal.Log.append log1
       {
         Lbc_wal.Record.node = 1;
         tid = 1;
         locks = [ { Lbc_wal.Record.lock_id = 0; seqno = 1; prev_write_seq = 0 } ];
         (* seq 1 is referenced as a *write*, so it carries data *)
         ranges = [ { Lbc_wal.Record.region = 0; offset = 0; data = Bytes.of_string "w" } ];
         cmd = None;
       });
  let p = Merge.merge_logs_prefix [ log; log1 ] in
  check_int "both ordered" 2 (List.length p.Merge.ordered);
  check_int "no leftover" 0 p.Merge.leftover;
  Alcotest.(check (list int)) "heads at tails"
    [ Lbc_wal.Log.tail log; Lbc_wal.Log.tail log1 ]
    p.Merge.new_heads

(* Two transactions acquire two locks in opposite order — the textbook
   deadlock.  Both sit in [acquire_timeout] until it gives up, abort
   (undoing their stores), retry in canonical order, and both commit. *)
let test_deadlock_timeout_abort_retry () =
  let c = mk ~nodes:2 () in
  let deadlocked = ref 0 in
  let worker n ~first ~second ~offset =
    Cluster.spawn c ~node:n (fun node ->
        let txn = Node.Txn.begin_ node in
        Node.Txn.acquire txn first;
        Node.Txn.set_u64 txn ~region ~offset (Int64.of_int (n + 1));
        (* Both workers now hold their first lock. *)
        Lbc_sim.Proc.sleep 20.0;
        if Node.Txn.acquire_timeout txn second ~timeout:100.0 then
          Node.Txn.commit txn
        else begin
          incr deadlocked;
          Node.Txn.abort txn;
          let txn = Node.Txn.begin_ node in
          Node.Txn.acquire txn (min first second);
          Node.Txn.acquire txn (max first second);
          Node.Txn.set_u64 txn ~region ~offset (Int64.of_int (n + 1));
          Node.Txn.commit txn
        end)
  in
  worker 0 ~first:0 ~second:1 ~offset:0;
  worker 1 ~first:1 ~second:0 ~offset:8;
  Cluster.run c;
  Alcotest.(check bool) "the deadlock was hit" true (!deadlocked >= 1);
  check_i64 "node 0's write committed" 1L
    (Node.get_u64 (Cluster.node c 0) ~region ~offset:0);
  check_i64 "node 1's write committed" 2L
    (Node.get_u64 (Cluster.node c 1) ~region ~offset:8);
  Alcotest.(check bool) "caches agree" true
    (Bytes.equal
       (Node.read (Cluster.node c 0) ~region ~offset:0 ~len:16)
       (Node.read (Cluster.node c 1) ~region ~offset:0 ~len:16))

let contains_substring haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_report_renders () =
  let c = mk () in
  Cluster.spawn c ~node:0 (fun node -> increment node ~offset:0);
  Cluster.run c;
  let s = Format.asprintf "%a" Report.pp_cluster c in
  Alcotest.(check bool) "mentions both nodes" true
    (contains_substring s "node 0:" && contains_substring s "node 1:");
  Alcotest.(check bool) "mentions one commit" true
    (contains_substring s "1 commits")

let qtest = QCheck_alcotest.to_alcotest

let suites =
  [
    ( "core.wire",
      [
        Alcotest.test_case "roundtrip" `Quick test_wire_roundtrip;
        Alcotest.test_case "compression" `Quick test_wire_compression;
        Alcotest.test_case "golden vectors" `Quick test_wire_golden;
        qtest prop_wire_roundtrip;
        qtest prop_wire_iov_identity;
        qtest prop_wire_decode_never_crashes;
        qtest prop_wire_truncation_detected;
        Alcotest.test_case "negative count = Truncated" `Quick
          test_wire_negative_count;
      ] );
    ( "core.msg",
      [
        qtest prop_msg_decode_hostile;
        Alcotest.test_case "Fetched shares its payload list" `Quick
          test_msg_fetched_shares_payload;
      ] );
    ( "core.eager",
      [
        Alcotest.test_case "update propagates" `Quick test_update_propagates;
        Alcotest.test_case "counter x3 nodes" `Quick test_counter_three_nodes;
        Alcotest.test_case "interlock" `Quick
          test_interlock_token_overtakes_updates;
        Alcotest.test_case "out-of-order held" `Quick
          test_out_of_order_updates_held;
        Alcotest.test_case "fine-grained under coarse lock" `Quick
          test_fine_grained_updates_coarse_lock;
        Alcotest.test_case "read-only silent" `Quick test_no_broadcast_for_readonly;
        Alcotest.test_case "only mapping peers" `Quick
          test_update_only_to_mapping_peers;
        Alcotest.test_case "abort propagates nothing" `Quick
          test_abort_propagates_nothing;
        Alcotest.test_case "duplicate delivery" `Quick
          test_duplicate_delivery_ignored;
        qtest prop_receiver_model;
        Alcotest.test_case "held chain drains in linear work" `Quick
          test_held_chain_linear;
        Alcotest.test_case "double acquire rejected" `Quick
          test_double_acquire_same_lock_rejected;
        Alcotest.test_case "wire large offsets" `Quick test_wire_large_offsets;
        Alcotest.test_case "group commit end to end" `Quick
          test_group_commit_cluster;
      ] );
    ( "core.lazy",
      [
        Alcotest.test_case "no eager traffic" `Quick test_lazy_no_eager_traffic;
        Alcotest.test_case "fetch on acquire" `Quick test_lazy_fetch_on_acquire;
        Alcotest.test_case "chain through writers" `Quick
          test_lazy_chain_through_writers;
        Alcotest.test_case "multi-lock falls back" `Quick
          test_lazy_multilock_falls_back_to_eager;
      ] );
    ( "core.recovery",
      [
        Alcotest.test_case "merge orders by lock seq" `Quick
          test_merge_orders_by_lock_seq;
        Alcotest.test_case "merge unorderable" `Quick test_merge_unorderable;
        Alcotest.test_case "partition: disjoint streams" `Quick
          test_partition_disjoint_streams;
        Alcotest.test_case "partition: shared region joins locks" `Quick
          test_partition_region_joins_locks;
        Alcotest.test_case "partition: transitive closure" `Quick
          test_partition_transitive_closure;
        Alcotest.test_case "partition: preserves all records" `Quick
          test_partition_preserves_all_records;
        Alcotest.test_case "partition: empty and keyless" `Quick
          test_partition_empty_and_keyless;
        qtest prop_region_index_matches_partition;
        qtest prop_merge_respects_lock_order;
        Alcotest.test_case "distributed recovery" `Quick
          test_distributed_recovery_matches_caches;
        Alcotest.test_case "checkpoint" `Quick test_checkpoint_trims_and_preserves;
        Alcotest.test_case "online checkpoint" `Quick
          test_checkpoint_midstream;
        Alcotest.test_case "online checkpoint idempotent" `Quick
          test_checkpoint_idempotent;
        Alcotest.test_case "merge prefix holds gaps" `Quick
          test_merge_prefix_holds_back_gaps;
        Alcotest.test_case "checkpoint keeps lazy chains" `Quick
          test_checkpoint_keeps_lazy_chains;
        Alcotest.test_case "online after offline checkpoint" `Quick
          test_online_after_offline_checkpoint;
        Alcotest.test_case "checkpoints skip what they replayed" `Quick
          test_checkpoints_skip_replayed;
        Alcotest.test_case "rejoin after checkpoints" `Quick
          test_rejoin_after_checkpoints;
        Alcotest.test_case "rejoin chains follow the trim" `Quick
          test_rejoin_chains_after_trim;
        Alcotest.test_case "rejoin after a read-only commit" `Quick
          test_rejoin_after_read_only_commit;
        Alcotest.test_case "report renders" `Quick test_report_renders;
        Alcotest.test_case "client crash" `Quick
          test_client_crash_loses_uncommitted_only;
        Alcotest.test_case "reload judges arrivals after" `Quick
          test_reload_judges_arrivals_after;
      ] );
    ( "core.versioned",
      [
        Alcotest.test_case "pin defers updates" `Quick test_pin_defers_updates;
        Alcotest.test_case "pin blocks acquire" `Quick test_pin_blocks_acquire;
        Alcotest.test_case "accept preserves order" `Quick
          test_pin_accept_ordering_preserved;
        Alcotest.test_case "accept repairs what it holds" `Quick
          test_accept_repairs_held;
      ] );
    ( "core.multicast",
      [
        Alcotest.test_case "single transmission" `Quick
          test_multicast_single_transmission;
        Alcotest.test_case "sender time constant" `Quick
          test_multicast_sender_time_constant_in_peers;
      ] );
    ( "core.failures",
      [
        Alcotest.test_case "torn log tail" `Quick test_recovery_ignores_torn_tails;
        Alcotest.test_case "server crash" `Quick test_server_crash_then_recovery;
        Alcotest.test_case "deadlock timeout, abort, retry" `Quick
          test_deadlock_timeout_abort_retry;
      ] );
  ]
