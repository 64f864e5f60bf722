(* Tests for what a node keeps for its peers: [Retention] alone against a
   list model, a commit's cost as history grows, and a fetch from a node
   that maps none of the lock's regions. *)

open Lbc_core

let check_int = Alcotest.(check int)
let region = 0
let lock = 0

(* ------------------------------------------------------------------ *)
(* [Retention] alone: node 0 of 3, locks 0-2 *)

let nodes = 3
let nlocks = 3

type step =
  | Keep of int list  (* the record's locks *)
  | Own of int list * int list * int * bool
      (* locks, peers, log offset, and whether the commit also keeps it;
         a rejoin's replay and concurrent committers track offsets out
         of log order *)
  | Heard of int * (int * int) list  (* peer, (lock, lag behind seqno) *)
  | Query of int * int  (* lock, how far [have] lags its seqno *)

let gen_step =
  QCheck.Gen.(
    let locks =
      map (List.sort_uniq Int.compare)
        (list_size (1 -- 3) (int_bound (nlocks - 1)))
    in
    frequency
      [
        (3, map (fun ls -> Keep ls) locks);
        ( 2,
          map4
            (fun ls peers offset also_keep ->
              Own (ls, List.sort_uniq Int.compare peers, offset, also_keep))
            locks
            (list_size (0 -- 2) (int_range 1 (nodes - 1)))
            (int_range 24 1000) bool );
        ( 2,
          map2
            (fun peer lags -> Heard (peer, lags))
            (int_range 1 (nodes - 1))
            (list_size (0 -- nlocks)
               (pair (int_bound (nlocks - 1)) (int_bound 3))) );
        ( 2,
          map2
            (fun l lag -> Query (l, lag))
            (int_bound (nlocks - 1)) (int_bound 4) );
      ])

let ints xs = String.concat ";" (List.map string_of_int xs)

let show_step = function
  | Keep ls -> Printf.sprintf "keep [%s]" (ints ls)
  | Own (ls, ps, off, k) ->
      Printf.sprintf "own [%s] peers [%s] at %d%s" (ints ls) (ints ps) off
        (if k then " +keep" else "")
  | Heard (p, lags) ->
      Printf.sprintf "heard %d [%s]" p
        (String.concat ";"
           (List.map (fun (l, g) -> Printf.sprintf "%d-%d" l g) lags))
  | Query (l, g) -> Printf.sprintf "after %d lag %d" l g

(* The reference: every kept record and own write in a list, judged
   against the peers' highest reports at each query. *)
let prop_retention_model =
  QCheck.Test.make ~name:"retention matches a list model" ~count:500
    QCheck.(
      make ~print:(Print.list show_step) Gen.(list_size (1 -- 60) gen_step))
    (fun steps ->
      let r = Retention.create ~self:0 ~nodes in
      let seq = Array.make nlocks 0 in
      let tid = ref 0 in
      let reports = Array.make_matrix nodes nlocks 0 in
      let kept = ref [] (* (lock, seqno, tid), oldest first *)
      and owned = ref [] (* (offset, peers, (lock, seqno) list) *) in
      let reported p (l, s) = reports.(p).(l) >= s in
      let released (l, s) =
        List.for_all (fun p -> reported p (l, s)) (List.init (nodes - 1) succ)
      in
      let acked (_, peers, lock_seqs) =
        List.for_all (fun p -> List.for_all (reported p) lock_seqs) peers
      in
      let record ls =
        incr tid;
        let locks =
          List.map
            (fun l ->
              seq.(l) <- seq.(l) + 1;
              { Lbc_wal.Record.lock_id = l; seqno = seq.(l);
                prev_write_seq = seq.(l) - 1 })
            ls
        in
        { Lbc_wal.Record.node = 0; tid = !tid; locks; ranges = []; cmd = None }
      in
      let keep (rc : Lbc_wal.Record.txn) =
        Retention.keep r rc;
        kept :=
          !kept
          @ List.map
              (fun (l : Lbc_wal.Record.lock_info) ->
                (l.lock_id, l.seqno, rc.tid))
              rc.locks
      in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      List.iter
        (fun step ->
          (match step with
          | Keep ls -> keep (record ls)
          | Own (ls, peers, offset, also_keep) ->
              let rc = record ls in
              Retention.own r ~offset ~peers rc;
              owned :=
                ( offset, peers,
                  List.map
                    (fun (l : Lbc_wal.Record.lock_info) -> (l.lock_id, l.seqno))
                    rc.locks )
                :: !owned;
              if also_keep then keep rc
          | Heard (peer, lags) ->
              let table =
                List.map (fun (l, lag) -> (l, max 0 (seq.(l) - lag))) lags
              in
              Retention.heard r ~peer table;
              List.iter
                (fun (l, s) -> reports.(peer).(l) <- max reports.(peer).(l) s)
                table
          | Query (l, lag) ->
              let have = max 0 (seq.(l) - lag) in
              let want =
                List.filter
                  (fun (l', s, _) ->
                    l' = l && s > have && not (released (l, s)))
                  !kept
                |> List.stable_sort (fun (_, a, _) (_, b, _) -> Int.compare a b)
                |> List.map (fun (_, _, tid) -> tid)
              in
              let got =
                List.map
                  (fun (rc : Lbc_wal.Record.txn) -> rc.tid)
                  (Retention.after r ~lock:l ~have)
              in
              if got <> want then
                fail "after %d %d: got [%s], want [%s]" l have (ints got)
                  (ints want));
          let water =
            List.fold_left
              (fun acc ((off, _, _) as e) ->
                if acked e then acc else min acc off)
              max_int !owned
          in
          if Retention.water r <> water then
            fail "water %d, want %d" (Retention.water r) water;
          let count =
            List.length
              (List.filter (fun (l, s, _) -> not (released (l, s))) !kept)
          in
          if Retention.count r <> count then
            fail "count %d, want %d" (Retention.count r) count)
        steps;
      true)

(* ------------------------------------------------------------------ *)
(* Clusters *)

let increment node =
  let txn = Node.Txn.begin_ node in
  Node.Txn.acquire txn lock;
  let v = Node.Txn.get_u64 txn ~region ~offset:0 in
  Node.Txn.set_u64 txn ~region ~offset:0 (Int64.add v 1L);
  Node.Txn.commit txn

let read node =
  let txn = Node.Txn.begin_ node in
  Node.Txn.acquire txn lock;
  Node.Txn.commit txn

let lazy_config = { Config.default with Config.propagation = Config.Lazy }

(* A commit's work does not grow with what the node keeps: with no
   gossip nothing is released, so a writer keeps all 4,000 records (and
   tracks 4,000 own writes).  Re-walking that history at each commit
   made the last thousand commits allocate about 7x the first. *)
let test_commit_cost_flat () =
  List.iter
    (fun (what, config) ->
      assert config.Config.disk_logging;
      let c = Cluster.create ~config ~nodes:2 () in
      Cluster.add_region c ~id:region ~size:4096;
      Cluster.map_region_all c ~region;
      let words = Array.make 5 0.0 in
      Cluster.spawn c ~node:0 (fun node ->
          for i = 0 to 4000 do
            if i mod 1000 = 0 then words.(i / 1000) <- Gc.minor_words ();
            if i < 4000 then increment node
          done);
      Cluster.run c;
      let per_commit k = (words.(k + 1) -. words.(k)) /. 1000.0 in
      let first = per_commit 0 and last = per_commit 3 in
      Alcotest.(check bool)
        (Printf.sprintf
           "%s: %.0f minor words per commit over commits 3,001-4,000, %.0f \
            over 1-1,000 (at most 1.25x)"
           what last first)
        true
        (last <= 1.25 *. first);
      check_int (what ^ ": the writer kept every record") 4000
        (Node.retained_count (Cluster.node c 0)))
    [ ("lazy", lazy_config); ("repair", Config.fault_tolerant) ]

(* Any node that acquires a lock may fetch its records, whether it maps
   the lock's regions or not, so a kept record waits for every node's
   report, not only the mappers'.  Node 2 maps nothing, reports nothing
   after the gossip round, and must still catch up from node 0. *)
let test_non_mapper_fetches () =
  List.iter
    (fun (what, config) ->
      let c = Cluster.create ~config ~nodes:3 () in
      Cluster.add_region c ~id:region ~size:4096;
      ignore (Cluster.map_region c ~node:0 ~region : Lbc_rvm.Region.t);
      ignore (Cluster.map_region c ~node:1 ~region : Lbc_rvm.Region.t);
      let step n f =
        Cluster.spawn c ~node:n f;
        Cluster.run c
      in
      step 0 (fun node ->
          for _ = 1 to 5 do
            increment node
          done);
      step 1 read;
      step 0 increment;
      step 1 read;
      ignore (Cluster.checkpoint c : int);
      Cluster.run c;
      let n0 = Cluster.node c 0 and n2 = Cluster.node c 2 in
      check_int (what ^ ": node 0 keeps its six writes") 6
        (Node.retained_count n0);
      step 2 read;
      check_int (what ^ ": node 2 reached the last write") 7
        (Node.applied_seq n2 lock);
      ignore (Cluster.checkpoint c : int);
      Cluster.run c;
      check_int (what ^ ": released once every node reports them") 0
        (Node.retained_count n0))
    [ ("lazy", lazy_config); ("repair", Config.fault_tolerant) ]

let suites =
  [
    ( "core.retention",
      [
        QCheck_alcotest.to_alcotest prop_retention_model;
        Alcotest.test_case "commit cost flat as history grows" `Quick
          test_commit_cost_flat;
        Alcotest.test_case "non-mapper fetches kept records" `Quick
          test_non_mapper_fetches;
      ] );
  ]
