(* Static verifier for the log invariants the coherency protocol rests on
   (paper sections 2.2 and 3.5):

   1. per-stream monotonicity — one node's log lists each lock's seqnos in
      strictly increasing order (commit order respects acquire order);
   2. global uniqueness — a (lock, seqno) pair is granted once;
   3. write-chain consistency — a record's prev_write_seq equals the seqno
      of the closest earlier *writing* record on that lock.  Aborted and
      read-only acquires consume seqnos without extending the chain, so
      gaps in raw seqnos are legal but holes in the write chain are not;
   4. wire-codec round-trip — Wire.encode / Wire.decode is the identity on
      every record (modulo the canonical range sort the codec performs);
   5. merge legality — Merge.merge_records succeeds and emits a legal
      serial order of its inputs (an interleaving that preserves every
      stream and keeps per-lock seqnos ascending). *)

module R = Lbc_wal.Record

(* --------------------------------------------------------------- *)
(* 1 + 2: seqno monotonicity and uniqueness *)

let check_monotonic streams =
  let violations = ref [] in
  List.iteri
    (fun si stream ->
      let last : (int, int * Violation.txn_id) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (fun (txn : R.txn) ->
          List.iter
            (fun l ->
              (match Hashtbl.find_opt last l.R.lock_id with
              | Some (prev, _) when l.R.seqno <= prev ->
                  violations :=
                    Violation.Seqno_regression
                      {
                        log = si;
                        lock = l.R.lock_id;
                        seqno = l.R.seqno;
                        after = prev;
                        txn = Violation.txn_id_of txn;
                      }
                    :: !violations
              | _ -> ());
              Hashtbl.replace last l.R.lock_id
                (l.R.seqno, Violation.txn_id_of txn))
            txn.R.locks)
        stream)
    streams;
  List.rev !violations

let check_unique streams =
  let seen : (int * int, Violation.txn_id) Hashtbl.t = Hashtbl.create 64 in
  let violations = ref [] in
  List.iter
    (List.iter (fun (txn : R.txn) ->
         List.iter
           (fun l ->
             let key = (l.R.lock_id, l.R.seqno) in
             match Hashtbl.find_opt seen key with
             | Some first ->
                 violations :=
                   Violation.Seqno_duplicate
                     {
                       lock = l.R.lock_id;
                       seqno = l.R.seqno;
                       a = first;
                       b = Violation.txn_id_of txn;
                     }
                   :: !violations
             | None -> Hashtbl.add seen key (Violation.txn_id_of txn))
           txn.R.locks))
    streams;
  List.rev !violations

(* --------------------------------------------------------------- *)
(* 3: prev_write_seq chain *)

(* [base] gives the per-lock chain baseline.  Full logs start at 0; logs
   trimmed by a checkpoint have lost their oldest records, so with
   [~infer_base:true] (the default for offline images) the first observed
   record's prev_write_seq is trusted as the baseline instead. *)
let check_chain ?(infer_base = true) ?(base = fun _ -> 0) streams =
  let by_lock :
      (int, (int * int * bool * Violation.txn_id) list) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (List.iter (fun (txn : R.txn) ->
         let is_write = R.is_write txn in
         List.iter
           (fun l ->
             let prev =
               Option.value ~default:[] (Hashtbl.find_opt by_lock l.R.lock_id)
             in
             Hashtbl.replace by_lock l.R.lock_id
               ((l.R.seqno, l.R.prev_write_seq, is_write,
                 Violation.txn_id_of txn)
               :: prev))
           txn.R.locks))
    streams;
  let violations = ref [] in
  Hashtbl.iter
    (fun lock entries ->
      let entries =
        List.sort
          (fun (s1, _, _, _) (s2, _, _, _) -> Int.compare s1 s2)
          entries
      in
      let write_seqs =
        List.filter_map
          (fun (s, _, w, _) -> if w then Some s else None)
          entries
      in
      let chain = ref (base lock) in
      List.iteri
        (fun i (seqno, prev_write_seq, is_write, txn) ->
          if i = 0 && infer_base && prev_write_seq > !chain then
            (* Trimmed log: accept the first record's claim as baseline. *)
            chain := prev_write_seq;
          if prev_write_seq <> !chain then
            violations :=
              (if
                 prev_write_seq > !chain
                 && not (List.mem prev_write_seq write_seqs)
               then
                 Violation.Seqno_gap
                   { lock; missing = prev_write_seq; referenced_by = txn }
               else
                 Violation.Chain_broken
                   {
                     lock;
                     seqno;
                     prev_write_seq;
                     expected = !chain;
                     txn;
                   })
              :: !violations;
          if is_write then chain := seqno)
        entries)
    by_lock;
  List.rev !violations

(* --------------------------------------------------------------- *)
(* 4: wire-codec round-trip *)

let canonical_ranges ranges =
  List.sort
    (fun (a : R.range) (b : R.range) ->
      let c = Int.compare a.region b.region in
      if c <> 0 then c else Int.compare a.offset b.offset)
    ranges

let equal_modulo_range_order (a : R.txn) (b : R.txn) =
  R.equal_txn
    { a with R.ranges = canonical_ranges a.R.ranges }
    { b with R.ranges = canonical_ranges b.R.ranges }

let check_roundtrip streams =
  let violations = ref [] in
  List.iter
    (List.iter (fun (txn : R.txn) ->
         match Lbc_core.Wire.decode (Lbc_core.Wire.encode txn) with
         | decoded ->
             if not (equal_modulo_range_order txn decoded) then
               violations :=
                 Violation.Codec_mismatch
                   {
                     txn = Violation.txn_id_of txn;
                     detail =
                       Format.asprintf
                         "decode(encode) differs: %a <> %a" R.pp_txn txn
                         R.pp_txn decoded;
                   }
                 :: !violations
         | exception exn ->
             violations :=
               Violation.Codec_mismatch
                 {
                   txn = Violation.txn_id_of txn;
                   detail = "round-trip raised " ^ Printexc.to_string exn;
                 }
               :: !violations))
    streams;
  List.rev !violations

(* Decode an untrusted wire image (as an Update message payload would be):
   a failure here is a codec-decode violation, used by the selftest's
   truncation corruption. *)
let check_wire_image payload =
  match Lbc_core.Wire.decode payload with
  | (_ : R.txn) -> []
  | exception Lbc_util.Codec.Truncated why ->
      [ Violation.Codec_error { detail = "truncated wire image: " ^ why } ]
  | exception exn ->
      [ Violation.Codec_error { detail = Printexc.to_string exn } ]

(* --------------------------------------------------------------- *)
(* 5: merge legality *)

let check_merge streams =
  match Lbc_core.Merge.merge_records streams with
  | Error (Lbc_core.Merge.Unorderable why) ->
      [ Violation.Merge_unorderable { detail = why } ]
  | Ok merged ->
      let violations = ref [] in
      let total = List.fold_left (fun a s -> a + List.length s) 0 streams in
      if List.length merged <> total then
        violations :=
          Violation.Merge_not_serial
            {
              detail =
                Printf.sprintf "merged %d records from %d inputs"
                  (List.length merged) total;
            }
          :: !violations;
      (* Each input stream must be a subsequence of the merged order.
         Merge emits the very records it consumed, so physical equality
         identifies the source cell. *)
      let heads = Array.of_list (List.map ref streams) in
      List.iter
        (fun txn ->
          let claimed = ref false in
          Array.iter
            (fun head ->
              match !head with
              | h :: rest when (not !claimed) && h == txn ->
                  claimed := true;
                  head := rest
              | _ -> ())
            heads;
          if not !claimed then
            violations :=
              Violation.Merge_not_serial
                {
                  detail =
                    Format.asprintf
                      "record %a is not the next record of any input stream"
                      R.pp_txn txn;
                }
              :: !violations)
        merged;
      (* Per-lock seqnos must ascend along the merged order. *)
      let last : (int, int) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (fun (txn : R.txn) ->
          List.iter
            (fun l ->
              (match Hashtbl.find_opt last l.R.lock_id with
              | Some prev when l.R.seqno <= prev ->
                  violations :=
                    Violation.Merge_not_serial
                      {
                        detail =
                          Printf.sprintf
                            "lock %d seqno %d emitted after seqno %d"
                            l.R.lock_id l.R.seqno prev;
                      }
                    :: !violations
              | _ -> ());
              Hashtbl.replace last l.R.lock_id l.R.seqno)
            txn.R.locks)
        merged;
      List.rev !violations

(* --------------------------------------------------------------- *)
(* 6: region coverage *)

(* With the mapped region set declared, every range must land inside it:
   receivers skip ranges for regions they have not mapped (counting them
   in [Rvm.stats.unmapped_ranges]), so a write outside the set silently
   reaches nobody. *)
let check_regions ~regions streams =
  let violations = ref [] in
  List.iter
    (List.iter (fun (txn : R.txn) ->
         List.iter
           (fun region ->
             if not (List.mem region regions) then
               violations :=
                 Violation.Unmapped_region
                   { region; txn = Violation.txn_id_of txn }
                 :: !violations)
           (R.regions txn)))
    streams;
  List.rev !violations

(* --------------------------------------------------------------- *)
(* Umbrella *)

let check_streams ?infer_base ?base ?(races = true) ?regions streams =
  List.concat
    [
      check_monotonic streams;
      check_unique streams;
      check_chain ?infer_base ?base streams;
      check_roundtrip streams;
      check_merge streams;
      (if races then Race.check streams else []);
      (match regions with
      | None -> []
      | Some regions -> check_regions ~regions streams);
    ]

(* Read a log and keep only complete records; a torn tail is RVM's normal
   crash residue, reported separately by the CLI, not a violation. *)
let stream_of_log log = fst (Lbc_wal.Log.read_all log)

(* A checkpoint cuts each log at its own head: the merged cut, clamped
   per log to its retention mark.  So a log trimmed further than a peer's
   may have dropped writes the peer's live records still name — a legal
   hole, not data loss.  Within one node's log per-lock seqnos strictly
   ascend, so a trimmed log can only have hidden writes {e below} its
   first live seqno on each lock (or any seqno on locks with no live
   record).  With [infer_base] (the offline default) a seqno-gap is
   excused when some trimmed log could have held the missing write; gaps
   nothing could explain still fire. *)
let gap_excused ~logs ~streams (v : Violation.t) =
  match v with
  | Violation.Seqno_gap { lock; missing; _ } ->
      List.exists2
        (fun log stream ->
          Lbc_wal.Log.head log > Lbc_wal.Log.header_size
          &&
          let first_live =
            List.fold_left
              (fun acc (txn : R.txn) ->
                List.fold_left
                  (fun acc l ->
                    if l.R.lock_id = lock then min acc l.R.seqno else acc)
                  acc txn.R.locks)
              max_int stream
          in
          missing < first_live)
        logs streams
  | _ -> false

let check_logs ?(infer_base = true) ?base ?races ?regions logs =
  let streams = List.map stream_of_log logs in
  let violations = check_streams ~infer_base ?base ?races ?regions streams in
  if infer_base then
    List.filter (fun v -> not (gap_excused ~logs ~streams v)) violations
  else violations
