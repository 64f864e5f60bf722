type error = Unorderable of string

module Imap = Map.Make (Int)
module R = Lbc_wal.Record

(* Per lock: the sequence numbers not yet emitted, ascending, and the
   highest write emitted so far. *)
type lock_state = { mutable pending : int list; mutable last_write : int }

(* The one lock-order emission loop, over per-log record arrays in log
   order.  Pass one indexes, for every lock, the ascending sequence
   numbers present in any log (one acquire each, so sorting gives the
   required total order).  Pass two repeatedly takes, from each log in
   turn, the longest prefix whose records are emittable — every lock at
   its next expected seqno, and the write it depends on
   ([prev_write_seq]) emitted here or [covered] — which keeps the common
   single-writer case linear.  Returns the emitted records in order, how
   many each log gave, and how many were left. *)
let emit ~covered logs =
  let locks =
    Imap.map
      (fun seqs ->
        { pending = List.sort_uniq Int.compare seqs; last_write = 0 })
      (Array.fold_left
         (Array.fold_left (fun acc (txn : R.txn) ->
              List.fold_left
                (fun acc (l : R.lock_info) ->
                  Imap.add l.lock_id
                    (l.seqno
                    :: Option.value ~default:[] (Imap.find_opt l.lock_id acc))
                    acc)
                acc txn.locks))
         Imap.empty logs)
  in
  let emittable (txn : R.txn) =
    List.for_all
      (fun (l : R.lock_info) ->
        let st = Imap.find l.lock_id locks in
        (match st.pending with s :: _ -> s = l.seqno | [] -> false)
        && (l.prev_write_seq = 0
           || st.last_write >= l.prev_write_seq
           || covered l.lock_id >= l.prev_write_seq))
      txn.locks
  in
  let taken = Array.make (Array.length logs) 0 in
  let out = ref [] in
  let progressed = ref true in
  while !progressed do
    progressed := false;
    Array.iteri
      (fun i log ->
        while taken.(i) < Array.length log && emittable log.(taken.(i)) do
          let txn = log.(taken.(i)) in
          let write = R.is_write txn in
          List.iter
            (fun (l : R.lock_info) ->
              let st = Imap.find l.lock_id locks in
              (match st.pending with
              | s :: rest when s = l.seqno -> st.pending <- rest
              | _ -> ());
              if write then st.last_write <- l.seqno)
            txn.locks;
          out := txn :: !out;
          taken.(i) <- taken.(i) + 1;
          progressed := true
        done)
      logs
  done;
  let leftover = ref 0 in
  Array.iteri
    (fun i log -> leftover := !leftover + Array.length log - taken.(i))
    logs;
  (List.rev !out, taken, !leftover)

(* A full merge is the prefix merge with every prior write covered: it
   succeeds only if nothing is left over. *)
let merge_records logs =
  match
    emit
      ~covered:(fun _ -> max_int)
      (Array.of_list (List.map Array.of_list logs))
  with
  | ordered, _, 0 -> Ok ordered
  | _, _, stuck ->
      Error
        (Unorderable
           (Printf.sprintf "no emittable head among %d stuck transactions"
              stuck))

let merge_logs logs =
  merge_records (List.map (fun log -> fst (Lbc_wal.Log.read_all log)) logs)

(* Partition a merged transaction stream into independent replay streams:
   the region index (the lock∪region conflict closure) over stream
   positions instead of log offsets.  Its chains come in order of first
   position, each in position order, so the merged order is kept. *)
let partition records =
  let txns = Array.of_list records in
  let idx = Lbc_wal.Region_index.create () in
  Array.iteri (fun i txn -> Lbc_wal.Region_index.add idx ~off:i txn) txns;
  List.map (List.map (Array.get txns)) (Lbc_wal.Region_index.chains idx)

type prefix = {
  ordered : R.txn list;
  new_heads : int list;
  leftover : int;
}

let merge_logs_prefix ?(checkpointed = fun _ -> 0) logs =
  (* Each log's records with their offsets: the offset of the record
     after the last one merged (the tail if it was the last) is the
     trim point. *)
  let scanned =
    List.map
      (fun log ->
        let items, _ =
          Lbc_wal.Log.fold log ~init:[] (fun acc off txn -> (off, txn) :: acc)
        in
        (log, Array.of_list (List.rev items)))
      logs
  in
  let ordered, taken, leftover =
    emit ~covered:checkpointed
      (Array.of_list (List.map (fun (_, items) -> Array.map snd items) scanned))
  in
  let new_heads =
    List.mapi
      (fun i (log, items) ->
        let k = taken.(i) in
        if k = 0 then Lbc_wal.Log.head log
        else if k = Array.length items then Lbc_wal.Log.tail log
        else fst items.(k))
      scanned
  in
  { ordered; new_heads; leftover }
