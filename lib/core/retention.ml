module Record = Lbc_wal.Record

type t = {
  others : int list;  (* every node but this one *)
  applied : (int, int) Hashtbl.t array;
      (* peer -> lock -> applied write seqno, from gossip *)
  kept : (int, (int * Record.txn) list) Hashtbl.t;
      (* lock -> (seqno, record), newest first *)
  mutable own : (int * int list * (int * int) list) list;
      (* unreleased own writes, newest first: (log offset, peers,
         (lock, seqno) list) *)
  mutable water : int;  (* least offset in [own]; [max_int] when empty *)
}

let create ~self ~nodes =
  { others = List.filter (( <> ) self) (List.init nodes Fun.id);
    applied = Array.init nodes (fun _ -> Hashtbl.create 16);
    kept = Hashtbl.create 16; own = []; water = max_int }

(* The one release predicate: has [peer] reported [(lock, seq)] applied? *)
let reported t peer (lock, seq) =
  Option.value ~default:0 (Hashtbl.find_opt t.applied.(peer) lock) >= seq

(* A kept record goes once every other node reports it; an own write,
   once each of its peers reports every one of its locks. *)
let everyone_else t entry = List.for_all (fun p -> reported t p entry) t.others

let acked t (_, peers, lock_seqs) =
  List.for_all (fun p -> List.for_all (reported t p) lock_seqs) peers

let kept t lock = Option.value ~default:[] (Hashtbl.find_opt t.kept lock)

let keep t (r : Record.txn) =
  List.iter
    (fun (l : Record.lock_info) ->
      (* Seqno order; only a late duplicate apply is not the newest. *)
      let rec insert = function
        | (s, _) :: _ as rs when s <= l.seqno -> (l.seqno, r) :: rs
        | e :: rs -> e :: insert rs
        | [] -> [ (l.seqno, r) ]
      in
      if not (everyone_else t (l.lock_id, l.seqno)) then
        Hashtbl.replace t.kept l.lock_id (insert (kept t l.lock_id)))
    r.locks

let after t ~lock ~have =
  let rec take acc = function
    | (s, r) :: rs when s > have -> take (r :: acc) rs
    | _ -> acc
  in
  take [] (kept t lock)

let own t ~offset ~peers (r : Record.txn) =
  let lock_seqs =
    List.map (fun (l : Record.lock_info) -> (l.lock_id, l.seqno)) r.locks
  in
  let entry = (offset, peers, lock_seqs) in
  if not (acked t entry) then begin
    t.own <- entry :: t.own;
    t.water <- min t.water offset
  end

let heard t ~peer applied =
  let tbl = t.applied.(peer) in
  List.iter
    (fun (lock, seq) ->
      if not (reported t peer (lock, seq)) then Hashtbl.replace tbl lock seq)
    applied;
  t.own <- List.filter (fun e -> not (acked t e)) t.own;
  t.water <- List.fold_left (fun acc (off, _, _) -> min acc off) max_int t.own;
  Hashtbl.filter_map_inplace
    (fun lock rs ->
      match List.filter (fun (s, _) -> not (everyone_else t (lock, s))) rs with
      | [] -> None
      | rs -> Some rs)
    t.kept

let water t = t.water
let count t = Hashtbl.fold (fun _ rs n -> n + List.length rs) t.kept 0
