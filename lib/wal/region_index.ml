(* Replay-partition index over one log's live tail.

   Two committed transactions conflict when they share a lock or touch
   the same region; the index is the transitive closure of that relation
   (union-find over lock and region ids), with each connected component
   holding the ascending log offsets of its records.  Chains from
   different components touch disjoint regions under disjoint locks, so
   they replay independently; within a chain, offset order is log order
   is replay order.  [Lbc_core.Merge.partition] is this index over the
   positions of a merged record stream.

   Nothing of it is persisted: {!of_log} rebuilds it from the live
   records in the one scan a rejoin makes anyway, so its chains are
   exactly [Merge.partition] of the tail. *)

(* One int per key, so the union-find table hashes plain ints: locks
   are even (the keyless catch-all, lock -1, is 0), regions odd. *)
let lock_key l = 2 * (l + 1)
let region_key r = (2 * r) + 1

(* Each record is kept as its offset and one of its keys; the offsets
   are grouped by the key's root only when chains are read, so a union
   costs one table write however many records the two chains hold. *)
type t = {
  parent : (int, int) Hashtbl.t;  (* union-find over tagged keys *)
  mutable items : (int * int) list;
      (* (offset, a key of its record), offsets strictly descending *)
}

type chain = { locks : int list; regions : int list; offsets : int list }

let create () = { parent = Hashtbl.create 64; items = [] }

let rec find t k =
  match Hashtbl.find_opt t.parent k with
  | None ->
      Hashtbl.replace t.parent k k;
      k
  | Some p when p = k -> k
  | Some p ->
      let root = find t p in
      Hashtbl.replace t.parent k root;
      root

let union t a b =
  let ra = find t a and rb = find t b in
  if ra <> rb then Hashtbl.replace t.parent ra rb

(* A record's keys, first and rest.  Lockless, effect-free transactions
   have no replay effect; they share the catch-all chain rather than
   inventing one each. *)
let txn_keys (txn : Record.txn) =
  match
    List.map (fun l -> lock_key l.Record.lock_id) txn.Record.locks
    @ List.map region_key (Record.regions txn)
  with
  | [] -> (lock_key (-1), [])
  | k0 :: rest -> (k0, rest)

(* [find] registers [k0] even when [rest] is empty, so every key of
   [items] is in [parent] for {!entries}. *)
let add t ~off txn =
  (match t.items with
  | (o, _) :: _ when off <= o ->
      invalid_arg "Region_index.add: offsets must ascend"
  | _ -> ());
  let k0, rest = txn_keys txn in
  ignore (find t k0);
  List.iter (union t k0) rest;
  t.items <- (off, k0) :: t.items

(* Live chains as (root, ascending offsets), ordered by first offset. *)
let groups t =
  let by_root = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (o, k) ->
      let r = find t k in
      match Hashtbl.find_opt by_root r with
      | Some offs -> offs := o :: !offs
      | None ->
          Hashtbl.add by_root r (ref [ o ]);
          order := r :: !order)
    (List.rev t.items);
  List.rev_map (fun r -> (r, List.rev !(Hashtbl.find by_root r))) !order

(* Canonical form: each chain with its locks and regions sorted
   ascending and offsets ascending, chains ordered by first offset —
   deterministic regardless of union-find internals.  The catch-all key
   names no lock. *)
let entries t =
  let keys_by_root = Hashtbl.create 16 in
  List.iter
    (fun k ->
      let r = find t k in
      Hashtbl.replace keys_by_root r
        (k :: Option.value ~default:[] (Hashtbl.find_opt keys_by_root r)))
    (Hashtbl.fold (fun k _ acc -> k :: acc) t.parent []);
  List.map
    (fun (r, offsets) ->
      let keys = List.sort Int.compare (Hashtbl.find keys_by_root r) in
      let regions, locks = List.partition (fun k -> k land 1 = 1) keys in
      let locks = List.filter (fun k -> k > 0) locks in
      {
        locks = List.map (fun k -> (k / 2) - 1) locks;
        regions = List.map (fun k -> k / 2) regions;
        offsets;
      })
    (groups t)

let chains t = List.map snd (groups t)

let of_log log =
  let t = create () in
  let (), status = Log.fold log ~init:() (fun () off txn -> add t ~off txn) in
  (t, status)
