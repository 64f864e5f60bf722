(* Replay-partition index over one log's live tail.

   Two committed transactions conflict when they share a lock or touch
   the same region; the index is the transitive closure of that relation
   (union-find over lock and region ids), with each connected component
   holding the ascending log offsets of its records.  Chains from
   different components touch disjoint regions under disjoint locks, so
   they replay independently; within a chain, offset order is log order
   is replay order.  [Lbc_core.Merge.partition] is this index over the
   positions of a merged record stream.

   The index is persisted as a [Region_index] control record over each
   log tail a checkpoint's trim leaves ({!to_ctrl}/{!of_entries}) and
   extended incrementally at attach time with the records appended since
   ({!of_log}), so a rejoining node never re-partitions the tail it
   already checkpointed. *)

type key = Lock of int | Region of int

(* Tagged non-negative ints so keys ride the varint encoding: locks are
   even (the keyless catch-all [Lock (-1)] is 0), regions odd. *)
let tag = function Lock i -> 2 * (i + 1) | Region i -> (2 * i) + 1
let untag k = if k land 1 = 1 then Region (k lsr 1) else Lock ((k lsr 1) - 1)

(* Each record is kept as its offset and one of its keys; the offsets
   are grouped by the key's root only when chains are read, so a union
   costs one table write however many records the two chains hold. *)
type t = {
  parent : (int, int) Hashtbl.t;  (* union-find over tagged keys *)
  mutable items : (int * int) list;
      (* (offset, a key of its record), offsets strictly descending *)
  mutable last_off : int;  (* highest offset indexed; -1 when empty *)
}

let create () = { parent = Hashtbl.create 64; items = []; last_off = -1 }

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

(* Join a record's keys into one chain; returns its root for now. *)
let join t = function
  | [] -> None
  | k0 :: rest ->
      List.iter (union t k0) rest;
      Some (find t k0)

let txn_keys (txn : Record.txn) =
  let ks =
    List.map (fun l -> tag (Lock l.Record.lock_id)) txn.Record.locks
    @ List.map (fun r -> tag (Region r)) (Record.regions txn)
  in
  (* Lockless, effect-free transactions have no replay effect; group them
     in the catch-all chain rather than inventing one each. *)
  match ks with [] -> [ tag (Lock (-1)) ] | ks -> ks

let add t ~off txn =
  match join t (txn_keys txn) with
  | None -> ()
  | Some k ->
      if off <= t.last_off then
        invalid_arg "Region_index.add: offsets must ascend";
      t.items <- (off, k) :: t.items;
      t.last_off <- off

let of_entries entries =
  let t = create () in
  let items =
    List.concat_map
      (fun (e : Record.index_entry) ->
        match join t e.keys with
        | None -> []
        | Some k -> List.map (fun o -> (o, k)) e.offsets)
      entries
  in
  t.items <- List.sort (fun (a, _) (b, _) -> Int.compare b a) items;
  (match t.items with (o, _) :: _ -> t.last_off <- o | [] -> ());
  t

let drop_below t ~head =
  t.items <- List.filter (fun (o, _) -> o >= head) t.items

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

(* Canonical form: each live chain (≥ 1 record) with its keys sorted
   ascending and offsets ascending, chains ordered by first offset —
   deterministic regardless of union-find internals. *)
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
      { Record.keys = List.sort Int.compare (Hashtbl.find keys_by_root r);
        offsets })
    (groups t)

let chains t = List.map snd (groups t)

let to_ctrl t ~node ~ckpt_id =
  { Record.kind = Record.Region_index; node; ckpt_id; entries = entries t }

let of_log log =
  (* Seed from the newest persisted index, then extend with the records
     appended after it; offsets trimmed since the index was written are
     dropped (the chain structure they contributed is kept — a coarser
     partition is conservative and still replays correctly).

     The rescan resumes from the highest offset the persisted entries
     actually cover, NOT from the ctrl record's own log offset: commits
     can land between the checkpoint's index scan and the ctrl append,
     giving them offsets below the ctrl record while absent from its
     entries.  Records are appended in offset order, so anything missing
     from the entries is strictly above every indexed offset. *)
  let ctrls, _ = Log.fold_ctrl log ~init:[] (fun acc off c -> (off, c) :: acc) in
  let newest =
    List.find_opt
      (fun (_, (c : Record.ctrl)) -> c.kind = Record.Region_index)
      ctrls
  in
  let t, from_off =
    match newest with
    | Some (_, c) ->
        let t = of_entries c.Record.entries in
        (t, t.last_off)
    | None -> (create (), -1)
  in
  drop_below t ~head:(Log.head log);
  let (), status =
    Log.fold log ~init:() (fun () off txn ->
        if off > from_off then add t ~off txn)
  in
  (t, status)
