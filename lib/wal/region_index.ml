(* Replay-partition index over one log's live tail.

   Two committed transactions conflict when they share a lock or touch
   the same region; the index is the transitive closure of that relation
   (union-find over lock and region ids — the same closure
   [Lbc_core.Merge.partition] computes over a merged record stream), with
   each connected component holding the ascending log offsets of its
   records.  Chains from different components touch disjoint regions
   under disjoint locks, so they replay independently; within a chain,
   offset order is log order is replay order.

   The index is persisted as a [Region_index] control record alongside a
   checkpoint's end marker ({!to_ctrl}/{!of_entries}) and extended
   incrementally at attach time with the records appended since
   ({!of_log}), so a rejoining node never re-partitions the tail it
   already checkpointed. *)

type key = Lock of int | Region of int

(* Tagged non-negative ints so keys ride the varint encoding: locks are
   even (the keyless catch-all [Lock (-1)] is 0), regions odd. *)
let tag = function Lock i -> 2 * (i + 1) | Region i -> (2 * i) + 1
let untag k = if k land 1 = 1 then Region (k lsr 1) else Lock ((k lsr 1) - 1)

type t = {
  parent : (int, int) Hashtbl.t;  (* union-find over tagged keys *)
  offs : (int, int list) Hashtbl.t;  (* root -> offsets, newest first *)
  mutable last_off : int;  (* highest offset indexed; -1 when empty *)
}

let create () =
  { parent = Hashtbl.create 64; offs = Hashtbl.create 16; last_off = -1 }

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
  if ra <> rb then begin
    Hashtbl.replace t.parent ra rb;
    match Hashtbl.find_opt t.offs ra with
    | None -> ()
    | Some l ->
        Hashtbl.remove t.offs ra;
        let existing =
          Option.value ~default:[] (Hashtbl.find_opt t.offs rb)
        in
        Hashtbl.replace t.offs rb (List.rev_append l existing)
  end

let txn_keys (txn : Record.txn) =
  let ks =
    List.map (fun l -> tag (Lock l.Record.lock_id)) txn.Record.locks
    @ List.map (fun r -> tag (Region r)) (Record.regions txn)
  in
  (* Lockless, effect-free transactions have no replay effect; group them
     in the catch-all chain rather than inventing one each. *)
  match ks with [] -> [ tag (Lock (-1)) ] | ks -> ks

let add t ~off txn =
  match txn_keys txn with
  | [] -> ()
  | k0 :: rest ->
      List.iter (fun k -> union t k0 k) rest;
      let r = find t k0 in
      Hashtbl.replace t.offs r
        (off :: Option.value ~default:[] (Hashtbl.find_opt t.offs r));
      if off > t.last_off then t.last_off <- off

let of_entries entries =
  let t = create () in
  List.iter
    (fun (e : Record.index_entry) ->
      match e.keys with
      | [] -> ()
      | k0 :: rest ->
          List.iter (fun k -> union t k0 k) rest;
          let r = find t k0 in
          Hashtbl.replace t.offs r
            (List.rev_append e.offsets
               (Option.value ~default:[] (Hashtbl.find_opt t.offs r)));
          List.iter (fun o -> if o > t.last_off then t.last_off <- o) e.offsets)
    entries;
  t

let drop_below t ~head =
  let roots = Hashtbl.fold (fun r _ acc -> r :: acc) t.offs [] in
  List.iter
    (fun r ->
      match Hashtbl.find_opt t.offs r with
      | None -> ()
      | Some l -> Hashtbl.replace t.offs r (List.filter (fun o -> o >= head) l))
    roots

(* Canonical form: each live chain (≥ 1 record) with its keys sorted
   ascending and offsets ascending, chains ordered by first offset —
   deterministic regardless of union-find internals. *)
let entries t =
  let ks = Hashtbl.fold (fun k _ acc -> k :: acc) t.parent [] in
  let keys_by_root = Hashtbl.create 16 in
  List.iter
    (fun k ->
      let r = find t k in
      Hashtbl.replace keys_by_root r
        (k :: Option.value ~default:[] (Hashtbl.find_opt keys_by_root r)))
    ks;
  let chains =
    Hashtbl.fold
      (fun r keys acc ->
        let offsets =
          List.sort Int.compare
            (Option.value ~default:[] (Hashtbl.find_opt t.offs r))
        in
        if offsets = [] then acc
        else { Record.keys = List.sort Int.compare keys; offsets } :: acc)
      keys_by_root []
  in
  List.sort
    (fun (a : Record.index_entry) (b : Record.index_entry) ->
      match (a.offsets, b.offsets) with
      | o1 :: _, o2 :: _ -> Int.compare o1 o2
      | _ -> 0 (* unreachable: empty chains were dropped *))
    chains

let chains t = List.map (fun (e : Record.index_entry) -> e.offsets) (entries t)

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
