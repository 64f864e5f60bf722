type restore_mode = Restore | No_restore
type set_range_class = Redundant | Ordered | Unordered

type instrumentation = {
  on_set_range : set_range_class -> len:int -> unit;
  on_commit_collect : ranges:int -> bytes:int -> unit;
  on_apply : ranges:int -> bytes:int -> unit;
}

let no_instrumentation =
  {
    on_set_range = (fun _ ~len:_ -> ());
    on_commit_collect = (fun ~ranges:_ ~bytes:_ -> ());
    on_apply = (fun ~ranges:_ ~bytes:_ -> ());
  }

type options = {
  disk_logging : bool;
  log_mode : Lbc_wal.Command.log_mode;
  instrumentation : instrumentation;
}

let default_options =
  {
    disk_logging = true;
    log_mode = Lbc_wal.Command.Value;
    instrumentation = no_instrumentation;
  }

exception Txn_error of string

type stats = {
  mutable commits : int;
  mutable aborts : int;
  mutable set_ranges : int;
  mutable redundant_calls : int;
  mutable ordered_calls : int;
  mutable unordered_calls : int;
  mutable ranges_logged : int;
  mutable bytes_logged : int;
  mutable log_bytes_written : int;
  mutable records_applied : int;
  mutable bytes_applied : int;
  mutable unmapped_ranges : int;
}

let fresh_stats () =
  {
    commits = 0;
    aborts = 0;
    set_ranges = 0;
    redundant_calls = 0;
    ordered_calls = 0;
    unordered_calls = 0;
    ranges_logged = 0;
    bytes_logged = 0;
    log_bytes_written = 0;
    records_applied = 0;
    bytes_applied = 0;
    unmapped_ranges = 0;
  }

type t = {
  node : int;
  log : Lbc_wal.Log.t;
  options : options;
  regions : (int, Region.t) Hashtbl.t;
  mutable next_tid : int;
  stats : stats;
}

type txn = {
  owner : t;
  tid : int;
  restore : restore_mode;
  trees : (int, Range_tree.t) Hashtbl.t;  (* region id -> modified ranges *)
  mutable cur : (int * Range_tree.t) option;  (* the last region's entry *)
  mutable undo : (Region.t * int * Bytes.t) list;  (* newest first *)
  mutable locks : Lbc_wal.Record.lock_info list;  (* reverse acquire order *)
  mutable command : Lbc_wal.Record.cmd option;  (* command encoding, if declared *)
  mutable live : bool;
}

let init ?(options = default_options) ~node ~log_dev () =
  {
    node;
    log = Lbc_wal.Log.attach log_dev;
    options;
    regions = Hashtbl.create 4;
    next_tid = 1;
    stats = fresh_stats ();
  }

let node t = t.node
let log t = t.log
let options t = t.options
let stats t = t.stats

let map_region t ~id ~db ~size =
  if Hashtbl.mem t.regions id then
    invalid_arg (Printf.sprintf "Rvm.map_region: region %d already mapped" id);
  let r = Region.map ~id ~db ~size in
  Hashtbl.add t.regions id r;
  r

let region t id =
  match Hashtbl.find_opt t.regions id with
  | Some r -> r
  | None -> raise Not_found

let regions t =
  Hashtbl.fold (fun _ r acc -> r :: acc) t.regions []
  |> List.sort (fun a b -> Int.compare (Region.id a) (Region.id b))

let begin_txn ?(restore = No_restore) t =
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  {
    owner = t;
    tid;
    restore;
    trees = Hashtbl.create 2;
    cur = None;
    undo = [];
    locks = [];
    command = None;
    live = true;
  }

let tid txn = txn.tid

let check_live txn what =
  if not txn.live then
    raise (Txn_error (Printf.sprintf "%s on finished transaction %d" what txn.tid))

let tree_for txn region_id =
  match txn.cur with
  | Some (id, tree) when id = region_id -> tree
  | _ ->
      let tree =
        match Hashtbl.find_opt txn.trees region_id with
        | Some tree -> tree
        | None ->
            let tree = Range_tree.create () in
            Hashtbl.add txn.trees region_id tree;
            tree
      in
      txn.cur <- Some (region_id, tree);
      tree

let classify = function
  | Range_tree.Exact_match -> Redundant
  | Range_tree.Ordered_append -> Ordered
  | Range_tree.Extended | Range_tree.Inserted -> Unordered

let mapped txn what region =
  match Hashtbl.find_opt txn.owner.regions region with
  | Some reg -> reg
  | None ->
      raise (Txn_error (Printf.sprintf "%s: region %d not mapped" what region))

(* [set_range] on a region already looked up ([mem] looks it up once). *)
let declare_range txn reg ~offset ~len =
  check_live txn "set_range";
  let region = Region.id reg in
  if offset < 0 || len <= 0 || offset + len > Region.size reg then
    raise
      (Txn_error
         (Printf.sprintf "set_range: bad range [%d,%d) in region %d" offset
            (offset + len) region));
  let tree = tree_for txn region in
  let case = Range_tree.add tree ~offset ~len in
  let cls = classify case in
  let st = txn.owner.stats in
  st.set_ranges <- st.set_ranges + 1;
  (match cls with
  | Redundant -> st.redundant_calls <- st.redundant_calls + 1
  | Ordered -> st.ordered_calls <- st.ordered_calls + 1
  | Unordered -> st.unordered_calls <- st.unordered_calls + 1);
  txn.owner.options.instrumentation.on_set_range cls ~len;
  (* Capture the old value for abort, unless this range is already
     covered by a previous capture (Redundant case). *)
  (match (txn.restore, cls) with
  | Restore, (Ordered | Unordered) ->
      txn.undo <- (reg, offset, Region.read reg ~offset ~len) :: txn.undo
  | Restore, Redundant | No_restore, _ -> ())

let set_range txn ~region ~offset ~len =
  check_live txn "set_range";
  declare_range txn (mapped txn "set_range" region) ~offset ~len

let write txn ~region ~offset b =
  set_range txn ~region ~offset ~len:(Bytes.length b);
  Region.write (Hashtbl.find txn.owner.regions region) ~offset b

let set_u64 txn ~region ~offset v =
  set_range txn ~region ~offset ~len:8;
  Region.set_u64 (Hashtbl.find txn.owner.regions region) ~offset v

let mem txn ~region =
  let reg = mapped txn "mem" region in
  Region.mem reg ~declare:(declare_range txn reg)

let set_lock txn ~lock_id ~seqno ~prev_write_seq =
  check_live txn "set_lock";
  txn.locks <-
    { Lbc_wal.Record.lock_id; seqno; prev_write_seq } :: txn.locks

let set_command txn ~op ~params ~regions =
  check_live txn "set_command";
  if not (Lbc_wal.Command.registered op) then
    raise (Txn_error (Printf.sprintf "set_command: op %d is not registered" op));
  txn.command <-
    Some
      { Lbc_wal.Record.op; params;
        cmd_regions = List.sort_uniq Int.compare regions }

(* The record's ranges in (region, offset) order, read from region
   memory: a walk of each region's range log from the top down, highest
   region first, consing onto the result. *)
let build_record txn =
  let n = ref 0 and bytes = ref 0 in
  let ranges =
    Hashtbl.fold (fun id _ acc -> id :: acc) txn.trees []
    |> List.sort (fun a b -> Int.compare b a)
    |> List.fold_left
         (fun acc region_id ->
           let reg = Hashtbl.find txn.owner.regions region_id in
           let tree = Hashtbl.find txn.trees region_id in
           n := !n + Range_tree.count tree;
           bytes := !bytes + Range_tree.total_bytes tree;
           Range_tree.fold_right tree acc ~f:(fun ~offset ~len acc ->
               { Lbc_wal.Record.region = region_id; offset;
                 data = Region.read reg ~offset ~len }
               :: acc))
         []
  in
  ( {
      Lbc_wal.Record.node = txn.owner.node;
      tid = txn.tid;
      locks = List.rev txn.locks;
      ranges;
      cmd = None;
    },
    !n,
    !bytes )

(* The adaptive decision: a transaction that declared a command may log
   (and broadcast) the operation instead of its new-value ranges.
   Read-only transactions keep the cheap empty value record — a command
   record is a write and would advance the lock's write chain.  Both
   candidates carry identical lock records, so merge order, receiver
   interlock, and partitioning are unaffected by the choice. *)
let choose_encoding t (txn : txn) value =
  match (txn.command, t.options.log_mode) with
  | None, _ | _, Lbc_wal.Command.Value -> value
  | Some _, _ when value.Lbc_wal.Record.ranges = [] -> value
  | Some c, Lbc_wal.Command.Command ->
      { value with Lbc_wal.Record.ranges = []; cmd = Some c }
  | Some c, Lbc_wal.Command.Adaptive ->
      let cmd_record =
        { value with Lbc_wal.Record.ranges = []; cmd = Some c }
      in
      if
        Lbc_wal.Record.encoded_size cmd_record
        < Lbc_wal.Record.encoded_size value
      then cmd_record
      else value

type commit_outcome = {
  record : Lbc_wal.Record.txn;
  value : Lbc_wal.Record.txn;
}

let commit_full txn =
  check_live txn "commit";
  txn.live <- false;
  let value, n_ranges, bytes = build_record txn in
  let t = txn.owner in
  let record = choose_encoding t txn value in
  t.options.instrumentation.on_commit_collect ~ranges:n_ranges ~bytes;
  t.stats.commits <- t.stats.commits + 1;
  (* Range/byte stats always count the value equivalents: they measure
     the transaction's effect, not its encoding.  The encoding's win
     shows up in [log_bytes_written] and on the wire. *)
  t.stats.ranges_logged <- t.stats.ranges_logged + n_ranges;
  t.stats.bytes_logged <- t.stats.bytes_logged + bytes;
  if t.options.disk_logging then begin
    (* Durable before it returns: alone, or parked in its group-commit
       batch until one device write and one sync cover the batch. *)
    ignore (Lbc_wal.Log.append_durable t.log record);
    t.stats.log_bytes_written <-
      t.stats.log_bytes_written
      + Lbc_wal.Record.encoded_size record
  end;
  { record; value }

let commit txn = (commit_full txn).record

let abort txn =
  check_live txn "abort";
  (match txn.restore with
  | No_restore -> raise (Txn_error "abort of a No_restore transaction")
  | Restore -> ());
  txn.live <- false;
  (* Undo copies are newest-first; restoring in that order rewinds
     overlapping captures correctly. *)
  List.iter (fun (reg, offset, old) -> Region.write reg ~offset old) txn.undo;
  txn.owner.stats.aborts <- txn.owner.stats.aborts + 1

let is_live txn = txn.live

let apply_record t record =
  let n = ref 0 and bytes = ref 0 in
  let count ~offset:_ ~len =
    incr n;
    bytes := !bytes + len
  in
  let skipped =
    Lbc_wal.Command.apply record ~resolve:(Hashtbl.find_opt t.regions)
      ~mem:(fun reg -> Region.mem reg ~declare:count)
      ~store:(fun reg { Lbc_wal.Record.offset; data; _ } ->
        Region.write reg ~offset data;
        count ~offset ~len:(Bytes.length data))
  in
  t.stats.unmapped_ranges <- t.stats.unmapped_ranges + skipped;
  t.stats.records_applied <- t.stats.records_applied + 1;
  t.stats.bytes_applied <- t.stats.bytes_applied + !bytes;
  t.options.instrumentation.on_apply ~ranges:!n ~bytes:!bytes
