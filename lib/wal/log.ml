open Lbc_util
module Obs = Lbc_obs.Obs

exception Bad_log of string

(* A batch of commits riding one device write + one sync (group commit).
   The batch arena is owned by the group and reused: the device captures
   its own copy of the payload at flush. *)
type batch = {
  id : int;
  base : int;  (* device offset where the batch lands *)
  opened_at : float;  (* virtual time the batch opened (flush-delay metric) *)
  mutable count : int;
}

type group = {
  engine : Lbc_sim.Engine.t;
  max_records : int;
  delay : float;
  bw : Codec.writer;  (* accumulates the open batch's records *)
  cv : Lbc_sim.Condvar.t;  (* committers park here until their batch syncs *)
  mutable next_id : int;
  mutable open_batch : batch option;
  mutable flushed_id : int;  (* highest batch id made durable *)
  mutable batches_flushed : int;
  mutable records_batched : int;
}

type t = {
  dev : Lbc_storage.Dev.t;
  mutable head : int;
  mutable tail : int;
  mutable retention_water : int;
      (* trim barrier: offset of the oldest record a peer may still
         re-fetch (repair retention); [max_int] means unconstrained *)
  enc : Codec.writer;  (* reused arena for direct appends *)
  mutable group : group option;
  mutable obs : Obs.t;
  mutable obs_node : int;
}

let log_magic = 0x4C42434C (* "LBCL" *)
(* A version-1 log may hold "LBCK" control records, which [Record]
   reads as torn: attaching one would end its tail at the first of them,
   so [attach] refuses that version. *)
let version = 2
let header_size = 16

(* Bound on each device read during scans; a record larger than the
   current window doubles it until the record fits. *)
let scan_window = 64 * 1024

type scan_status = Clean | Torn_at of int * string

let write_header t =
  let w = Codec.writer ~capacity:header_size () in
  Codec.u32 w log_magic;
  Codec.u32 w version;
  Codec.int_as_u64 w t.head;
  Lbc_storage.Dev.write_slice t.dev ~off:0 (Codec.slice w)

(* Stream records from [from] to [limit] through bounded [Dev.read]
   windows instead of snapshotting the whole device.  An [End]/[Torn]
   verdict inside a window that stops short of [limit] may be an artifact
   of the window boundary: re-anchor the window at the verdict position,
   doubling it when no progress is possible, until the window reaches
   [limit] and the verdict is final. *)
let scan dev ~from ~limit f =
  (* A crash can revert the device below the caller's logical tail; only
     what is actually on the device can be read. *)
  let limit = min limit (Lbc_storage.Dev.size dev) in
  let rec go base win =
    if base >= limit then (base, Clean)
    else begin
      let len = min win (limit - base) in
      let image = Slice.of_bytes (Lbc_storage.Dev.read dev ~off:base ~len) in
      let rec step rel =
        match Record.decode_slice image ~pos:rel with
        | Record.Txn (txn, next) ->
            f (base + rel) txn;
            step next
        | Record.End ->
            if base + len >= limit then (base + rel, Clean)
            else if rel > 0 then go (base + rel) win
            else go base (2 * win)
        | Record.Torn why ->
            (* Never crash on a corrupt or unexpected record: a torn
               verdict that survives the window reaching [limit] is final
               and reported with its offset. *)
            if base + len >= limit then (base + rel, Torn_at (base + rel, why))
            else if rel > 0 then go (base + rel) win
            else go base (2 * win)
      in
      step 0
    end
  in
  go from scan_window

let attach dev =
  let size = Lbc_storage.Dev.size dev in
  if size = 0 then begin
    let t =
      { dev; head = header_size; tail = header_size;
        retention_water = max_int; enc = Codec.writer ~capacity:1024 ();
        group = None; obs = Obs.disabled; obs_node = 0 }
    in
    write_header t;
    Lbc_storage.Dev.sync dev;
    t
  end
  else if size < header_size then raise (Bad_log "short header")
  else begin
    let hdr = Lbc_storage.Dev.read dev ~off:0 ~len:header_size in
    let r = Codec.reader hdr in
    let m = Codec.get_u32 r in
    if m <> log_magic then raise (Bad_log "bad magic");
    let v = Codec.get_u32 r in
    if v <> version then raise (Bad_log (Printf.sprintf "bad version %d" v));
    let head =
      (* A head with its top bit set is no offset at all. *)
      try Codec.get_int_as_u64 r
      with Codec.Truncated _ -> raise (Bad_log "bad head offset")
    in
    if head < header_size || head > size then raise (Bad_log "bad head offset");
    (* Walk records until a clean end or torn record; both mark the
       tail. *)
    let tail, _status = scan dev ~from:head ~limit:size (fun _ _ -> ()) in
    { dev; head; tail; retention_water = max_int;
      enc = Codec.writer ~capacity:1024 (); group = None;
      obs = Obs.disabled; obs_node = 0 }
  end

let load_file path =
  let dev = Lbc_storage.Dev.create ~name:path () in
  match Lbc_storage.Dev.load_file dev path with
  | Error _ as e -> e
  | Ok () -> (
      match attach dev with
      | log -> Ok log
      | exception Bad_log why ->
          Error (Printf.sprintf "%s: not a log (%s)" path why))

let set_obs t obs ~node =
  t.obs <- obs;
  t.obs_node <- node

let dev t = t.dev
let head t = t.head
let tail t = t.tail
let live_bytes t = t.tail - t.head
let low_water t = t.retention_water

let set_retention_water t off =
  t.retention_water <-
    (if off >= max_int then max_int else max header_size off)

(* ---------------------------------------------------------------- *)
(* Group commit *)

let enable_group_commit ?(max_records = 8) ?(delay = 100.0) t ~engine =
  if max_records < 1 then invalid_arg "Log.enable_group_commit: max_records";
  if t.group <> None then invalid_arg "Log.enable_group_commit: already enabled";
  t.group <-
    Some
      {
        engine;
        max_records;
        delay;
        bw = Codec.writer ~capacity:4096 ();
        cv = Lbc_sim.Condvar.create ();
        next_id = 1;
        open_batch = None;
        flushed_id = 0;
        batches_flushed = 0;
        records_batched = 0;
      }

let group_commit_enabled t = t.group <> None
let batches_flushed t = match t.group with Some g -> g.batches_flushed | None -> 0
let records_batched t = match t.group with Some g -> g.records_batched | None -> 0

let flush_batch_now t g =
  match g.open_batch with
  | None -> ()
  | Some b ->
      g.open_batch <- None;
      let sp =
        if Obs.enabled t.obs then begin
          Obs.observe ~pid:t.obs_node t.obs "gc_batch_records" (Float.of_int b.count);
          Obs.observe ~pid:t.obs_node t.obs "gc_flush_delay_us"
            (Lbc_sim.Engine.now g.engine -. b.opened_at);
          Obs.span_begin t.obs ~name:"log.flush" ~pid:t.obs_node
            ~tid:Obs.lane_wal ~arg:(Codec.length g.bw)
        end
        else Obs.null_span
      in
      (* One gathered write, one sync, for the whole batch. *)
      Lbc_storage.Dev.write_slice t.dev ~off:b.base (Codec.slice g.bw);
      Lbc_storage.Dev.sync t.dev;
      ignore (Obs.span_end t.obs sp : float);
      g.flushed_id <- b.id;
      g.batches_flushed <- g.batches_flushed + 1;
      Lbc_sim.Condvar.broadcast g.cv

let flush_batch t = match t.group with None -> () | Some g -> flush_batch_now t g

let append t txn =
  (* Device order must equal logical order: an open batch occupies
     [base, tail), so it goes out before a direct append lands. *)
  flush_batch t;
  Codec.clear t.enc;
  Record.encode_into t.enc txn;
  (* The pre-slice path materialized the encoded record before writing. *)
  Slice.count_saved (Codec.length t.enc);
  let off = t.tail in
  Lbc_storage.Dev.write_slice t.dev ~off (Codec.slice t.enc);
  t.tail <- off + Codec.length t.enc;
  Obs.instant t.obs ~name:"log.append" ~pid:t.obs_node ~tid:Obs.lane_wal
    ~arg:(Codec.length t.enc);
  off

let force t =
  match t.group with
  | Some g when g.open_batch <> None -> flush_batch_now t g (* includes the sync *)
  | _ ->
      let sp =
        Obs.span_begin t.obs ~name:"log.force" ~pid:t.obs_node
          ~tid:Obs.lane_wal ~arg:0
      in
      Lbc_storage.Dev.sync t.dev;
      Obs.observe ~pid:t.obs_node t.obs "log_force_us" (Obs.span_end t.obs sp)

let append_durable t txn =
  match t.group with
  | None ->
      let off = append t txn in
      force t;
      off
  | Some g ->
      let b =
        match g.open_batch with
        | Some b -> b
        | None ->
            Codec.clear g.bw;
            let b =
              { id = g.next_id; base = t.tail;
                opened_at = Lbc_sim.Engine.now g.engine; count = 0 }
            in
            g.next_id <- g.next_id + 1;
            g.open_batch <- Some b;
            b
      in
      let off = b.base + Codec.length g.bw in
      Record.encode_into g.bw txn;
      Slice.count_saved (b.base + Codec.length g.bw - off);
      b.count <- b.count + 1;
      g.records_batched <- g.records_batched + 1;
      t.tail <- b.base + Codec.length g.bw;
      let id = b.id in
      if b.count >= g.max_records then flush_batch_now t g
      else begin
        (if b.count = 1 then
           (* First record opens the flush window.  The timer spawns a
              process so the sync cost is charged as virtual time. *)
           Lbc_sim.Engine.schedule g.engine ~delay:g.delay (fun () ->
               match g.open_batch with
               | Some b' when b'.id = id ->
                   Lbc_sim.Proc.spawn g.engine ~name:"log-group-flush"
                     ~daemon:true
                     (fun () ->
                       match g.open_batch with
                       | Some b'' when b''.id = id -> flush_batch_now t g
                       | _ -> ())
               | _ -> ()));
        let in_process =
          match Lbc_sim.Proc.engine () with
          | (_ : Lbc_sim.Engine.t) -> true
          | exception Lbc_sim.Proc.Not_in_process -> false
        in
        if in_process then
          Lbc_sim.Condvar.await
            ~info:(Printf.sprintf "group-commit batch %d" id)
            g.cv
            (fun () -> g.flushed_id >= id)
        else
          (* No process to park: degrade to an immediate flush. *)
          flush_batch_now t g
      end;
      off

let set_head t off =
  flush_batch t;
  if off < header_size || off > t.tail then
    invalid_arg (Printf.sprintf "Log.set_head: offset %d out of [%d,%d]"
                   off header_size t.tail);
  (* Trimming is clamped to the retention mark and never moves the head
     backwards over already-dead space. *)
  let off = max t.head (min off (low_water t)) in
  t.head <- off;
  write_header t;
  Lbc_storage.Dev.sync t.dev;
  off

let fold t ?from ~init f =
  (* An open batch is part of [head, tail) but not on the device yet. *)
  flush_batch t;
  let from = match from with Some o -> o | None -> t.head in
  let acc = ref init in
  let _pos, status =
    scan t.dev ~from ~limit:t.tail (fun pos txn -> acc := f !acc pos txn)
  in
  (!acc, status)

let record_count t = fst (fold t ~init:0 (fun n _ _ -> n + 1))

let read_all t =
  let acc, status = fold t ~init:[] (fun acc _ txn -> txn :: acc) in
  (List.rev acc, status)

(* ---------------------------------------------------------------- *)
(* Point reads: the region-index chains name records by offset, so an
   on-demand replay reads exactly the records of one chain instead of
   scanning the whole tail. *)

let read_at t ~off =
  flush_batch t;
  if off < t.head || off >= t.tail then
    Error
      (Printf.sprintf "offset %d outside live window [%d,%d)" off t.head t.tail)
  else begin
    let hdr_len = min 8 (t.tail - off) in
    if hdr_len < 8 then Error (Printf.sprintf "short record at %d" off)
    else begin
      let r = Codec.reader (Lbc_storage.Dev.read t.dev ~off ~len:hdr_len) in
      let _magic = Codec.get_u32 r in
      let total = Codec.get_u32 r in
      if total < 12 || off + total > t.tail then
        Error (Printf.sprintf "bad record length %d at %d" total off)
      else begin
        let image =
          Slice.of_bytes (Lbc_storage.Dev.read t.dev ~off ~len:total)
        in
        match Record.decode_slice image ~pos:0 with
        | Record.Txn (txn, _) -> Ok txn
        | Record.End -> Error (Printf.sprintf "no record at %d" off)
        | Record.Torn why -> Error (Printf.sprintf "%s at %d" why off)
      end
    end
  end

let fold_chain t ~offsets ~init f =
  List.fold_left
    (fun acc off ->
      match acc with
      | Error _ as e -> e
      | Ok acc -> (
          match read_at t ~off with
          | Ok txn -> Ok (f acc off txn)
          | Error why -> Error why))
    (Ok init) offsets
