type outcome = {
  result : Traversal.result;
  record : Lbc_wal.Record.txn;
  value : Lbc_wal.Record.txn;
  profile : Lbc_costmodel.Model.traversal_profile;
  elapsed : float;
}

exception Traversal_incomplete of { traversal : string; schema : string }

let () =
  Printexc.register_printer (function
    | Traversal_incomplete { traversal; schema } ->
        Some
          (Printf.sprintf
             "Runner.Traversal_incomplete(%s on %s schema): the simulation \
              quiesced before the traversal transaction committed"
             traversal schema)
    | _ -> None)

let region = 0
let lock = 0
let page_size = Lbc_costmodel.Table2.page_size

let setup ?(config = Lbc_core.Config.default) ?sched ?backend ?(nodes = 2)
    schema =
  Commands.ensure ();
  let cluster = Lbc_core.Cluster.create ~config ?sched ?backend ~nodes () in
  Lbc_core.Cluster.add_region cluster ~id:region
    ~size:(Schema.region_size schema);
  let image = Builder.build schema in
  Lbc_storage.Dev.load (Lbc_core.Cluster.region_dev cluster region) image;
  Lbc_core.Cluster.map_region_all cluster ~region;
  cluster

let pages_updated (record : Lbc_wal.Record.txn) =
  let module Iset = Set.Make (Int) in
  List.fold_left
    (fun acc r ->
      let first = r.Lbc_wal.Record.offset / page_size in
      let last =
        (r.Lbc_wal.Record.offset + Bytes.length r.Lbc_wal.Record.data - 1)
        / page_size
      in
      let rec add acc p = if p > last then acc else add (Iset.add p acc) (p + 1) in
      add acc first)
    Iset.empty record.Lbc_wal.Record.ranges
  |> Iset.cardinal

let run ~cluster ~writer schema kind =
  let outcome = ref None in
  Lbc_core.Cluster.spawn cluster ~node:writer (fun node ->
      let rvm_stats = Lbc_rvm.Rvm.stats (Lbc_core.Node.rvm node) in
      let updates0 = rvm_stats.Lbc_rvm.Rvm.set_ranges in
      let ordered0 = rvm_stats.Lbc_rvm.Rvm.ordered_calls in
      let redundant0 = rvm_stats.Lbc_rvm.Rvm.redundant_calls in
      (* The platform clock: virtual µs on sim, wall µs on real domains,
         where [Proc.now] does not advance within one process step. *)
      let t0 = Lbc_core.Cluster.now cluster in
      let txn = Lbc_core.Node.Txn.begin_ node in
      Lbc_core.Node.Txn.acquire txn lock;
      let db = Database.attach_txn schema txn ~region in
      let result = Traversal.run db kind in
      (* Declare the traversal as a replayable command; whether the
         commit logs it as one is [config.log_mode]'s call. *)
      Lbc_core.Node.Txn.set_command txn ~op:Commands.traversal_op
        ~params:(Commands.traversal_params ~config:schema ~region kind)
        ~regions:[ region ];
      let committed = Lbc_core.Node.Txn.commit_outcome txn in
      let record = committed.Lbc_rvm.Rvm.record in
      let value = committed.Lbc_rvm.Rvm.value in
      let elapsed = Lbc_core.Cluster.now cluster -. t0 in
      (* Table 3 is defined over the transaction's effect (its value
         form); [message_bytes] is what actually went on the wire, so
         command encodings show up as the wire-byte delta. *)
      let profile =
        {
          Lbc_costmodel.Model.updates =
            rvm_stats.Lbc_rvm.Rvm.set_ranges - updates0;
          unique_bytes = Lbc_wal.Record.ranges_bytes value;
          message_bytes = Lbc_core.Wire.size record;
          pages_updated = pages_updated value;
          ranges = List.length value.Lbc_wal.Record.ranges;
          ordered_updates = rvm_stats.Lbc_rvm.Rvm.ordered_calls - ordered0;
          redundant_updates =
            rvm_stats.Lbc_rvm.Rvm.redundant_calls - redundant0;
        }
      in
      outcome := Some { result; record; value; profile; elapsed });
  Lbc_core.Cluster.run cluster;
  match !outcome with
  | Some o -> o
  | None ->
      raise
        (Traversal_incomplete
           { traversal = Traversal.name kind; schema = Schema.describe schema })
