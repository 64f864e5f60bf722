(* Writes two_region.0.log and two_region.1.log, the logs of a 2-node
   sim cluster whose writers touch different regions: node 0 writes 8
   'A' bytes at region 0 under lock 0, node 1 8 'B' bytes at region 1
   under lock 1 (64-byte regions, both mapped everywhere).  [dune
   runtest] hands them to lbc-recover, which must refuse them: its one
   output image holds one region. *)

open Lbc_core

let () =
  let c = Cluster.create ~nodes:2 () in
  List.iter
    (fun region ->
      Cluster.add_region c ~id:region ~size:64;
      Cluster.map_region_all c ~region)
    [ 0; 1 ];
  List.iter
    (fun (node, fill) ->
      Cluster.spawn c ~node (fun n ->
          let txn = Node.Txn.begin_ n in
          Node.Txn.acquire txn node;
          Node.Txn.write txn ~region:node ~offset:0 (Bytes.make 8 fill);
          Node.Txn.commit txn))
    [ (0, 'A'); (1, 'B') ];
  Cluster.run c;
  List.iter
    (fun node ->
      let dev =
        Option.get
          (Lbc_storage.Store.find (Cluster.store c)
             (Printf.sprintf "log.%d" node))
      in
      Out_channel.with_open_bin (Printf.sprintf "two_region.%d.log" node)
        (fun oc ->
          Out_channel.output_bytes oc (Lbc_storage.Dev.stable_snapshot dev)))
    [ 0; 1 ]
