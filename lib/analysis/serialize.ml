(* One-copy serializability oracle.

   The coherency protocol's correctness claim (paper Section 2) is that
   under two-phase segment locking every execution is equivalent to some
   serial execution against a single copy of the data.  The merge utility
   computes exactly that witness order: transactions sorted so per-lock
   sequence numbers ascend and per-node log order is preserved.  This
   oracle closes the loop: it replays the merged committed stream against
   a trivial sequential in-memory RVM spec — one byte array per region,
   ranges blitted in merge order — and requires every "final image" the
   caller hands in (node caches at quiescence, the recovered database) to
   be byte-identical to the spec's.

   Any divergence means the distributed execution visible in the logs is
   not equivalent to its own serial witness: an update was applied out of
   order, twice, or not at all — precisely the class of bug a schedule
   explorer is hunting. *)

module R = Lbc_wal.Record

type spec = { sizes : (int, int) Hashtbl.t; images : (int, Bytes.t) Hashtbl.t }

let spec_image spec region =
  match Hashtbl.find_opt spec.images region with
  | Some b -> Some b
  | None -> (
      match Hashtbl.find_opt spec.sizes region with
      | None -> None
      | Some size ->
          let b = Bytes.make size '\000' in
          Hashtbl.replace spec.images region b;
          Some b)

(* Apply one merged transaction to the spec through the one apply
   routine receivers and recovery run: value ranges blit into the spec's
   byte arrays, commands re-execute against them — so a spec divergence
   still means the *distributed* execution is wrong, not the encoding.
   A region outside the declared set resolves to nothing and is skipped,
   as receivers skip it — check_regions flags those.  Returns the
   violations the record itself raises (unknown operation). *)
let apply_txn spec (txn : R.txn) =
  match
    Lbc_wal.Command.apply txn ~resolve:(spec_image spec)
      ~mem:(fun img -> Lbc_util.Mem.of_bytes img)
      ~store:(fun img { R.offset; data; _ } ->
        Lbc_util.Mem.write (Lbc_util.Mem.of_bytes img) ~offset data)
  with
  | (_ : int) -> []
  | exception Lbc_wal.Command.Unknown_op op ->
      [ Violation.Command_unknown { txn = Violation.txn_id_of txn; op } ]

let first_diff a b =
  let n = min (Bytes.length a) (Bytes.length b) in
  let rec loop i =
    if i >= n then if Bytes.length a = Bytes.length b then None else Some n
    else if Bytes.get a i <> Bytes.get b i then Some i
    else loop (i + 1)
  in
  loop 0

(* [regions]: the declared region set as (id, size) pairs.  [initial]:
   the pre-workload image of a region (defaults to all zeroes — pass the
   loaded database image for pre-built regions like OO7's).  [finals]:
   labelled final images to compare, e.g. every node's cached copy and
   the recovered database.  [streams]: the per-node committed
   transaction lists, in log order. *)
let check ?initial ~regions ~finals streams =
  let spec =
    { sizes = Hashtbl.create 8; images = Hashtbl.create 8 }
  in
  List.iter (fun (id, size) -> Hashtbl.replace spec.sizes id size) regions;
  (match initial with
  | None -> ()
  | Some f ->
      List.iter
        (fun (id, size) ->
          match f id with
          | None -> ()
          | Some img ->
              let b = Bytes.make size '\000' in
              Bytes.blit img 0 b 0 (min size (Bytes.length img));
              Hashtbl.replace spec.images id b)
        regions);
  match Lbc_core.Merge.merge_records streams with
  | Error (Lbc_core.Merge.Unorderable why) ->
      [ Violation.Merge_unorderable { detail = why } ]
  | Ok merged ->
      let violations = ref [] in
      List.iter
        (fun txn ->
          List.iter (fun v -> violations := v :: !violations)
            (apply_txn spec txn))
        merged;
      List.iter
        (fun (witness, read) ->
          List.iter
            (fun (id, size) ->
              let expected =
                match spec_image spec id with
                | Some b -> b
                | None -> Bytes.make size '\000'
              in
              let actual = read id in
              match first_diff expected actual with
              | None -> ()
              | Some offset ->
                  let byte_at b i =
                    if i < Bytes.length b then Char.code (Bytes.get b i)
                    else -1
                  in
                  violations :=
                    Violation.Serial_divergence
                      {
                        witness;
                        region = id;
                        offset;
                        expected = byte_at expected offset;
                        actual = byte_at actual offset;
                      }
                    :: !violations)
            regions)
        finals;
      List.rev !violations

let merged_count streams =
  match Lbc_core.Merge.merge_records streams with
  | Ok merged -> List.length merged
  | Error _ -> 0
