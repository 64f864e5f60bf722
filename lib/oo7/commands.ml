(* The OO7 traversal as a logged command (adaptive logging).

   A whole update traversal is one deterministic function of the
   database image: the visit order is fixed by the assembly hierarchy
   and the composite directory, T7's descent salt comes from the schema
   seed, and every store depends only on bytes read under the
   transaction's lock.  So instead of logging the traversal's new-value
   ranges (T3-C dirties kilobytes of index pages), a command record
   names this operation and carries the schema configuration plus the
   traversal kind — a few dozen bytes — and replayers re-execute the
   traversal against their own copy of the pre-state. *)

open Lbc_util

let traversal_op = 1

(* Stable tags for the traversal kinds; part of the persistent format. *)
let kind_tags =
  Traversal.
    [
      (T1, 0); (T2 A, 1); (T2 B, 2); (T2 C, 3); (T3 A, 4); (T3 B, 5);
      (T3 C, 6); (T4, 7); (T5, 8); (T6, 9); (T7, 10); (T12 A, 11);
      (T12 C, 12);
    ]

let tag_of_kind k = List.assoc k kind_tags
let kind_of_tag t =
  match List.find_opt (fun (_, t') -> t = t') kind_tags with
  | Some (k, _) -> Some k
  | None -> None

let traversal_params ~(config : Schema.config) ~region kind =
  let w = Codec.writer ~capacity:32 () in
  Codec.varint w config.num_composites;
  Codec.varint w config.atomics_per_composite;
  Codec.varint w config.connections_per_atomic;
  Codec.varint w config.assembly_fanout;
  Codec.varint w config.assembly_levels;
  Codec.varint w config.composites_per_base;
  Codec.varint w config.date_range;
  Codec.varint w config.seed;
  Codec.varint w region;
  Codec.varint w (tag_of_kind kind);
  Codec.contents w

let decode_params params =
  let r = Codec.reader params in
  let num_composites = Codec.get_varint r in
  let atomics_per_composite = Codec.get_varint r in
  let connections_per_atomic = Codec.get_varint r in
  let assembly_fanout = Codec.get_varint r in
  let assembly_levels = Codec.get_varint r in
  let composites_per_base = Codec.get_varint r in
  let date_range = Codec.get_varint r in
  let seed = Codec.get_varint r in
  let region = Codec.get_varint r in
  let tag = Codec.get_varint r in
  let config =
    {
      Schema.num_composites;
      atomics_per_composite;
      connections_per_atomic;
      assembly_fanout;
      assembly_levels;
      composites_per_base;
      date_range;
      seed;
    }
  in
  match kind_of_tag tag with
  | Some kind -> (config, region, kind)
  | None -> raise (Codec.Truncated (Printf.sprintf "oo7 kind tag %d" tag))

let run_traversal (mem : Lbc_wal.Command.mem) ~params =
  let config, region, kind = decode_params params in
  let db = Database.attach_mem config (mem ~region) in
  ignore (Traversal.run db kind : Traversal.result)

(* Registration is explicit: the OCaml linker drops modules nothing
   references, so a bare top-level side effect would silently vanish
   from binaries that replay logs without running traversals.  Called by
   Runner.setup and by the CLIs before any decode/replay. *)
let ensure =
  let registered = ref false in
  fun () ->
    if not !registered then begin
      registered := true;
      Lbc_wal.Command.register ~op:traversal_op ~name:"oo7-traversal"
        (fun mem ~params -> run_traversal mem ~params)
    end
