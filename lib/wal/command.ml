(* Registry of replayable operations for command-encoded log records.

   A command record (Record.cmd) names an operation by integer id; the
   executable body lives here, registered once at startup by whichever
   layer owns the operation (the OO7 harness registers its traversals,
   tests register synthetic ops).  Registration is append-only and
   happens before any domains spawn; lookups afterwards are read-only,
   so the plain Hashtbl needs no locking on the replay paths. *)

type log_mode = Value | Command | Adaptive

let log_mode_name = function
  | Value -> "value"
  | Command -> "command"
  | Adaptive -> "adaptive"

let log_mode_of_name s =
  match String.lowercase_ascii s with
  | "value" -> Some Value
  | "command" | "cmd" -> Some Command
  | "adaptive" -> Some Adaptive
  | _ -> None

type mem = region:int -> Lbc_util.Mem.t

exception Unknown_op of int
exception Undeclared_region of { op : int; region : int }

type entry = { name : string; run : mem -> params:Bytes.t -> unit }

let table : (int, entry) Hashtbl.t = Hashtbl.create 8

let register ~op ~name run =
  (match Hashtbl.find_opt table op with
  | Some e when e.name <> name ->
      invalid_arg
        (Printf.sprintf "Command.register: op %d is %S, refusing %S" op e.name
           name)
  | _ -> ());
  Hashtbl.replace table op { name; run }

let registered op = Hashtbl.mem table op

let name op =
  match Hashtbl.find_opt table op with
  | Some e -> Some e.name
  | None -> None

let () =
  Printexc.register_printer (function
    | Undeclared_region { op; region } ->
        Some
          (Printf.sprintf
             "Command.Undeclared_region: op %d (%s) touched region %d outside \
              its declared regions"
             op
             (Option.value (name op) ~default:"?")
             region)
    | _ -> None)

(* The one replay routine: the record-kind dispatch and the
   missing-region rule live here and nowhere else.  A command replays
   all-or-nothing — run against a subset of its regions it would read
   state this store does not hold — so it resolves its declared regions
   up front, but builds each accessor only when the op asks for it: a
   backing that pays for its accessor (a recovery session snapshots a
   device) pays exactly as the op touches regions. *)
let apply ~resolve ~mem ~store (t : Record.txn) =
  match t.cmd with
  | None ->
      List.fold_left
        (fun skipped (r : Record.range) ->
          match resolve r.region with
          | Some b ->
              store b r;
              skipped
          | None -> skipped + 1)
        0 t.ranges
  | Some c ->
      let run =
        match Hashtbl.find_opt table c.op with
        | Some e -> e.run
        | None -> raise (Unknown_op c.op)
      in
      let backings =
        List.map (fun region -> (region, resolve region)) c.cmd_regions
      in
      let missing =
        List.length (List.filter (fun (_, b) -> Option.is_none b) backings)
      in
      if missing = 0 then
        run ~params:c.params (fun ~region ->
            match List.assoc_opt region backings with
            | Some (Some b) -> mem b
            | _ -> raise (Undeclared_region { op = c.op; region }));
      missing
