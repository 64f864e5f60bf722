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

let execute m ~op ~params =
  match Hashtbl.find_opt table op with
  | Some e -> e.run m ~params
  | None -> raise (Unknown_op op)

(* Replay a decoded record against [m]: blit the ranges of a value
   record, execute the operation of a command record.  The shared
   fragment every replayer (recovery, coherency receiver, oracle spec)
   would otherwise duplicate. *)
let apply m (t : Record.txn) =
  match t.cmd with
  | Some c -> execute m ~op:c.op ~params:c.params
  | None ->
      List.iter
        (fun (r : Record.range) ->
          Lbc_util.Mem.write (m ~region:r.region) ~offset:r.offset r.data)
        t.ranges
