(* Offline distributed recovery: merge per-node redo logs in lock-sequence
   order (the paper's merge utility, Section 3.4) and replay the committed
   records into the database image.

   --mode serial|partitioned|ondemand selects the replay shape
   (Cluster.replay_streams).  Partitioned mode splits the merged stream
   into lock/region-disjoint partitions (Merge.partition) and replays them
   concurrently; ondemand additionally starts the partitions in priority
   order (largest first) and reports when the first one finishes — the
   offline analogue of a serving node's time to first commit.  The sim
   backend replays the way Cluster.timed_recovery does
   (Cluster.replay_sim) against a device charged with the OSDI-94 disk
   profile, so the reported virtual time shows the speedup.  The recovered image is byte-identical in
   every mode.

   Bad input — a path that cannot be read, a file that is not a log,
   logs that cannot be merged, logs that span more than one region,
   command records without --db, a record that cannot be replayed —
   ends in one line on stderr and exit 1. *)

open Cmdliner
module Cluster = Lbc_core.Cluster
module Recovery = Lbc_rvm.Recovery

type backend = Sim | Real

exception Refused of string

let refuse fmt = Printf.ksprintf (fun why -> raise (Refused why)) fmt

let modes =
  [
    ("serial", Cluster.Serial);
    ("partitioned", Cluster.Partitioned);
    ("ondemand", Cluster.OnDemand);
  ]

let load_log path =
  match Lbc_wal.Log.load_file path with
  | Ok log -> log
  | Error why -> refuse "%s" why

(* Real replay: one OCaml 5 domain per partition group against a real
   file, wall-clock timed.  Partitions are lock/region-disjoint, so any
   grouping is sound; the device serializes writes on its own mutex. *)
let domain_replay ~streams ~db =
  let t0 = Unix.gettimeofday () in
  let wall_us () = (Unix.gettimeofday () -. t0) *. 1e6 in
  let buckets =
    max 1 (min (List.length streams) (Domain.recommended_domain_count ()))
  in
  let groups = Array.make buckets [] in
  List.iteri (fun i s -> groups.(i mod buckets) <- s :: groups.(i mod buckets)) streams;
  let first_done = Atomic.make None in
  let replay_group streams () =
    List.map
      (fun stream ->
        let o =
          Recovery.replay_records stream ~db_for_region:(fun _ -> Some db)
        in
        ignore
          (Atomic.compare_and_set first_done None (Some (wall_us ())) : bool);
        o)
      streams
  in
  let domains =
    Array.map (fun g -> Domain.spawn (replay_group (List.rev g))) groups
  in
  let outcome =
    Recovery.sum (List.concat_map Domain.join (Array.to_list domains))
  in
  Lbc_storage.Dev.sync db;
  (outcome, wall_us (), Atomic.get first_done)

let recover db_path out_path mode backend log_paths =
  (* Command records (adaptive logging) can only replay if their
     operations are registered in this process. *)
  Lbc_oo7.Commands.ensure ();
  let logs = List.map load_log log_paths in
  let records =
    match Lbc_core.Merge.merge_logs logs with
    | Ok records -> records
    | Error (Lbc_core.Merge.Unorderable why) ->
        refuse "cannot merge logs: %s" why
  in
  (* The one output image is one region's database. *)
  (match
     List.sort_uniq Int.compare (List.concat_map Lbc_wal.Record.regions records)
   with
  | [] | [ _ ] -> ()
  | regions ->
      refuse "logs span regions %s: one output image holds one region"
        (String.concat ", " (List.map string_of_int regions)));
  Format.printf "merged %d committed transactions from %d logs@."
    (List.length records) (List.length logs);
  let commands =
    List.filter (fun (r : Lbc_wal.Record.txn) -> r.cmd <> None) records
  in
  (match (commands, db_path) with
  | [], _ -> ()
  | r :: _, None ->
      (* A command's pre-state is the database image: against an empty
         one it has nothing to re-execute on. *)
      refuse
        "command record (node %d, tid %d) re-executes against the database \
         image: pass --db"
        r.node r.tid
  | _ :: _, Some _ ->
      Format.printf
        "%d command record(s) will be re-executed against the image@."
        (List.length commands));
  let db, tmp_path =
    match backend with
    | Sim ->
        ( Lbc_storage.Dev.create ~latency:Lbc_storage.Latency.osdi94_disk
            ~name:"db" (),
          None )
    | Real ->
        let path = Filename.temp_file "lbc-recover" ".db" in
        (Lbc_storage.Dev.create_file ~path ~name:"db" (), Some path)
  in
  Fun.protect
    ~finally:(fun () ->
      match tmp_path with
      | Some p ->
          Lbc_storage.Dev.close db;
          (try Sys.remove p with Sys_error _ -> ())
      | None -> ())
    (fun () ->
      Option.iter
        (fun p ->
          match Lbc_storage.Dev.load_file db p with
          | Ok () -> ()
          | Error why -> refuse "%s" why)
        db_path;
      let streams = Cluster.replay_streams mode records in
      let outcome, elapsed, first_done =
        try
          match backend with
          | Sim ->
              let first = ref None in
              let outcome, elapsed =
                Cluster.replay_sim (Lbc_sim.Engine.create ())
                  ~db_for_region:(fun _ -> Some db)
                  ~on_stream:(fun t -> if !first = None then first := Some t)
                  streams
              in
              (outcome, elapsed, !first)
          | Real -> domain_replay ~streams ~db
        with e -> refuse "cannot replay: %s" (Printexc.to_string e)
      in
      let clock = match backend with Sim -> "virtual" | Real -> "wall" in
      Format.printf
        "replayed %d records, %d bytes stored, %d bytes written in %d \
         partition(s) (%s mode, %.0f %s \xc2\xb5s)@."
        outcome.records_replayed outcome.bytes_replayed outcome.bytes_written
        (List.length streams)
        (fst (List.find (fun (_, m) -> m = mode) modes))
        elapsed clock;
      (match (mode, first_done) with
      | Cluster.OnDemand, Some t ->
          Format.printf
            "first partition warm at %.0f %s \xc2\xb5s (time to first \
             recovered chain)@."
            t clock
      | _ -> ());
      let out =
        match out_path with
        | Some p -> p
        | None ->
            (* Keep reruns out of the source tree by default. *)
            if not (Sys.file_exists "_build") then Unix.mkdir "_build" 0o755;
            Filename.concat "_build" "recovered.db"
      in
      Out_channel.with_open_bin out (fun oc ->
          Out_channel.output_bytes oc (Lbc_storage.Dev.stable_snapshot db));
      Format.printf "wrote %s (%d bytes)@." out
        (Lbc_storage.Dev.stable_size db))

let main db_path out_path mode backend log_paths =
  try recover db_path out_path mode backend log_paths
  with Refused why ->
    Format.eprintf "lbc-recover: %s@." why;
    exit 1

let db_path =
  Arg.(value & opt (some file) None & info [ "db" ] ~docv:"FILE"
         ~doc:"Existing database image to replay into (default: empty; \
               required when the logs hold command records).")

let out_path =
  Arg.(value & opt (some string) None & info [ "o"; "out"; "output" ]
         ~docv:"FILE"
         ~doc:"Where to write the recovered image (default \
               _build/recovered.db).")

let mode =
  Arg.(
    value
    & opt (enum modes) Cluster.Serial
    & info [ "mode" ] ~docv:"MODE"
        ~doc:
          "Replay shape: $(b,serial) applies the whole merged stream in \
           one process; $(b,partitioned) replays lock/region-disjoint \
           partitions concurrently; $(b,ondemand) replays them \
           concurrently in priority order (largest chain first) and \
           reports the virtual time until the first partition is warm.  \
           The recovered image is identical in every mode; only the \
           simulated timing differs.")

let backend =
  Arg.(
    value
    & opt (enum [ ("sim", Sim); ("real", Real) ]) Sim
    & info [ "backend" ] ~docv:"BACKEND"
        ~doc:
          "$(b,sim) replays against a simulated device charged with the \
           OSDI-94 disk profile and reports virtual time; $(b,real) \
           replays against a real temp file (real writes, final fsync), \
           one OCaml 5 domain per partition group, and reports wall \
           time.")

let log_paths =
  Arg.(non_empty & pos_all file [] & info [] ~docv:"LOG"
         ~doc:"Per-node log images to merge.")

let cmd =
  Cmd.v
    (Cmd.info "lbc-recover"
       ~doc:"Merge per-node redo logs and replay them into a database image")
    Term.(const main $ db_path $ out_path $ mode $ backend $ log_paths)

let () = exit (Cmd.eval cmd)
