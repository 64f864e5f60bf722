(* Run one OO7 traversal on a simulated coherency cluster and report the
   paper's measurements (updates, bytes, message bytes, pages, phase
   breakdown).  Optionally dumps the devices for the offline tools and
   the run's trace for lbc-trace. *)

open Cmdliner
open Lbc_oo7

let save_devices dir store =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  List.iter
    (fun name ->
      match Lbc_storage.Store.find store name with
      | None -> ()
      | Some dev ->
          let path = Filename.concat dir name in
          let oc = open_out_bin path in
          output_bytes oc (Lbc_storage.Dev.stable_snapshot dev);
          close_out oc;
          Format.printf "saved %s (%d bytes)@." path (Lbc_storage.Dev.stable_size dev))
    (Lbc_storage.Store.names store)

(* Ring bytes per node under --trace: room for the whole run, so the
   dump drops nothing.  Only the pages events land in become resident. *)
let trace_ring_bytes = 1 lsl 24

let run traversal config_name nodes protocol lazy_mode costs log_mode_name
    save trace_out backend_name debug =
  if debug then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some Logs.Debug)
  end;
  let real =
    match String.lowercase_ascii backend_name with
    | "sim" -> false
    | "real" -> true
    | other ->
        Format.eprintf "unknown backend %S (sim|real)@." other;
        exit 2
  in
  if real && costs then begin
    Format.eprintf
      "--backend=real runs on the wall clock; --costs charges the model's \
       virtual costs — pick one@.";
    exit 2
  end;
  if real && save <> None then begin
    Format.eprintf
      "--save needs the sim storage service; the real backend writes \
       throwaway temp files@.";
    exit 2
  end;
  let backend =
    if real then Lbc_core.Platform.Custom Lbc_real.Backend.factory
    else Lbc_core.Platform.Sim
  in
  let schema =
    match config_name with
    | "small" -> Schema.small
    | "tiny" -> Schema.tiny
    | other -> Format.eprintf "unknown config %S@." other; exit 2
  in
  let kind =
    match Traversal.of_name traversal with
    | Some k -> k
    | None -> Format.eprintf "unknown traversal %S (try T1, T2-A .. T12-C)@." traversal; exit 2
  in
  let protocol_kind =
    match String.lowercase_ascii protocol with
    | "log" -> Lbc_dsm.Backend.Log
    | "cpycmp" | "cpy-cmp" | "cpy/cmp" -> Lbc_dsm.Backend.Cpy_cmp
    | "page" -> Lbc_dsm.Backend.Page
    | other -> Format.eprintf "unknown protocol %S (log|cpycmp|page)@." other; exit 2
  in
  let log_mode =
    match Lbc_wal.Command.log_mode_of_name log_mode_name with
    | Some m -> m
    | None ->
        Format.eprintf "unknown log mode %S (value|command|adaptive)@."
          log_mode_name;
        exit 2
  in
  let config =
    {
      (if costs then Lbc_core.Config.measured else Lbc_core.Config.default) with
      Lbc_core.Config.propagation =
        (if lazy_mode then Lbc_core.Config.Lazy else Lbc_core.Config.Eager);
      disk_logging = not costs;
      log_mode;
      flight_ring_bytes =
        (if trace_out <> None then trace_ring_bytes
         else Lbc_core.Config.default.Lbc_core.Config.flight_ring_bytes);
    }
  in
  let cluster = Runner.setup ~config ~backend ~nodes schema in
  (* The writer's begin-to-commit time on the platform clock: wall on
     real; virtual on sim, where only --costs charges any. *)
  let writer_time elapsed =
    if real then Format.printf "writer wall-clock time: %.1f µs@." elapsed
    else if costs then Format.printf "writer virtual time: %.1f µs@." elapsed
    else Format.printf "writer virtual time: not charged (run with --costs)@."
  in
  Format.printf
    "OO7 %s: %s config, %d nodes, %s protocol, %s backend, %s logging%s%s@."
    (Traversal.name kind) config_name nodes
    (Lbc_dsm.Backend.kind_name protocol_kind)
    (Lbc_core.Cluster.backend_name cluster)
    (Lbc_wal.Command.log_mode_name log_mode)
    (if lazy_mode then ", lazy propagation" else "")
    (if costs then ", costs charged" else "");
  (match protocol_kind with
  | Lbc_dsm.Backend.Log ->
      let o = Runner.run ~cluster ~writer:0 schema kind in
      let r = o.Runner.result and p = o.Runner.profile in
      Format.printf
        "visits: %d composite, %d atomic; %d field updates, %d index ops@."
        r.Traversal.composite_visits r.Traversal.atomic_visits
        r.Traversal.field_updates r.Traversal.index_ops;
      Format.printf
        "profile: %d updates, %d bytes updated, %d message bytes, %d pages@."
        p.Lbc_costmodel.Model.updates p.Lbc_costmodel.Model.unique_bytes
        p.Lbc_costmodel.Model.message_bytes p.Lbc_costmodel.Model.pages_updated;
      (match o.Runner.record.Lbc_wal.Record.cmd with
      | Some c ->
          Format.printf
            "encoding: command record (op %d, %d param bytes) replacing %d \
             value ranges@."
            c.Lbc_wal.Record.op
            (Bytes.length c.Lbc_wal.Record.params)
            (List.length o.Runner.value.Lbc_wal.Record.ranges)
      | None -> ());
      writer_time o.Runner.elapsed;
      Format.printf "model phases: %a@." Lbc_costmodel.Phases.pp_ms
        (Lbc_costmodel.Model.log_phases p)
  | backend ->
      (* Page-grained backends detect writes themselves; run the traversal
         through a detection transaction. *)
      let result = ref None in
      Lbc_core.Cluster.spawn cluster ~node:0 (fun node ->
          let t0 = Lbc_core.Cluster.now cluster in
          let txn = Lbc_dsm.Backend.Dtxn.begin_ node ~kind:backend in
          Lbc_dsm.Backend.Dtxn.acquire txn Runner.lock;
          let db =
            Database.attach_mem schema
              (Lbc_dsm.Backend.Dtxn.mem txn ~region:Runner.region)
          in
          let r = Traversal.run db kind in
          let record = Lbc_dsm.Backend.Dtxn.commit txn in
          let elapsed = Lbc_core.Cluster.now cluster -. t0 in
          result := Some (r, record, Lbc_dsm.Backend.Dtxn.stats txn, elapsed));
      Lbc_core.Cluster.run cluster;
      let r, record, st, elapsed = Option.get !result in
      Format.printf
        "visits: %d composite, %d atomic; %d field updates@."
        r.Traversal.composite_visits r.Traversal.atomic_visits
        r.Traversal.field_updates;
      Format.printf
        "detection: %d write faults, %d pages twinned, %d compared, %d shipped@."
        st.Lbc_dsm.Backend.write_faults st.Lbc_dsm.Backend.pages_twinned
        st.Lbc_dsm.Backend.pages_compared st.Lbc_dsm.Backend.pages_shipped;
      Format.printf "record: %d ranges, %d payload bytes, %d wire bytes@."
        (List.length record.Lbc_wal.Record.ranges)
        (Lbc_wal.Record.ranges_bytes record)
        (Lbc_core.Wire.size record);
      writer_time elapsed);
  (* Under lazy propagation peers are intentionally stale until they
     acquire; pull the chains before checking convergence. *)
  if lazy_mode then begin
    for n = 0 to nodes - 1 do
      Lbc_core.Cluster.spawn cluster ~node:n (fun node ->
          let txn = Lbc_core.Node.Txn.begin_ node in
          Lbc_core.Node.Txn.acquire txn Runner.lock;
          Lbc_core.Node.Txn.commit txn)
    done;
    Lbc_core.Cluster.run cluster
  end;
  (* Verify convergence across the cluster. *)
  let digest n =
    Database.checksum
      (Database.attach_node schema (Lbc_core.Cluster.node cluster n)
         ~region:Runner.region)
  in
  let d0 = digest 0 in
  let ok = ref true in
  for n = 1 to nodes - 1 do
    if not (Int64.equal d0 (digest n)) then begin
      ok := false;
      Format.printf "!! node %d cache diverged@." n
    end
  done;
  if !ok then Format.printf "all %d caches converged (digest %Lx)@." nodes d0;
  Format.printf "network: %d messages, %d bytes@."
    (Lbc_core.Cluster.total_messages cluster)
    (Lbc_core.Cluster.total_bytes cluster);
  (match trace_out with
  | Some path ->
      let (_ : string) = Lbc_core.Cluster.dump_flight ~path cluster in
      let dropped =
        Array.fold_left
          (fun acc (_, d, _) -> acc + d)
          0
          (Lbc_obs.Obs.ring_stats (Lbc_core.Cluster.obs cluster))
      in
      Format.printf "trace written to %s (%d events dropped; inspect with \
                     lbc-trace)@."
        path dropped
  | None -> ());
  (match save with
  | Some dir ->
      (* Make log contents durable before snapshotting. *)
      Lbc_storage.Store.sync_all (Lbc_core.Cluster.store cluster);
      save_devices dir (Lbc_core.Cluster.store cluster)
  | None -> ());
  Lbc_core.Cluster.shutdown cluster;
  if not !ok then exit 1

let traversal =
  Arg.(value & opt string "T2-A" & info [ "t"; "traversal" ] ~docv:"NAME"
         ~doc:"Traversal to run: T1, T6, T2-A/B/C, T3-A/B/C, T12-A/C.")

let config_name =
  Arg.(value & opt string "small" & info [ "c"; "config" ] ~docv:"CFG"
         ~doc:"Database configuration: small (paper scale) or tiny.")

let nodes =
  Arg.(value & opt int 2 & info [ "n"; "nodes" ] ~doc:"Cluster size.")

let protocol =
  Arg.(value & opt string "log" & info [ "p"; "protocol" ]
         ~doc:"Write detection: log, cpycmp or page.")

let lazy_mode =
  Arg.(value & flag & info [ "lazy" ] ~doc:"Lazy update propagation.")

let costs =
  Arg.(value & flag & info [ "costs" ]
         ~doc:"Charge the paper's operation costs as virtual time.")

let log_mode_name =
  Arg.(value & opt string "value" & info [ "log-mode" ] ~docv:"MODE"
         ~doc:"Per-transaction record encoding: $(b,value) logs new-value \
               ranges (stock RVM), $(b,command) logs the traversal \
               operation itself, $(b,adaptive) picks whichever encodes \
               smaller.")

let save =
  Arg.(value & opt (some string) None & info [ "save" ] ~docv:"DIR"
         ~doc:"Dump device images (logs, database) for the offline tools.")

let trace_out =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"PATH"
         ~doc:"Size every node's flight ring to hold the whole run and \
               write the rings as an LBCF dump at $(docv) after it \
               (analyze with lbc-trace; $(b,lbc-trace --json) converts it \
               for Perfetto).  Without $(b,--costs) the sim charges no \
               virtual time, so every span lasts 0 µs.")

let debug =
  Arg.(value & flag & info [ "debug" ] ~doc:"Trace coherency events.")

let backend_name =
  Arg.(value & opt string "sim" & info [ "backend" ] ~docv:"BACKEND"
         ~doc:"Platform: $(b,sim) (deterministic single-core simulation) \
               or $(b,real) (one OCaml 5 domain per node, Unix-socket \
               fabric, real files with real fsync; wall-clock timing).")

let cmd =
  Cmd.v
    (Cmd.info "oo7-run" ~doc:"Run an OO7 traversal under log-based coherency")
    Term.(const run $ traversal $ config_name $ nodes $ protocol $ lazy_mode
          $ costs $ log_mode_name $ save $ trace_out $ backend_name $ debug)

let () = exit (Cmd.eval cmd)
