(* Trace explorer CLI: decode an LBCF dump of the per-node flight rings
   (oo7-run --trace, Cluster.dump_flight, or the automatic dump on a
   strand/crash/oracle failure), merge the rings into one timeline and
   print the ring accounting, the per-stage latency breakdown, the
   per-lock contention table, the critical path of the slowest
   transaction and a flow summary.  --self-check instead validates the
   ring structure and the trace contract (for CI); --json also renders
   the merged rings as a Perfetto-loadable Chrome trace. *)

open Cmdliner
module Explorer = Lbc_obs.Explorer
module FD = Lbc_obs.Flight_dump

let pp_ns ppf ns =
  let us = float_of_int ns /. 1000.0 in
  if us >= 1000.0 then Format.fprintf ppf "%8.2fms" (us /. 1000.0)
  else Format.fprintf ppf "%8.1fµs" us

let print_kinds events =
  let tally = Hashtbl.create 8 in
  Array.iter
    (fun (ev : FD.event) ->
      let k = FD.kind_name ev.FD.ev_kind in
      Hashtbl.replace tally k
        (1 + Option.value ~default:0 (Hashtbl.find_opt tally k)))
    events;
  Format.printf "merged: %d events" (Array.length events);
  List.iter
    (fun k ->
      match Hashtbl.find_opt tally k with
      | Some n -> Format.printf ", %d %ss" n k
      | None -> ())
    [ "span"; "instant"; "count"; "flow-start"; "flow-end" ];
  Format.printf "@."

let print_stages events =
  Format.printf "@.== per-stage latency ==@.";
  Format.printf "%-12s %7s %10s %10s %10s %10s %10s@." "stage" "count"
    "total" "p50" "p95" "p99" "max";
  List.iter
    (fun (s : Explorer.stage_stats) ->
      Format.printf "%-12s %7d %a %a %a %a %a@." s.Explorer.st_name
        s.Explorer.st_count pp_ns s.Explorer.st_total_ns pp_ns
        s.Explorer.st_p50_ns pp_ns s.Explorer.st_p95_ns pp_ns
        s.Explorer.st_p99_ns pp_ns s.Explorer.st_max_ns)
    (Explorer.stage_breakdown events)

let print_contention events =
  Format.printf "@.== lock contention ==@.";
  match Explorer.lock_contention events with
  | [] -> Format.printf "no queued lock acquisitions in this trace@."
  | rows ->
      Format.printf "%-8s %7s %10s %12s %12s@." "lock" "waits" "contended"
        "total wait" "max wait";
      List.iter
        (fun (r : Explorer.lock_stats) ->
          Format.printf "l%-7d %7d %10d   %a   %a@." r.Explorer.lk_lock
            r.Explorer.lk_waits r.Explorer.lk_contended pp_ns
            r.Explorer.lk_total_ns pp_ns r.Explorer.lk_max_ns)
        rows

let print_critical_path events =
  Format.printf "@.== critical path (slowest transaction) ==@.";
  match Explorer.critical_path events with
  | None -> Format.printf "no txn spans in this trace@."
  | Some (txn, inside) ->
      let start = Explorer.span_start txn in
      Format.printf "txn on node %d: start %.1fµs, duration %a@."
        txn.FD.ev_ring
        (float_of_int start /. 1000.0)
        pp_ns txn.FD.ev_dur_ns;
      let accounted = ref 0 in
      List.iter
        (fun (ev : FD.event) ->
          if ev.FD.ev_lane = Lbc_obs.Obs.lane_txn then
            accounted := !accounted + ev.FD.ev_dur_ns;
          Format.printf "  +%a %-10s %a%s@." pp_ns
            (Explorer.span_start ev - start)
            ev.FD.ev_name pp_ns ev.FD.ev_dur_ns
            (match FD.arg_label ev.FD.ev_name with
            | Some label -> Printf.sprintf "  (%s %d)" label ev.FD.ev_arg
            | None -> ""))
        inside;
      if txn.FD.ev_dur_ns > 0 then
        Format.printf "accounted inside txn lane: %a (%.0f%%)@." pp_ns
          !accounted
          (100.0 *. float_of_int !accounted /. float_of_int txn.FD.ev_dur_ns)

let print_flows events =
  let f = Explorer.flow_summary events in
  Format.printf
    "@.flows: %d committed writes broadcast, %d applies bound to them@."
    f.Explorer.fl_starts f.Explorer.fl_ends;
  if f.Explorer.fl_unresolved > 0 then
    Format.printf "!! %d flow heads without a matching start@."
      f.Explorer.fl_unresolved

let run file self_check json_out =
  match FD.read file with
  | Error why ->
      Format.eprintf "%s: %s@." file why;
      exit 2
  | Ok d ->
      let problems = Explorer.self_check d in
      let events = FD.merged d in
      if self_check then
        match problems with
        | [] ->
            let dropped =
              Array.fold_left
                (fun acc r -> acc + r.FD.r_dropped)
                0 d.FD.d_rings
            in
            let f = Explorer.flow_summary events in
            Format.printf
              "%s: OK (%d rings, %d events, %d dropped, %d flow starts, %d \
               flow ends, clock %s)@."
              file (Array.length d.FD.d_rings) (Array.length events) dropped
              f.Explorer.fl_starts f.Explorer.fl_ends d.FD.d_clock;
            exit 0
        | errors ->
            List.iter (fun e -> Format.eprintf "%s: %s@." file e) errors;
            exit 1
      else begin
        FD.pp_summary Format.std_formatter d;
        print_kinds events;
        print_stages events;
        print_contention events;
        print_critical_path events;
        print_flows events;
        if problems <> [] then
          Format.printf
            "!! %d self-check problems (details with --self-check)@."
            (List.length problems);
        match json_out with
        | Some path ->
            let oc = open_out path in
            output_string oc (FD.render_chrome d);
            close_out oc;
            Format.printf "Chrome trace written to %s (load in Perfetto)@."
              path
        | None -> ()
      end

let file =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE"
         ~doc:"LBCF dump of the flight rings: written by $(b,oo7-run \
               --trace), $(b,Cluster.dump_flight), or automatically when a \
               run strands, crashes or trips an oracle.")

let self_check =
  Arg.(value & flag & info [ "self-check" ]
         ~doc:"Validate the dump instead of reporting.  Ring structure: \
               clean record decode, interned-id closure, per-ring \
               timestamp monotonicity, non-negative durations and drop \
               accounting (recorded = dropped + decoded).  Trace contract: \
               every flow head lies inside an apply span on its node, no \
               flow starts after its head, and, when no ring dropped \
               events, every head has a start.  Prints the ring, event, \
               drop and flow counts.  Exit 0 if clean, 1 on a problem, 2 \
               if the file does not decode.")

let json_out =
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"PATH"
         ~doc:"Also write the merged rings as a Perfetto-loadable Chrome \
               trace-event file at $(docv): one process per node, one \
               thread per pipeline lane, each event's argument in its \
               args.")

let cmd =
  Cmd.v
    (Cmd.info "lbc-trace"
       ~doc:"Explore a trace of the coherency pipeline"
       ~man:
         [ `S Manpage.s_description;
           `P "Decodes an LBCF dump of the per-node flight rings, merges \
               the rings into one timeline, and prints the per-ring \
               recorded/dropped accounting, a per-stage latency breakdown \
               (p50/p95/p99 of span durations), a per-lock contention \
               table, the critical path of the slowest transaction and a \
               flow summary.  $(b,oo7-run --trace) sizes the rings to hold \
               the whole run; a failure dump holds each node's last \
               moments.  $(b,--json) converts the dump for Perfetto." ])
    Term.(const run $ file $ self_check $ json_out)

let () = exit (Cmd.eval cmd)
