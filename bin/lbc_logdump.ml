(* Inspect a redo-log image: header, live records, torn tails.  A path
   that cannot be read or holds no log exits 1. *)

open Cmdliner

let dump verbose path =
  match Lbc_wal.Log.load_file path with
  | Error why ->
      Format.eprintf "%s@." why;
      exit 1
  | Ok log ->
      Format.printf "%s: head=%d tail=%d live=%d bytes, %d records@." path
        (Lbc_wal.Log.head log) (Lbc_wal.Log.tail log)
        (Lbc_wal.Log.live_bytes log)
        (Lbc_wal.Log.record_count log);
      let (), status =
        Lbc_wal.Log.fold log ~init:() (fun () off txn ->
            Format.printf "  @[<h>%8d: %a  (disk %dB, wire %dB)@]@." off
              Lbc_wal.Record.pp_txn txn
              (Lbc_wal.Record.encoded_size txn)
              (Lbc_core.Wire.size txn);
            if verbose then
              List.iter
                (fun r ->
                  Format.printf "            region %d +%d: %d bytes@."
                    r.Lbc_wal.Record.region r.Lbc_wal.Record.offset
                    (Bytes.length r.Lbc_wal.Record.data))
                txn.Lbc_wal.Record.ranges)
      in
      match status with
      | Lbc_wal.Log.Clean -> ()
      | Lbc_wal.Log.Torn_at (off, why) ->
          Format.printf "  torn record at %d (%s) — ignored by recovery@." off
            why

let dump_all verbose paths = List.iter (dump verbose) paths

let paths =
  Arg.(non_empty & pos_all file [] & info [] ~docv:"LOG" ~doc:"Log image files.")

let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Show ranges.")

let cmd =
  Cmd.v (Cmd.info "lbc-logdump" ~doc:"Print the records of redo-log images")
    Term.(const dump_all $ verbose $ paths)

let () = exit (Cmd.eval cmd)
