(* lbc-check: static analysis over redo-log images and OCaml sources.

   verify LOG...  — coherency race detection + log invariant verification
   lint PATH...   — repo-specific source lint
   self-test      — run the checker against simulated workloads and
                    seeded corruptions (also spelled --self-test)

   Exit status: 0 when every check passes, 1 when a violation is found,
   2 on I/O errors (unreadable path, not a log image); cmdliner's usual
   124 on command-line misuse. *)

open Cmdliner

let load_log path =
  match Lbc_wal.Log.load_file path with
  | Ok log -> log
  | Error why ->
      Format.eprintf "%s@." why;
      exit 2

let report violations =
  List.iter
    (fun v -> Format.printf "violation: %a@." Lbc_analysis.Violation.pp v)
    violations;
  match violations with
  | [] ->
      Format.printf "ok: all invariants hold@.";
      0
  | vs ->
      let names =
        List.sort_uniq String.compare
          (List.map Lbc_analysis.Violation.name vs)
      in
      Format.printf "%d violation(s): %s@." (List.length vs)
        (String.concat ", " names);
      1

let verify no_races strict regions paths =
  (* Command records verify by re-execution; their operations must be
     registered before any decode touches them. *)
  Lbc_oo7.Commands.ensure ();
  let logs = List.map load_log paths in
  List.iter2
    (fun path log ->
      (* attach already stopped the tail at the first torn record; any
         bytes past it are crash residue that recovery would ignore too. *)
      let residue =
        Lbc_storage.Dev.size (Lbc_wal.Log.dev log) - Lbc_wal.Log.tail log
      in
      if residue > 0 then
        Format.printf
          "note: %s has %d torn/trailing bytes after the last complete \
           record; verifying the clean prefix@."
          path residue)
    paths logs;
  exit
    (report
       (Lbc_analysis.Invariants.check_logs ~infer_base:(not strict)
          ~races:(not no_races) ?regions logs))

let lint paths =
  let violations =
    try Lbc_analysis.Lint.scan_paths paths
    with Sys_error why ->
      Format.eprintf "%s@." why;
      exit 2
  in
  List.iter
    (fun v -> Format.printf "%a@." Lbc_analysis.Violation.pp v)
    violations;
  if violations = [] then begin
    Format.printf "lint clean@.";
    exit 0
  end
  else begin
    Format.printf "%d lint finding(s)@." (List.length violations);
    exit 1
  end

let write_sample_logs dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let logs =
    Lbc_analysis.Selftest.build_sim_logs ~config:Lbc_core.Config.default
      ~nodes:4 ~seed:101 ~iterations:20 ()
  in
  List.iteri
    (fun n log ->
      let path = Filename.concat dir (Printf.sprintf "log.%d.img" n) in
      let oc = open_out_bin path in
      output_bytes oc (Lbc_storage.Dev.snapshot (Lbc_wal.Log.dev log));
      close_out oc;
      Format.printf "wrote %s@." path)
    logs

let self_test write_logs =
  Option.iter write_sample_logs write_logs;
  let results = Lbc_analysis.Selftest.run () in
  List.iter
    (fun r ->
      Format.printf "%-42s %s  %s@." r.Lbc_analysis.Selftest.check
        (if r.Lbc_analysis.Selftest.ok then "PASS" else "FAIL")
        r.Lbc_analysis.Selftest.detail)
    results;
  if Lbc_analysis.Selftest.all_ok results then begin
    Format.printf "self-test passed (%d checks)@." (List.length results);
    exit 0
  end
  else begin
    Format.printf "self-test FAILED@.";
    exit 1
  end

let log_paths =
  Arg.(non_empty & pos_all file [] & info [] ~docv:"LOG" ~doc:"Log image files.")

let lint_paths =
  Arg.(
    non_empty & pos_all string []
    & info [] ~docv:"PATH" ~doc:"Source files or directories.")

let no_races =
  Arg.(
    value & flag
    & info [ "no-races" ] ~doc:"Skip the happens-before race detector.")

let strict =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:
          "Require write chains to start at sequence number 0 instead of \
           inferring a checkpoint baseline from the first record.")

let regions =
  Arg.(
    value
    & opt (some (list int)) None
    & info [ "regions" ] ~docv:"ID,..."
        ~doc:
          "Declare the mapped region set: any record addressing a region \
           outside it is flagged (receivers silently drop such ranges, so \
           the write reaches nobody).")

let verify_cmd =
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Check redo-log images: seqno monotonicity/uniqueness, \
          prev_write_seq chains, wire-codec round-trips, merge legality, \
          unlocked overlapping writes and (with $(b,--regions)) region \
          coverage")
    Term.(const verify $ no_races $ strict $ regions $ log_paths)

let lint_cmd =
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Lint OCaml sources for polymorphic compare, catch-all recovery \
          handlers and Obj.magic")
    Term.(const lint $ lint_paths)

let write_logs =
  Arg.(
    value
    & opt (some string) None
    & info [ "write-logs" ] ~docv:"DIR"
        ~doc:
          "Also dump the simulated workload's per-node log images into \
           $(docv), for use with the verify command.")

let self_test_cmd =
  Cmd.v
    (Cmd.info "self-test"
       ~doc:
         "Verify logs from simulated workloads and check that seeded \
          corruptions are caught")
    Term.(const self_test $ write_logs)

let main =
  Cmd.group
    (Cmd.info "lbc-check" ~doc:"Static analysis for log-based coherency")
    [ verify_cmd; lint_cmd; self_test_cmd ]

let () =
  (* `lbc_check --self-test` is the spelling the test-suite hook uses. *)
  if Array.exists (String.equal "--self-test") Sys.argv then self_test None
  else exit (Cmd.eval main)
