(* lbc-explore: systematic schedule exploration for the simulated
   cluster.

   Runs N seeded schedules of a named scenario (chaos fault workloads,
   the OO7 bench configurations, a planted-bug toy), judging each with
   the log invariants and the one-copy serializability oracle.  On the
   first violation it delta-debugs the schedule's decision trace down to
   the minimal set of non-FIFO reorderings and writes a replayable
   counterexample.trace; --replay reproduces it byte-exactly.

     lbc-explore --list
     lbc-explore --scenario drop-heal --seeds 100
     lbc-explore --scenario planted --policy pct --seed 7
     lbc-explore --replay counterexample.trace
     lbc-explore --self-test

   Exit status: 0 all schedules clean (or a clean replay), 1 a violation
   was found (or a replay showed one), 2 on usage/I/O errors. *)

open Cmdliner
module Scenario = Lbc_explore.Scenario
module Explore = Lbc_explore.Explore
module S = Lbc_sim.Schedule

let pr fmt = Format.printf fmt

let list_scenarios () =
  List.iter
    (fun s -> pr "%-24s %s@." s.Scenario.name s.Scenario.descr)
    Scenario.all;
  exit 0

let scenario_or_die name =
  match Scenario.find name with
  | Some s -> s
  | None ->
      Format.eprintf "unknown scenario %S; try --list@." name;
      exit 2

let report_violations vs =
  List.iter
    (fun v -> pr "violation: %a@." Lbc_analysis.Violation.pp v)
    vs

(* Cluster scenarios auto-dump the flight recorder on any violation;
   name the file next to the repro line so the last moments of the
   failing schedule travel with the counterexample. *)
let report_flight () =
  match Lbc_core.Cluster.last_flight_dump () with
  | Some path -> pr "flight dump: %s (decode with lbc-trace)@." path
  | None -> ()

(* One schedule, fully specified: report and exit. *)
let run_one s policy =
  let r = s.Scenario.run policy in
  pr "scenario %s, policy %s: %d choice points, %d committed txns@."
    s.Scenario.name (S.policy_to_string policy) r.Scenario.choice_points
    r.Scenario.committed;
  report_violations r.Scenario.violations;
  if r.Scenario.violations = [] then begin
    pr "ok: all oracles hold@.";
    exit 0
  end
  else begin
    report_flight ();
    exit 1
  end

let replay_file path =
  match Explore.read_trace path with
  | Error e ->
      Format.eprintf "%s: %s@." path e;
      exit 2
  | Ok t -> (
      pr "replaying %s: scenario %s, %d decisions (found by %s)@." path
        t.Explore.t_scenario
        (List.length t.Explore.t_decisions)
        t.Explore.t_policy;
      match Explore.replay_trace t with
      | Error e ->
          Format.eprintf "%s@." e;
          exit 2
      | Ok (r, reproduced) ->
          report_violations r.Scenario.violations;
          if r.Scenario.violations = [] then begin
            pr "replay is clean — the recorded failure did NOT reproduce@.";
            exit 1
          end
          else begin
            pr "replay %s the recorded failure (%s)@."
              (if reproduced then "reproduced" else
                 "found a DIFFERENT failure than")
              (String.concat ", "
                 (Explore.names_of r.Scenario.violations));
            report_flight ();
            exit 1
          end)

let explore_cmd s mode seeds seed0 out no_shrink =
  pr "exploring %s: up to %d %s schedules (seeds %d..%d)@." s.Scenario.name
    seeds
    (match mode with `Random -> "random-tie" | `Pct -> "pct")
    seed0
    (seed0 + seeds - 1);
  match Explore.explore ~mode ~seed0 ~seeds s with
  | Explore.Pass n ->
      pr "ok: %d schedules explored, every oracle held@." n;
      exit 0
  | Explore.Fail f ->
      pr "violation at seed %d (schedule %d of %d), %d choice points:@."
        (seed0 + f.Explore.schedules_run)
        (f.Explore.schedules_run + 1)
        seeds f.Explore.choice_points;
      report_violations f.Explore.violations;
      let f =
        if no_shrink then f
        else begin
          pr "shrinking %d non-FIFO decisions...@."
            (Explore.nonzero_count f.Explore.decisions);
          let f' = Explore.shrink s f in
          pr "shrunk to %d non-FIFO decision(s) over %d choice points@."
            (Explore.nonzero_count f'.Explore.decisions)
            (List.length f'.Explore.decisions);
          f'
        end
      in
      Explore.save_trace out f;
      pr "wrote %s@." out;
      pr "repro: lbc-explore --replay %s@." out;
      report_flight ();
      exit 1

let main list_ scenario seeds policy seed seed0 replay out no_shrink =
  if list_ then list_scenarios ();
  match replay with
  | Some path -> replay_file path
  | None -> (
      match scenario with
      | None ->
          Format.eprintf
            "nothing to do: pass --scenario, --replay or --list@.";
          exit 2
      | Some name -> (
          let s = scenario_or_die name in
          match (policy, seed) with
          | "fifo", _ -> run_one s S.Fifo
          | "random", Some sd -> run_one s (S.Random_tie sd)
          | "pct", Some sd -> run_one s (S.Pct sd)
          | "random", None -> explore_cmd s `Random seeds seed0 out no_shrink
          | "pct", None -> explore_cmd s `Pct seeds seed0 out no_shrink
          | p, _ ->
              Format.eprintf
                "unknown policy %S (expected fifo, random or pct)@." p;
              exit 2))

(* ----------------------------------------------------------------- *)
(* Self-test: the planted bug must be found, shrunk to a single
   reordering, written out and reproduced; the OO7 bench configurations
   must stay serializable under every explored schedule. *)

let self_test () =
  let results = ref [] in
  let check name ok detail =
    results := (name, ok, detail) :: !results;
    pr "%-46s %s  %s@." name (if ok then "PASS" else "FAIL") detail
  in
  let planted = Scenario.planted in
  (* 1. deterministic baseline: FIFO must be clean *)
  let fifo = planted.Scenario.run S.Fifo in
  check "planted: clean under FIFO"
    (fifo.Scenario.violations = [])
    (Printf.sprintf "%d choice points" fifo.Scenario.choice_points);
  (* 2. bounded exploration must find the planted bug *)
  let budget = 64 in
  (match Explore.explore ~mode:`Random ~seeds:budget planted with
  | Explore.Pass n ->
      check "planted: exploration finds the bug" false
        (Printf.sprintf "%d schedules, no violation" n)
  | Explore.Fail f ->
      check "planted: exploration finds the bug" true
        (Printf.sprintf "seed %d of %d" (1 + f.Explore.schedules_run) budget);
      (* 3. ddmin must isolate the single flipped pair *)
      let shrunk = Explore.shrink planted f in
      let nz = Explore.nonzero_count shrunk.Explore.decisions in
      check "planted: shrinks to one reordering" (nz = 1)
        (Printf.sprintf "%d -> %d non-FIFO decisions"
           (Explore.nonzero_count f.Explore.decisions)
           nz);
      (* 4. the written counterexample must replay to the same failure *)
      let path = Filename.temp_file "lbc-explore" ".trace" in
      Explore.save_trace path shrunk;
      (match Explore.read_trace path with
      | Error e -> check "planted: trace round-trips" false e
      | Ok t -> (
          check "planted: trace round-trips"
            (t.Explore.t_decisions = shrunk.Explore.decisions)
            (Printf.sprintf "%d decisions" (List.length t.Explore.t_decisions));
          match Explore.replay_trace t with
          | Error e -> check "planted: replay reproduces" false e
          | Ok (r, reproduced) ->
              check "planted: replay reproduces"
                (reproduced && r.Scenario.violations <> [])
                (String.concat ", " (Explore.names_of r.Scenario.violations))));
      Sys.remove path);
  (* 5. replay determinism on a cluster scenario: same trace, same run *)
  let dh = Scenario.drop_heal in
  let probe = dh.Scenario.run (S.Random_tie 1) in
  let r1 = Explore.replay dh probe.Scenario.decisions in
  let r2 = Explore.replay dh probe.Scenario.decisions in
  check "drop-heal: replay is byte-deterministic"
    (r1.Scenario.committed = r2.Scenario.committed
    && r1.Scenario.choice_points = r2.Scenario.choice_points
    && Explore.names_of r1.Scenario.violations
       = Explore.names_of r2.Scenario.violations
    && probe.Scenario.violations = [])
    (Printf.sprintf "%d choice points, %d txns" r1.Scenario.choice_points
       r1.Scenario.committed);
  (* 6. the OO7 bench configurations stay serializable under explored
     schedules *)
  List.iter
    (fun s ->
      match Explore.explore ~mode:`Random ~seeds:6 s with
      | Explore.Pass n ->
          check
            (Printf.sprintf "%s: schedules serializable" s.Scenario.name)
            true
            (Printf.sprintf "%d schedules clean" n)
      | Explore.Fail f ->
          check
            (Printf.sprintf "%s: schedules serializable" s.Scenario.name)
            false
            (String.concat ", " (Explore.names_of f.Explore.violations)))
    [ Scenario.oo7_eager; Scenario.oo7_multicast; Scenario.oo7_lazy ];
  let all_ok = List.for_all (fun (_, ok, _) -> ok) !results in
  if all_ok then begin
    pr "self-test passed (%d checks)@." (List.length !results);
    exit 0
  end
  else begin
    pr "self-test FAILED@.";
    exit 1
  end

(* ----------------------------------------------------------------- *)

let list_flag =
  Arg.(value & flag & info [ "list" ] ~doc:"List the known scenarios.")

let scenario_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "scenario" ] ~docv:"NAME" ~doc:"Scenario to run (see --list).")

let seeds_arg =
  Arg.(
    value & opt int 50
    & info [ "seeds" ] ~docv:"N"
        ~doc:"Number of seeded schedules to explore (default 50).")

let policy_arg =
  Arg.(
    value & opt string "random"
    & info [ "policy" ] ~docv:"P"
        ~doc:
          "Schedule policy family: $(b,random) (seeded tie permutation, \
           the default), $(b,pct) (random priorities) or $(b,fifo) (the \
           deterministic baseline, a single schedule).")

let seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ] ~docv:"S"
        ~doc:"Run exactly one schedule with this seed instead of exploring.")

let seed0_arg =
  Arg.(
    value & opt int 1
    & info [ "seed0" ] ~docv:"S" ~doc:"First seed of the exploration range.")

let replay_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "replay" ] ~docv:"FILE"
        ~doc:"Replay a recorded counterexample trace file.")

let out_arg =
  Arg.(
    value
    & opt string "counterexample.trace"
    & info [ "out" ] ~docv:"FILE"
        ~doc:"Where to write the (shrunk) counterexample trace.")

let no_shrink_arg =
  Arg.(
    value & flag
    & info [ "no-shrink" ]
        ~doc:"Keep the raw failing decision trace (skip delta debugging).")

let cmd =
  Cmd.v
    (Cmd.info "lbc-explore"
       ~doc:
         "Systematic schedule exploration with a serializability oracle \
          and replayable counterexamples")
    Term.(
      const main $ list_flag $ scenario_arg $ seeds_arg $ policy_arg
      $ seed_arg $ seed0_arg $ replay_arg $ out_arg $ no_shrink_arg)

let () =
  if Array.exists (String.equal "--self-test") Sys.argv then self_test ()
  else exit (Cmd.eval cmd)
