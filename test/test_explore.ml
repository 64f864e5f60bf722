(* Tests for the schedule explorer: the planted bug is found, shrunk to
   a minimal trace and reproduced from the written counterexample; the
   real scenarios hold up under bounded exploration. *)

module Scenario = Lbc_explore.Scenario
module Explore = Lbc_explore.Explore
module S = Lbc_sim.Schedule

let test_planted_clean_under_fifo () =
  let r = Scenario.planted.Scenario.run S.Fifo in
  Alcotest.(check (list string))
    "no violations" []
    (List.map Lbc_analysis.Violation.to_string r.Scenario.violations);
  Alcotest.(check bool) "choice points seen" true (r.Scenario.choice_points > 0)

let find_planted () =
  match Explore.explore ~mode:`Random ~seeds:64 Scenario.planted with
  | Explore.Pass n -> Alcotest.failf "no violation in %d schedules" n
  | Explore.Fail f -> f

let test_exploration_finds_planted_bug () =
  let f = find_planted () in
  Alcotest.(check (list string))
    "schedule-oracle fired" [ "schedule-oracle" ]
    (Explore.names_of f.Explore.violations);
  Alcotest.(check bool) "decisions recorded" true (f.Explore.decisions <> [])

let test_shrink_isolates_one_reordering () =
  let f = find_planted () in
  let shrunk = Explore.shrink Scenario.planted f in
  Alcotest.(check int) "one non-FIFO decision" 1
    (Explore.nonzero_count shrunk.Explore.decisions);
  Alcotest.(check bool) "no longer than the original" true
    (List.length shrunk.Explore.decisions <= List.length f.Explore.decisions);
  (* The shrunk trace still fails, with the same violation names. *)
  let r = Explore.replay Scenario.planted shrunk.Explore.decisions in
  Alcotest.(check (list string))
    "same failure" [ "schedule-oracle" ]
    (Explore.names_of r.Scenario.violations)

let test_counterexample_roundtrip_and_replay () =
  let f = Explore.shrink Scenario.planted (find_planted ()) in
  let path = Filename.temp_file "lbc-test" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Explore.save_trace path f;
      match Explore.read_trace path with
      | Error e -> Alcotest.failf "read_trace: %s" e
      | Ok t ->
          Alcotest.(check string) "scenario" "planted" t.Explore.t_scenario;
          Alcotest.(check (list int))
            "decisions" f.Explore.decisions t.Explore.t_decisions;
          (match Explore.replay_trace t with
          | Error e -> Alcotest.failf "replay_trace: %s" e
          | Ok (r, reproduced) ->
              Alcotest.(check bool) "reproduced" true reproduced;
              Alcotest.(check bool) "violations present" true
                (r.Scenario.violations <> [])))

let test_read_trace_rejects_garbage () =
  let path = Filename.temp_file "lbc-test" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "not a trace\n";
      close_out oc;
      match Explore.read_trace path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "accepted garbage")

(* A recorded cluster-scenario trace replays to the identical run:
   same committed transactions, same choice points, and the re-recorded
   decision trace is a prefix-compatible reproduction. *)
let test_cluster_replay_deterministic () =
  let probe = Scenario.drop_heal.Scenario.run (S.Random_tie 11) in
  Alcotest.(check (list string))
    "probe run is clean" []
    (List.map Lbc_analysis.Violation.to_string probe.Scenario.violations);
  let r1 = Explore.replay Scenario.drop_heal probe.Scenario.decisions in
  Alcotest.(check int) "same committed txns" probe.Scenario.committed
    r1.Scenario.committed;
  Alcotest.(check int) "same choice points" probe.Scenario.choice_points
    r1.Scenario.choice_points;
  Alcotest.(check (list int))
    "replay re-records the same decisions" probe.Scenario.decisions
    r1.Scenario.decisions

(* Bounded exploration of the real scenarios: every schedule must pass
   the full oracle stack (log invariants, races, serializability). *)
let explored_clean name scenario seeds () =
  match Explore.explore ~mode:`Random ~seeds scenario with
  | Explore.Pass _ -> ()
  | Explore.Fail f ->
      Alcotest.failf "%s: seed %d violates %s" name
        (1 + f.Explore.schedules_run)
        (String.concat ", " (Explore.names_of f.Explore.violations))

let test_scenarios_registered () =
  Alcotest.(check bool) "planted registered" true
    (Scenario.find "planted" <> None);
  Alcotest.(check bool) "unknown rejected" true
    (Scenario.find "no-such-scenario" = None);
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (s.Scenario.name ^ " has a description")
        true
        (String.length s.Scenario.descr > 0))
    Scenario.all

let suites =
  [
    ( "explore",
      [
        Alcotest.test_case "planted clean under fifo" `Quick
          test_planted_clean_under_fifo;
        Alcotest.test_case "exploration finds the planted bug" `Quick
          test_exploration_finds_planted_bug;
        Alcotest.test_case "shrink isolates one reordering" `Quick
          test_shrink_isolates_one_reordering;
        Alcotest.test_case "counterexample roundtrip + replay" `Quick
          test_counterexample_roundtrip_and_replay;
        Alcotest.test_case "trace parser rejects garbage" `Quick
          test_read_trace_rejects_garbage;
        Alcotest.test_case "cluster replay deterministic" `Quick
          test_cluster_replay_deterministic;
        Alcotest.test_case "scenario registry" `Quick test_scenarios_registered;
      ] );
    ( "explore-scenarios",
      [
        Alcotest.test_case "drop-heal 5 schedules" `Quick
          (explored_clean "drop-heal" Scenario.drop_heal 5);
        Alcotest.test_case "crash-rejoin 5 schedules" `Quick
          (explored_clean "crash-rejoin" Scenario.crash_rejoin 5);
        Alcotest.test_case "checkpoint-under-faults 5 schedules" `Quick
          (explored_clean "checkpoint-under-faults"
             Scenario.checkpoint_under_faults 5);
        Alcotest.test_case "rejoin-under-load 5 schedules" `Quick
          (explored_clean "rejoin-under-load" Scenario.rejoin_under_load 5);
        Alcotest.test_case "oo7 eager 5 schedules" `Quick
          (explored_clean "oo7-eager" Scenario.oo7_eager 5);
        Alcotest.test_case "oo7 multicast 5 schedules" `Quick
          (explored_clean "oo7-multicast" Scenario.oo7_multicast 5);
        Alcotest.test_case "oo7 lazy 5 schedules" `Quick
          (explored_clean "oo7-lazy" Scenario.oo7_lazy 5);
      ] );
  ]
