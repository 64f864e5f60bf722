(* Prints one fingerprint line per explorer scenario and schedule: the
   fifo schedule, then random and pct for seeds 1-20.  Each line holds
   the choice points, the committed count, the violation count and the
   MD5 of the decision trace.  [dune runtest] diffs this output against
   the committed explore_fingerprints.txt; a deliberate move is accepted
   with [dune promote]. *)

module S = Lbc_sim.Schedule
module Scenario = Lbc_explore.Scenario

let policies =
  S.Fifo
  :: List.concat_map (fun seed -> [ S.Random_tie seed; S.Pct seed ])
       (List.init 20 (fun i -> i + 1))

let () =
  List.iter
    (fun (s : Scenario.t) ->
      List.iter
        (fun policy ->
          let r = s.run policy in
          let trace =
            String.concat "," (List.map string_of_int r.Scenario.decisions)
          in
          Printf.printf
            "%s %s choice_points=%d committed=%d violations=%d trace=%s\n"
            s.name (S.policy_to_string policy) r.choice_points r.committed
            (List.length r.violations)
            (Digest.to_hex (Digest.string trace)))
        policies)
    Scenario.all
