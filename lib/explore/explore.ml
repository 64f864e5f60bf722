(* The exploration harness: run many seeded schedules of a scenario,
   stop at the first violation, shrink the failing schedule's decision
   trace by delta debugging, and write a replayable counterexample.

   Everything rests on one property of the decision trace: a missing or
   zeroed entry falls back to stable FIFO, so *any* subset of a recorded
   trace is a valid schedule.  That makes ddmin sound — zeroing decisions
   can only simplify the schedule, never produce an unreplayable one —
   and makes the shrunk trace self-contained: the handful of surviving
   non-zero decisions are exactly the reorderings the bug needs. *)

module S = Lbc_sim.Schedule
module V = Lbc_analysis.Violation

type failure = {
  scenario : string;
  policy : S.policy;  (* the policy that produced the failing run *)
  violations : V.t list;
  decisions : int list;
  choice_points : int;
  schedules_run : int;  (* schedules explored before this one failed *)
}

type outcome = Pass of int  (** schedules explored, all clean *) | Fail of failure

(* Violations compare by stable name set: a shrunk schedule reproduces
   the failure iff the same invariants break, even when details (byte
   offsets, stranded-process lists) shift. *)
let names_of vs = List.sort_uniq String.compare (List.map V.name vs)

let mode_policy mode seed =
  match mode with `Random -> S.Random_tie seed | `Pct -> S.Pct seed

let explore ?(mode = `Random) ?(seed0 = 1) ?on_schedule ~seeds
    (s : Scenario.t) =
  let rec go i =
    if i >= seeds then Pass seeds
    else begin
      (match on_schedule with Some f -> f i | None -> ());
      let policy = mode_policy mode (seed0 + i) in
      let r = s.Scenario.run policy in
      if r.Scenario.violations <> [] then
        Fail
          {
            scenario = s.Scenario.name;
            policy;
            violations = r.Scenario.violations;
            decisions = r.Scenario.decisions;
            choice_points = r.Scenario.choice_points;
            schedules_run = i;
          }
      else go (i + 1)
    end
  in
  go 0

let replay (s : Scenario.t) decisions =
  s.Scenario.run (S.Replay (Array.of_list decisions))

(* ----------------------------------------------------------------- *)
(* Shrinking *)

let nonzero_count decisions =
  List.fold_left (fun n d -> if d <> 0 then n + 1 else n) 0 decisions

(* Split [xs] into [n] contiguous chunks (at most [n]; never empty). *)
let chunks xs n =
  let len = List.length xs in
  let size = max 1 ((len + n - 1) / n) in
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
        if k = size then go (List.rev cur :: acc) [ x ] 1 rest
        else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 xs

(* Classic ddmin over the set of non-zero decision positions: a candidate
   keeps only the positions in [kept] (every other decision is zeroed,
   i.e. falls back to FIFO) and must reproduce the same violation-name
   set.  Minimises the number of surviving reorderings. *)
let shrink (s : Scenario.t) (f : failure) =
  let target = names_of f.violations in
  let d = Array.of_list f.decisions in
  let module Iset = Set.Make (Int) in
  let reproduces kept =
    let keep = Iset.of_list kept in
    let d' = Array.mapi (fun i v -> if Iset.mem i keep then v else 0) d in
    let r = replay s (Array.to_list d') in
    names_of r.Scenario.violations = target
  in
  let active = ref [] in
  Array.iteri (fun i v -> if v <> 0 then active := i :: !active) d;
  let active = List.rev !active in
  if active = [] || not (reproduces active) then f
    (* nothing to shrink, or (pathologically) the recorded trace itself
       does not replay to the same names — keep the original evidence *)
  else begin
    let rec ddmin kept n =
      if List.length kept <= 1 then kept
      else
        let cs = chunks kept n in
        match List.find_opt reproduces cs with
        | Some c -> ddmin c 2  (* a single chunk suffices: recurse into it *)
        | None -> (
            let complements =
              List.map
                (fun c -> List.filter (fun x -> not (List.mem x c)) kept)
                cs
            in
            match
              List.find_opt (fun k -> k <> [] && reproduces k) complements
            with
            | Some k -> ddmin k (max (n - 1) 2)
            | None ->
                if n < List.length kept then
                  ddmin kept (min (List.length kept) (2 * n))
                else kept)
    in
    let minimal = ddmin active 2 in
    let keep = Iset.of_list minimal in
    let last = List.fold_left max (-1) minimal in
    let decisions =
      Array.to_list
        (Array.mapi (fun i v -> if Iset.mem i keep then v else 0)
           (Array.sub d 0 (last + 1)))
    in
    let r = replay s decisions in
    (* [policy] keeps the finder's seed for provenance; the shrunk
       [decisions] are the replay key. *)
    {
      f with
      violations = r.Scenario.violations;
      decisions;
      choice_points = r.Scenario.choice_points;
    }
  end

(* ----------------------------------------------------------------- *)
(* Counterexample trace files *)

(* Text format, one header per line, decisions last:

     lbc-explore trace v1
     scenario: drop-heal
     policy: random:17
     violations: serializability
     decisions: 0 1 0 0 2

   The decision list is the replay key; scenario names the workload; the
   rest is provenance for humans. *)

type trace = {
  t_scenario : string;
  t_policy : string;  (* provenance: the policy that found the failure *)
  t_names : string list;  (* violation names the replay must reproduce *)
  t_decisions : int list;
}

let magic = "lbc-explore trace v1"

let trace_of_failure (f : failure) =
  {
    t_scenario = f.scenario;
    t_policy = S.policy_to_string f.policy;
    t_names = names_of f.violations;
    t_decisions = f.decisions;
  }

let save_trace path (f : failure) =
  let t = trace_of_failure f in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "%s\n" magic;
      Printf.fprintf oc "scenario: %s\n" t.t_scenario;
      Printf.fprintf oc "policy: %s\n" t.t_policy;
      Printf.fprintf oc "violations: %s\n" (String.concat " " t.t_names);
      Printf.fprintf oc "decisions: %s\n"
        (String.concat " " (List.map string_of_int t.t_decisions)))

let read_trace path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | body -> (
      let lines =
        String.split_on_char '\n' body
        |> List.map String.trim
        |> List.filter (fun l -> l <> "")
      in
      match lines with
      | m :: rest when m = magic -> (
          let field key =
            let prefix = key ^ ": " in
            List.find_map
              (fun l ->
                if String.length l >= String.length prefix
                   && String.sub l 0 (String.length prefix) = prefix
                then
                  Some
                    (String.sub l (String.length prefix)
                       (String.length l - String.length prefix))
                else if l = key ^ ":" then Some ""
                else None)
              rest
          in
          let words = function
            | "" -> []
            | s -> String.split_on_char ' ' s |> List.filter (( <> ) "")
          in
          match (field "scenario", field "decisions") with
          | Some sc, Some ds -> (
              match List.map int_of_string (words ds) with
              | t_decisions ->
                  Ok
                    {
                      t_scenario = sc;
                      t_policy =
                        Option.value (field "policy") ~default:"unknown";
                      t_names = words (Option.value (field "violations") ~default:"");
                      t_decisions;
                    }
              | exception Failure _ -> Error "malformed decision list")
          | None, _ -> Error "missing scenario header"
          | _, None -> Error "missing decisions header")
      | _ -> Error (Printf.sprintf "not a %s file" magic))

(* Replay a trace: reproduced iff the violation-name set matches the one
   recorded at write time. *)
let replay_trace (t : trace) =
  match Scenario.find t.t_scenario with
  | None -> Error (Printf.sprintf "unknown scenario %S" t.t_scenario)
  | Some s ->
      let r = replay s t.t_decisions in
      Ok (r, names_of r.Scenario.violations = t.t_names)
