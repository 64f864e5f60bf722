(* Pluggable same-time scheduling for the discrete-event engine.

   The engine's event queue orders events by (time, sequence number);
   events that share an instant form a "ripe set", and which of them runs
   first is a genuine degree of freedom of the modelled system — message
   deliveries, lock grants and process wakeups that the real world could
   order either way.  A policy picks one ripe event per step; every pick
   made from a ripe set of two or more is a *decision*, recorded as the
   chosen index into the set ordered by sequence number.  The decision
   list is the complete schedule trace: feeding it back through [Replay]
   reproduces the run byte-exactly, and a missing decision (an exhausted
   or truncated trace) falls back to index 0, i.e. stable FIFO — which is
   what makes delta-debugging a failing trace sound. *)

type policy =
  | Fifo  (** lowest sequence number first: stable FIFO, the baseline *)
  | Random_tie of int
      (** seeded uniform choice among the ripe set at every decision *)
  | Pct of int
      (** PCT-style random priorities: every event is assigned a seeded
          random priority at creation; the highest-priority ripe event
          runs first (ties by sequence number) *)
  | Replay of int array
      (** replay a recorded decision trace; out-of-range or exhausted
          entries fall back to FIFO *)

type t = {
  policy : policy;
  rng : Lbc_util.Rng.t option;  (* Random_tie / Pct *)
  mutable replay_pos : int;
  mutable decisions_rev : int list;
  mutable n_decisions : int;
  mutable choice_points : int;
}

let make policy =
  let rng =
    match policy with
    | Random_tie seed | Pct seed -> Some (Lbc_util.Rng.create seed)
    | Fifo | Replay _ -> None
  in
  {
    policy;
    rng;
    replay_pos = 0;
    decisions_rev = [];
    n_decisions = 0;
    choice_points = 0;
  }

(* Priority for a freshly created event (consulted by the engine at
   push time).  Only Pct cares; everything else is priority-blind. *)
let assign_priority t =
  match t.policy with
  | Pct _ -> (
      match t.rng with
      | Some rng -> Lbc_util.Rng.int rng (1 lsl 30)
      | None -> 0)
  | Fifo | Random_tie _ | Replay _ -> 0

(* Pick the index of the event to run out of [k] ripe events (ordered by
   sequence number); [prio i] is the i-th event's priority.  Records the
   decision whenever there was a real choice. *)
let choose t ~k ~prio =
  if k <= 1 then 0
  else begin
    t.choice_points <- t.choice_points + 1;
    let idx =
      match t.policy with
      | Fifo -> 0
      | Random_tie _ -> (
          match t.rng with Some rng -> Lbc_util.Rng.int rng k | None -> 0)
      | Pct _ ->
          let best = ref 0 in
          for i = 1 to k - 1 do
            if prio i > prio !best then best := i
          done;
          !best
      | Replay trace ->
          let pos = t.replay_pos in
          t.replay_pos <- pos + 1;
          if pos < Array.length trace && trace.(pos) >= 0 && trace.(pos) < k
          then trace.(pos)
          else 0
    in
    t.decisions_rev <- idx :: t.decisions_rev;
    t.n_decisions <- t.n_decisions + 1;
    idx
  end

let decisions t = List.rev t.decisions_rev
let choice_points t = t.choice_points

(* --------------------------------------------------------------- *)
(* Textual policy names, shared by the explorer CLI and trace files. *)

let policy_to_string = function
  | Fifo -> "fifo"
  | Random_tie seed -> Printf.sprintf "random:%d" seed
  | Pct seed -> Printf.sprintf "pct:%d" seed
  | Replay trace -> Printf.sprintf "replay:%d" (Array.length trace)

let policy_of_string s =
  let seeded prefix mk =
    let n = String.length prefix in
    if
      String.length s > n
      && String.sub s 0 n = prefix
      && s.[n] = ':'
    then Option.map mk (int_of_string_opt (String.sub s (n + 1) (String.length s - n - 1)))
    else None
  in
  if s = "fifo" then Some Fifo
  else
    match seeded "random" (fun n -> Random_tie n) with
    | Some p -> Some p
    | None -> seeded "pct" (fun n -> Pct n)
