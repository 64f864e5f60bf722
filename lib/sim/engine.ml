type time = float

type event = { at : time; seqno : int; prio : int; callback : unit -> unit }

type waiting = { desc : string; daemon : bool; alive : unit -> bool }

type t = {
  mutable clock : time;
  queue : event Lbc_util.Pqueue.t;
  mutable ripe : event list;
      (* events at exactly [clock], in seqno order, not yet run — the
         current step's scheduling candidates *)
  mutable next_seqno : int;
  sched : Schedule.t;
  waiting : (int, waiting) Hashtbl.t;
  mutable next_wait : int;
  mutable running : bool;  (* inside [run] *)
  mutable limit : time;  (* [run]'s [until]; [infinity] without one *)
}

exception Stranded of string list

let () =
  Printexc.register_printer (function
    | Stranded descs ->
        Some
          (Printf.sprintf "Stranded: %d process(es) blocked forever:\n  %s"
             (List.length descs)
             (String.concat "\n  " descs))
    | _ -> None)

(* (at, seqno)-lexicographic: the baseline order is stable by
   construction — same-time events fire in creation order — instead of
   relying on the priority queue's internal tie behaviour. *)
let compare_event a b =
  let c = Float.compare a.at b.at in
  if c <> 0 then c else Int.compare a.seqno b.seqno

let create ?(policy = Schedule.Fifo) () =
  {
    clock = 0.0;
    queue = Lbc_util.Pqueue.create ~compare:compare_event;
    ripe = [];
    next_seqno = 0;
    sched = Schedule.make policy;
    waiting = Hashtbl.create 16;
    next_wait = 0;
    running = false;
    limit = infinity;
  }

let now t = t.clock
let decisions t = Schedule.decisions t.sched
let choice_points t = Schedule.choice_points t.sched

let schedule_at t ~at callback =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: %g is before now (%g)" at t.clock);
  let seqno = t.next_seqno in
  t.next_seqno <- seqno + 1;
  let prio = Schedule.assign_priority t.sched in
  Lbc_util.Pqueue.push t.queue { at; seqno; prio; callback }

let schedule t ?(delay = 0.0) callback =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~at:(t.clock +. delay) callback

let pending t = Lbc_util.Pqueue.length t.queue + List.length t.ripe

(* --------------------------------------------------------------- *)
(* Blocked-process registry.

   Processes that suspend on a synchronization primitive register a
   description of what they are waiting for; the registration is removed
   when they are resumed.  When the event queue drains while non-daemon
   registrations remain, the simulation is stranded: those processes can
   never run again (nothing is left to resume them), which is how a
   dropped message or a lost lock token turns a hung cluster into a
   diagnosable failure instead of a silent pass. *)

let block_begin t ~desc ~daemon ~alive =
  let id = t.next_wait in
  t.next_wait <- id + 1;
  Hashtbl.replace t.waiting id { desc; daemon; alive };
  id

let block_end t id = Hashtbl.remove t.waiting id

let blocked t =
  (* Prune registrations of processes that died (e.g. a crashed node's
     torn transaction): they are parked forever but intentionally so. *)
  let dead =
    Hashtbl.fold
      (fun id w acc -> if w.alive () then acc else id :: acc)
      t.waiting []
  in
  List.iter (Hashtbl.remove t.waiting) dead;
  Hashtbl.fold
    (fun _ w acc -> if w.daemon then acc else w.desc :: acc)
    t.waiting []
  |> List.sort String.compare

let blocked_count t = List.length (blocked t)

(* Earliest instant holding runnable work: the ripe set's (== the
   clock's) if one is open, else the queue head's. *)
let next_time t =
  match t.ripe with
  | _ :: _ -> Some t.clock
  | [] -> (
      match Lbc_util.Pqueue.peek t.queue with
      | Some ev -> Some ev.at
      | None -> None)

let next_at = next_time

(* Move every queued event at exactly [clock] into the ripe set.  The
   heap pops them in seqno order and their seqnos exceed every ripe
   event's (they were created later), so appending keeps the set
   seqno-sorted. *)
let absorb_ties t =
  let rec loop acc =
    match Lbc_util.Pqueue.peek t.queue with
    | Some ev when ev.at = t.clock (* eq-ok: exact tie membership *) ->
        ignore (Lbc_util.Pqueue.pop t.queue : event option);
        loop (ev :: acc)
    | _ -> List.rev acc
  in
  match loop [] with [] -> () | ties -> t.ripe <- t.ripe @ ties

let step t =
  (match t.ripe with
  | _ :: _ ->
      (* A callback of the current instant may have scheduled more
         zero-delay events: they contend with the survivors. *)
      absorb_ties t
  | [] -> (
      match Lbc_util.Pqueue.pop t.queue with
      | None -> ()
      | Some ev ->
          t.clock <- ev.at;
          t.ripe <- [ ev ];
          absorb_ties t));
  match t.ripe with
  | [] -> false
  | [ ev ] ->
      (* A lone ripe event: no choice, so no decision ([Schedule.choose]
         records none for a set of one). *)
      t.ripe <- [];
      ev.callback ();
      true
  | ripe ->
      let arr = Array.of_list ripe in
      let k = Array.length arr in
      let idx = Schedule.choose t.sched ~k ~prio:(fun i -> arr.(i).prio) in
      let ev = arr.(idx) in
      t.ripe <- List.filteri (fun i _ -> i <> idx) ripe;
      ev.callback ();
      true

(* A process of the running [run] sleeps [dt].  The queued path would
   push a wake-up at [clock +. dt]; if the ripe set is empty, every
   queued event is strictly later and the wake-up is within [until],
   the next [step] pops that wake-up alone — a ripe set of one, no
   decision — and nothing runs in between.  So do what that push and
   pop do, in place: the same float addition for the clock, the
   wake-up's sequence number and (under [Pct]) its priority draw, which
   keeps the seeded stream where the queued path leaves it. *)
let advance_in_place t dt =
  match t.ripe with
  | _ :: _ -> false
  | [] ->
      let at = t.clock +. dt in
      if
        t.running && dt >= 0.0 && at <= t.limit
        && (Lbc_util.Pqueue.is_empty t.queue
           || (Lbc_util.Pqueue.peek_exn t.queue).at > at)
      then begin
        t.clock <- at;
        t.next_seqno <- t.next_seqno + 1;
        ignore (Schedule.assign_priority t.sched : int);
        true
      end
      else false

let run ?until t =
  let limit = match until with Some l -> l | None -> infinity in
  let continue () =
    match next_time t with None -> false | Some at -> not (at > limit)
  in
  t.running <- true;
  t.limit <- limit;
  Fun.protect
    ~finally:(fun () -> t.running <- false)
    (fun () ->
      while continue () do
        ignore (step t)
      done);
  match until with
  | Some limit when t.clock < limit -> t.clock <- limit
  | _ -> ()
