(* One node's runtime on the real backend: a private {!Lbc_sim.Engine}
   whose virtual clock is the wall clock, driven by a dedicated OCaml 5
   domain.

   The discovery that makes the whole backend small: every layer above
   the platform seam (Node, Table, Log, Rvm) reaches the runtime only
   through its stored [Engine.t] handle — so a node runs unchanged on a
   per-node engine whose event loop is paced by real time.  [Proc.sleep]
   becomes a real sleep, timers fire on the wall clock, and
   effects-based processes cooperate exactly as in the sim, just with
   true parallelism {e between} nodes.

   The engine is not thread-safe, so exactly one thread ever touches it:
   the main thread before {!start} (cluster construction spawns the
   dispatchers and per-node services), the domain after.  Other threads
   (socket readers, the controlling thread) communicate through
   {!inject}: a mutex-protected closure queue the loop drains into
   [Engine.schedule], woken through a self-pipe so an idle node reacts
   to a message arrival immediately instead of at the next poll. *)

type t = {
  id : int;
  engine : Lbc_sim.Engine.t;
  now_us : unit -> float;  (* shared wall clock, µs since backend start *)
  m : Mutex.t;
  inbox : (unit -> unit) Queue.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  stop : bool Atomic.t;
  idle : bool Atomic.t;
  error : exn option Atomic.t;
  mutable domain : unit Domain.t option;
}

let create ~id ~now_us =
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  {
    id;
    engine = Lbc_sim.Engine.create ();
    now_us;
    m = Mutex.create ();
    inbox = Queue.create ();
    wake_r;
    wake_w;
    stop = Atomic.make false;
    idle = Atomic.make true;
    error = Atomic.make None;
    domain = None;
  }

let engine t = t.engine
let idle t = Atomic.get t.idle
let error t = Atomic.get t.error

let wake t =
  try ignore (Unix.write t.wake_w (Bytes.make 1 '!') 0 1 : int)
  with Unix.Unix_error _ -> ()

let inject t f =
  Mutex.lock t.m;
  Queue.add f t.inbox;
  Mutex.unlock t.m;
  Atomic.set t.idle false;
  wake t

let record_error t e =
  ignore (Atomic.compare_and_set t.error None (Some e) : bool)

(* Drain the cross-thread inbox into the engine (owner thread only). *)
let drain t =
  Mutex.lock t.m;
  let n = Queue.length t.inbox in
  let fs = List.init n (fun _ -> Queue.pop t.inbox) in
  Mutex.unlock t.m;
  List.iter (fun f -> Lbc_sim.Engine.schedule t.engine f) fs

(* Cap on one select: bounds stop-latency and re-checks the wall clock
   under drift. *)
let max_pause_s = 0.05

let loop t =
  let buf = Bytes.create 64 in
  while not (Atomic.get t.stop) do
    drain t;
    let wall = t.now_us () in
    let until = Float.max wall (Lbc_sim.Engine.now t.engine) in
    (try Lbc_sim.Engine.run ~until t.engine with e -> record_error t e);
    Mutex.lock t.m;
    let inbox_empty = Queue.is_empty t.inbox in
    Mutex.unlock t.m;
    Atomic.set t.idle
      (inbox_empty && Lbc_sim.Engine.pending t.engine = 0);
    let timeout =
      if not inbox_empty then 0.0
      else
        match Lbc_sim.Engine.next_at t.engine with
        | Some at ->
            Float.min max_pause_s
              (Float.max 0.0 ((at -. t.now_us ()) /. 1e6))
        | None -> max_pause_s
    in
    (match Unix.select [ t.wake_r ] [] [] timeout with
    | [], _, _ -> ()
    | _ -> (
        try
          while Unix.read t.wake_r buf 0 (Bytes.length buf) > 0 do
            ()
          done
        with
        | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
        | Unix.Unix_error _ -> ()))
  done

let start t =
  match t.domain with
  | Some _ -> ()
  | None -> t.domain <- Some (Domain.spawn (fun () -> loop t))

let stop_and_join t =
  Atomic.set t.stop true;
  wake t;
  (match t.domain with
  | Some d ->
      Domain.join d;
      t.domain <- None
  | None -> ());
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  try Unix.close t.wake_w with Unix.Unix_error _ -> ()
