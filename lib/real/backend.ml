(* The real platform: each node is an OCaml 5 domain running its own
   wall-clock {!Rt}; delivery is a full socketpair mesh carrying the
   frames the sim fabric charges; devices are real files with real
   [fsync].

   Data path of one [send] (a commit's [Msg.Update] takes the same one):

   - the sending node's domain encodes the message ({!Msg.encode}) and
     gather-writes prefix + header + payload slices to the destination's
     socket ({!Frame.write}) — the record bytes go from the log arena to
     the kernel without concatenation;
   - a reader thread blocked on that socket reassembles the frame
     (tolerating arbitrary short reads), decodes it with {!Msg.decode} —
     payload slices are windows into the frame buffer — and
     {!Rt.inject}s delivery into the destination's engine;
   - the injected event performs [Mailbox.send] on the (dst, src)
     channel, and the per-channel dispatcher daemon hands the message to
     [Node.handle], exactly as in the sim.  FIFO per channel is the
     socket's byte order; nothing else is ordered, which is the same
     contract the sim fabric gives.

   Completion ({!run}) is quiescence: every non-daemon task spawned has
   returned, every frame sent has been handled, and every engine is
   idle — sampled stably three times, since a message in flight is
   invisible to any single snapshot. *)

module Msg = Lbc_core.Msg
module Engine = Lbc_sim.Engine
module Proc = Lbc_sim.Proc
module Mailbox = Lbc_sim.Mailbox

let factory ~nodes ~(config : Lbc_core.Config.t) :
    (module Lbc_core.Platform.S) =
  if config.Lbc_core.Config.charge_costs then
    invalid_arg
      "real backend: charge_costs must be false (virtual cost charges \
       would become real sleeps and double-count real latency)";
  let t0 = Unix.gettimeofday () in
  let now_us () = (Unix.gettimeofday () -. t0) *. 1e6 in
  let rts = Array.init nodes (fun id -> Rt.create ~id ~now_us) in
  (* Full mesh of socketpairs: conn.(i).(j) is node i's duplex endpoint
     to node j (writes i→j frames, reads j→i frames). *)
  let conn = Array.make_matrix nodes nodes None in
  for i = 0 to nodes - 1 do
    for j = i + 1 to nodes - 1 do
      let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      conn.(i).(j) <- Some a;
      conn.(j).(i) <- Some b
    done
  done;
  let channels =
    Array.init nodes (fun _ -> Array.init nodes (fun _ -> Mailbox.create ()))
  in
  let sent = Atomic.make 0 in
  let handled = Atomic.make 0 in
  let bytes = Atomic.make 0 in
  let tasks = Atomic.make 0 in
  let dir = Filename.temp_dir "lbc-real" "" in
  let devs : (string, Lbc_storage.Dev.t) Hashtbl.t = Hashtbl.create 8 in
  let devs_m = Mutex.create () in
  let readers = ref [] in
  let started = ref false in
  let reader_loop i j fd () =
    try
      let continue = ref true in
      while !continue do
        match Frame.read fd with
        | None -> continue := false
        | Some body ->
            let m = Msg.decode [ Lbc_util.Slice.of_bytes body ] in
            Rt.inject rts.(i) (fun () -> Mailbox.send channels.(i).(j) m)
      done
    with
    (* fds shut down under us at teardown; a torn frame there means the
       writer was stopped mid-frame, after quiescence — nothing waits
       for its payload *)
    | Unix.Unix_error _ | Frame.Torn _ ->
        ()
  in
  (module struct
    let name = "real"
    let deterministic = false
    let nodes = nodes
    let now_us = now_us
    let obs = ref Lbc_obs.Obs.disabled
    let set_obs o = obs := o

    let open_dev name =
      Mutex.lock devs_m;
      let dev =
        match Hashtbl.find_opt devs name with
        | Some d -> d
        | None ->
            let d =
              Lbc_storage.Dev.create_file
                ~path:(Filename.concat dir name)
                ~name ()
            in
            Hashtbl.add devs name d;
            d
      in
      Mutex.unlock devs_m;
      dev

    let node_engine i = Rt.engine rts.(i)

    let spawn ~node ~name ~daemon ~alive f =
      if not daemon then Atomic.incr tasks;
      let body () =
        if daemon then f ()
        else
          Fun.protect ~finally:(fun () -> Atomic.decr tasks) f
      in
      Rt.inject rts.(node) (fun () ->
          Proc.spawn (Rt.engine rts.(node)) ~name ~daemon ~alive body)

    (* A send happens inside the source node's engine loop — one thread
       per socket writer, so frames never interleave.  As on the sim
       fabric, a node has no channel to itself. *)
    let transmit ~src ~dst body =
      match conn.(src).(dst) with
      | Some fd ->
          Atomic.incr sent;
          let n = Frame.write fd body in
          ignore (Atomic.fetch_and_add bytes n : int)
      | None -> invalid_arg "Backend.send: src = dst"

    let send ~src ~dst m = transmit ~src ~dst (Msg.encode m)

    let broadcast ~src ~dsts m =
      let body = Msg.encode m in
      List.sort_uniq Int.compare dsts
      |> List.iter (fun dst -> if dst <> src then transmit ~src ~dst body)

    let start_receivers ~handler =
      for n = 0 to nodes - 1 do
        for p = 0 to nodes - 1 do
          let eng = Rt.engine rts.(n) in
          if p <> n then
            Rt.inject rts.(n) (fun () ->
                Proc.spawn eng
                  ~name:(Printf.sprintf "dispatch-%d<-%d" n p)
                  ~daemon:true
                  (fun () ->
                    while true do
                      let m = Mailbox.recv channels.(n).(p) in
                      handler ~dst:n ~src:p m;
                      Atomic.incr handled
                    done))
        done
      done

    let start () =
      if not !started then begin
        started := true;
        Array.iter Rt.start rts;
        for i = 0 to nodes - 1 do
          for j = 0 to nodes - 1 do
            match conn.(i).(j) with
            | Some fd ->
                readers := Thread.create (reader_loop i j fd) () :: !readers
            | None -> ()
          done
        done
      end

    let check_errors () =
      Array.iter
        (fun rt -> match Rt.error rt with Some e -> raise e | None -> ())
        rts

    let quiescent () =
      Atomic.get tasks = 0
      && Atomic.get sent = Atomic.get handled
      && Array.for_all Rt.idle rts

    let run () =
      start ();
      let stable = ref 0 in
      while !stable < 3 do
        check_errors ();
        if quiescent () then incr stable else stable := 0;
        Unix.sleepf 0.002
      done;
      check_errors ()

    let shutdown () =
      (* Unblock every reader (shutdown wakes a blocked read on either
         endpoint), stop the domains, then reap and close. *)
      Array.iter
        (fun row ->
          Array.iter
            (function
              | Some fd -> (
                  try Unix.shutdown fd Unix.SHUTDOWN_ALL
                  with Unix.Unix_error _ -> ())
              | None -> ())
            row)
        conn;
      Array.iter Rt.stop_and_join rts;
      List.iter Thread.join !readers;
      readers := [];
      Array.iter
        (fun row ->
          Array.iter
            (function
              | Some fd -> (
                  try Unix.close fd with Unix.Unix_error _ -> ())
              | None -> ())
            row)
        conn;
      Mutex.lock devs_m;
      Hashtbl.iter (fun _ d -> Lbc_storage.Dev.close d) devs;
      Hashtbl.reset devs;
      Mutex.unlock devs_m;
      (try
         Sys.readdir dir
         |> Array.iter (fun f -> Sys.remove (Filename.concat dir f));
         Unix.rmdir dir
       with Sys_error _ | Unix.Unix_error _ -> ())

    let total_messages () = Atomic.get sent
    let total_bytes () = Atomic.get bytes
    let total_dropped () = 0
  end)
