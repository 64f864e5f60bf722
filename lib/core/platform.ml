(* The platform seam: every runtime primitive the coherency stack
   consumes — process spawning, the clock, message delivery, durable
   devices — factored into one interface with two implementations.

   The {e sim} platform (default) is the deterministic single-core
   cooperative simulation: one {!Lbc_sim.Engine.t} drives every node,
   delivery carries {!Msg.encode}d bodies through the in-memory
   {!Lbc_net.Fabric} with its fault injection and cost model, and
   devices are simulated images.

   A {e custom} platform (the [lbc.real] backend) may run each node as
   an OCaml 5 domain with real sockets and real files.  Everything above
   this interface — [Node], [Table], [Log], [Rvm] — is shared: those
   layers only ever touch the runtime through their per-node
   {!Lbc_sim.Engine.t} handle and the send closures wired here, so the
   same code runs on both platforms. *)

exception Unsupported of string
(** Raised by cluster operations that only exist on one platform
    (deterministic scheduling, fault injection and crash/rejoin are
    sim-only; wall-clock timing is real-only). *)

let () =
  Printexc.register_printer (function
    | Unsupported what ->
        Some (Printf.sprintf "Platform.Unsupported: %s" what)
    | _ -> None)

module type S = sig
  val name : string
  (** ["sim"] or ["real"] — reported in benches and CLIs. *)

  val deterministic : bool
  (** Whether two runs with the same inputs produce the same schedule.
      True only for the sim platform. *)

  val nodes : int

  val now_us : unit -> float
  (** Microseconds since platform start: the engine's virtual clock on
      sim, the wall clock on real. *)

  val set_obs : Lbc_obs.Obs.t -> unit
  (** Install the cluster's trace/metrics sink on the transport. *)

  val open_dev : string -> Lbc_storage.Dev.t
  (** The durable device registry: simulated images on sim, real files
      (with real [fsync]) on real.  Called for each node's log device
      and each region's database device. *)

  val node_engine : int -> Lbc_sim.Engine.t
  (** The runtime handle node [i]'s processes run on.  The sim platform
      returns the one shared engine; the real platform returns node
      [i]'s private engine, driven in wall-clock time by its domain. *)

  val spawn :
    node:int ->
    name:string ->
    daemon:bool ->
    alive:(unit -> bool) ->
    (unit -> unit) ->
    unit
  (** Start a process in node [node]'s runtime context. *)

  val send : src:int -> dst:int -> Msg.t -> unit
  (** Transmit one message as the body {!Msg.encode} makes, framed by a
      u32 length prefix ({!Msg.frame_size} bytes).  The sim fabric
      queues the body and charges that length; the real fabric writes
      the prefix, the header and each payload slice to the destination's
      socket without concatenating.  Both receivers {!Msg.decode} it.
      [src = dst] raises [Invalid_argument]. *)

  val broadcast : src:int -> dsts:int list -> Msg.t -> unit
  (** One encode reaching every destination; self and duplicate
      destinations are ignored. *)

  val start_receivers : handler:(dst:int -> src:int -> Msg.t -> unit) -> unit
  (** Start the per-channel dispatchers: for every ordered pair [(src,
      dst)] of distinct nodes, decode that channel's messages and hand
      them to [handler] in send order (TCP FIFO semantics), one
      dispatcher per channel so a blocked handler only stalls its own
      channel. *)

  val run : unit -> unit
  (** Drive all spawned (non-daemon) work to completion.  Sim: drain the
      event queue.  Real: wait until every spawned task has finished and
      the network is quiescent. *)

  val shutdown : unit -> unit
  (** Tear the platform down (join domains, close sockets and files).
      No-op on sim. *)

  val total_messages : unit -> int
  val total_bytes : unit -> int
  val total_dropped : unit -> int
end

type backend =
  | Sim
  | Custom of (nodes:int -> config:Config.t -> (module S))
      (** A platform factory — [Lbc_real.Backend.factory] builds the
          OCaml 5 domains + socket fabric backend.  Kept as a factory so
          [lbc.core] never depends on the backend library. *)

(* ---------------------------------------------------------------- *)
(* The sim platform: a wrapper over the engine, fabric and store the
   cluster builds.  Messages cross the fabric as the bodies the sockets
   carry, so both platforms run one codec. *)

let sim ~engine ~(fabric : Lbc_util.Slice.t list Lbc_net.Fabric.t)
    ~(store : Lbc_storage.Store.t) : (module S) =
  (module struct
    let name = "sim"
    let deterministic = true
    let nodes = Lbc_net.Fabric.nodes fabric
    let now_us () = Lbc_sim.Engine.now engine
    let set_obs obs = Lbc_net.Fabric.set_obs fabric obs
    let open_dev name = Lbc_storage.Store.open_dev store name
    let node_engine _ = engine

    let spawn ~node:_ ~name ~daemon ~alive f =
      Lbc_sim.Proc.spawn engine ~name ~daemon ~alive f

    let send ~src ~dst m = Lbc_net.Fabric.send fabric ~src ~dst (Msg.encode m)

    let broadcast ~src ~dsts m =
      Lbc_net.Fabric.broadcast fabric ~src ~dsts (Msg.encode m)

    (* One dispatcher per peer channel, like the prototype's
       per-connection receiver threads.  Daemons: being forever blocked
       on an idle channel is their normal state, not a hang worth
       reporting. *)
    let start_receivers ~handler =
      for n = 0 to nodes - 1 do
        for p = 0 to nodes - 1 do
          if p <> n then
            Lbc_sim.Proc.spawn engine
              ~name:(Printf.sprintf "dispatch-%d<-%d" n p)
              ~daemon:true
              (fun () ->
                while true do
                  let body = Lbc_net.Fabric.recv fabric ~dst:n ~src:p in
                  handler ~dst:n ~src:p (Msg.decode body)
                done)
        done
      done

    let run () = Lbc_sim.Engine.run engine
    let shutdown () = ()
    let total_messages () = Lbc_net.Fabric.total_messages fabric
    let total_bytes () = Lbc_net.Fabric.total_bytes fabric
    let total_dropped () = Lbc_net.Fabric.total_dropped fabric
  end)
