(** Simulated network fabric: reliable FIFO point-to-point channels between
    a fixed set of nodes, like the TCP connections of the prototype.

    The fabric is polymorphic in the message type; callers supply a [size]
    function so that costs and traffic statistics reflect the bytes the
    sockets move (the cluster carries [Lbc_core.Msg.encode]d bodies and
    charges their frame size).  Ordering guarantee: messages from one
    sender to one receiver are delivered in send order (TCP), under every
    schedule policy — a delivery event lands its channel's oldest message
    in flight, so a policy that reorders the deliveries ripe at one
    instant reorders only across channels.  There is no ordering across
    different sender/receiver pairs — exactly the situation that forces
    the paper's sequence-number interlock (Section 3.4).

    Fault injection: a channel can lose the messages a filter picks
    ({!set_drop_filter}; [Some (fun _ -> true)] loses them all) and whole
    nodes can be taken down ({!set_down}).
    Every message discarded for any reason is counted per (src, dst) pair
    and reported by {!messages_dropped} / {!total_dropped}. *)

type 'm t

val create :
  ?params:Params.t -> engine:Lbc_sim.Engine.t -> nodes:int -> size:('m -> int) -> unit -> 'm t
(** [params] defaults to {!Params.an1}. *)

val set_obs : 'm t -> Lbc_obs.Obs.t -> unit
(** Install a trace/metrics sink: sends become [net.send] spans,
    deliveries and drops become instants, and [net_msgs] / [net_bytes] /
    [net_drops] counters accumulate.  Defaults to [Obs.disabled]. *)

val engine : 'm t -> Lbc_sim.Engine.t
val nodes : 'm t -> int
val params : 'm t -> Params.t

val send : 'm t -> src:int -> dst:int -> 'm -> unit
(** Transmit one message.  Must be called from a simulated process; blocks
    the caller for the sender-side cost.  Self-sends are rejected. *)

val broadcast : 'm t -> src:int -> dsts:int list -> 'm -> unit
(** Multicast: one wire transmission reaching every destination (the
    hardware the paper's Section 4.3.1 wishes for).  The sender pays the
    cost of a single send; self and duplicate destinations are ignored. *)

val recv : 'm t -> dst:int -> src:int -> 'm
(** Blocking receive on the channel from [src] to [dst] (one receiver
    thread per peer channel, as in the prototype). *)

(** {1 Fault injection} *)

val set_drop_filter : 'm t -> src:int -> dst:int -> ('m -> bool) option -> unit
(** Loss: while a filter is installed, messages from [src] to [dst] for
    which it returns [true] are discarded (and counted); [None] makes
    the channel reliable again.  Chaos tests use this to lose only
    data-plane traffic while keeping the lock control plane reliable. *)

val set_down : 'm t -> int -> bool -> unit
(** [set_down t n true] models a crash of node [n]: messages to or from
    [n] are discarded from now on, and messages already queued in [n]'s
    inbound channels are purged (all counted as drops).  Messages in
    flight on the wire are lost when they arrive.  [set_down t n false]
    restores connectivity (the channels start empty). *)

val is_down : 'm t -> int -> bool

(** {1 Traffic accounting} *)

val messages_sent : 'm t -> src:int -> int
val bytes_sent : 'm t -> src:int -> int
val messages_dropped : 'm t -> src:int -> dst:int -> int
(** Messages from [src] to [dst] discarded by fault injection. *)

val total_messages : 'm t -> int
val total_bytes : 'm t -> int

val total_dropped : 'm t -> int
(** Total messages discarded across all channels. *)
