(** Always-on flight recorder ring.

    A fixed-size byte ring of compactly binary-encoded trace events —
    spans, instants, counter deltas, flow endpoints — with names
    interned in a per-ring string table.  Each ring has exactly one
    writer (its node's execution context; one domain per node on the
    real backend), so recording takes no lock and allocates nothing:
    the newest events always survive, the oldest are overwritten on
    wrap and tallied in {!dropped}.

    Timestamps are integer nanoseconds from the platform clock
    (virtual µs × 1000 on the sim, monotonic wall µs × 1000 on the
    real backend), clamped monotone per ring. *)

type t

val create : ?cap_bytes:int -> unit -> t
(** [create ~cap_bytes ()] makes a ring of at least [cap_bytes]
    (rounded up to a power of two, minimum 256). Default 64 KiB. *)

(** {1 Recording (hot path: lock-free, allocation-free)} *)

val record_span :
  t -> ts_ns:int -> name:string -> lane:int -> dur_ns:int -> arg:int -> unit
(** Complete span; [ts_ns] is the span's {e end} time.  [arg] is the
    event's one argument (a lock id, byte count, writer or epoch; 0
    when the event has none), zigzag-encoded. *)

val record_instant :
  t -> ts_ns:int -> name:string -> lane:int -> arg:int -> unit

val record_count : t -> ts_ns:int -> name:string -> delta:int -> unit
(** Signed counter delta (zigzag-encoded). *)

val record_flow : t -> ts_ns:int -> head:bool -> id:int -> lane:int -> unit
(** Flow endpoint: [head:false] = producer side, [head:true] =
    consumer side. Endpoints with the same [id] pair up at decode. *)

(** {1 Stats} *)

val recorded : t -> int
(** Total events ever recorded (including since-overwritten ones). *)

val dropped : t -> int
(** Events lost to wrap; [recorded = dropped + surviving]. *)

val bytes_used : t -> int
val capacity : t -> int

val last_ts_ns : t -> int
(** Absolute timestamp of the newest record — the decode anchor that
    lets delta-encoded survivors be re-absolutized after wrap. *)

val name_count : t -> int

(** {1 Dump support (cold path)} *)

val names : t -> string array
(** Intern table, index = id.  Lives outside the ring, so wrap never
    orphans an id. *)

val dump_body : t -> string
(** Surviving records, linearized oldest-to-newest. *)

val lane_name : int -> string
(** Human name for a pipeline lane (txn/apply/wal/lock/net). *)
