(** Tracing + metrics for the coherency pipeline.

    Spans, instants, causal flow arrows and pid-tagged counter deltas
    are recorded into per-node {!Flight} rings: lock-free,
    allocation-free, one ring per node (one per domain on the real
    backend).  The rings are the one trace event model; {!dump_flight}
    writes them as an LBCF file ({!Flight_dump}) for [lbc-trace] and
    Perfetto.  Counters and log-bucketed histograms ride along in a
    metrics registry.

    Timestamps come from a [now] closure (the sim engine's virtual
    clock, in microseconds; monotonic wall microseconds on the real
    backend).

    When the sink is disabled, every entry point returns after one
    branch and allocates nothing — pass the shared {!disabled}
    instance. *)

module Histogram : sig
  type t
  (** 64 power-of-two buckets: bucket 0 holds values < 1.0, bucket [i]
      holds [[2^(i-1), 2^i)]. *)

  val create : unit -> t
  val observe : t -> float -> unit
  val count : t -> int
  val sum : t -> float
  val mean : t -> float
  val min_value : t -> float
  val max_value : t -> float

  val percentile : t -> float -> float
  (** [percentile h p] for [p] in [0..100]: cumulative bucket walk with
      linear interpolation inside the winning bucket, clamped to the
      observed min/max.  0 when empty. *)

  val merge : into:t -> t -> unit
  (** Accumulate [src]'s buckets into [into] (for cross-run
      aggregation in the bench harness). *)
end

(** {1 Lanes} — one Perfetto thread id per pipeline stage. *)

val lane_txn : int
val lane_apply : int
val lane_wal : int
val lane_lock : int
val lane_net : int

type span

val null_span : span
(** The span returned by {!span_begin} when the sink is disabled; safe
    to pass to {!span_end}, which then does nothing. *)

type t

val disabled : t
(** Shared no-op sink: [enabled] is false, every call is one branch. *)

val create : ?ring_bytes:int -> now:(unit -> float) -> nodes:int -> unit -> t
(** A live sink with one flight ring per node of [ring_bytes] (default
    64 KiB, rounded up to a power of two). *)

val enabled : t -> bool
(** The sink is live: rings and metrics registry record. *)

val flow_id : lock:int -> seqno:int -> int
(** Stable flow-arrow id for a committed write, identical on the
    committer and every receiver. *)

(** {1 Spans}

    Spans and instants carry one int argument: the lock id on
    [lock.wait], [interlock] and [token.pass]; the byte count on
    [net.send], [net.deliver], [net.drop] and [log.append]; the record
    count on [replay-chain] and [ckpt]; the
    writer on [apply] and [hold]; the epoch on [crash] and [rejoin]; 0
    elsewhere ({!Flight_dump.arg_label}). *)

val span_begin : t -> name:string -> pid:int -> tid:int -> arg:int -> span

val span_end : t -> span -> float
(** Records the span in node [pid]'s ring and returns its duration in
    microseconds (0.0 when disabled). *)

val instant : t -> name:string -> pid:int -> tid:int -> arg:int -> unit

(** {1 Flow arrows} *)

val flow_start : t -> id:int -> pid:int -> tid:int -> unit
(** Record the arrow tail (inside the committer's commit span) and the
    start timestamp for apply-lag measurement. *)

val flow_end : t -> id:int -> pid:int -> tid:int -> float option
(** Record the arrow head (call right after the receiver's apply span
    begins, so it binds into that span).  Returns the lag since
    {!flow_start}, or [None] — and records no head — if no matching
    start was recorded. *)

(** {1 Metrics registry} *)

val count : ?pid:int -> t -> string -> int -> unit
(** [pid] additionally records the delta in that node's flight ring
    and routes the registry update to that node's shard (whose mutex
    no other domain contends); omit it when the count isn't
    attributable to one node's own execution context (rings are
    single-writer). *)

val counter : t -> string -> int
val counters : t -> (string * int) list
(** Readers merge the per-node shards and the global shard. *)

val observe : ?pid:int -> t -> string -> float -> unit
(** Add a sample to the named histogram; pass [pid] on hot paths for
    the same shard routing as {!count}. *)

val hist : t -> string -> Histogram.t option
val hists : t -> (string * Histogram.t) list
(** Merged copies — safe to keep after the sink moves on. *)

(** {1 Flight recorder} *)

val rings : t -> Flight.t array
(** The per-node rings (empty only for {!disabled}). *)

val ring_stats : t -> (int * int * int) array
(** Per node: (events recorded, events dropped to wrap, bytes used). *)

val dump_flight : t -> clock:string -> string -> unit
(** Write all rings to an LBCF file (see {!Flight_dump}).  [clock]
    labels the timestamp domain: ["virtual-us"] or ["wall-us"]. *)
