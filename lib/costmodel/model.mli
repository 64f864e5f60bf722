(** Per-protocol cost functions built on the Table 2 measurements.

    These charge the same quantities the paper's evaluation accounts:

    - {b Log} (log-based coherency): software write detection — each
      [set_range] call costs a few µs depending on which path it takes
      (Figure 5's unordered / ordered / redundant curves); collecting
      updates at commit costs per range and per byte ([writev] gather);
      network I/O is one writev per peer of the modified bytes plus
      compressed headers; apply copies the bytes at the receiver.
    - {b Page} (page-locking DSM lower bound): one write-protection trap
      per modified page, whole pages on the wire.
    - {b Cpy/Cmp} (multiple-writer twin/diff lower bound): a trap plus a
      page copy on the first write to each page, a page comparison at
      commit, and the same network traffic as Log.

    The per-update curves are calibrated to the paper's Figures 5-6: at
    1000 updates/transaction an unordered update costs ≈18.1 µs and an
    ordered one ≈14.8 µs, reproducing the "45 (55 if ordered) updates per
    page" breakeven quoted in Section 4.3. *)

type update_class = Redundant | Ordered | Unordered

val per_update_cost : update_class -> nth:int -> float
(** Cost in µs of the [nth] (1-based) [set_range] call of a transaction.
    Unordered calls grow logarithmically with the range-tree size;
    ordered and redundant calls are flat. *)

val collect_log : ranges:int -> bytes:int -> float
(** Commit-time gather: building iovecs and copying modified bytes to the
    system buffer. *)

val network_log : message_bytes:int -> peers:int -> float
(** One writev per peer carrying the coherency message. *)

val apply_log : ranges:int -> bytes:int -> float
(** Receiver-side application of range records into the cached image. *)

val disk_force : bytes:int -> float
(** Synchronous log force of [bytes] of log tail (Figure 8's disk bar). *)

(** {1 Whole-traversal phase breakdowns} *)

type traversal_profile = {
  updates : int;  (** individual update operations (Table 3 "Updates") *)
  unique_bytes : int;  (** distinct bytes modified ("Bytes Updated") *)
  message_bytes : int;  (** bytes on the wire incl. headers ("Message Bytes") *)
  pages_updated : int;  (** distinct pages written ("Pages Updated") *)
  ranges : int;  (** range records in the log *)
  ordered_updates : int;  (** updates taking the ordered fast path *)
  redundant_updates : int;  (** updates coalescing with a previous range *)
}

val log_phases : ?peers:int -> traversal_profile -> Phases.t
val page_phases : ?peers:int -> traversal_profile -> Phases.t
val cpycmp_phases : ?peers:int -> traversal_profile -> Phases.t
(** [peers] defaults to 1 (the paper's two-node runs: one writer, one
    receiver). *)
