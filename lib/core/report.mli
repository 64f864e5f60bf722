(** Human-readable status reports for a running cluster — the operational
    introspection a deployed system needs (per-node transaction, traffic
    and log statistics). *)

val pp_cluster : Format.formatter -> Cluster.t -> unit
(** Full table: every node plus cluster-wide traffic. *)
