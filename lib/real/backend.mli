(** The real platform: OCaml 5 domains + a socketpair mesh + real files.

    Pass to the cluster as
    [Cluster.create ~backend:(Platform.Custom Backend.factory)].
    Requires [config.charge_costs = false] (real operations pay real
    costs; charging the sim cost model on top would double-count).

    Each node is a {!Rt}: a private engine paced by the wall clock,
    driven by its own domain — everything above the platform seam runs
    unchanged, with true parallelism between nodes.  Delivery writes
    the bodies {!Lbc_core.Msg.encode} makes, u32-prefixed ({!Frame}),
    over Unix-domain socketpairs, and decodes them with
    {!Lbc_core.Msg.decode}, the codec the sim fabric runs; as there, a
    send to self raises and a broadcast skips self and duplicate
    destinations.  Devices are files under a fresh temp directory, with
    real [fsync].  [run] waits for quiescence (all tasks returned, all
    frames handled, all engines idle); [shutdown] joins the domains and
    removes the temp files. *)

val factory :
  nodes:int -> config:Lbc_core.Config.t -> (module Lbc_core.Platform.S)
