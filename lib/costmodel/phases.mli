(** Coherency-overhead phase breakdown, matching the stacked bars of the
    paper's Figures 1-3 and 8: detect updates, collect updates, network
    I/O, apply updates (plus disk I/O for Figure 8).  Times in µs. *)

type t = {
  detect : float;
  collect : float;
  network : float;
  apply : float;
  disk : float;
}

val zero : t
val add : t -> t -> t
val total : t -> float

val detect : float -> t
val collect : float -> t
val network : float -> t
val apply : float -> t
val disk : float -> t
(** Single-phase constructors, to be combined with {!add}. *)

val pp_ms : Format.formatter -> t -> unit
(** Render in milliseconds with the phase breakdown. *)
