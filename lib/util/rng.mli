(** Deterministic pseudo-random numbers (SplitMix64).

    Every randomized component in the repository (workload generators, the
    OO7 database builder, fault injection) takes an explicit [Rng.t] so that
    simulations and tests are reproducible from a single seed. *)

type t

val create : int -> t
(** [create seed] builds a generator from a seed. *)

val split : t -> t
(** An independent generator derived from the current state. *)

val int64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
