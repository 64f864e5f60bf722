(** The per-transaction tree of modified ranges built by [set_range].

    RVM stores modified ranges ordered by address and coalesces them so
    that redundant bytes are not written to the log.  This tree runs the
    paper's optimized policy (§3.1): a range is coalesced only with a
    previously added range that starts at the same offset (an equal or
    shorter length is subsumed, a longer one extends it).  Repeated
    modification of the same object — the common case for
    compiler-generated [set_range] calls — is cheap, at the risk of
    logging overlapping bytes twice; the paper reports a 5x reduction in
    [set_range] overhead over original RVM, which coalesced every
    adjacent or overlapping range.  A call whose range starts at or past
    the end of the highest range so far is an {e ordered append} and
    skips the tree search entirely (§3.1's second optimization).

    The {!case} returned by {!add} classifies which path a call took so
    that instrumentation can charge the per-update costs of Figures 5-7. *)

type case =
  | Ordered_append  (** in address order past the current maximum: no search *)
  | Exact_match  (** range already present (last-range cache or tree hit) *)
  | Extended  (** same offset, longer length: existing range grown *)
  | Inserted  (** fresh range after a tree search *)

type t

val create : unit -> t

val add : t -> offset:int -> len:int -> case
(** Record a modified range.  [len] must be positive, [offset]
    non-negative. *)

val count : t -> int
(** Number of stored ranges. *)

val total_bytes : t -> int
(** Sum of stored range lengths — the bytes that will be logged, including
    any overlap the policy lets through. *)

val fold : t -> init:'a -> f:('a -> offset:int -> len:int -> 'a) -> 'a
(** Iterate ranges in ascending address order. *)

val ranges : t -> (int * int) list
(** [(offset, len)] pairs in address order. *)

val mem_byte : t -> int -> bool
(** Is the given byte offset covered by some range?  (For tests.) *)
