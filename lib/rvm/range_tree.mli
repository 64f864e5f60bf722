(** The per-transaction log of modified ranges built by [set_range].

    RVM keeps a transaction's modified ranges and coalesces them so that
    redundant bytes are not written to the log.  This structure runs the
    paper's optimized policy (§3.1): a range is coalesced only with a
    previously added range that starts at the same offset (an equal or
    shorter length is subsumed, a longer one extends it).  Repeated
    modification of the same object — the common case for
    compiler-generated [set_range] calls — is cheap, at the risk of
    logging overlapping bytes twice; the paper reports a 5x reduction in
    [set_range] overhead over original RVM, which coalesced every
    adjacent or overlapping range.  A call whose range starts at or past
    the end of the highest range so far is an {e ordered append} and
    skips the lookup entirely (§3.1's second optimization).

    The log is flat: ranges are appended to int arrays in call order, an
    open-addressing offset index answers the exact-match and extend
    lookups, and a last-range cache answers a repeat of the latest range
    without hashing.  No [add] allocates, apart from doubling a full
    array.  Address order is restored once, when the ranges are walked
    at commit, and only if some range arrived below a higher one.

    The {!case} returned by {!add} classifies which path a call took so
    that instrumentation can charge the per-update costs of Figures 5-7. *)

type case =
  | Ordered_append  (** in address order past the current maximum: no lookup *)
  | Exact_match  (** range already present (last-range cache or index hit) *)
  | Extended  (** same offset, longer length: existing range grown *)
  | Inserted  (** fresh range after an index lookup *)

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

val fold_right : t -> f:(offset:int -> len:int -> 'a -> 'a) -> 'a -> 'a
(** [fold_right t ~f init] applies [f] from the highest range down to the
    lowest, like [List.fold_right] over the ranges in ascending address
    order: consing builds an ascending list without reversing it.  Sorts
    the ranges (one integer radix sort) only if some call arrived out of
    address order. *)

val ranges : t -> (int * int) list
(** [(offset, len)] pairs in address order. *)

val mem_byte : t -> int -> bool
(** Is the given byte offset covered by some range?  (For tests.) *)
