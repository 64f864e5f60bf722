(** An AVL tree over persistent objects with {e indirect} keys.

    Nodes store only the address of an entry, never a copy of its key;
    the ordering key is read {e through} that address by the [key_of]
    function given at attach (OO7: the atomic part's build-date field,
    tie-broken by the part's address).  Because the key is not copied into the tree, a key
    change that does not alter the entry's ordering position costs {b no
    index writes at all} — and a change that does alter it costs only
    pointer and height writes.  This is what keeps the paper's T3
    traversal at a handful of index updates per atomic-part update.

    The caller must keep keys consistent with the tree: use {!update} to
    change an entry's key. *)

type t

type key = int64 * int64

val node_size : int
val slots_size : int

val attach : Heap.t -> slots:int -> key_of:(int -> key) -> t
(** [key_of addr] must read the entry's current key from the heap. *)

val insert : t -> int -> bool
(** Insert the entry at [addr]; [false] if already present. *)

val delete : t -> int -> bool

val contains : t -> int -> bool

type update_outcome = In_place | Relocated

val update : t -> int -> new_key:key -> set:(unit -> unit) -> update_outcome
(** Change the key of the entry at [addr]: locate it (by its current
    key), and if [new_key] still falls strictly between the entry's
    neighbours, just run [set] — the tree is untouched.  Otherwise the
    entry is unlinked, [set] runs, and it is re-inserted.  [set] must make
    [key_of addr] return [new_key].
    @raise Heap.Heap_error if the entry is not in the tree. *)

val cardinal : t -> int
(** O(n). *)

val fold : t -> init:'a -> f:('a -> int -> 'a) -> 'a
(** Entries in ascending key order. *)

val height : t -> int
val check_invariants : t -> unit
