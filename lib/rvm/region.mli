(** A mapped recoverable region.

    Following RVM's model, mapping a region copies the whole backing
    database file into virtual memory ([Bytes] here); the application then
    reads and writes the in-memory image directly, and committed new values
    flow to the log and eventually back to the database file.  The paper
    notes this whole-file copy is what limits RVM to small databases — a
    limitation we inherit deliberately. *)

type t

val map : id:int -> db:Lbc_storage.Dev.t -> size:int -> t
(** Map a region of [size] bytes backed by device [db].  Bytes present in
    the stable device image are loaded; the remainder is zero-filled. *)

val id : t -> int
val size : t -> int
val db : t -> Lbc_storage.Dev.t

val read : t -> offset:int -> len:int -> Bytes.t
(** Copy out of the in-memory image. *)

val write : t -> offset:int -> Bytes.t -> unit
(** Blit into the in-memory image (no logging — callers go through a
    transaction's [set_range]). *)

val get_u64 : t -> offset:int -> int64
val set_u64 : t -> offset:int -> int64 -> unit
(** Convenience accessors for 8-byte fields (the OO7 update unit). *)

val mem : t -> declare:(offset:int -> len:int -> unit) -> Lbc_util.Mem.t
(** The shared accessor over the live image itself: reads go straight to
    it; a store runs [declare] (the owner's write declaration, e.g. a
    transaction's [set_range]), marks the dirty extent, then lands. *)

val flush_to_db : t -> unit
(** Write the full in-memory image to the database device and sync it —
    the checkpoint step of log truncation.  Clears the dirty extent. *)

val reload_from_db : t -> unit
(** Replace the in-memory image with the database device's current
    contents (zero-filling any shortfall) — the resynchronization step
    after a distributed checkpoint.  Clears the dirty extent. *)

(** {1 On-demand recovery state}

    During an on-demand rejoin a region is {e cold} until its replay
    chain has been applied; the node's serving gates block the first
    touch of a cold region on warming it.  Regions are born warm — only
    rejoin marks them cold. *)

val set_cold : t -> unit
val set_warm : t -> unit
val is_warm : t -> bool

(** {1 Dirty tracking}

    Every {!write}/{!set_u64} and every store through {!mem} extends a
    single dirty extent; a fuzzy
    checkpoint flushes only that extent, in bounded slices, instead of
    stop-the-world writing whole region images. *)

val is_dirty : t -> bool
val dirty_bytes : t -> int
(** Bytes in the dirty extent (0 when clean). *)

val dirty_extent : t -> (int * int) option
(** The extent as [Some (lo, hi)] ([lo] inclusive, [hi] exclusive). *)

val flush_dirty : t -> unit
(** Write only the dirty extent to the database device and sync it; no-op
    when clean.  Clears the extent. *)

val flush_slice : t -> max_bytes:int -> int
(** Incremental flush: write up to [max_bytes] from the low end of the
    dirty extent to the database device ({e without} syncing) and shrink
    the extent.  Returns the bytes written (0 when clean).  The caller
    syncs the device once the extent is drained. *)
