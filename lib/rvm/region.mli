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
    transaction's [set_range]), then lands. *)

val reload_from_db : t -> unit
(** Replace the in-memory image with the database device's current
    contents (zero-filling any shortfall) — a rejoin's reload of the
    last checkpoint's image.  The cache is never written back: only a
    cluster checkpoint's replay of merged log records writes the
    database. *)
