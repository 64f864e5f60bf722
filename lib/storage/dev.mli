(** A simulated durable device (one "file").

    The device keeps two images: the {e current} image, which reads observe
    (like an OS buffer cache), and the {e stable} image, which is what
    survives a crash.  [write] updates only the current image and records
    the write as pending; [sync] makes all pending writes stable.  [crash]
    reverts the current image to the stable one, optionally after applying
    a deterministic prefix of the pending writes — including a torn final
    write — so recovery code can be tested against every partial-write
    outcome.

    If the device carries a {!Latency.t} profile other than {!Latency.none},
    operations called from inside a simulated process
    ({!Lbc_sim.Proc.spawn}) charge their cost to that process as virtual
    time; calls from outside any process (setup, offline tools) are
    free.

    {!create_file} opens the same interface over a real file: [write]
    issues positional writes and [sync] is a real [fsync], which is what
    the real-parallelism backend's log and database devices use.  The
    kernel owns the volatile cache there, so deterministic write loss
    ({!crash}) is unsupported and [stable_snapshot] equals {!snapshot}.
    File operations serialize on a per-device mutex (a region database is
    shared by every node domain). *)

type t

val create : ?latency:Latency.t -> ?name:string -> unit -> t
(** A new empty in-memory device.  [latency] defaults to {!Latency.none}. *)

val create_file : ?latency:Latency.t -> path:string -> ?name:string -> unit -> t
(** Open (or create) file [path] as a device backed by real I/O.
    [latency] defaults to {!Latency.none}: real operations take real
    time, so no virtual cost is charged on top. *)

val close : t -> unit
(** Release the file descriptor of a {!create_file} device (no-op for
    in-memory devices). *)

val name : t -> string
val size : t -> int
(** Size of the current image in bytes. *)

val stable_size : t -> int

val read : t -> off:int -> len:int -> Bytes.t
(** Read from the current image.  Reading beyond the end raises
    [Invalid_argument].  On a file device whose underlying file turns
    out shorter than the tracked length (a crash truncated it), the
    missing tail reads as zeroes — log scans then degrade to their
    structured torn-tail verdict instead of an untyped failure. *)

val write : t -> off:int -> Bytes.t -> pos:int -> len:int -> unit
(** Buffered write at [off]; extends the device if needed.  The bytes
    land in the current image, and the device captures its own copy of
    the payload, before the write's latency is charged: from the moment
    the charge sleeps, the caller's buffer is free for reuse, even by
    another process that runs during the sleep. *)

val write_slice : t -> off:int -> Lbc_util.Slice.t -> unit
(** {!write} from a window; the caller may reuse or clear the backing
    arena as soon as the copy is taken, before the charge's sleep
    ends. *)

val write_string : t -> off:int -> string -> unit

val sync : t -> unit
(** Force all pending writes to the stable image. *)

val crash : ?apply:int -> ?tear_bytes:int -> t -> unit
(** Simulate a crash: the current image becomes the stable image plus the
    first [apply] pending writes (default 0) plus the first [tear_bytes]
    bytes of the next pending write (default 0).  Remaining pending writes
    are lost.  Charged no latency. *)

val snapshot : t -> Bytes.t
(** Copy of the current image (no latency charged; for tests and tools). *)

val stable_snapshot : t -> Bytes.t

val load : t -> Bytes.t -> unit
(** Replace both images with the given contents, marking them stable (used
    by tools to import a real file). *)

val load_file : t -> string -> (unit, string) result
(** {!load} the contents of the file at [path].  A file that cannot be
    read is [Error], one line naming [path]. *)

(** Accounting *)

val bytes_written : t -> int
val sync_count : t -> int
