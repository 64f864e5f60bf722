(** Write-detection backends and the transactions that use them.

    {!Dtxn} mirrors the coherency transaction interface but lets the
    caller pick how updates are detected:

    - [Log]: explicit [set_range] calls — log-based coherency, the
      paper's approach.  Delegates directly to [Lbc_core.Node.Txn].
    - [Cpy_cmp]: multiple-writer twin/diff — stores take a simulated
      write fault per page, and commit diffs dirty pages against their
      twins to build the (byte-accurate, word-granular) update ranges.
    - [Page]: page-locking DSM — commit ships every dirty page whole.

    All three feed the same redo record / broadcast machinery, so
    receivers cannot tell them apart; what changes is the detection work
    at the writer and the bytes on the wire — exactly the trade-off the
    paper's Figures 1-4 quantify. *)

type kind = Log | Cpy_cmp | Page

val kind_name : kind -> string

type stats = {
  mutable write_faults : int;  (** first-touch page traps (Cpy_cmp/Page) *)
  mutable pages_twinned : int;
  mutable pages_compared : int;
  mutable pages_shipped : int;  (** whole pages in the record (Page) *)
}

module Dtxn : sig
  type t

  val begin_ : Lbc_core.Node.t -> kind:kind -> t
  val kind : t -> kind
  val acquire : t -> int -> unit

  val mem : t -> region:int -> Lbc_util.Mem.t
  (** The transaction's accessor: reads go to the cached image, and the
      write declaration is the backend's detection ([set_range] for
      [Log], a twin on first touch for [Cpy_cmp], a dirty page for
      [Page]). *)

  val write : t -> region:int -> offset:int -> Bytes.t -> unit
  val set_u64 : t -> region:int -> offset:int -> int64 -> unit

  val commit : t -> Lbc_wal.Record.txn
  (** Detection-specific collection, then the normal commit path. *)

  val stats : t -> stats
end
