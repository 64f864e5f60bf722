(* A violation is one broken invariant, tagged with the invariant's name so
   callers (CLI, tests, selftest) can assert *which* check fired, not just
   that something did. *)

(* (node, tid) — enough to find a transaction in any log dump. *)
type txn_id = { node : int; tid : int }

let txn_id_of (t : Lbc_wal.Record.txn) =
  { node = t.Lbc_wal.Record.node; tid = t.Lbc_wal.Record.tid }

type kind =
  | Seqno_regression of {
      log : int;  (* index of the offending stream *)
      lock : int;
      seqno : int;
      after : int;  (* the earlier, larger-or-equal seqno in the same log *)
      txn : txn_id;
    }
      (* Within one node's log, seqnos for a lock must strictly increase:
         the log is written in commit order and the token serializes
         acquires. *)
  | Seqno_duplicate of { lock : int; seqno : int; a : txn_id; b : txn_id }
      (* A lock's sequence numbers are globally unique (one per acquire). *)
  | Seqno_gap of { lock : int; missing : int; referenced_by : txn_id }
      (* A record's prev_write_seq names a write that appears in no log:
         the write chain has a hole. *)
  | Chain_broken of {
      lock : int;
      seqno : int;
      prev_write_seq : int;
      expected : int;
      txn : txn_id;
    }
      (* prev_write_seq must equal the seqno of the closest earlier
         *writing* record on the lock (aborted and read-only acquires do
         not advance the chain). *)
  | Unlocked_race of {
      region : int;
      a : txn_id;
      a_range : int * int;  (* offset, len *)
      b : txn_id;
      b_range : int * int;
    }
      (* Two transactions wrote overlapping bytes but are not ordered by
         the happens-before relation induced by lock sequence numbers and
         per-node commit order — the race class the interlock excludes. *)
  | Codec_mismatch of { txn : txn_id; detail : string }
      (* Wire.encode/Wire.decode is not the identity on this record. *)
  | Codec_error of { detail : string }
      (* A wire image failed to decode at all. *)
  | Merge_unorderable of { detail : string }
      (* Merge.merge_records could not serialize the streams. *)
  | Merge_not_serial of { detail : string }
      (* The merged log is not a legal serial order of its inputs. *)
  | Order_cycle of { detail : string }
      (* The happens-before graph has a cycle; no serial order exists. *)
  | Unmapped_region of { region : int; txn : txn_id }
      (* A record addresses a region outside the declared region set:
         receivers silently skip such ranges, so the write is lost. *)
  | Command_unknown of { txn : txn_id; op : int }
      (* A command record names an operation no process registered:
         neither receivers nor recovery can re-execute it, so the
         transaction's effect is unreproducible from the log. *)
  | Serial_divergence of {
      witness : string;  (* which final image diverged: "node 3", "db" *)
      region : int;
      offset : int;  (* first differing byte *)
      expected : int;  (* spec byte *)
      actual : int;
    }
      (* The committed transaction stream, replayed sequentially against
         an in-memory one-copy spec, produced a region image that differs
         from the cluster's — the execution is not one-copy
         serializable. *)
  | Schedule_oracle of { scenario : string; detail : string }
      (* A scenario-specific invariant broke under an explored schedule
         (reported by lbc-explore's oracles, e.g. the planted-bug
         self-test scenario). *)
  | Lint of { file : string; line : int; rule : string; detail : string }

type t = kind

(* Stable short names, used by the CLI ("violated invariant: <name>") and
   asserted by the mutation tests. *)
let name = function
  | Seqno_regression _ -> "seqno-monotonicity"
  | Seqno_duplicate _ -> "seqno-uniqueness"
  | Seqno_gap _ -> "seqno-gap"
  | Chain_broken _ -> "write-chain"
  | Unlocked_race _ -> "unlocked-race"
  | Codec_mismatch _ -> "codec-roundtrip"
  | Codec_error _ -> "codec-decode"
  | Merge_unorderable _ -> "merge-unorderable"
  | Merge_not_serial _ -> "merge-serial-order"
  | Order_cycle _ -> "order-cycle"
  | Unmapped_region _ -> "unmapped-region"
  | Command_unknown _ -> "command-unknown"
  | Serial_divergence _ -> "serializability"
  | Schedule_oracle _ -> "schedule-oracle"
  | Lint { rule; _ } -> rule

let pp_txn_id ppf { node; tid } = Format.fprintf ppf "n%d/t%d" node tid

let pp ppf v =
  match v with
  | Seqno_regression { log; lock; seqno; after; txn } ->
      Format.fprintf ppf
        "[%s] log %d: lock %d seqno %d appears after seqno %d (txn %a)"
        (name v) log lock seqno after pp_txn_id txn
  | Seqno_duplicate { lock; seqno; a; b } ->
      Format.fprintf ppf "[%s] lock %d seqno %d used by both %a and %a"
        (name v) lock seqno pp_txn_id a pp_txn_id b
  | Seqno_gap { lock; missing; referenced_by } ->
      Format.fprintf ppf
        "[%s] lock %d: write seqno %d referenced by %a appears in no log"
        (name v) lock missing pp_txn_id referenced_by
  | Chain_broken { lock; seqno; prev_write_seq; expected; txn } ->
      Format.fprintf ppf
        "[%s] lock %d seqno %d (txn %a): prev_write_seq=%d but last write \
         was %d"
        (name v) lock seqno pp_txn_id txn prev_write_seq expected
  | Unlocked_race { region; a; a_range = ao, al; b; b_range = bo, bl } ->
      Format.fprintf ppf
        "[%s] region %d: %a writes [%d,%d) and %a writes [%d,%d) with no \
         ordering lock"
        (name v) region pp_txn_id a ao (ao + al) pp_txn_id b bo (bo + bl)
  | Codec_mismatch { txn; detail } ->
      Format.fprintf ppf "[%s] txn %a: %s" (name v) pp_txn_id txn detail
  | Codec_error { detail } -> Format.fprintf ppf "[%s] %s" (name v) detail
  | Merge_unorderable { detail } | Merge_not_serial { detail }
  | Order_cycle { detail } ->
      Format.fprintf ppf "[%s] %s" (name v) detail
  | Unmapped_region { region; txn } ->
      Format.fprintf ppf
        "[%s] txn %a writes region %d, which no declared region set covers"
        (name v) pp_txn_id txn region
  | Command_unknown { txn; op } ->
      Format.fprintf ppf
        "[%s] txn %a is a command record for unregistered operation %d"
        (name v) pp_txn_id txn op
  | Serial_divergence { witness; region; offset; expected; actual } ->
      Format.fprintf ppf
        "[%s] %s region %d: byte %d is 0x%02x, sequential spec says 0x%02x"
        (name v) witness region offset actual expected
  | Schedule_oracle { scenario; detail } ->
      Format.fprintf ppf "[%s] scenario %s: %s" (name v) scenario detail
  | Lint { file; line; rule; detail } ->
      Format.fprintf ppf "%s:%d: [%s] %s" file line rule detail

let to_string v = Format.asprintf "%a" pp v
