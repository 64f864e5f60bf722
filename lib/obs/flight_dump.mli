(** LBCF — the flight ring dump format: writer, decoder, N-ring
    merge, structural self-check, and a Chrome-trace renderer so a
    dump can feed Perfetto.  {!Explorer} analyses the decoded events. *)

type kind = Span | Instant | Count | Flow_start | Flow_end

type event = {
  ev_ring : int;
  ev_kind : kind;
  ev_name : string; (* "" for flow endpoints *)
  ev_lane : int;
  ev_ts_ns : int; (* absolute; for spans this is the END time *)
  ev_dur_ns : int; (* spans only, else 0 *)
  ev_arg : int;
      (* span/instant argument (lock id, byte count, writer or epoch;
         0 when the event has none), counter delta, or flow id *)
}

type ring = {
  r_id : int;
  r_recorded : int;
  r_dropped : int;
  r_cap : int;
  r_last_ts_ns : int;
  r_names : string array;
  r_events : event array; (* oldest first, timestamps absolute *)
  r_errors : string list; (* structural problems found while decoding *)
}

type dump = {
  d_version : int;
  d_clock : string; (* "virtual-us" (sim) or "wall-us" (real) *)
  d_dumped_at_ns : int;
  d_rings : ring array;
}

val encode : clock:string -> dumped_at_ns:int -> (int * Flight.t) array -> string
(** Serialize live rings (tagged with their node/ring ids) to LBCF. *)

val write : path:string -> clock:string -> dumped_at_ns:int -> (int * Flight.t) array -> unit

val of_string : string -> (dump, string) result
(** Any input yields [Ok] or [Error]: every length and count is checked
    against the bytes left before it is allocated from. *)

val read : string -> (dump, string) result

val is_flight_file : string -> bool
(** True iff the file starts with the LBCF magic. *)

val self_check : dump -> string list
(** Empty = clean. Validates per-ring timestamp monotonicity,
    interned-id closure (every referenced id resolves), clean record
    decode, drop accounting ([recorded = dropped + decoded]), and the
    newest-event anchor. *)

val merged : dump -> event array
(** All rings merged into one timestamp-ordered stream (stable: ties
    keep ring order). *)

val arg_label : string -> string option
(** What a span's or instant's argument means, by event name: ["lock"],
    ["bytes"], ["writer"] or ["epoch"]; [None] for events without one. *)

val render_chrome : dump -> string
(** Chrome trace-event JSON — one process per ring, lanes as threads in
    pipeline order, each span's and instant's argument under its name
    ([lock], [bytes], [writer] or [epoch]), counter deltas
    re-accumulated into running totals. *)

val kind_name : kind -> string
val pp_summary : Format.formatter -> dump -> unit
