(* Trace explorer: the trace contract and the analyses printed by the
   [lbc_trace] CLI — per-stage latency breakdown, per-lock contention,
   the critical path of the slowest transaction and flow accounting —
   over the events of a decoded LBCF dump ({!Flight_dump}).  Times are
   integer nanoseconds on the dump's clock; a span's event carries its
   END time, so its start is [ev_ts_ns - ev_dur_ns]. *)

module FD = Flight_dump

let span_start (ev : FD.event) = ev.FD.ev_ts_ns - ev.FD.ev_dur_ns

(* Rounding the platform's float µs to ns can put a span's derived
   start a nanosecond off the instants recorded at its begin. *)
let slack_ns = 2

(* ---------------------------------------------------------------- *)
(* Self-check: the ring structure ({!FD.self_check}) plus the trace
   contract.  Returns violation descriptions (empty = clean). *)

(* One ring's apply spans as starts sorted ascending beside the running
   max of their ends, so "does some apply span cover [t]" is one binary
   search. *)
let apply_cover (r : FD.ring) =
  let spans =
    Array.of_list
      (List.filter_map
         (fun (ev : FD.event) ->
           if ev.FD.ev_kind = FD.Span && ev.FD.ev_name = "apply" then
             Some (span_start ev, ev.FD.ev_ts_ns)
           else None)
         (Array.to_list r.FD.r_events))
  in
  Array.sort (fun (a, _) (b, _) -> Int.compare a b) spans;
  let max_end = ref min_int in
  let max_ends =
    Array.map
      (fun (_, e) ->
        max_end := max !max_end e;
        !max_end)
      spans
  in
  (Array.map fst spans, max_ends)

let covered (starts, max_ends) t =
  let lo = ref 0 and hi = ref (Array.length starts) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if starts.(mid) <= t + slack_ns then lo := mid + 1 else hi := mid
  done;
  !lo > 0 && max_ends.(!lo - 1) >= t - slack_ns

let self_check (d : FD.dump) =
  let errors = ref (List.rev (FD.self_check d)) in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  (* With nothing dropped every start ever recorded is in the dump:
     [Obs.flow_end] records a head only once it has seen the start. *)
  let complete = Array.for_all (fun r -> r.FD.r_dropped = 0) d.FD.d_rings in
  let starts = Hashtbl.create 64 in
  Array.iter
    (fun (r : FD.ring) ->
      Array.iter
        (fun (ev : FD.event) ->
          if ev.FD.ev_kind = FD.Flow_start then
            match Hashtbl.find_opt starts ev.FD.ev_arg with
            | Some ts when ts <= ev.FD.ev_ts_ns -> ()
            | _ -> Hashtbl.replace starts ev.FD.ev_arg ev.FD.ev_ts_ns)
        r.FD.r_events)
    d.FD.d_rings;
  Array.iter
    (fun (r : FD.ring) ->
      let cover = apply_cover r in
      Array.iter
        (fun (ev : FD.event) ->
          if ev.FD.ev_kind = FD.Flow_end then begin
            let id = ev.FD.ev_arg and ts = ev.FD.ev_ts_ns in
            (match Hashtbl.find_opt starts id with
            | None ->
                if complete then
                  err "flow %d ends on node %d with no start" id r.FD.r_id
            | Some s ->
                if s > ts then
                  err "flow %d starts at %dns after its end at %dns" id s ts);
            (* A span is recorded when it ends: a dump cut inside an
               apply (an exception escaping mid-apply) reports its
               head here too. *)
            if not (covered cover ts) then
              err "flow %d ends on node %d at %dns outside any recorded \
                   apply span" id r.FD.r_id ts
          end)
        r.FD.r_events)
    d.FD.d_rings;
  List.rev !errors

(* ---------------------------------------------------------------- *)
(* Per-stage latency breakdown from span durations. *)

type stage_stats = {
  st_name : string;
  st_count : int;
  st_total_ns : int;
  st_p50_ns : int;
  st_p95_ns : int;
  st_p99_ns : int;
  st_max_ns : int;
}

let exact_percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    let rank = int_of_float (ceil (p /. 100.0 *. Float.of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) rank))

let stage_breakdown (events : FD.event array) =
  let by_name : (string, int list ref) Hashtbl.t = Hashtbl.create 16 in
  Array.iter
    (fun (ev : FD.event) ->
      if ev.FD.ev_kind = FD.Span then
        match Hashtbl.find_opt by_name ev.FD.ev_name with
        | Some l -> l := ev.FD.ev_dur_ns :: !l
        | None ->
            Hashtbl.replace by_name ev.FD.ev_name (ref [ ev.FD.ev_dur_ns ]))
    events;
  Hashtbl.fold
    (fun name durs acc ->
      let a = Array.of_list !durs in
      Array.sort Int.compare a;
      { st_name = name;
        st_count = Array.length a;
        st_total_ns = Array.fold_left ( + ) 0 a;
        st_p50_ns = exact_percentile a 50.0;
        st_p95_ns = exact_percentile a 95.0;
        st_p99_ns = exact_percentile a 99.0;
        st_max_ns = a.(Array.length a - 1) }
      :: acc)
    by_name []
  |> List.sort (fun a b -> Int.compare b.st_total_ns a.st_total_ns)

(* ---------------------------------------------------------------- *)
(* Per-lock contention from lock.wait spans, whose argument is the
   lock id. *)

type lock_stats = {
  lk_lock : int;
  lk_waits : int;
  lk_contended : int;  (* waits with nonzero duration *)
  lk_total_ns : int;
  lk_max_ns : int;
}

let lock_contention (events : FD.event array) =
  let by_lock : (int, lock_stats) Hashtbl.t = Hashtbl.create 16 in
  Array.iter
    (fun (ev : FD.event) ->
      if ev.FD.ev_kind = FD.Span && ev.FD.ev_name = "lock.wait" then begin
        let lock = ev.FD.ev_arg and dur = ev.FD.ev_dur_ns in
        let st =
          match Hashtbl.find_opt by_lock lock with
          | Some st -> st
          | None ->
              { lk_lock = lock; lk_waits = 0; lk_contended = 0;
                lk_total_ns = 0; lk_max_ns = 0 }
        in
        Hashtbl.replace by_lock lock
          { st with
            lk_waits = st.lk_waits + 1;
            lk_contended = (st.lk_contended + if dur > 0 then 1 else 0);
            lk_total_ns = st.lk_total_ns + dur;
            lk_max_ns = max st.lk_max_ns dur }
      end)
    events;
  Hashtbl.fold (fun _ st acc -> st :: acc) by_lock []
  |> List.sort (fun a b ->
         match Int.compare b.lk_total_ns a.lk_total_ns with
         | 0 -> Int.compare a.lk_lock b.lk_lock
         | c -> c)

(* ---------------------------------------------------------------- *)
(* Critical path: the slowest txn span, plus every span on the same
   node that lies inside it, in timeline order — the per-stage story of
   where that transaction's time went. *)

let critical_path (events : FD.event array) =
  let slowest =
    Array.fold_left
      (fun acc (ev : FD.event) ->
        if ev.FD.ev_kind = FD.Span && ev.FD.ev_name = "txn" then
          match acc with
          | Some (best : FD.event) when best.FD.ev_dur_ns >= ev.FD.ev_dur_ns ->
              acc
          | _ -> Some ev
        else acc)
      None events
  in
  match slowest with
  | None -> None
  | Some txn ->
      let lo = span_start txn - slack_ns and hi = txn.FD.ev_ts_ns + slack_ns in
      let inside =
        List.filter
          (fun (ev : FD.event) ->
            ev != txn && ev.FD.ev_kind = FD.Span
            && ev.FD.ev_ring = txn.FD.ev_ring
            && span_start ev >= lo && ev.FD.ev_ts_ns <= hi)
          (Array.to_list events)
        |> List.stable_sort (fun a b ->
               Int.compare (span_start a) (span_start b))
      in
      Some (txn, inside)

(* ---------------------------------------------------------------- *)
(* Flow accounting: how many committed writes were traced end to end. *)

type flow_summary = { fl_starts : int; fl_ends : int; fl_unresolved : int }

let flow_summary (events : FD.event array) =
  let starts = Hashtbl.create 64 in
  Array.iter
    (fun (ev : FD.event) ->
      if ev.FD.ev_kind = FD.Flow_start then
        Hashtbl.replace starts ev.FD.ev_arg ())
    events;
  let ends = ref 0 and unresolved = ref 0 in
  Array.iter
    (fun (ev : FD.event) ->
      if ev.FD.ev_kind = FD.Flow_end then begin
        incr ends;
        if not (Hashtbl.mem starts ev.FD.ev_arg) then incr unresolved
      end)
    events;
  { fl_starts = Hashtbl.length starts; fl_ends = !ends;
    fl_unresolved = !unresolved }
