(* Tracing + metrics for the coherency pipeline.

   Every span end, instant, flow endpoint and pid-tagged counter delta
   is binary-encoded into the executing node's {!Flight} ring,
   lock-free (single writer per ring) and allocation-free.  The rings
   are the one trace event model: {!dump_flight} writes them as an
   LBCF file that [lbc-trace] analyses and renders for Perfetto, both
   for a run-sized ring and for the last moments before a failure.  A
   metrics registry of counters and log-bucketed histograms rides
   along for the bench/CLI side.

   Timestamps come from a [now : unit -> float] closure (the sim
   engine's virtual clock in microseconds; the real backend passes
   monotonic wall microseconds from a shared epoch), which keeps this
   library at the bottom of the dependency graph.

   The shared [disabled] instance is the only sink where every call is
   one branch and allocates nothing. *)

module Histogram = struct
  (* 64 power-of-two buckets: bucket 0 holds values < 1.0, bucket i
     (i >= 1) holds [2^(i-1), 2^i).  Good enough resolution for
     latency percentiles across nine decades. *)
  let buckets = 64

  type t = {
    mutable count : int;
    mutable sum : float;
    mutable vmin : float;
    mutable vmax : float;
    counts : int array;
  }

  let create () =
    { count = 0; sum = 0.0; vmin = infinity; vmax = neg_infinity;
      counts = Array.make buckets 0 }

  let bucket_of v =
    if v < 1.0 then 0
    else begin
      let i = ref 1 and lim = ref 2.0 in
      while v >= !lim && !i < buckets - 1 do
        incr i;
        lim := !lim *. 2.0
      done;
      !i
    end

  let lo_of i = if i = 0 then 0.0 else Float.of_int (1 lsl (i - 1))
  let hi_of i = Float.of_int (1 lsl i)

  let observe h v =
    h.count <- h.count + 1;
    h.sum <- h.sum +. v;
    if v < h.vmin then h.vmin <- v;
    if v > h.vmax then h.vmax <- v;
    let i = bucket_of v in
    h.counts.(i) <- h.counts.(i) + 1

  let count h = h.count
  let sum h = h.sum
  let mean h = if h.count = 0 then 0.0 else h.sum /. Float.of_int h.count
  let min_value h = if h.count = 0 then 0.0 else h.vmin
  let max_value h = if h.count = 0 then 0.0 else h.vmax

  (* Percentile by cumulative bucket counts with linear interpolation
     inside the winning bucket, clamped to the observed [min, max]. *)
  let percentile h p =
    if h.count = 0 then 0.0
    else begin
      let target = p /. 100.0 *. Float.of_int h.count in
      let target = Float.max target 1.0 in
      let cum = ref 0 and i = ref 0 and res = ref h.vmax in
      (try
         while !i < buckets do
           let c = h.counts.(!i) in
           if Float.of_int (!cum + c) >= target && c > 0 then begin
             let frac = (target -. Float.of_int !cum) /. Float.of_int c in
             let lo = lo_of !i and hi = hi_of !i in
             res := lo +. (frac *. (hi -. lo));
             raise Exit
           end;
           cum := !cum + c;
           incr i
         done
       with Exit -> ());
      Float.min (Float.max !res h.vmin) h.vmax
    end

  let merge ~into src =
    into.count <- into.count + src.count;
    into.sum <- into.sum +. src.sum;
    if src.count > 0 then begin
      if src.vmin < into.vmin then into.vmin <- src.vmin;
      if src.vmax > into.vmax then into.vmax <- src.vmax
    end;
    Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) src.counts
end

(* Pipeline lanes: one Perfetto "thread" per lane so concurrent spans
   on a node don't visually overlap. *)
let lane_txn = 0
let lane_apply = 1
let lane_wal = 2
let lane_lock = 3
let lane_net = 4

type span = {
  sp_name : string;
  sp_pid : int;
  sp_tid : int;
  sp_ts : float;
  sp_arg : int;
}

let null_span =
  { sp_name = ""; sp_pid = 0; sp_tid = 0; sp_ts = 0.0; sp_arg = 0 }

(* One registry shard: counters + histograms under their own mutex.
   The sink keeps one shard per node plus a global catch-all, so a
   pid-tagged count/observe from node [i]'s execution context locks
   only shard [i] — on the real backend that mutex is contended by at
   most the owning domain and its socket reader thread, never by the
   other domains.  Funnelling every domain through one lock put the
   always-on sink on the commit critical path (measured ~12% wall on
   the 4-domain macro workload); sharding removes the cross-core
   bouncing while keeping every update locked and lossless. *)
type shard = {
  sh_counters : (string, int ref) Hashtbl.t;
  sh_hists : (string, Histogram.t) Hashtbl.t;
  sh_m : Mutex.t;
}

let shard_create n =
  { sh_counters = Hashtbl.create n; sh_hists = Hashtbl.create n;
    sh_m = Mutex.create () }

type t = {
  enabled : bool;
  now_fn : unit -> float;
  rings : Flight.t array;
      (* One flight ring per node; ring [i] is written only from node
         [i]'s execution context (its domain on the real backend), so
         recording needs no lock.  Empty only in [disabled]. *)
  shards : shard array;  (* one per node; pid-tagged updates land here *)
  global : shard;  (* updates with no pid (cross-node contexts) *)
  (* flow id -> start timestamp, for apply-lag measurement.  Flows are
     cross-domain by nature (start on the committer, end on each
     receiver), so the slots keep their own mutex.  Direct-mapped by
     [id land mask] into two flat arrays instead of a hashtable: a
     start never retires (every receiver reads it), so a table would
     grow by one boxed entry per committed write for the life of the
     run; a fixed cache is allocation-free and bounded, and a collision
     merely drops that write's lag sample and arrow head (the id stored
     with the timestamp keeps a stale slot from ever mismeasuring). *)
  flow_ids : int array;  (* -1 = empty *)
  flow_ts : float array;
  flows_m : Mutex.t;
}

let disabled =
  { enabled = false; now_fn = (fun () -> 0.0); rings = [||];
    shards = [||]; global = shard_create 1;
    flow_ids = [||]; flow_ts = [||]; flows_m = Mutex.create () }

(* Power of two; sized to dwarf the number of writes in flight between
   commit and last apply (tens on a busy cluster). *)
let flow_slots = 4096

let create ?(ring_bytes = 65536) ~now ~nodes () =
  { enabled = true; now_fn = now;
    rings = Array.init nodes (fun _ -> Flight.create ~cap_bytes:ring_bytes ());
    shards = Array.init nodes (fun _ -> shard_create 16);
    global = shard_create 32;
    flow_ids = Array.make flow_slots (-1); flow_ts = Array.make flow_slots 0.0;
    flows_m = Mutex.create () }

let enabled t = t.enabled

(* Platform clocks hand out float microseconds; the rings store integer
   nanoseconds. *)
let[@inline] ts_ns_of us = int_of_float (us *. 1000.0)

(* Flow arrow ids are derived from (lock, seqno): unique per committed
   write, stable across committer and receivers. *)
let flow_id ~lock ~seqno = (lock * 16_777_216) + seqno

(* ---------------------------------------------------------------- *)
(* Metrics registry *)

(* [pid] routes the update into that node's flight ring and registry
   shard; omit it for updates not attributable to one node's execution
   context (the rings are single-writer, so a cross-domain ring write
   would race — those land in the uncontended-by-domains global
   shard). *)

let[@inline] shard_for t pid =
  match pid with
  | Some p when p >= 0 && p < Array.length t.shards -> t.shards.(p)
  | _ -> t.global

let[@inline] sh_locked sh f =
  Mutex.lock sh.sh_m;
  match f () with
  | v ->
      Mutex.unlock sh.sh_m;
      v
  | exception e ->
      Mutex.unlock sh.sh_m;
      raise e

let count ?pid t name by =
  if t.enabled then begin
    (match pid with
    | Some p when p >= 0 && p < Array.length t.rings ->
        Flight.record_count t.rings.(p) ~ts_ns:(ts_ns_of (t.now_fn ())) ~name
          ~delta:by
    | _ -> ());
    (* Manually inlined lock and exception-match lookup: a [sh_locked]
       closure and a [find_opt] [Some] are two minor-heap allocations
       per call, and on a small host an extra minor GC is a
       stop-the-world rendezvous across every domain.  Nothing between
       lock and unlock can raise. *)
    let sh = shard_for t pid in
    Mutex.lock sh.sh_m;
    (match Hashtbl.find sh.sh_counters name with
    | r -> r := !r + by
    | exception Not_found -> Hashtbl.replace sh.sh_counters name (ref by));
    Mutex.unlock sh.sh_m
  end

(* The read side folds the global shard and every per-node shard; reads
   are rare (reports, benches), so they pay the merge. *)

let all_shards t = Array.to_list t.shards @ [ t.global ]

let counter t name =
  List.fold_left
    (fun acc sh ->
      acc
      + sh_locked sh (fun () ->
            match Hashtbl.find_opt sh.sh_counters name with
            | Some r -> !r
            | None -> 0))
    0 (all_shards t)

let counters t =
  let merged = Hashtbl.create 32 in
  List.iter
    (fun sh ->
      sh_locked sh (fun () ->
          Hashtbl.iter
            (fun k r ->
              match Hashtbl.find_opt merged k with
              | Some acc -> acc := !acc + !r
              | None -> Hashtbl.replace merged k (ref !r))
            sh.sh_counters))
    (all_shards t);
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) merged []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let observe ?pid t name v =
  if t.enabled then begin
    (* Allocation-free on the steady state, as in [count]: no closure,
       no [find_opt] option, and [Histogram.observe] is bucket
       arithmetic that cannot raise. *)
    let sh = shard_for t pid in
    Mutex.lock sh.sh_m;
    (match Hashtbl.find sh.sh_hists name with
    | h -> Histogram.observe h v
    | exception Not_found ->
        let h = Histogram.create () in
        Hashtbl.replace sh.sh_hists name h;
        Histogram.observe h v);
    Mutex.unlock sh.sh_m
  end

(* Merged-histogram readers: fresh copies, safe to keep after the sink
   moves on. *)

let merged_hists t =
  let merged = Hashtbl.create 32 in
  List.iter
    (fun sh ->
      sh_locked sh (fun () ->
          Hashtbl.iter
            (fun k h ->
              let into =
                match Hashtbl.find_opt merged k with
                | Some x -> x
                | None ->
                    let x = Histogram.create () in
                    Hashtbl.replace merged k x;
                    x
              in
              Histogram.merge ~into h)
            sh.sh_hists))
    (all_shards t);
  merged

let hist t name =
  let merged = merged_hists t in
  Hashtbl.find_opt merged name

let hists t =
  Hashtbl.fold (fun k h acc -> (k, h) :: acc) (merged_hists t) []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ---------------------------------------------------------------- *)
(* Spans *)

let span_begin t ~name ~pid ~tid ~arg =
  if not t.enabled then null_span
  else
    { sp_name = name; sp_pid = pid; sp_tid = tid; sp_ts = t.now_fn ();
      sp_arg = arg }

(* Ends the span, records it, and returns its duration in microseconds
   (0.0 when disabled). *)
let span_end t sp =
  if not t.enabled then 0.0
  else begin
    let now = t.now_fn () in
    let dur = now -. sp.sp_ts in
    if sp.sp_pid >= 0 && sp.sp_pid < Array.length t.rings then
      Flight.record_span t.rings.(sp.sp_pid) ~ts_ns:(ts_ns_of now)
        ~name:sp.sp_name ~lane:sp.sp_tid ~dur_ns:(ts_ns_of dur) ~arg:sp.sp_arg;
    dur
  end

let instant t ~name ~pid ~tid ~arg =
  if t.enabled && pid >= 0 && pid < Array.length t.rings then
    Flight.record_instant t.rings.(pid) ~ts_ns:(ts_ns_of (t.now_fn ())) ~name
      ~lane:tid ~arg

(* ---------------------------------------------------------------- *)
(* Flow arrows *)

(* Flow ids pack (lock, seqno) into disjoint bit ranges, so the raw
   low bits collide across locks (every lock's seqno [k] would share a
   slot).  Fibonacci hashing, taking the TOP bits of the product:
   multiplication only carries upward, so low product bits never see
   the lock field. *)
let[@inline] flow_slot t id =
  (id * 0x9E3779B97F4A7C1) lsr 51 land (Array.length t.flow_ids - 1)

let flow_start t ~id ~pid ~tid =
  if t.enabled then begin
    let ts = t.now_fn () in
    if pid >= 0 && pid < Array.length t.rings then
      Flight.record_flow t.rings.(pid) ~ts_ns:(ts_ns_of ts) ~head:false ~id
        ~lane:tid;
    let slot = flow_slot t id in
    Mutex.lock t.flows_m;
    t.flow_ids.(slot) <- id;
    t.flow_ts.(slot) <- ts;
    Mutex.unlock t.flows_m
  end

(* Binds the arrow into the receiver's apply span (call right after the
   span begins so the head's timestamp falls inside it).  Returns the
   lag since [flow_start], or [None] when no start was recorded (e.g. a
   record obtained by fetch rather than broadcast); such a record gets
   no head either, so every head in a ring has a start somewhere. *)
let flow_end t ~id ~pid ~tid =
  if not t.enabled then None
  else begin
    let ts = t.now_fn () in
    let slot = flow_slot t id in
    Mutex.lock t.flows_m;
    let start = if t.flow_ids.(slot) = id then t.flow_ts.(slot) else nan in
    Mutex.unlock t.flows_m;
    if Float.is_nan start then None
    else begin
      if pid >= 0 && pid < Array.length t.rings then
        Flight.record_flow t.rings.(pid) ~ts_ns:(ts_ns_of ts) ~head:true ~id
          ~lane:tid;
      Some (ts -. start)
    end
  end

(* ---------------------------------------------------------------- *)
(* Flight recorder access *)

let rings t = t.rings

let ring_stats t =
  Array.map
    (fun r -> (Flight.recorded r, Flight.dropped r, Flight.bytes_used r))
    t.rings

let dump_flight t ~clock path =
  Flight_dump.write ~path ~clock ~dumped_at_ns:(ts_ns_of (t.now_fn ()))
    (Array.mapi (fun i r -> (i, r)) t.rings)
