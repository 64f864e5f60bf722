(* Tests for the tracing/metrics layer (lib/obs): histogram math, the
   hand-rolled JSON codec, span/flow recording and the explorer's
   self-check, a whole-run cluster trace cross-checked against the
   Report counters, the LBCF decoder under hostile input, and
   golden-style renderings of Report.pp_cluster. *)

open Lbc_core
module Obs = Lbc_obs.Obs
module Json = Lbc_obs.Json
module Explorer = Lbc_obs.Explorer
module Flight = Lbc_obs.Flight
module FD = Lbc_obs.Flight_dump
module H = Obs.Histogram

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Decode a sink's rings as LBCF, failing the test on a decode error. *)
let dump_of_obs o =
  let rings = Array.mapi (fun i r -> (i, r)) (Obs.rings o) in
  match FD.of_string (FD.encode ~clock:"virtual-us" ~dumped_at_ns:0 rings) with
  | Error e -> Alcotest.failf "LBCF decode failed: %s" e
  | Ok d -> d

(* ----------------------------------------------------------------- *)
(* Histograms *)

let test_histogram_basics () =
  let h = H.create () in
  Alcotest.(check int) "empty count" 0 (H.count h);
  Alcotest.(check (float 0.0)) "empty percentile" 0.0 (H.percentile h 50.0);
  for v = 1 to 1000 do
    H.observe h (float_of_int v)
  done;
  Alcotest.(check int) "count" 1000 (H.count h);
  Alcotest.(check (float 0.001)) "sum" 500_500.0 (H.sum h);
  Alcotest.(check (float 0.001)) "mean" 500.5 (H.mean h);
  Alcotest.(check (float 0.0)) "min" 1.0 (H.min_value h);
  Alcotest.(check (float 0.0)) "max" 1000.0 (H.max_value h);
  let p50 = H.percentile h 50.0 in
  let p95 = H.percentile h 95.0 in
  let p99 = H.percentile h 99.0 in
  (* Bucket interpolation is coarse (power-of-two buckets); check order
     and bucket-level accuracy, not exact values. *)
  Alcotest.(check bool) "p50 <= p95" true (p50 <= p95);
  Alcotest.(check bool) "p95 <= p99" true (p95 <= p99);
  Alcotest.(check bool) "p99 <= max" true (p99 <= H.max_value h);
  Alcotest.(check bool) "p50 in its bucket" true (p50 >= 250.0 && p50 <= 750.0);
  Alcotest.(check bool) "p99 near the top" true (p99 >= 900.0)

let test_histogram_merge () =
  let a = H.create () and b = H.create () in
  List.iter (H.observe a) [ 2.0; 4.0; 8.0 ];
  List.iter (H.observe b) [ 100.0; 200.0 ];
  H.merge ~into:a b;
  Alcotest.(check int) "merged count" 5 (H.count a);
  Alcotest.(check (float 0.001)) "merged sum" 314.0 (H.sum a);
  Alcotest.(check (float 0.0)) "merged min" 2.0 (H.min_value a);
  Alcotest.(check (float 0.0)) "merged max" 200.0 (H.max_value a);
  Alcotest.(check int) "source untouched" 2 (H.count b)

(* ----------------------------------------------------------------- *)
(* JSON codec *)

let test_json_parse () =
  match Json.parse {|{"a": [1, 2.5, "x\nA"], "b": {"c": true, "d": null}}|}
  with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok j ->
      let a = Option.get (Json.to_arr (Option.get (Json.member "a" j))) in
      Alcotest.(check int) "array length" 3 (List.length a);
      Alcotest.(check (float 0.0))
        "first num" 1.0
        (Option.get (Json.to_num (List.nth a 0)));
      Alcotest.(check (float 0.0))
        "second num" 2.5
        (Option.get (Json.to_num (List.nth a 1)));
      Alcotest.(check string)
        "escapes decoded" "x\nA"
        (Option.get (Json.to_str (List.nth a 2)));
      let b = Option.get (Json.member "b" j) in
      Alcotest.(check bool)
        "nested bool" true
        (match Json.member "c" b with Some (Json.Bool v) -> v | _ -> false);
      Alcotest.(check bool)
        "nested null" true
        (Json.member "d" b = Some Json.Null)

let test_json_rejects () =
  let bad s =
    match Json.parse s with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "trailing bytes" true (bad {|{"a": 1} x|});
  Alcotest.(check bool) "unterminated string" true (bad {|{"a": "oops|});
  Alcotest.(check bool) "bare token" true (bad "nope");
  Alcotest.(check bool) "empty input" true (bad "")

let test_json_escape () =
  Alcotest.(check string)
    "escape specials" {|a\"b\n\t\\|}
    (Json.escape "a\"b\n\t\\")

(* ----------------------------------------------------------------- *)
(* Disabled sink: every entry point is a no-op *)

let test_disabled_noop () =
  let o = Obs.disabled in
  Alcotest.(check bool) "not enabled" false (Obs.enabled o);
  let sp = Obs.span_begin o ~name:"x" ~pid:0 ~tid:0 ~arg:1 in
  Alcotest.(check bool) "null span" true (sp == Obs.null_span);
  Alcotest.(check (float 0.0)) "span_end" 0.0 (Obs.span_end o sp);
  Obs.instant o ~name:"x" ~pid:0 ~tid:0 ~arg:1;
  Obs.flow_start o ~id:1 ~pid:0 ~tid:0;
  Alcotest.(check bool)
    "flow_end" true
    (Obs.flow_end o ~id:1 ~pid:0 ~tid:0 = None);
  Obs.count o "c" 1;
  Alcotest.(check int) "counter stays 0" 0 (Obs.counter o "c");
  Obs.observe o "h" 5.0;
  Alcotest.(check bool) "no histogram" true (Obs.hist o "h" = None);
  Obs.mark o "m";
  Alcotest.(check bool) "no mark" true (Obs.take_mark o "m" = None)

(* ----------------------------------------------------------------- *)
(* Span / flow recording against a fake clock *)

let test_spans_flows_render () =
  let clock = ref 0.0 in
  let o = Obs.create ~now:(fun () -> !clock) ~nodes:2 () in
  let id = Obs.flow_id ~lock:3 ~seqno:1 in
  clock := 10.0;
  let commit =
    Obs.span_begin o ~name:"commit" ~pid:0 ~tid:Obs.lane_txn ~arg:0
  in
  clock := 15.0;
  Obs.flow_start o ~id ~pid:0 ~tid:Obs.lane_txn;
  clock := 20.0;
  Alcotest.(check (float 0.001)) "commit dur" 10.0 (Obs.span_end o commit);
  clock := 30.0;
  let apply =
    Obs.span_begin o ~name:"apply" ~pid:1 ~tid:Obs.lane_apply ~arg:7
  in
  let lag = Obs.flow_end o ~id ~pid:1 ~tid:Obs.lane_apply in
  Alcotest.(check bool) "lag measured" true (lag = Some 15.0);
  clock := 35.0;
  ignore (Obs.span_end o apply : float);
  Alcotest.(check bool)
    "unknown flow id" true
    (Obs.flow_end o ~id:9999 ~pid:1 ~tid:Obs.lane_apply = None);
  let d = dump_of_obs o in
  Alcotest.(check (list string))
    "self-check clean" [] (Explorer.self_check d);
  let events = FD.merged d in
  let f = Explorer.flow_summary events in
  Alcotest.(check int) "flow starts" 1 f.Explorer.fl_starts;
  Alcotest.(check int) "flow ends" 1 f.Explorer.fl_ends;
  Alcotest.(check int) "none unresolved" 0 f.Explorer.fl_unresolved;
  (* The Perfetto rendering parses, carries the apply span's writer
     argument, orders the lanes and names its time unit. *)
  let j =
    match Json.parse (FD.render_chrome d) with
    | Error e -> Alcotest.failf "render_chrome not JSON: %s" e
    | Ok j -> j
  in
  Alcotest.(check (option string))
    "displayTimeUnit" (Some "ms")
    (Option.bind (Json.member "displayTimeUnit" j) Json.to_str);
  let trace_events =
    Option.get (Option.bind (Json.member "traceEvents" j) Json.to_arr)
  in
  let str = Json.str_member and num = Json.num_member in
  let arg k e = Option.bind (Json.member "args" e) (num k) in
  let apply_writer =
    List.find_map
      (fun e ->
        if str "ph" e = Some "X" && str "name" e = Some "apply" then
          arg "writer" e
        else None)
      trace_events
  in
  Alcotest.(check (option (float 0.0))) "apply writer arg" (Some 7.0)
    apply_writer;
  let sort_index pid tid =
    List.find_map
      (fun e ->
        if
          str "name" e = Some "thread_sort_index"
          && num "pid" e = Some (float_of_int pid)
          && num "tid" e = Some (float_of_int tid)
        then arg "sort_index" e
        else None)
      trace_events
  in
  Alcotest.(check (option (float 0.0)))
    "apply lane sorts after txn" (Some 1.0)
    (sort_index 1 Obs.lane_apply);
  Alcotest.(check (option (float 0.0)))
    "net lane sorts last" (Some 4.0)
    (sort_index 0 Obs.lane_net)

let test_marks () =
  let clock = ref 100.0 in
  let o = Obs.create ~now:(fun () -> !clock) ~nodes:1 () in
  Obs.mark o "fetch:0:7";
  clock := 140.0;
  Alcotest.(check bool)
    "elapsed" true
    (Obs.take_mark o "fetch:0:7" = Some 40.0);
  Alcotest.(check bool) "consumed" true (Obs.take_mark o "fetch:0:7" = None)

(* Hand-built dumps for the self-check fixtures: events the recorder
   itself never writes (negative durations, backwards time). *)
let ev ?(dur = 0) ?(arg = 0) kind name ts =
  { FD.ev_ring = 0; ev_kind = kind; ev_name = name; ev_lane = 0;
    ev_ts_ns = ts; ev_dur_ns = dur; ev_arg = arg }

let fixture ?(dropped = 0) rings =
  let ring i evs =
    let evs =
      Array.of_list (List.map (fun e -> { e with FD.ev_ring = i }) evs)
    in
    let n = Array.length evs in
    { FD.r_id = i; r_recorded = n + dropped; r_dropped = dropped; r_cap = 256;
      r_last_ts_ns = (if n = 0 then 0 else evs.(n - 1).FD.ev_ts_ns);
      r_names = [||]; r_events = evs; r_errors = [] }
  in
  { FD.d_version = 2; d_clock = "virtual-us"; d_dumped_at_ns = 0;
    d_rings = Array.of_list (List.mapi ring rings) }

(* The self-check must reject traces that violate the contract. *)
let test_self_check_catches () =
  let check what want d =
    Alcotest.(check bool) what want (Explorer.self_check d = [])
  in
  let apply_5_15 = ev ~dur:10_000 FD.Span "apply" 15_000 in
  let head_at ts = ev ~arg:7 FD.Flow_end "" ts in
  let start_at ts = ev ~arg:7 FD.Flow_start "" ts in
  check "well-formed fixture passes" true
    (fixture [ [ start_at 1_000 ]; [ head_at 6_000; apply_5_15 ] ]);
  check "flow head with no start on rings that dropped nothing" false
    (fixture [ []; [ head_at 6_000; apply_5_15 ] ]);
  check "a start lost to a dropping ring is tolerated" true
    (fixture ~dropped:3 [ []; [ head_at 6_000; apply_5_15 ] ]);
  check "negative duration" false
    (fixture [ [ ev ~dur:(-1_000) FD.Span "txn" 5_000 ] ]);
  check "time runs backwards" false
    (fixture [ [ ev FD.Instant "a" 50_000; ev FD.Instant "b" 10_000 ] ]);
  check "flow end outside any apply span" false
    (fixture [ [ start_at 1_000 ]; [ head_at 6_000 ] ]);
  check "flow head outside the ring's apply spans" false
    (fixture
       [ [ start_at 1_000 ];
         [ head_at 6_000; ev ~dur:10_000 FD.Span "apply" 30_000 ] ]);
  check "flow starts after its head" false
    (fixture [ [ start_at 9_000 ]; [ head_at 6_000; apply_5_15 ] ])

(* ----------------------------------------------------------------- *)
(* A traced cluster run: the trace passes its own self-check and its
   metrics agree with the Report counters. *)

let region_size = 1024

let mk_cluster config nodes =
  let c = Cluster.create ~config ~nodes () in
  Cluster.add_region c ~id:0 ~size:region_size;
  Cluster.map_region_all c ~region:0;
  c

let script_writer c ~node ~lock ~commits =
  Cluster.spawn c ~node (fun nd ->
      for i = 1 to commits do
        let txn = Node.Txn.begin_ nd in
        Node.Txn.acquire txn lock;
        Node.Txn.set_u64 txn ~region:0 ~offset:(8 * lock)
          (Int64.of_int ((node * 1000) + i));
        Node.Txn.commit txn;
        Lbc_sim.Proc.sleep 10.0
      done)

let total_commits c nodes =
  let sum = ref 0 in
  for n = 0 to nodes - 1 do
    let s = Lbc_rvm.Rvm.stats (Node.rvm (Cluster.node c n)) in
    sum := !sum + s.Lbc_rvm.Rvm.commits
  done;
  !sum

(* A ring sized for the whole run, as [oo7-run --trace] sets it. *)
let whole_run = { Config.default with Config.flight_ring_bytes = 1 lsl 20 }

(* Dump the cluster's rings through the LBCF file path and decode them. *)
let dump_cluster c =
  let path = Filename.temp_file "lbc-trace" ".bin" in
  let (_ : string) = Cluster.dump_flight ~path c in
  let d = FD.read path in
  Sys.remove path;
  match d with Error e -> Alcotest.failf "dump unreadable: %s" e | Ok d -> d

let test_traced_cluster_run () =
  let nodes = 3 in
  let c = mk_cluster whole_run nodes in
  script_writer c ~node:0 ~lock:0 ~commits:4;
  script_writer c ~node:1 ~lock:1 ~commits:3;
  script_writer c ~node:2 ~lock:2 ~commits:2;
  Cluster.run c;
  let o = Cluster.obs c in
  Alcotest.(check bool) "tracing on" true (Obs.enabled o);
  let d = dump_cluster c in
  Alcotest.(check (list string))
    "trace self-check clean" [] (Explorer.self_check d);
  Array.iter
    (fun r ->
      Alcotest.(check int) "whole run kept" 0 r.FD.r_dropped)
    d.FD.d_rings;
  (* Every committed write's flow arrow resolves into an apply span
     on every sharing peer: 9 commits broadcast to 2 peers each. *)
  let events = FD.merged d in
  let f = Explorer.flow_summary events in
  Alcotest.(check int) "flow starts" 9 f.Explorer.fl_starts;
  Alcotest.(check int) "flow ends" 18 f.Explorer.fl_ends;
  Alcotest.(check int) "none unresolved" 0 f.Explorer.fl_unresolved;
  (* The explorer sees the pipeline stages. *)
  let stages = Explorer.stage_breakdown events in
  let stage n = List.exists (fun s -> s.Explorer.st_name = n) stages in
  Alcotest.(check bool) "commit stage" true (stage "commit");
  Alcotest.(check bool) "apply stage" true (stage "apply");
  Alcotest.(check bool) "net.send stage" true (stage "net.send");
  Alcotest.(check bool)
    "critical path found" true
    (Explorer.critical_path events <> None);
  (* Metrics agree with the Report counters. *)
  let commits = total_commits c nodes in
  Alcotest.(check int) "nine commits" 9 commits;
  (match Obs.hist o "commit_us" with
  | None -> Alcotest.fail "no commit_us histogram"
  | Some h ->
      Alcotest.(check int) "one commit_us sample per commit" commits
        (H.count h));
  (match Obs.hist o "apply_lag_us" with
  | None -> Alcotest.fail "no apply_lag_us histogram"
  | Some h ->
      Alcotest.(check int) "one apply_lag sample per flow end" 18 (H.count h));
  Alcotest.(check int)
    "net_msgs counter matches fabric accounting"
    (Cluster.total_messages c)
    (Obs.counter o "net_msgs")

(* Two nodes contend for lock 5 while a third lock stays local: the
   contention table names lock 5 from the lock.wait spans' argument,
   which has been through the LBCF encoder and decoder. *)
let test_contended_lock_id () =
  (* Costs make the waits take virtual time. *)
  let c = mk_cluster { whole_run with Config.charge_costs = true } 2 in
  script_writer c ~node:0 ~lock:5 ~commits:3;
  script_writer c ~node:1 ~lock:5 ~commits:3;
  script_writer c ~node:0 ~lock:2 ~commits:2;
  Cluster.run c;
  let d = dump_cluster c in
  Alcotest.(check (list string)) "self-check clean" [] (Explorer.self_check d);
  match Explorer.lock_contention (FD.merged d) with
  | [ row ] ->
      Alcotest.(check int) "contended lock id" 5 row.Explorer.lk_lock;
      Alcotest.(check bool) "queued acquisitions" true
        (row.Explorer.lk_waits > 0);
      Alcotest.(check bool) "time spent waiting" true
        (row.Explorer.lk_total_ns > 0)
  | rows ->
      Alcotest.failf "want one contended lock, got [%s]"
        (String.concat "; "
           (List.map (fun r -> string_of_int r.Explorer.lk_lock) rows))

(* With the default ring size the cluster still carries the flight
   sink: rings and the metric registry stay live. *)
let test_untraced_cluster_keeps_flight () =
  let c = mk_cluster Config.default 2 in
  script_writer c ~node:0 ~lock:0 ~commits:2;
  Cluster.run c;
  let o = Cluster.obs c in
  Alcotest.(check bool) "sink live" true (Obs.enabled o);
  (* The registry feeds Report and the wall-clock bench percentiles. *)
  Alcotest.(check int)
    "net_msgs counter matches fabric accounting"
    (Cluster.total_messages c)
    (Obs.counter o "net_msgs");
  Alcotest.(check bool)
    "commit_us histogram live" true
    (Obs.hist o "commit_us" <> None);
  (* Both nodes' rings saw events (node 0 commits, node 1 applies). *)
  let stats = Obs.ring_stats o in
  Alcotest.(check int) "one ring per node" 2 (Array.length stats);
  Array.iteri
    (fun i (recorded, dropped, bytes) ->
      if recorded <= 0 then Alcotest.failf "ring %d recorded nothing" i;
      if dropped <> 0 then Alcotest.failf "ring %d dropped %d" i dropped;
      if bytes <= 0 then Alcotest.failf "ring %d used no bytes" i)
    stats

(* Opting out of the flight recorder too restores the shared disabled
   sink, and dump_flight refuses. *)
let test_flightless_cluster_is_silent () =
  let c = mk_cluster { Config.default with Config.flight = false } 2 in
  script_writer c ~node:0 ~lock:0 ~commits:2;
  Cluster.run c;
  let o = Cluster.obs c in
  Alcotest.(check bool) "not enabled" false (Obs.enabled o);
  Alcotest.(check bool) "disabled singleton" true (o == Obs.disabled);
  Alcotest.(check int) "no counters" 0 (Obs.counter o "net_msgs");
  Alcotest.(check bool) "no histograms" true (Obs.hists o = []);
  Alcotest.(check bool)
    "dump_flight refuses" true
    (match Cluster.dump_flight c with
    | (_ : string) -> false
    | exception Invalid_argument _ -> true)

(* ----------------------------------------------------------------- *)
(* Flight recorder: ring wrap/drop properties, LBCF codec round-trip,
   and a cluster dump decoded back clean. *)

(* A replayable random event stream: kind, interned-name index, lane,
   timestamp increment, payload. *)
type op = {
  op_kind : int; (* 0 span, 1 instant, 2 count, 3 flow *)
  op_name : int;
  op_lane : int;
  op_dts : int;
  op_arg : int;
}

let names_pool = [| "commit"; "apply"; "wal.force"; "lock.wait"; "net.send" |]

let op_gen =
  let open QCheck.Gen in
  int_bound 3 >>= fun op_kind ->
  int_bound (Array.length names_pool - 1) >>= fun op_name ->
  int_bound 5 >>= fun op_lane ->
  int_bound 5_000 >>= fun op_dts ->
  int_bound 100_000 >>= fun op_arg ->
  return { op_kind; op_name; op_lane; op_dts; op_arg }

let op_print o =
  Printf.sprintf "{k=%d n=%d l=%d dt=%d a=%d}" o.op_kind o.op_name o.op_lane
    o.op_dts o.op_arg

let ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map op_print ops))
    QCheck.Gen.(list_size (int_range 0 300) op_gen)

(* Replay ops into a ring; returns the absolute timestamps used. *)
let record_ops r ops =
  let ts = ref 0 in
  List.map
    (fun op ->
      ts := !ts + op.op_dts;
      let name = names_pool.(op.op_name) in
      (match op.op_kind with
      | 0 ->
          Flight.record_span r ~ts_ns:!ts ~name ~lane:op.op_lane
            ~dur_ns:op.op_arg ~arg:(op.op_arg - 50_000)
      | 1 ->
          Flight.record_instant r ~ts_ns:!ts ~name ~lane:op.op_lane
            ~arg:(op.op_arg - 50_000)
      | 2 ->
          Flight.record_count r ~ts_ns:!ts ~name ~delta:(op.op_arg - 50_000)
      | _ ->
          Flight.record_flow r ~ts_ns:!ts ~head:(op.op_arg land 1 = 1)
            ~id:op.op_arg ~lane:op.op_lane);
      !ts)
    ops

let dump_of_ring r =
  let s =
    FD.encode ~clock:"virtual-us" ~dumped_at_ns:(Flight.last_ts_ns r)
      [| (0, r) |]
  in
  match FD.of_string s with
  | Error e -> Alcotest.failf "LBCF decode failed: %s" e
  | Ok d -> d

(* Any stream into a minimum-size ring: whole-record eviction keeps the
   books balanced and the surviving suffix decodable and monotone. *)
let qcheck_ring_wrap =
  QCheck.Test.make ~name:"flight ring wrap: drop accounting + self-check"
    ~count:200 ops_arb (fun ops ->
      let r = Flight.create ~cap_bytes:256 () in
      ignore (record_ops r ops : int list);
      let d = dump_of_ring r in
      let ring = d.FD.d_rings.(0) in
      Flight.recorded r = List.length ops
      && FD.self_check d = []
      && Array.length ring.FD.r_events
         = Flight.recorded r - Flight.dropped r
      && (ops = [] || Flight.dropped r > 0 || Flight.bytes_used r <= 256))

(* A ring big enough never to wrap round-trips every event exactly:
   kind, name, lane, absolute timestamp, duration and payload all
   survive the varint codec. *)
let qcheck_ring_roundtrip =
  QCheck.Test.make ~name:"flight codec round-trip (no wrap)" ~count:200
    ops_arb (fun ops ->
      let r = Flight.create ~cap_bytes:(1 lsl 20) () in
      let times = record_ops r ops in
      let d = dump_of_ring r in
      let ring = d.FD.d_rings.(0) in
      let expect =
        List.map2
          (fun op ts ->
            match op.op_kind with
            | 0 ->
                ( FD.Span, names_pool.(op.op_name), op.op_lane, ts, op.op_arg,
                  op.op_arg - 50_000 )
            | 1 ->
                ( FD.Instant, names_pool.(op.op_name), op.op_lane, ts, 0,
                  op.op_arg - 50_000 )
            | 2 ->
                (FD.Count, names_pool.(op.op_name), 0, ts, 0, op.op_arg - 50_000)
            | _ ->
                ( (if op.op_arg land 1 = 1 then FD.Flow_end else FD.Flow_start),
                  "", op.op_lane, ts, 0, op.op_arg ))
          ops times
      in
      let got =
        Array.to_list
          (Array.map
             (fun (e : FD.event) ->
               ( e.FD.ev_kind, e.FD.ev_name, e.FD.ev_lane, e.FD.ev_ts_ns,
                 e.FD.ev_dur_ns, e.FD.ev_arg ))
             ring.FD.r_events)
      in
      Flight.dropped r = 0 && FD.self_check d = [] && got = expect)

(* Deterministic overwrite check: flood a minimum ring and require the
   survivors to be exactly the newest suffix. *)
let test_flight_newest_survive () =
  let r = Flight.create ~cap_bytes:256 () in
  for i = 1 to 1000 do
    Flight.record_instant r ~ts_ns:(i * 10) ~name:"tick" ~lane:0 ~arg:i
  done;
  Alcotest.(check int) "all recorded" 1000 (Flight.recorded r);
  Alcotest.(check bool) "wrapped" true (Flight.dropped r > 0);
  let d = dump_of_ring r in
  Alcotest.(check (list string)) "self-check clean" [] (FD.self_check d);
  let evs = d.FD.d_rings.(0).FD.r_events in
  let n = Array.length evs in
  Alcotest.(check int) "survivors" (1000 - Flight.dropped r) n;
  (* Newest event anchors at last_ts_ns; the suffix is contiguous. *)
  Alcotest.(check int) "anchor" 10_000 evs.(n - 1).FD.ev_ts_ns;
  Array.iteri
    (fun i ev ->
      let want = (1000 - n + 1 + i) * 10 in
      if ev.FD.ev_ts_ns <> want then
        Alcotest.failf "survivor %d at ts %d, want %d" i ev.FD.ev_ts_ns want)
    evs

(* Out-of-order timestamps are clamped monotone, never rejected. *)
let test_flight_monotone_clamp () =
  let r = Flight.create () in
  Flight.record_instant r ~ts_ns:100 ~name:"a" ~lane:0 ~arg:0;
  Flight.record_instant r ~ts_ns:50 ~name:"b" ~lane:0 ~arg:0;
  Flight.record_instant r ~ts_ns:120 ~name:"c" ~lane:0 ~arg:0;
  let d = dump_of_ring r in
  Alcotest.(check (list string)) "self-check clean" [] (FD.self_check d);
  let ts =
    Array.to_list
      (Array.map (fun e -> e.FD.ev_ts_ns) d.FD.d_rings.(0).FD.r_events)
  in
  Alcotest.(check (list int)) "clamped" [ 100; 100; 120 ] ts

(* A garbage file and a truncated dump both fail loudly. *)
let test_flight_decode_rejects () =
  (match FD.of_string "not a flight dump" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad magic accepted");
  let r = Flight.create () in
  Flight.record_instant r ~ts_ns:10 ~name:"x" ~lane:0 ~arg:0;
  let s = FD.encode ~clock:"virtual-us" ~dumped_at_ns:10 [| (0, r) |] in
  match FD.of_string (String.sub s 0 (String.length s - 3)) with
  | Error _ -> ()
  | Ok d ->
      (* A truncated body may still parse the header; then the ring
         must carry decode errors that fail the self-check. *)
      if FD.self_check d = [] then
        Alcotest.fail "truncated dump passed self-check"

(* Hostile LBCF input: bit-flipped, truncated and length-inflated
   variants of real dumps decode to [Ok] or [Error], never an
   exception, and allocate in proportion to their size — a length or
   count is checked against the bytes left before anything is
   allocated from it.  Decodable variants must also survive the
   self-checks and the Perfetto renderer. *)

let real_dumps =
  lazy
    (let c = mk_cluster whole_run 3 in
     script_writer c ~node:0 ~lock:0 ~commits:4;
     script_writer c ~node:1 ~lock:0 ~commits:3;
     script_writer c ~node:2 ~lock:2 ~commits:2;
     Cluster.run c;
     let cluster =
       FD.encode ~clock:"virtual-us" ~dumped_at_ns:(1 lsl 40)
         (Array.mapi (fun i r -> (i, r)) (Obs.rings (Cluster.obs c)))
     in
     (* A wrapped minimum ring: drops, and a body that starts mid-run. *)
     let r = Flight.create ~cap_bytes:256 () in
     for i = 1 to 200 do
       Flight.record_span r ~ts_ns:(i * 1000) ~name:"apply" ~lane:1 ~dur_ns:500
         ~arg:i
     done;
     let wrapped =
       FD.encode ~clock:"wall-us" ~dumped_at_ns:200_000 [| (0, r) |]
     in
     [| cluster; wrapped |])

type mutation =
  | Flip of int list  (* bit offsets, modulo the dump's bit length *)
  | Truncate of int  (* new length, modulo the dump's length *)
  | Inflate of int * int
      (* the byte at this offset becomes this value's 1–9 byte varint *)

let mutation_print (base, m) =
  match m with
  | Flip bits ->
      Printf.sprintf "dump %d, flip bits [%s]" base
        (String.concat ";" (List.map string_of_int bits))
  | Truncate n -> Printf.sprintf "dump %d, truncate to %d" base n
  | Inflate (pos, v) ->
      Printf.sprintf "dump %d, inflate byte %d to %d" base pos v

let mutation_arb =
  let open QCheck.Gen in
  (* Counts and lengths sit near the front of a ring header; favour
     those offsets, and values from small to negative. *)
  let pos = oneof [ int_bound 31; nat ] in
  let value =
    int_range 7 62 >>= fun k ->
    int_bound 1_000 >>= fun r ->
    oneofl [ (1 lsl k) + r; -((1 lsl k) + r) ]
  in
  QCheck.make ~print:mutation_print
    (pair (int_bound 1)
       (oneof
          [ map (fun bits -> Flip bits) (list_size (int_range 1 4) nat);
            map (fun n -> Truncate n) nat;
            map2 (fun p v -> Inflate (p, v)) pos value ]))

let varint v =
  let b = Buffer.create 9 and v = ref v in
  while !v land lnot 0x7f <> 0 do
    Buffer.add_char b (Char.chr (!v land 0x7f lor 0x80));
    v := !v lsr 7
  done;
  Buffer.add_char b (Char.chr !v);
  Buffer.contents b

let mutate s = function
  | Flip bits ->
      let b = Bytes.of_string s in
      List.iter
        (fun bit ->
          let i = bit / 8 mod Bytes.length b in
          Bytes.set b i
            (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8)))))
        bits;
      Bytes.to_string b
  | Truncate n -> String.sub s 0 (n mod String.length s)
  | Inflate (pos, v) ->
      let p = pos mod String.length s in
      String.sub s 0 p ^ varint v
      ^ String.sub s (p + 1) (String.length s - p - 1)

let qcheck_lbcf_hostile =
  QCheck.Test.make ~name:"LBCF decoder under hostile input" ~count:10_000
    mutation_arb (fun (base, m) ->
      let input = mutate (Lazy.force real_dumps).(base) m in
      (* Start from an empty minor heap: a minor collection inside the
         measured call inflates OCaml 5.1's word counts. *)
      Gc.minor ();
      let before = Gc.allocated_bytes () in
      let decoded =
        match FD.of_string input with
        | r -> r
        | exception e ->
            QCheck.Test.fail_reportf "of_string raised %s"
              (Printexc.to_string e)
      in
      let allocated = Gc.allocated_bytes () -. before in
      let bound = float_of_int ((256 * String.length input) + 65_536) in
      if allocated > bound then
        QCheck.Test.fail_reportf
          "%d-byte input allocated %.0f bytes (bound %.0f)"
          (String.length input) allocated bound;
      (match decoded with
      | Error _ -> ()
      | Ok d ->
          ignore (Explorer.self_check d : string list);
          ignore (FD.render_chrome d : string);
          let events = FD.merged d in
          ignore (Explorer.stage_breakdown events : Explorer.stage_stats list);
          ignore (Explorer.lock_contention events : Explorer.lock_stats list);
          ignore (Explorer.critical_path events));
      true)

(* An untraced cluster run dumps a decodable, self-check-clean flight
   file with events for every node — the instrumented path end to end. *)
let test_cluster_flight_dump () =
  let nodes = 3 in
  let c = mk_cluster Config.default nodes in
  script_writer c ~node:0 ~lock:0 ~commits:4;
  script_writer c ~node:1 ~lock:1 ~commits:3;
  script_writer c ~node:2 ~lock:2 ~commits:2;
  Cluster.run c;
  let path = Filename.temp_file "lbc-flight" ".bin" in
  let written = Cluster.dump_flight ~path c in
  Alcotest.(check string) "dump path" path written;
  Alcotest.(check bool) "last_flight set" true (Cluster.last_flight c = Some path);
  Alcotest.(check bool) "magic detected" true (FD.is_flight_file path);
  (match FD.read path with
  | Error e -> Alcotest.failf "read failed: %s" e
  | Ok d ->
      Alcotest.(check (list string)) "self-check clean" [] (FD.self_check d);
      Alcotest.(check string) "sim clock" "virtual-us" d.FD.d_clock;
      Alcotest.(check int) "one ring per node" nodes
        (Array.length d.FD.d_rings);
      Array.iter
        (fun ring ->
          if Array.length ring.FD.r_events = 0 then
            Alcotest.failf "ring %d has no events" ring.FD.r_id)
        d.FD.d_rings;
      (* The merged stream is globally monotone. *)
      let merged = FD.merged d in
      Array.iteri
        (fun i ev ->
          if i > 0 && ev.FD.ev_ts_ns < merged.(i - 1).FD.ev_ts_ns then
            Alcotest.failf "merged stream steps backwards at %d" i)
        merged;
      (* And it renders to parseable Chrome-trace JSON. *)
      match Json.parse (FD.render_chrome d) with
      | Error e -> Alcotest.failf "render_chrome not JSON: %s" e
      | Ok _ -> ());
  Sys.remove path

(* ----------------------------------------------------------------- *)
(* Golden-style rendering of Report.pp_cluster *)

let test_report_golden () =
  let config = { Config.default with Config.group_commit = true } in
  let nodes = 3 in
  let c = mk_cluster config nodes in
  script_writer c ~node:0 ~lock:0 ~commits:2;
  script_writer c ~node:1 ~lock:1 ~commits:1;
  Cluster.spawn c ~node:0 (fun nd ->
      let txn = Node.Txn.begin_ nd in
      Node.Txn.acquire txn 2;
      Node.Txn.abort txn);
  Cluster.run c;
  let rendered = Format.asprintf "%a" Report.pp_cluster c in
  let expect what sub =
    if not (contains rendered sub) then
      Alcotest.failf "%s: %S not found in:\n%s" what sub rendered
  in
  expect "header" "cluster: 3 nodes";
  expect "copy counters" "data path:";
  expect "copy counters" "encode arenas";
  expect "node 0 stats" "node 0: 2 commits (1 aborts)";
  expect "node 1 stats" "node 1: 1 commits (0 aborts)";
  expect "group commit" "group commit:";
  expect "batches" "batches";
  expect "flight line" "obs: flight";
  expect "flight accounting" "(rec/drop/bytes)";
  if contains rendered "blocked:" then
    Alcotest.fail "quiescent cluster must not report blocked processes"

(* A stranded process must surface in the blocked list. *)
let test_report_blocked_list () =
  let c = mk_cluster Config.default 2 in
  Lbc_net.Fabric.set_drop (Cluster.fabric c) ~src:0 ~dst:1 true;
  Cluster.spawn c ~node:0 (fun nd ->
      let txn = Node.Txn.begin_ nd in
      Node.Txn.acquire txn 0;
      Node.Txn.set_u64 txn ~region:0 ~offset:0 7L;
      Node.Txn.commit txn);
  Cluster.spawn c ~node:1 (fun nd ->
      Lbc_sim.Proc.sleep 50.0;
      let txn = Node.Txn.begin_ nd in
      Node.Txn.acquire txn 0;
      (* unreachable: the update was dropped and nothing repairs it *)
      Node.Txn.commit txn);
  Cluster.run ~check_stranded:false c;
  let rendered = Format.asprintf "%a" Report.pp_cluster c in
  Alcotest.(check bool)
    "blocked list rendered" true
    (contains rendered "blocked:")

let suites =
  [
    ( "obs",
      [
        Alcotest.test_case "histogram basics" `Quick test_histogram_basics;
        Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
        Alcotest.test_case "json parse" `Quick test_json_parse;
        Alcotest.test_case "json rejects garbage" `Quick test_json_rejects;
        Alcotest.test_case "json escape" `Quick test_json_escape;
        Alcotest.test_case "disabled sink is a no-op" `Quick
          test_disabled_noop;
        Alcotest.test_case "spans and flows render" `Quick
          test_spans_flows_render;
        Alcotest.test_case "marks" `Quick test_marks;
        Alcotest.test_case "self-check catches bad traces" `Quick
          test_self_check_catches;
      ] );
    ( "obs-flight",
      [
        QCheck_alcotest.to_alcotest qcheck_ring_wrap;
        QCheck_alcotest.to_alcotest qcheck_ring_roundtrip;
        Alcotest.test_case "newest events survive wrap" `Quick
          test_flight_newest_survive;
        Alcotest.test_case "monotone timestamp clamp" `Quick
          test_flight_monotone_clamp;
        Alcotest.test_case "decoder rejects garbage" `Quick
          test_flight_decode_rejects;
        QCheck_alcotest.to_alcotest qcheck_lbcf_hostile;
        Alcotest.test_case "cluster dump decodes clean" `Quick
          test_cluster_flight_dump;
      ] );
    ( "obs-cluster",
      [
        Alcotest.test_case "traced run: self-check + report agreement"
          `Quick test_traced_cluster_run;
        Alcotest.test_case "contended lock id survives LBCF" `Quick
          test_contended_lock_id;
        Alcotest.test_case "untraced run keeps the flight sink" `Quick
          test_untraced_cluster_keeps_flight;
        Alcotest.test_case "flightless run collects nothing" `Quick
          test_flightless_cluster_is_silent;
        Alcotest.test_case "report golden rendering" `Quick
          test_report_golden;
        Alcotest.test_case "report blocked list" `Quick
          test_report_blocked_list;
      ] );
  ]
