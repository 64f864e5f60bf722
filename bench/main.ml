(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 4).

   Usage:
     bench/main.exe              regenerate everything
     bench/main.exe table2      (also: table3 fig1 fig2 fig3 fig4 fig5
                                 fig6 fig7 fig8 ablations macro validate
                                 json real flight-overhead)

   Absolute numbers come from the paper's cost model (Alpha 3000-400,
   OSF/1, AN1 — Table 2); host-measured numbers are labelled as such.
   EXPERIMENTS.md records paper-vs-measured for each experiment. *)

open Lbc_oo7
open Lbc_costmodel

let pr fmt = Format.printf fmt

let hr title =
  pr "@.=====================================================================@.";
  pr "%s@." title;
  pr "=====================================================================@."

(* ------------------------------------------------------------------ *)
(* Traversal profiles on the paper-scale database (cached; each run uses
   a fresh cluster, as each paper test ran on a fresh database). *)

let small = Schema.small

let profile_cache : (string, Runner.outcome) Hashtbl.t = Hashtbl.create 16

let outcome_for kind =
  let key = Traversal.name kind in
  match Hashtbl.find_opt profile_cache key with
  | Some o -> o
  | None ->
      let cluster = Runner.setup ~nodes:2 small in
      let o = Runner.run ~cluster ~writer:0 small kind in
      Hashtbl.add profile_cache key o;
      o

(* Paper's Table 3 (updates, bytes updated, message bytes, pages). *)
let table3_paper =
  [
    ("T12-A", (2_187, 4_000, 6_000, 500));
    ("T12-C", (8_748, 4_000, 6_000, 500));
    ("T2-A", (2_187, 4_000, 6_000, 500));
    ("T2-B", (43_740, 80_000, 120_000, 618));
    ("T2-C", (174_960, 80_000, 120_000, 618));
    ("T3-A", (16_924, 31_300, 39_000, 552));
    ("T3-B", (248_632, 114_650, 163_300, 667));
    ("T3-C", (1_502_708, 115_100, 163_800, 670));
  ]

(* ------------------------------------------------------------------ *)
(* Host micro-measurements (wall clock on this machine) *)

let time_ns f n =
  let t0 = Unix.gettimeofday () in
  f ();
  let t1 = Unix.gettimeofday () in
  (t1 -. t0) *. 1e9 /. float_of_int n

let measure_page_copy () =
  let src = Bytes.make 8192 'a' and dst = Bytes.make 8192 'b' in
  let n = 20_000 in
  time_ns (fun () -> for _ = 1 to n do Bytes.blit src 0 dst 0 8192 done) n

let measure_page_compare () =
  let a = Bytes.make 8192 'a' and b = Bytes.make 8192 'a' in
  let n = 20_000 in
  let sink = ref true in
  let ns = time_ns (fun () -> for _ = 1 to n do sink := Bytes.equal a b done) n in
  ignore !sink;
  ns

(* Host ns per call of a transaction of [n] set_range calls in the given
   pattern: the median of [set_range_reps] transactions on one region,
   since a single transaction's time swings with the host's phase. *)
type pattern = Ordered | Unordered | Redundant

let set_range_reps = 5

let measure_set_range pattern n =
  let region_size = 16 * 1024 * 1024 in
  let rvm =
    Lbc_rvm.Rvm.init ~node:0 ~log_dev:(Lbc_storage.Dev.create ())
      ~options:{ Lbc_rvm.Rvm.default_options with Lbc_rvm.Rvm.disk_logging = false }
      ()
  in
  ignore
    (Lbc_rvm.Rvm.map_region rvm ~id:0 ~db:(Lbc_storage.Dev.create ())
       ~size:region_size);
  let offsets =
    match pattern with
    | Ordered -> Array.init n (fun i -> i * 16 mod (region_size - 16))
    | Unordered ->
        let a = Array.init n (fun i -> i * 16 mod (region_size - 16)) in
        Lbc_util.Rng.shuffle (Lbc_util.Rng.create 11) a;
        a
    | Redundant -> Array.make n 4096
  in
  let once () =
    let txn = Lbc_rvm.Rvm.begin_txn rvm in
    let t0 = Unix.gettimeofday () in
    Array.iter
      (fun offset -> Lbc_rvm.Rvm.set_range txn ~region:0 ~offset ~len:8)
      offsets;
    let t1 = Unix.gettimeofday () in
    ignore (Lbc_rvm.Rvm.commit txn);
    (t1 -. t0) *. 1e9 /. float_of_int n
  in
  let times = Array.init set_range_reps (fun _ -> once ()) in
  Array.sort Float.compare times;
  times.(set_range_reps / 2)

(* ------------------------------------------------------------------ *)
(* Table 2 *)

let table2 () =
  hr "Table 2: operation costs per 8 KB page (paper: Alpha/OSF-1/AN1)";
  pr "%-36s %10s %14s@." "operation" "paper (µs)" "host (ns, meas.)";
  let copy = measure_page_copy () and cmp = measure_page_compare () in
  pr "%-36s %10.1f %14.0f@." "page copy (cold cache)" Table2.page_copy_cold copy;
  pr "%-36s %10.1f %14s@." "page copy (warm cache)" Table2.page_copy_warm "-";
  pr "%-36s %10.1f %14.0f@." "page compare (cold cache)" Table2.page_compare_cold cmp;
  pr "%-36s %10.1f %14s@." "page compare (warm cache)" Table2.page_compare_warm "-";
  pr "%-36s %10.1f %14s@." "page send (TCP/IP)" Table2.page_send_tcp "simulated";
  pr "%-36s %10.1f %14s@." "handle signal + change protection"
    Table2.trap_and_protect "simulated";
  pr "@.Derived: raw TCP %.4f µs/B; calibrated small-transfer %.4f µs/B@."
    Table2.tcp_per_byte Table2.calibrated_per_byte

(* ------------------------------------------------------------------ *)
(* Table 3 *)

let table3 () =
  hr "Table 3: OO7 update-traversal characteristics (paper vs measured)";
  pr "%-7s | %21s | %21s | %21s | %17s@." "trav"
    "updates (paper/ours)" "bytes upd (p/o)" "message bytes (p/o)" "pages (p/o)";
  pr "--------+-----------------------+-----------------------+-----------------------+------------------@.";
  List.iter
    (fun kind ->
      let name = Traversal.name kind in
      let u, b, m, pg = List.assoc name table3_paper in
      let o = outcome_for kind in
      let p = o.Runner.profile in
      pr "%-7s | %9d / %9d | %9d / %9d | %9d / %9d | %7d / %7d@." name u
        p.Model.updates b p.Model.unique_bytes m p.Model.message_bytes pg
        p.Model.pages_updated)
    Traversal.table3_kinds

(* ------------------------------------------------------------------ *)
(* Figures 1-3: per-traversal overhead breakdown, Log vs Cpy/Cmp vs Page *)

let print_traversal_bars kinds =
  pr "%-7s %-8s %10s %10s %10s %10s %12s@." "trav" "proto" "detect" "collect"
    "network" "apply" "total (ms)";
  List.iter
    (fun kind ->
      let o = outcome_for kind in
      let p = o.Runner.profile in
      let rows =
        [
          ("Log", Model.log_phases p);
          ("Cpy/Cmp", Model.cpycmp_phases p);
          ("Page", Model.page_phases p);
        ]
      in
      List.iter
        (fun (proto, ph) ->
          let ms v = v /. 1000.0 in
          pr "%-7s %-8s %10.2f %10.2f %10.2f %10.2f %12.2f@."
            (Traversal.name kind) proto (ms ph.Phases.detect)
            (ms ph.Phases.collect) (ms ph.Phases.network) (ms ph.Phases.apply)
            (ms (Phases.total ph)))
        rows;
      pr "@.")
    kinds

let fig1 () =
  hr "Figure 1: sparse-update traversals T12-A, T12-C (overhead, ms)";
  print_traversal_bars [ Traversal.T12 Traversal.A; Traversal.T12 Traversal.C ]

let fig2 () =
  hr "Figure 2: full-update traversals T2-A/B/C and index traversal T3-A";
  print_traversal_bars
    [
      Traversal.T2 Traversal.A;
      Traversal.T2 Traversal.B;
      Traversal.T2 Traversal.C;
      Traversal.T3 Traversal.A;
    ]

let fig3 () =
  hr "Figure 3: index-update traversals T3-B, T3-C";
  print_traversal_bars [ Traversal.T3 Traversal.B; Traversal.T3 Traversal.C ]

(* ------------------------------------------------------------------ *)
(* Figure 4 *)

let fig4 () =
  hr "Figure 4: overhead vs modified bytes per page";
  List.iter
    (fun rate ->
      let rname = match rate with Curves.Raw -> "raw Table-2 rate" | Curves.Calibrated -> "calibrated rate" in
      pr "@.[%s: %.4f µs/B]@." rname (Curves.per_byte rate);
      pr "%-18s %10s %10s %10s@." "bytes/page" "Log (µs)" "Cpy/Cmp" "Page";
      List.iter
        (fun bytes ->
          pr "%-18d %10.1f %10.1f %10.1f@." bytes
            (Curves.fig4_log rate ~bytes)
            (Curves.fig4_cpycmp rate ~bytes)
            Curves.fig4_page)
        [ 0; 512; 1024; 2048; 3072; 4096; 5120; 6144; 7168; 8192 ];
      pr "Page beats Cpy/Cmp above %.0f modified bytes/page (paper: 1037)@."
        (Curves.page_vs_cpycmp_breakeven rate))
    [ Curves.Calibrated; Curves.Raw ]

(* ------------------------------------------------------------------ *)
(* Figures 5 and 6 *)

let fig56 ~big () =
  hr
    (if big then
       "Figure 6: per-update overhead up to 300,000 updates/transaction"
     else "Figure 5: per-update overhead vs updates per transaction");
  let counts =
    if big then [ 1_000; 10_000; 50_000; 100_000; 200_000; 300_000 ]
    else [ 100; 500; 1_000; 2_000; 3_000; 4_000; 5_000 ]
  in
  pr "%-12s | %9s %9s %9s | %11s %11s %11s@." "updates/txn" "unord(µs)"
    "ord(µs)" "redun(µs)" "unord(ns)" "ord(ns)" "redun(ns)";
  pr "%-12s | %29s | %35s@." "" "paper-calibrated model"
    (Printf.sprintf "host-measured, median of %d" set_range_reps);
  List.iter
    (fun n ->
      let model cls = Model.per_update_cost cls ~nth:n in
      let mu = measure_set_range Unordered n in
      let mo = measure_set_range Ordered n in
      let mr = measure_set_range Redundant n in
      pr "%-12d | %9.1f %9.1f %9.1f | %11.0f %11.0f %11.0f@." n
        (model Model.Unordered) (model Model.Ordered) (model Model.Redundant)
        mu mo mr)
    counts

(* ------------------------------------------------------------------ *)
(* Figure 7 *)

let fig7 () =
  hr "Figure 7: breakeven updates/page vs per-update cost";
  pr "%-22s %18s %22s@." "per-update cost (µs)" "OSF/1 trap (360µs)"
    "fast trap (10µs)";
  List.iter
    (fun c ->
      pr "%-22.1f %18.1f %22.1f@." c
        (Curves.fig7_standard ~per_update_cost:c)
        (Curves.fig7_fast_trap ~per_update_cost:c))
    [ 5.0; 7.5; 10.0; 12.5; 15.0; 18.1; 20.0; 25.0; 30.0 ];
  pr "@.Check (Section 4.3): at 1000 updates/txn the unordered cost is %.1f µs@."
    (Model.per_update_cost Model.Unordered ~nth:1000);
  pr "-> breakeven %.0f updates/page (paper: 45); ordered %.1f µs -> %.0f (paper: 55)@."
    (Curves.fig7_standard
       ~per_update_cost:(Model.per_update_cost Model.Unordered ~nth:1000))
    (Model.per_update_cost Model.Ordered ~nth:1000)
    (Curves.fig7_standard
       ~per_update_cost:(Model.per_update_cost Model.Ordered ~nth:1000))

(* ------------------------------------------------------------------ *)
(* Figure 8: coherency vs recoverability overheads for T12-A *)

let fig8 () =
  hr "Figure 8: T12-A — log-based coherency vs disk logging vs plain RVM";
  let o = outcome_for (Traversal.T12 Traversal.A) in
  let p = o.Runner.profile in
  let log_ph = Model.log_phases p in
  (* Disk variant: add the synchronous force of the on-disk log tail
     (104-byte RVM range headers). *)
  let disk_bytes =
    Lbc_wal.Record.encoded_size o.Runner.record
  in
  let with_disk =
    Phases.add log_ph (Phases.disk (Model.disk_force ~bytes:disk_bytes))
  in
  (* Plain RVM (no coherency): detection + collection only. *)
  let detect_only =
    Phases.add
      (Phases.detect log_ph.Phases.detect)
      (Phases.collect log_ph.Phases.collect)
  in
  (* Standard RVM: set_range without the exact-match optimization is ~5x
     more expensive per call (paper Section 3.1). *)
  let std_detect = 5.0 *. log_ph.Phases.detect in
  let standard_rvm =
    Phases.add (Phases.detect std_detect) (Phases.collect log_ph.Phases.collect)
  in
  let row name ph = pr "%-28s %a@." name Phases.pp_ms ph in
  row "log-based coherency" log_ph;
  row "log-based coherency (disk)" with_disk;
  row "optimized RVM (no coherency)" detect_only;
  row "standard RVM" standard_rvm;
  pr "@.(on-disk log tail for the disk variant: %d bytes incl. 104-byte headers)@."
    disk_bytes

(* ------------------------------------------------------------------ *)
(* End-to-end validation: the simulated Log run (costs charged as virtual
   time) should agree with the analytic Log phases. *)

let validate () =
  hr "Validation: simulated end-to-end T12-A vs analytic model";
  let cluster =
    Runner.setup ~config:Lbc_core.Config.measured ~nodes:2 small
  in
  let o = Runner.run ~cluster ~writer:0 small (Traversal.T12 Traversal.A) in
  let ph = Model.log_phases o.Runner.profile in
  pr "simulated elapsed (writer, virtual µs): %12.1f@." o.Runner.elapsed;
  pr "model total Log overhead:               %12.1f@." (Phases.total ph);
  pr "model w/o receiver apply:               %12.1f@."
    (Phases.total ph -. ph.Phases.apply);
  pr "(simulated elapsed excludes the receiver's apply, which overlaps)@."

(* ------------------------------------------------------------------ *)
(* Ablations (design choices called out in DESIGN.md) *)

let ablation_headers () =
  hr "Ablation: compressed wire headers vs RVM's 104-byte headers";
  pr "%-7s %16s %16s %8s@." "trav" "compressed (B)" "full headers (B)" "ratio";
  List.iter
    (fun kind ->
      let o = outcome_for kind in
      let c = Lbc_core.Wire.size o.Runner.record in
      let f = Lbc_core.Wire.size_uncompressed o.Runner.record in
      pr "%-7s %16d %16d %8.2f@." (Traversal.name kind) c f
        (float_of_int f /. float_of_int c))
    Traversal.table3_kinds

let ablation_lazy () =
  hr "Ablation: eager vs lazy propagation (paper Section 2.2)";
  (* Writer commits 20 transactions; the reader acquires once at the end.
     Eager sends every commit; lazy sends only what the reader needs. *)
  let run config =
    let c = Lbc_core.Cluster.create ~config ~nodes:2 () in
    Lbc_core.Cluster.add_region c ~id:0 ~size:65536;
    Lbc_core.Cluster.map_region_all c ~region:0;
    Lbc_core.Cluster.spawn c ~node:0 (fun node ->
        for i = 1 to 20 do
          let txn = Lbc_core.Node.Txn.begin_ node in
          Lbc_core.Node.Txn.acquire txn 0;
          Lbc_core.Node.Txn.set_u64 txn ~region:0 ~offset:(8 * i)
            (Int64.of_int i);
          Lbc_core.Node.Txn.commit txn
        done);
    Lbc_core.Cluster.spawn c ~node:1 (fun node ->
        Lbc_sim.Proc.sleep 1_000_000.0;
        let txn = Lbc_core.Node.Txn.begin_ node in
        Lbc_core.Node.Txn.acquire txn 0;
        Lbc_core.Node.Txn.commit txn);
    Lbc_core.Cluster.run c;
    ( Lbc_core.Cluster.total_messages c,
      Lbc_core.Cluster.total_bytes c,
      Lbc_core.Node.get_u64 (Lbc_core.Cluster.node c 1) ~region:0 ~offset:160 )
  in
  let em, eb, ev = run Lbc_core.Config.default in
  let lm, lb, lv =
    run { Lbc_core.Config.default with Lbc_core.Config.propagation = Lbc_core.Config.Lazy }
  in
  pr "eager: %3d messages, %6d bytes (reader sees %Ld)@." em eb ev;
  pr "lazy : %3d messages, %6d bytes (reader sees %Ld)@." lm lb lv;
  pr "(lazy batches 20 commits into one fetch round-trip)@."

let ablation_adaptive () =
  hr "Ablation: adaptive hybrid protocol choice (paper Section 6)";
  let a = Lbc_dsm.Adaptive.create () in
  pr "breakeven density: %.1f updates/page@." (Lbc_dsm.Adaptive.breakeven a);
  List.iter
    (fun kind ->
      let o = outcome_for kind in
      let p = o.Runner.profile in
      Lbc_dsm.Adaptive.observe a ~lock:0 ~updates:p.Model.updates
        ~pages:p.Model.pages_updated;
      let choice = Lbc_dsm.Adaptive.choose a ~lock:0 in
      let log_t = Phases.total (Model.log_phases p) in
      let cc_t = Phases.total (Model.cpycmp_phases p) in
      pr "%-7s density %8.1f -> %-8s (Log %9.1f ms, Cpy/Cmp %9.1f ms; best: %s)@."
        (Traversal.name kind)
        (float_of_int p.Model.updates /. float_of_int (max 1 p.Model.pages_updated))
        (Lbc_dsm.Backend.kind_name choice)
        (log_t /. 1000.) (cc_t /. 1000.)
        (if log_t <= cc_t then "Log" else "Cpy/Cmp"))
    Traversal.table3_kinds

let ablation_scaling () =
  hr "Ablation: writer network I/O vs number of peer nodes (Section 4.3.1)";
  let p = (outcome_for (Traversal.T12 Traversal.A)).Runner.profile in
  pr "%-7s %18s %18s@." "peers" "unicast (ms)" "multicast (ms)";
  List.iter
    (fun peers ->
      pr "%-7d %18.2f %18.2f@." peers
        (Model.network_log ~message_bytes:p.Model.message_bytes ~peers /. 1000.)
        (Model.network_log ~message_bytes:p.Model.message_bytes ~peers:1 /. 1000.))
    [ 1; 2; 4; 8; 16; 32; 64 ];
  pr "(the paper: \"network I/O overhead of the writer increases linearly@.";
  pr " with the number of peer nodes ... systems with a very large number@.";
  pr " of clients will perform better with multicast hardware or lazy@.";
  pr " coherency\" — both are implemented; see core.multicast / core.lazy)@."

let ablation_nvram () =
  hr "Ablation: commit-path log force — disk vs NVRAM (Hagmann 1986)";
  let o = outcome_for (Traversal.T12 Traversal.A) in
  let bytes = Lbc_wal.Record.encoded_size o.Runner.record in
  let force (l : Lbc_storage.Latency.t) =
    l.Lbc_storage.Latency.sync_base
    +. (l.Lbc_storage.Latency.sync_per_byte *. float_of_int bytes)
  in
  pr "T12-A log tail: %d bytes@." bytes;
  pr "%-28s %12.2f ms@." "synchronous disk force"
    (force Lbc_storage.Latency.osdi94_disk /. 1000.);
  pr "%-28s %12.4f ms@." "battery-backed RAM force"
    (force Lbc_storage.Latency.nvram /. 1000.);
  pr "%-28s %12.2f ms@." "whole coherency overhead"
    (Phases.total (Model.log_phases o.Runner.profile) /. 1000.);
  pr "(NVRAM removes the synchronous write from the commit critical path,@.";
  pr " which is why the paper measures with disk logging disabled)@."

let ablations () =
  ablation_headers ();
  ablation_lazy ();
  ablation_adaptive ();
  ablation_scaling ();
  ablation_nvram ()

(* ------------------------------------------------------------------ *)
(* Macro benchmark: a multi-node collaborative-editing workload compared
   across propagation policies (not in the paper; exercises the whole
   stack under contention with the paper's cost model). *)

let macro () =
  hr "Macro: 4-node collaborative workload across propagation policies";
  let nodes = 4 and region = 0 and locks = 8 and txns_per_node = 50 in
  let region_size = 256 * 1024 in
  let run name config =
    let c = Lbc_core.Cluster.create ~config ~nodes () in
    Lbc_core.Cluster.add_region c ~id:region ~size:region_size;
    Lbc_core.Cluster.map_region_all c ~region;
    let rng = Lbc_util.Rng.create 42 in
    for n = 0 to nodes - 1 do
      let rng = Lbc_util.Rng.split rng in
      Lbc_core.Cluster.spawn c ~node:n (fun node ->
          for _ = 1 to txns_per_node do
            (* 75% home segment, 25% anywhere: mostly-private sharing. *)
            let lock =
              if Lbc_util.Rng.int rng 4 > 0 then n * (locks / nodes)
              else Lbc_util.Rng.int rng locks
            in
            let txn = Lbc_core.Node.Txn.begin_ node in
            Lbc_core.Node.Txn.acquire txn lock;
            let span = region_size / locks in
            for _ = 1 to 4 do
              let offset =
                (lock * span) + (8 * Lbc_util.Rng.int rng (span / 8))
              in
              Lbc_core.Node.Txn.set_u64 txn ~region ~offset
                (Lbc_util.Rng.int64 rng)
            done;
            Lbc_core.Node.Txn.commit txn;
            Lbc_sim.Proc.sleep (Lbc_util.Rng.float rng 500.0)
          done)
    done;
    Lbc_core.Cluster.run c;
    (* Convergence: lazy needs a final pull. *)
    (if config.Lbc_core.Config.propagation = Lbc_core.Config.Lazy then begin
       for n = 0 to nodes - 1 do
         Lbc_core.Cluster.spawn c ~node:n (fun node ->
             let txn = Lbc_core.Node.Txn.begin_ node in
             for l = 0 to locks - 1 do
               Lbc_core.Node.Txn.acquire txn l
             done;
             Lbc_core.Node.Txn.commit txn)
       done;
       Lbc_core.Cluster.run c
     end);
    let image n =
      Lbc_core.Node.read (Lbc_core.Cluster.node c n) ~region ~offset:0
        ~len:region_size
    in
    for n = 1 to nodes - 1 do
      assert (Bytes.equal (image 0) (image n))
    done;
    pr "%-22s %10.1f ms %8d msgs %10d bytes@." name
      (Lbc_core.Cluster.now c /. 1000.0)
      (Lbc_core.Cluster.total_messages c)
      (Lbc_core.Cluster.total_bytes c)
  in
  pr "%-22s %13s %13s %15s@." "policy" "virtual time" "messages" "wire bytes";
  let measured = { Lbc_core.Config.measured with Lbc_core.Config.disk_logging = false } in
  run "eager" measured;
  run "eager + multicast" { measured with Lbc_core.Config.multicast = true };
  run "lazy (+final pulls)"
    { measured with Lbc_core.Config.propagation = Lbc_core.Config.Lazy };
  run "eager + disk logging"
    { measured with Lbc_core.Config.disk_logging = true };
  pr "(200 transactions of 4 sparse 8-byte updates; 25%% cross-segment)@."

(* ------------------------------------------------------------------ *)
(* Recovery benchmark: serial vs partitioned replay of a merged log over
   a home-segment workload (one lock/region per node, so the closure
   splits into one partition per node), plus a charged checkpoint of the
   same logs.  Feeds the "recovery" block of the JSON output below. *)

type recovery_bench = {
  rb_nodes : int;
  rb_records : int;
  rb_partitions : int;
  rb_serial_us : float;
  rb_partitioned_us : float;
  rb_identical : bool;
  rb_ckpt_records : int;
  rb_ckpt_us : float;
}

let recovery_bench () =
  let nodes = 8 and txns_per_node = 25 in
  let region_size = 64 * 1024 in
  let config =
    { Lbc_core.Config.default with Lbc_core.Config.charge_costs = true }
  in
  let c = Lbc_core.Cluster.create ~config ~nodes () in
  for r = 0 to nodes - 1 do
    Lbc_core.Cluster.add_region c ~id:r ~size:region_size;
    Lbc_core.Cluster.map_region_all c ~region:r
  done;
  let rng = Lbc_util.Rng.create 77 in
  for n = 0 to nodes - 1 do
    let rng = Lbc_util.Rng.split rng in
    Lbc_core.Cluster.spawn c ~node:n (fun node ->
        for _ = 1 to txns_per_node do
          let txn = Lbc_core.Node.Txn.begin_ node in
          Lbc_core.Node.Txn.acquire txn n;
          Lbc_core.Node.Txn.set_u64 txn ~region:n
            ~offset:(8 * Lbc_util.Rng.int rng (region_size / 8))
            (Lbc_util.Rng.int64 rng);
          Lbc_core.Node.Txn.commit txn;
          Lbc_sim.Proc.sleep (Lbc_util.Rng.float rng 20.0)
        done)
  done;
  Lbc_core.Cluster.run c;
  let images () =
    List.init nodes (fun r ->
        Lbc_storage.Dev.stable_snapshot (Lbc_core.Cluster.region_dev c r))
  in
  let outcome_s, serial_us =
    Lbc_core.Cluster.timed_recovery c ~mode:Lbc_core.Cluster.Serial
  in
  let serial_images = images () in
  let _, partitioned_us =
    Lbc_core.Cluster.timed_recovery c ~mode:Lbc_core.Cluster.Partitioned
  in
  let identical = List.for_all2 Bytes.equal serial_images (images ()) in
  let partitions =
    match Lbc_core.Cluster.merged_records c with
    | Ok records -> List.length (Lbc_core.Merge.partition records)
    | Error _ -> 0
  in
  (* The checkpoint in a sim process, so its device writes are charged. *)
  let ckpt_records = ref 0 and ckpt_us = ref 0.0 in
  Lbc_sim.Proc.spawn (Lbc_core.Cluster.engine c) ~name:"checkpoint" (fun () ->
      let t0 = Lbc_sim.Proc.now () in
      ckpt_records := Lbc_core.Cluster.checkpoint c;
      ckpt_us := Lbc_sim.Proc.now () -. t0);
  Lbc_core.Cluster.run c;
  {
    rb_nodes = nodes;
    rb_records = outcome_s.Lbc_rvm.Recovery.records_replayed;
    rb_partitions = partitions;
    rb_serial_us = serial_us;
    rb_partitioned_us = partitioned_us;
    rb_identical = identical;
    rb_ckpt_records = !ckpt_records;
    rb_ckpt_us = !ckpt_us;
  }

(* ------------------------------------------------------------------ *)
(* On-demand restart benchmark: a node whose log holds one small
   "measured" chain (lock/region 0, fixed size) plus bulk chains whose
   length scales with [scale] crashes and rejoins.  The first commit
   after rejoin touches only the measured chain, so
   time_to_first_commit_us should stay nearly flat as the bulk grows —
   the full drain is what pays for the extra log. *)

type ondemand_row = {
  od_scale : int;
  od_log_records : int;
  od_ttfc_us : float;
  od_drain_us : float;
}

let ondemand_bench ~scale () =
  let nodes = 2 and regions = 8 in
  let region_size = 8 * 1024 in
  let config =
    { Lbc_core.Config.default with Lbc_core.Config.charge_costs = true }
  in
  let c = Lbc_core.Cluster.create ~config ~nodes () in
  for r = 0 to regions - 1 do
    Lbc_core.Cluster.add_region c ~id:r ~size:region_size;
    Lbc_core.Cluster.map_region_all c ~region:r
  done;
  let rng = Lbc_util.Rng.create 99 in
  Lbc_core.Cluster.spawn c ~node:0 (fun node ->
      let commit_on r =
        let txn = Lbc_core.Node.Txn.begin_ node in
        Lbc_core.Node.Txn.acquire txn r;
        Lbc_core.Node.Txn.set_u64 txn ~region:r
          ~offset:(8 * Lbc_util.Rng.int rng (region_size / 8))
          (Lbc_util.Rng.int64 rng);
        Lbc_core.Node.Txn.commit txn
      in
      (* The measured chain: fixed length at every scale. *)
      for _ = 1 to 20 do
        commit_on 0
      done;
      (* The bulk: grows with [scale]. *)
      for r = 1 to regions - 1 do
        for _ = 1 to 25 * scale do
          commit_on r
        done
      done);
  Lbc_core.Cluster.run c;
  let log_records =
    Lbc_wal.Log.record_count
      (Lbc_rvm.Rvm.log (Lbc_core.Node.rvm (Lbc_core.Cluster.node c 0)))
  in
  Lbc_core.Cluster.crash c ~node:0;
  let t_rejoin = ref 0.0 in
  Lbc_sim.Proc.spawn
    (Lbc_core.Cluster.engine c)
    ~name:"bench-controller"
    (fun () ->
      let rec rejoin_when_lease_expires () =
        match Lbc_core.Cluster.rejoin c ~node:0 with
        | () -> ()
        | exception Invalid_argument _ ->
            Lbc_sim.Proc.sleep 50.0;
            rejoin_when_lease_expires ()
      in
      rejoin_when_lease_expires ();
      t_rejoin := Lbc_core.Cluster.now c;
      (* First touch: a commit on the measured lock, which only needs
         that one chain warm. *)
      Lbc_core.Cluster.spawn c ~node:0 (fun node ->
          let txn = Lbc_core.Node.Txn.begin_ node in
          Lbc_core.Node.Txn.acquire txn 0;
          Lbc_core.Node.Txn.set_u64 txn ~region:0 ~offset:0
            (Lbc_util.Rng.int64 rng);
          Lbc_core.Node.Txn.commit txn));
  Lbc_core.Cluster.run c;
  let ttfc =
    match
      Lbc_obs.Obs.hist (Lbc_core.Cluster.obs c) "time_to_first_commit_us"
    with
    | Some h -> Lbc_obs.Obs.Histogram.max_value h
    | None -> Float.nan
  in
  {
    od_scale = scale;
    od_log_records = log_records;
    od_ttfc_us = ttfc;
    od_drain_us = Lbc_core.Cluster.now c -. !t_rejoin;
  }

(* ------------------------------------------------------------------ *)
(* Adaptive-logging benchmark: each write-heavy Table-3 traversal runs
   once under Value and once under Adaptive encoding.  Rows feed the
   "adaptive" block of the JSON output: wire-byte and logged-record
   deltas, recovery-time deltas, and recovered-image identity across
   all three replay modes (the command re-execution must land on the
   bytes the value log would have installed). *)

type adaptive_row = {
  ad_name : string;
  ad_cmd_chosen : bool;
  ad_value_wire : int;
  ad_adaptive_wire : int;
  ad_value_record : int;
  ad_adaptive_record : int;
  ad_value_serial_us : float;
  ad_serial_us : float;
  ad_partitioned_us : float;
  ad_ondemand_us : float;
  ad_identical : bool;
}

let adaptive_kinds =
  [
    Traversal.T2 Traversal.A;
    Traversal.T2 Traversal.C;
    Traversal.T3 Traversal.B;
    Traversal.T3 Traversal.C;
  ]

let adaptive_bench_one kind =
  (* Each (encoding, replay-mode) pair gets a fresh cluster: the build
     and the traversal are deterministic, so the recovered images are
     comparable across runs. *)
  let run log_mode mode =
    let config =
      {
        Lbc_core.Config.default with
        Lbc_core.Config.log_mode;
        charge_costs = true;
      }
    in
    let cluster = Runner.setup ~config ~nodes:2 small in
    let o = Runner.run ~cluster ~writer:0 small kind in
    let wire = Lbc_core.Cluster.total_bytes cluster in
    let _, us = Lbc_core.Cluster.timed_recovery cluster ~mode in
    let img =
      match
        Lbc_storage.Store.find (Lbc_core.Cluster.store cluster) "region.0"
      with
      | Some dev -> Lbc_storage.Dev.stable_snapshot dev
      | None -> Bytes.create 0
    in
    (o, wire, us, img)
  in
  let o_v, wire_v, us_v, img_v =
    run Lbc_wal.Command.Value Lbc_core.Cluster.Serial
  in
  let o_a, wire_a, us_s, img_s =
    run Lbc_wal.Command.Adaptive Lbc_core.Cluster.Serial
  in
  let _, _, us_p, img_p =
    run Lbc_wal.Command.Adaptive Lbc_core.Cluster.Partitioned
  in
  let _, _, us_o, img_o =
    run Lbc_wal.Command.Adaptive Lbc_core.Cluster.OnDemand
  in
  {
    ad_name = Traversal.name kind;
    ad_cmd_chosen = o_a.Runner.record.Lbc_wal.Record.cmd <> None;
    ad_value_wire = wire_v;
    ad_adaptive_wire = wire_a;
    ad_value_record = Lbc_core.Wire.size o_v.Runner.record;
    ad_adaptive_record = Lbc_core.Wire.size o_a.Runner.record;
    ad_value_serial_us = us_v;
    ad_serial_us = us_s;
    ad_partitioned_us = us_p;
    ad_ondemand_us = us_o;
    ad_identical =
      Bytes.equal img_v img_s
      && Bytes.equal img_s img_p
      && Bytes.equal img_s img_o;
  }

(* ------------------------------------------------------------------ *)
(* Latency percentiles, aggregated across a set of runs by merging the
   per-run histogram buckets; both JSON files print the same block. *)
module H = Lbc_obs.Obs.Histogram

let latency_metrics = [ "commit_us"; "lock_wait_us"; "apply_lag_us" ]

let merge_hists agg hists =
  List.iter
    (fun (name, h) ->
      let into =
        match Hashtbl.find_opt agg name with
        | Some x -> x
        | None ->
            let x = H.create () in
            Hashtbl.add agg name x;
            x
      in
      H.merge ~into h)
    hists

let agg_hist agg metric =
  match Hashtbl.find_opt agg metric with Some h -> h | None -> H.create ()

let add_latency_block buf ~indent agg =
  List.iteri
    (fun mi metric ->
      let h = agg_hist agg metric in
      if mi > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf
        "\n%s%S: { \"count\": %d, \"mean_us\": %.2f, \"p50_us\": %.2f, \
         \"p95_us\": %.2f, \"p99_us\": %.2f, \"max_us\": %.2f }"
        indent metric (H.count h) (H.mean h) (H.percentile h 50.0)
        (H.percentile h 95.0) (H.percentile h 99.0) (H.max_value h))
    latency_metrics

(* ------------------------------------------------------------------ *)
(* Machine-readable output: every Table-3 traversal under each
   propagation policy, written to BENCH_oo7.json for CI trending. *)

let json () =
  let buf = Buffer.create 4096 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let measured =
    { Lbc_core.Config.measured with Lbc_core.Config.disk_logging = false }
  in
  let configs =
    [
      ("eager", measured);
      ("multicast", { measured with Lbc_core.Config.multicast = true });
      ( "lazy",
        { measured with Lbc_core.Config.propagation = Lbc_core.Config.Lazy } );
    ]
  in
  addf "{\n  \"schema\": \"BENCH_oo7/v7\",\n  \"configs\": [";
  List.iteri
    (fun ci (cname, config) ->
      if ci > 0 then addf ",";
      addf "\n    {\n      \"name\": %S,\n      \"log_mode\": %S,\n      \"traversals\": ["
        cname
        (Lbc_wal.Command.log_mode_name config.Lbc_core.Config.log_mode);
      let agg = Hashtbl.create 8 in
      List.iteri
        (fun ti kind ->
          let cluster = Runner.setup ~config ~nodes:2 small in
          (* Count only the measured run, not setup. *)
          Lbc_util.Slice.reset_counters ();
          let o = Runner.run ~cluster ~writer:0 small kind in
          let p = o.Runner.profile in
          merge_hists agg (Lbc_obs.Obs.hists (Lbc_core.Cluster.obs cluster));
          if ti > 0 then addf ",";
          addf
            "\n        { \"name\": %S, \"elapsed_us\": %.1f, \
             \"messages\": %d, \"wire_bytes\": %d, \"updates\": %d, \
             \"unique_bytes\": %d, \"message_bytes\": %d, \
             \"pages_updated\": %d, \"bytes_copied\": %d, \
             \"bytes_copied_baseline\": %d, \"encode_allocs\": %d }"
            (Traversal.name kind) o.Runner.elapsed
            (Lbc_core.Cluster.total_messages cluster)
            (Lbc_core.Cluster.total_bytes cluster)
            p.Model.updates p.Model.unique_bytes p.Model.message_bytes
            p.Model.pages_updated
            (Lbc_util.Slice.bytes_copied ())
            (Lbc_util.Slice.bytes_copied_baseline ())
            (Lbc_util.Slice.encode_allocs ()))
        Traversal.table3_kinds;
      addf "\n      ],\n      \"latency\": {";
      add_latency_block buf ~indent:"        " agg;
      addf "\n      }\n    }")
    configs;
  addf "\n  ],";
  let rb = recovery_bench () in
  let od1 = ondemand_bench ~scale:1 () in
  let od10 = ondemand_bench ~scale:10 () in
  addf
    "\n  \"recovery\": {\n    \"nodes\": %d,\n    \"records\": %d,\n    \
     \"partitions\": %d,\n    \"serial_replay_us\": %.1f,\n    \
     \"partitioned_replay_us\": %.1f,\n    \"speedup\": %.2f,\n    \
     \"images_identical\": %b,\n    \"ckpt_records\": %d,\n    \
     \"ckpt_us\": %.1f,"
    rb.rb_nodes rb.rb_records rb.rb_partitions rb.rb_serial_us
    rb.rb_partitioned_us
    (rb.rb_serial_us /. Float.max 1.0 rb.rb_partitioned_us)
    rb.rb_identical rb.rb_ckpt_records rb.rb_ckpt_us;
  addf "\n    \"ondemand\": [";
  List.iteri
    (fun i od ->
      if i > 0 then addf ",";
      addf
        "\n      { \"scale\": %d, \"log_records\": %d, \
         \"time_to_first_commit_us\": %.1f, \"drain_us\": %.1f }"
        od.od_scale od.od_log_records od.od_ttfc_us od.od_drain_us)
    [ od1; od10 ];
  addf "\n    ],\n    \"ttfc_growth\": %.2f\n  }"
    (od10.od_ttfc_us /. Float.max 1.0 od1.od_ttfc_us);
  let adaptive = List.map adaptive_bench_one adaptive_kinds in
  addf ",\n  \"adaptive\": [";
  List.iteri
    (fun i ad ->
      if i > 0 then addf ",";
      addf
        "\n    { \"name\": %S, \"cmd_chosen\": %b, \
         \"value_wire_bytes\": %d, \"adaptive_wire_bytes\": %d, \
         \"wire_ratio\": %.3f, \"value_record_bytes\": %d, \
         \"adaptive_record_bytes\": %d, \"value_serial_replay_us\": %.1f, \
         \"serial_replay_us\": %.1f, \"partitioned_replay_us\": %.1f, \
         \"ondemand_replay_us\": %.1f, \"images_identical\": %b }"
        ad.ad_name ad.ad_cmd_chosen ad.ad_value_wire ad.ad_adaptive_wire
        (float_of_int ad.ad_adaptive_wire
        /. Float.max 1.0 (float_of_int ad.ad_value_wire))
        ad.ad_value_record ad.ad_adaptive_record ad.ad_value_serial_us
        ad.ad_serial_us ad.ad_partitioned_us ad.ad_ondemand_us
        ad.ad_identical)
    adaptive;
  addf "\n  ]";
  addf "\n}\n";
  let oc = open_out "BENCH_oo7.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  pr "wrote BENCH_oo7.json (%d configs x %d traversals; recovery %.0f -> %.0f virtual µs over %d partitions)@."
    (List.length configs)
    (List.length Traversal.table3_kinds)
    rb.rb_serial_us rb.rb_partitioned_us rb.rb_partitions;
  List.iter
    (fun ad ->
      pr
        "adaptive %s: wire %d -> %d bytes (%.1fx), record %d -> %d, \
         images identical: %b@."
        ad.ad_name ad.ad_value_wire ad.ad_adaptive_wire
        (float_of_int ad.ad_value_wire
        /. Float.max 1.0 (float_of_int ad.ad_adaptive_wire))
        ad.ad_value_record ad.ad_adaptive_record ad.ad_identical)
    adaptive;
  pr
    "on-demand restart: ttfc %.0f µs over %d records (1x) vs %.0f µs over \
     %d records (10x) — %.2fx@."
    od1.od_ttfc_us od1.od_log_records od10.od_ttfc_us od10.od_log_records
    (od10.od_ttfc_us /. Float.max 1.0 od1.od_ttfc_us)

(* ------------------------------------------------------------------ *)
(* Wall-clock benchmark on the real backend: OO7 traversals and a
   parallel multi-writer workload on OCaml 5 domains with the socket
   fabric and real files, written to BENCH_real.json.  Unlike every
   number above, these are host wall-clock microseconds — they vary
   run to run and machine to machine; the JSON is for trending shape
   (scaling, message counts), not absolute comparison to the paper. *)

let real_backend () = Lbc_core.Platform.Custom Lbc_real.Backend.factory

let real_oo7 ~nodes kind =
  let cluster = Runner.setup ~backend:(real_backend ()) ~nodes small in
  (* The writer's own clock delta under-reports here (it runs without
     blocking inside one engine drain), so time the whole run — setup
     to quiescence with all peers applied — on the host clock. *)
  let t0 = Unix.gettimeofday () in
  let o = Runner.run ~cluster ~writer:0 small kind in
  let wall_us = (Unix.gettimeofday () -. t0) *. 1e6 in
  let msgs = Lbc_core.Cluster.total_messages cluster in
  let bytes = Lbc_core.Cluster.total_bytes cluster in
  (* The always-on flight sink keeps the metric registry live even
     without --trace, so commit/lock-wait/apply-lag percentiles come for
     free on the wall clock too. *)
  let hists = Lbc_obs.Obs.hists (Lbc_core.Cluster.obs cluster) in
  Lbc_core.Cluster.shutdown cluster;
  (o, wall_us, msgs, bytes, hists)

(* [nodes] writers commit [txns] transactions each on their own lock and
   their own slice of the region — embarrassingly parallel application
   work, with every commit eagerly broadcast over the sockets.  Returns
   wall µs to quiescence with all caches converged. *)
let real_parallel ~nodes ~txns =
  let region_size = 64 * 1024 in
  let span = region_size / nodes in
  let c = Lbc_core.Cluster.create ~backend:(real_backend ()) ~nodes () in
  Lbc_core.Cluster.add_region c ~id:0 ~size:region_size;
  Lbc_core.Cluster.map_region_all c ~region:0;
  let t0 = Unix.gettimeofday () in
  for n = 0 to nodes - 1 do
    Lbc_core.Cluster.spawn c ~node:n (fun node ->
        for i = 1 to txns do
          let txn = Lbc_core.Node.Txn.begin_ node in
          Lbc_core.Node.Txn.acquire txn n;
          Lbc_core.Node.Txn.set_u64 txn ~region:0
            ~offset:((n * span) + (8 * (i mod (span / 8))))
            (Int64.of_int i);
          Lbc_core.Node.Txn.commit txn
        done)
  done;
  Lbc_core.Cluster.run c;
  let wall_us = (Unix.gettimeofday () -. t0) *. 1e6 in
  let image n =
    Lbc_core.Node.read (Lbc_core.Cluster.node c n) ~region:0 ~offset:0
      ~len:region_size
  in
  let converged = ref true in
  let img0 = image 0 in
  for n = 1 to nodes - 1 do
    if not (Bytes.equal img0 (image n)) then converged := false
  done;
  let msgs = Lbc_core.Cluster.total_messages c in
  let bytes = Lbc_core.Cluster.total_bytes c in
  Lbc_core.Cluster.shutdown c;
  (wall_us, msgs, bytes, !converged)

(* Flight-recorder overhead: the ring is always on, so its cost rides
   every real run.  The claim that matters for an always-on recorder is
   wall-clock cost under deployment conditions, so measure it on the
   macro workload this suite already tracks per-PR — an OO7 traversal
   on wall-paced domains — with the ring enabled vs disabled.  (Two
   wrong denominators, learned the hard way: the sim's wall time is
   nothing but event processing, so a fixed per-event cost reads as
   tens of percent; and a synthetic hot loop of near-empty
   transactions has almost no real work per event, so even a
   sub-microsecond per-event cost reads as ~10%.  The OO7 traversal
   does real object-graph work between events, which is precisely the
   deployment claim the 2% budget makes.) *)

type flight_overhead = {
  fo_runs : int;
  fo_on_us : float;
  fo_off_us : float;
  fo_ratio : float;
  fo_budget : float;
  fo_within : bool;
}

let flight_overhead_bench () =
  let nodes = 4 in
  (* A write-bearing traversal: commits, broadcasts and applies all
     exercise their ring writes, against real traversal work. *)
  let kind = Traversal.T2 Traversal.B in
  let workload config =
    let cluster =
      Runner.setup ~config ~backend:(real_backend ()) ~nodes small
    in
    (* Time setup-to-quiescence only: domain spawn and socket teardown
       are identical on both sides and would just dilute the ratio. *)
    let t0 = Unix.gettimeofday () in
    ignore (Runner.run ~cluster ~writer:0 small kind);
    let wall_us = (Unix.gettimeofday () -. t0) *. 1e6 in
    Lbc_core.Cluster.shutdown cluster;
    wall_us
  in
  (* Skip the real fsync per commit: file-system timing noise on
     shared CI hosts swamps a 2% signal (±10% run-to-run), and the log
     path's own instrumentation cost is still fully exercised — only
     the device write behind it is elided. *)
  let flight_on =
    {
      Lbc_core.Config.default with
      Lbc_core.Config.flight = true;
      disk_logging = false;
    }
  in
  let flight_off = { flight_on with Lbc_core.Config.flight = false } in
  (* Warm up both paths, then interleave timed runs so slow drift in
     host load hits both sides equally; the order alternates per pair
     because the first run of a pair inherits the previous run's
     GC/teardown debris (a measured ~5% first-slot penalty that would
     otherwise be billed entirely to one side).  The asserted figure is
     a ratio of truncated means: each side keeps its fastest
     [runs - trim] times and averages them.  Timing noise on a busy
     host is one-sided (interference only ever adds time), so the
     slowest tail carries scheduler luck, not signal — trimming it and
     averaging the quiet majority is far more stable run-to-run than
     either the minimum (one sample) or a median of per-pair ratios
     (each pair still noisy on its own). *)
  ignore (workload flight_on);
  ignore (workload flight_off);
  let runs = 41 in
  let trim = 21 in
  let on_times = Array.make runs 0.0 and off_times = Array.make runs 0.0 in
  for i = 0 to runs - 1 do
    if i land 1 = 0 then begin
      on_times.(i) <- workload flight_on;
      off_times.(i) <- workload flight_off
    end
    else begin
      off_times.(i) <- workload flight_off;
      on_times.(i) <- workload flight_on
    end
  done;
  Array.sort Float.compare on_times;
  Array.sort Float.compare off_times;
  let truncated_mean a =
    let k = runs - trim in
    let s = ref 0.0 in
    for i = 0 to k - 1 do
      s := !s +. a.(i)
    done;
    !s /. float_of_int k
  in
  let on_us = truncated_mean on_times and off_us = truncated_mean off_times in
  let budget = 1.02 in
  let ratio = on_us /. Float.max 1.0 off_us in
  {
    fo_runs = runs;
    fo_on_us = on_us;
    fo_off_us = off_us;
    fo_ratio = ratio;
    fo_budget = budget;
    fo_within = ratio <= budget;
  }

let real_json () =
  hr "Real backend: wall-clock OO7 + parallel scaling (BENCH_real.json)";
  let host_domains = Domain.recommended_domain_count () in
  pr "host offers %d domains@." host_domains;
  let oo7_nodes = 4 in
  let buf = Buffer.create 2048 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  addf "{\n  \"schema\": \"BENCH_real/v2\",\n  \"backend\": \"real\",\n";
  addf "  \"host_domains\": %d,\n  \"clock\": \"wall\",\n" host_domains;
  addf "  \"oo7\": [";
  (* Wall-clock latency percentiles, aggregated across the OO7 runs the
     same way BENCH_oo7 aggregates virtual-time percentiles. *)
  let agg = Hashtbl.create 8 in
  List.iteri
    (fun i kind ->
      let o, wall_us, msgs, bytes, hists = real_oo7 ~nodes:oo7_nodes kind in
      let p = o.Runner.profile in
      merge_hists agg hists;
      if i > 0 then addf ",";
      addf
        "\n    { \"name\": %S, \"nodes\": %d, \"elapsed_us\": %.1f, \
         \"messages\": %d, \"wire_bytes\": %d, \"updates\": %d, \
         \"message_bytes\": %d }"
        (Traversal.name kind) oo7_nodes wall_us msgs bytes p.Model.updates
        p.Model.message_bytes;
      pr "oo7 %-7s %4d domains %12.1f wall µs %6d msgs %9d bytes@."
        (Traversal.name kind) oo7_nodes wall_us msgs bytes)
    Traversal.table3_kinds;
  addf "\n  ],\n  \"latency\": {";
  add_latency_block buf ~indent:"    " agg;
  List.iter
    (fun metric ->
      let h = agg_hist agg metric in
      pr "latency %-14s n=%-6d p50 %8.1fµs  p95 %8.1fµs  p99 %8.1fµs@."
        metric (H.count h) (H.percentile h 50.0) (H.percentile h 95.0)
        (H.percentile h 99.0))
    latency_metrics;
  addf "\n  },\n  \"parallel\": [";
  List.iteri
    (fun i nodes ->
      let txns = 100 in
      let wall_us, msgs, bytes, converged = real_parallel ~nodes ~txns in
      if i > 0 then addf ",";
      addf
        "\n    { \"nodes\": %d, \"txns_per_node\": %d, \"wall_us\": %.1f, \
         \"messages\": %d, \"wire_bytes\": %d, \"converged\": %b }"
        nodes txns wall_us msgs bytes converged;
      pr "parallel %d domains x %d txns %12.1f wall µs %6d msgs%s@." nodes
        txns wall_us msgs
        (if converged then "" else "  !! DIVERGED"))
    [ 2; 4 ];
  addf "\n  ],";
  let fo = flight_overhead_bench () in
  addf
    "\n  \"flight_overhead\": {\n    \"runs\": %d,\n    \
     \"flight_on_us\": %.1f,\n    \"flight_off_us\": %.1f,\n    \
     \"ratio\": %.4f,\n    \"budget\": %.2f,\n    \
     \"within_budget\": %b\n  }"
    fo.fo_runs fo.fo_on_us fo.fo_off_us fo.fo_ratio fo.fo_budget fo.fo_within;
  pr
    "flight recorder overhead: %.1f ms on vs %.1f ms off (trimmed mean of %d \
     oo7 walls) — %+.2f%% (budget 2%%)%s@."
    (fo.fo_on_us /. 1000.0) (fo.fo_off_us /. 1000.0) fo.fo_runs
    ((fo.fo_ratio -. 1.0) *. 100.0)
    (if fo.fo_within then "" else "  !! OVER BUDGET");
  addf "\n}\n";
  let oc = open_out "BENCH_real.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  pr "wrote BENCH_real.json (%d oo7 traversals on %d domains + scaling rows)@."
    (List.length Traversal.table3_kinds)
    oo7_nodes

(* ------------------------------------------------------------------ *)

let all () =
  table2 ();
  table3 ();
  fig1 ();
  fig2 ();
  fig3 ();
  fig4 ();
  fig56 ~big:false ();
  fig56 ~big:true ();
  fig7 ();
  fig8 ();
  validate ();
  ablations ();
  macro ()

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | [] -> all ()
  | _ ->
      List.iter
        (function
          | "table2" -> table2 ()
          | "table3" -> table3 ()
          | "fig1" -> fig1 ()
          | "fig2" -> fig2 ()
          | "fig3" -> fig3 ()
          | "fig4" -> fig4 ()
          | "fig5" -> fig56 ~big:false ()
          | "fig6" -> fig56 ~big:true ()
          | "fig7" -> fig7 ()
          | "fig8" -> fig8 ()
          | "validate" -> validate ()
          | "ablations" -> ablations ()
          | "macro" -> macro ()
          | "json" -> json ()
          | "real" -> real_json ()
          | "flight-overhead" ->
              (* Just the always-on ring cost measurement, for quick
                 iteration on the hot path. *)
              let fo = flight_overhead_bench () in
              pr
                "flight recorder overhead: %.1f ms on vs %.1f ms off \
                 (trimmed mean of %d oo7 walls) — %+.2f%% (budget 2%%)%s@."
                (fo.fo_on_us /. 1000.0) (fo.fo_off_us /. 1000.0) fo.fo_runs
                ((fo.fo_ratio -. 1.0) *. 100.0)
                (if fo.fo_within then "" else "  !! OVER BUDGET")
          | other ->
              Format.eprintf "unknown benchmark %S@." other;
              exit 2)
        args
