(* lbcbench: the repository benchmark.

   Four closed-loop workloads, each driven from this one process through
   the public APIs of lbc.core, lbc.oo7, lbc.rvm and lbc.wal:

     oo7-sim   a T2-B traversal transaction ping-ponging between two sim
               nodes under the paper's Section 4 setup (Config.measured)
     oo7-real  the same op on two OCaml domains, a socketpair and real
               files with fsync (Config.default)
     hotlock   four sim nodes contending for one lock over one 64 KB
               region, durable commits under the OSDI-94 disk profile
     restart   serial / partitioned / on-demand recovery of a history that
               mixes OO7 command records with small value records

     lbcbench.exe --workload W --seed N --seconds S --trace 0|1 [--tiny]

   [--trace 0] prints the end-to-end metrics of W.  [--trace 1] is the
   traced run: it times the calls this file makes into each layer (spans
   kept in memory, written to spans-W-N.jsonl at exit) over all four
   workloads plus a ranges-per-record sweep, and prints the per-layer
   ledger.  [--tiny] shrinks every size, for the smoke test.  The last
   stdout line is one JSON result object; README.md explains the
   metrics. *)

open Lbc_oo7
module Cluster = Lbc_core.Cluster
module Config = Lbc_core.Config
module Node = Lbc_core.Node
module Txn = Lbc_core.Node.Txn
module Rvm = Lbc_rvm.Rvm
module Dev = Lbc_storage.Dev
module Rng = Lbc_util.Rng
module Proc = Lbc_sim.Proc
module Record = Lbc_wal.Record

let wall = Unix.gettimeofday
let ms s = s *. 1000.0
let pr fmt = Printf.printf (fmt ^^ "\n%!")

(* ------------------------------------------------------------------ *)
(* Samples *)

(* Linear interpolation between closest ranks, as numpy's default, over
   an ascending array. *)
let quantile q a =
  let n = Array.length a in
  if n = 0 then Float.nan
  else begin
    let pos = q /. 100.0 *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))
  end

let sort_in_place a =
  Array.sort Float.compare a;
  a

let median xs = quantile 50.0 (sort_in_place (Array.of_list xs))

(* A growable buffer of unboxed floats, in arrival order; samples past
   [cap] are dropped. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int; cap : int }

  let create ?(cap = max_int) () = { a = Array.make 256 0.0; n = 0; cap }

  let add t x =
    if t.n >= t.cap then ()
    else begin
      if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
        Array.blit t.a 0 b 0 t.n;
        t.a <- b
      end;
      t.a.(t.n) <- x;
      t.n <- t.n + 1
    end

  let last t = t.a.(t.n - 1)
  let sorted t = sort_in_place (Array.sub t.a 0 t.n)
  let median t = quantile 50.0 (sorted t)

  let mean t =
    let s = ref 0.0 in
    for i = 0 to t.n - 1 do
      s := !s +. t.a.(i)
    done;
    !s /. float_of_int t.n
end

(* A fixed CPU-only loop.  Never used to rescale a metric: it is printed
   on every run so a reader can tell host drift from a regression. *)
let spin_ms () =
  let t0 = wall () in
  let x = ref 1 in
  for i = 1 to 20_000_000 do
    x := ((!x * 31) + i) land 0xFFFFFF
  done;
  ignore (Sys.opaque_identity !x);
  ms (wall () -. t0)

let host_spin_ms () = median (List.init 3 (fun _ -> spin_ms ()))

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> Float.nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* ------------------------------------------------------------------ *)
(* Spans: one per call into a layer, recorded by this file around the
   public call.  [words] is the minor words the calling domain allocated
   meanwhile; in the sim that includes any simulated process that ran
   while this one was suspended. *)

module Trace = struct
  type span = {
    id : int;
    name : string;
    op : int;
    parent : int;
    t0 : float;
    t1 : float;
    words : float;
  }

  let enabled = ref false
  let next = Atomic.make 1
  let spans = ref []
  let lock = Mutex.create ()
  let add s = Mutex.protect lock (fun () -> spans := s :: !spans)

  (* [f] receives the span's id, to parent the spans it opens. *)
  let span ~op ~parent name f =
    if not !enabled then f 0
    else begin
      let id = Atomic.fetch_and_add next 1 in
      let w0 = Gc.minor_words () in
      let t0 = wall () in
      let close () =
        let t1 = wall () in
        add { id; name; op; parent; t0; t1; words = Gc.minor_words () -. w0 }
      in
      match f id with
      | v ->
          close ();
          v
      | exception e ->
          close ();
          raise e
    end

  (* A span whose ends are observed rather than wrapped. *)
  let record ~op ~parent name t0 t1 =
    if !enabled then
      add { id = Atomic.fetch_and_add next 1; name; op; parent; t0; t1; words = 0.0 }

  let named name = List.filter (fun s -> String.equal s.name name) !spans
  let ms_p50 name = median (List.map (fun s -> ms (s.t1 -. s.t0)) (named name))
  let words_p50 name = median (List.map (fun s -> s.words) (named name))

  let write path =
    let oc = open_out path in
    List.iter
      (fun s ->
        Printf.fprintf oc
          "{\"id\": %d, \"name\": %S, \"op\": %d, \"parent\": %d, \
           \"start_us\": %.1f, \"end_us\": %.1f, \"minor_words\": %.0f}\n"
          s.id s.name s.op s.parent (s.t0 *. 1e6) (s.t1 *. 1e6) s.words)
      (List.rev !spans);
    close_out oc
end

(* ------------------------------------------------------------------ *)
(* Per-run tallies.  An op is one OO7 traversal transaction, one hotlock
   transaction, or one restart recovery. *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable ops : int;  (** calls of the workload's op function *)
  lat_ms : Samples.t;  (** host ms per op *)
  virt_ms : Samples.t;  (** platform-clock ms per op *)
  mutable busy_s : float;  (** host seconds inside ops, judges excluded *)
  mutable txns : int;
  mutable updates : int;
  mutable records : int;
  mutable words : float;  (** minor words allocated in hotlock rounds *)
}

let tally ?virt_cap () =
  {
    attempted = 0;
    failed = 0;
    ops = 0;
    lat_ms = Samples.create ();
    virt_ms = Samples.create ?cap:virt_cap ();
    busy_s = 0.0;
    txns = 0;
    updates = 0;
    records = 0;
    words = 0.0;
  }

let fail (t : tally) what =
  t.failed <- t.failed + 1;
  prerr_endline ("lbcbench: op failed: " ^ what)

(* ------------------------------------------------------------------ *)
(* Sizes *)

type sizes = {
  schema : Schema.config;
  setups : int;  (** slices per run, each on a fresh set-up; setup_s is their median *)
  hot_per_client : int;  (** hotlock transactions per client per round *)
  restart_txns : int;  (** small value transactions per node *)
  ledger_oo7_ops : int;
  ledger_real_ops : int;
  ledger_hot_rounds : int;
  flight_pairs : int;
}

let sizes ~seed ~tiny =
  if tiny then
    {
      schema = { Schema.tiny with Schema.seed };
      setups = 2;
      hot_per_client = 50;
      restart_txns = 40;
      ledger_oo7_ops = 2;
      ledger_real_ops = 2;
      ledger_hot_rounds = 1;
      flight_pairs = 1;
    }
  else
    {
      schema = { Schema.small with Schema.seed };
      setups = 10;
      hot_per_client = 1000;
      restart_txns = 1500;
      ledger_oo7_ops = 6;
      ledger_real_ops = 10;
      ledger_hot_rounds = 2;
      flight_pairs = 15;
    }

let real_backend = Lbc_core.Platform.Custom Lbc_real.Backend.factory
let t2b = Traversal.T2 Traversal.B
let rvm_stats c n = Rvm.stats (Node.rvm (Cluster.node c n))
let log_dev c n = Lbc_wal.Log.dev (Rvm.log (Node.rvm (Cluster.node c n)))

let sum_nodes c f =
  let s = ref 0 in
  for n = 0 to Cluster.size c - 1 do
    s := !s + f n
  done;
  !s

let image c ~node ~region =
  Node.read (Cluster.node c node) ~region ~offset:0
    ~len:(Cluster.region_size c region)

(* ------------------------------------------------------------------ *)
(* oo7-sim / oo7-real: one op is one T2-B traversal transaction on the
   writer, from spawn until every peer has applied its update.  Writers
   alternate, so every op moves the segment lock and its update.  These
   are Runner.run's steps, taken here so each call can be timed. *)

type oo7 = {
  o_name : string;
  o_cluster : Cluster.t;
  o_schema : Schema.config;
  o_real : bool;
  o_params : Bytes.t;
  mutable o_writer : int;
}

let oo7_op st (t : tally) =
  let c = st.o_cluster and w = st.o_name in
  let writer = st.o_writer in
  st.o_writer <- 1 - writer;
  let op = t.ops in
  t.ops <- t.ops + 1;
  t.attempted <- t.attempted + 1;
  let set0 = (rvm_stats c writer).Rvm.set_ranges in
  let applied0 = (rvm_stats c (1 - writer)).Rvm.records_applied in
  let committed = ref None in
  let t0 = wall () in
  match
    Trace.span ~op ~parent:0 (w ^ ".op") (fun root ->
        Cluster.spawn c ~node:writer (fun node ->
            let v0 = Proc.now () and w0 = wall () in
            let txn = Txn.begin_ node in
            Trace.span ~op ~parent:root (w ^ ".locks.acquire") (fun _ ->
                Txn.acquire txn Runner.lock);
            let db = Database.attach_txn st.o_schema txn ~region:Runner.region in
            ignore
              (Trace.span ~op ~parent:root (w ^ ".oo7.traversal") (fun _ ->
                   Traversal.run db t2b));
            Txn.set_command txn ~op:Commands.traversal_op ~params:st.o_params
              ~regions:[ Runner.region ];
            ignore
              (Trace.span ~op ~parent:root (w ^ ".core.commit") (fun _ ->
                   Txn.commit_outcome txn));
            let w1 = wall () in
            (* The real platform clock is the wall clock. *)
            let virt = if st.o_real then ms (w1 -. w0) else (Proc.now () -. v0) /. 1000.0 in
            committed := Some (virt, w1));
        Cluster.run c;
        let t1 = wall () in
        Option.iter
          (fun (_, w1) -> Trace.record ~op ~parent:root (w ^ ".core.propagate") w1 t1)
          !committed;
        t1)
  with
  | exception e -> fail t (w ^ ": " ^ Printexc.to_string e)
  | t1 -> (
      match !committed with
      | None -> fail t (w ^ ": Traversal_incomplete")
      | Some (virt, _) ->
          if
            not
              (Bytes.equal
                 (image c ~node:0 ~region:Runner.region)
                 (image c ~node:1 ~region:Runner.region))
          then fail t (w ^ ": node images differ after the op")
          else begin
            Samples.add t.lat_ms (ms (t1 -. t0));
            Samples.add t.virt_ms virt;
            t.busy_s <- t.busy_s +. (t1 -. t0);
            t.txns <- t.txns + 1;
            t.updates <- t.updates + ((rvm_stats c writer).Rvm.set_ranges - set0);
            t.records <-
              t.records + ((rvm_stats c (1 - writer)).Rvm.records_applied - applied0)
          end)

let oo7_setup ~real (sz : sizes) =
  let config = if real then Config.default else Config.measured in
  let backend = if real then Some real_backend else None in
  let cluster = Runner.setup ~config ?backend ~nodes:2 sz.schema in
  let st =
    {
      o_name = (if real then "oo7-real" else "oo7-sim");
      o_cluster = cluster;
      o_schema = sz.schema;
      o_real = real;
      o_params =
        Commands.traversal_params ~config:sz.schema ~region:Runner.region t2b;
      o_writer = 0;
    }
  in
  (* Warm-up: afterwards the token sits with writer 0 and every op is a
     remote handoff. *)
  let warm = tally () in
  oo7_op st warm;
  if warm.failed > 0 then failwith "oo7 warm-up op failed";
  st

let oo7_close st = Cluster.shutdown st.o_cluster

let oo7_judge st =
  let sum n =
    Database.checksum
      (Database.attach_bytes st.o_schema (image st.o_cluster ~node:n ~region:Runner.region))
  in
  Int64.equal (sum 0) (sum 1)

(* ------------------------------------------------------------------ *)
(* hotlock: each client loops acquire → read and increment the shared
   counter, write 3 other words → commit → seeded exponential think time
   (virtual).  One op is one transaction; the loop runs in rounds of a
   fixed number of transactions per client. *)

let hot_nodes = 4
let hot_region_size = 65536
let hot_think_mean_us = 100_000.0

(* The sim's log devices only grow, so after this many rounds the run
   moves to a fresh, identically seeded cluster: memory then does not
   depend on how many transactions the host managed.  The move happens at
   the end of a round, so the old cluster is collected before the next
   round allocates. *)
let hot_epoch_rounds = 5

type hot = {
  h_seed : int;
  h_flight : bool;
  mutable h_cluster : Cluster.t;
  mutable h_rngs : Rng.t array;
  mutable h_commits : int;  (** on [h_cluster] *)
  mutable h_rounds : int;  (** on [h_cluster] *)
  mutable h_acquire_vms : float list;
  mutable h_commit_vms : float list;
}

let hot_cluster ~seed ~flight =
  let config = { Config.default with Config.charge_costs = true; flight } in
  let c = Cluster.create ~config ~nodes:hot_nodes () in
  Cluster.add_region c ~id:0 ~size:hot_region_size;
  Cluster.map_region_all c ~region:0;
  let rng = Rng.create seed in
  (c, Array.init hot_nodes (fun _ -> Rng.split rng))

(* Every node's counter equals the number of commits, and the caches
   agree byte for byte. *)
let hot_judge st =
  let c = st.h_cluster in
  let img0 = image c ~node:0 ~region:0 in
  List.for_all
    (fun n ->
      Int64.equal
        (Node.get_u64 (Cluster.node c n) ~region:0 ~offset:0)
        (Int64.of_int st.h_commits)
      && Bytes.equal img0 (image c ~node:n ~region:0))
    (List.init hot_nodes Fun.id)

let hot_txn st node rng ~op =
  let txn = Txn.begin_ node in
  match
    let v0 = Proc.now () in
    Trace.span ~op ~parent:0 "hotlock.locks.acquire" (fun _ -> Txn.acquire txn 0);
    let v1 = Proc.now () in
    let n = Txn.get_u64 txn ~region:0 ~offset:0 in
    Txn.set_u64 txn ~region:0 ~offset:0 (Int64.succ n);
    for _ = 1 to 3 do
      Txn.set_u64 txn ~region:0
        ~offset:(8 * (1 + Rng.int rng ((hot_region_size / 8) - 1)))
        (Rng.int64 rng)
    done;
    let v2 = Proc.now () in
    Trace.span ~op ~parent:0 "hotlock.core.commit" (fun _ -> Txn.commit txn);
    if !Trace.enabled then begin
      st.h_acquire_vms <- ((v1 -. v0) /. 1000.0) :: st.h_acquire_vms;
      st.h_commit_vms <- ((Proc.now () -. v2) /. 1000.0) :: st.h_commit_vms
    end
  with
  | () -> Ok ()
  | exception e ->
      (try Txn.abort txn with _ -> ());
      Error e

let hot_round st ~per_client (t : tally) =
  st.h_rounds <- st.h_rounds + 1;
  let c = st.h_cluster in
  t.ops <- t.ops + 1;
  let applied0 = sum_nodes c (fun n -> (rvm_stats c n).Rvm.records_applied) in
  let words0 = Gc.minor_words () in
  let t0 = wall () in
  for n = 0 to hot_nodes - 1 do
    let rng = st.h_rngs.(n) in
    Cluster.spawn c ~node:n (fun node ->
        for _ = 1 to per_client do
          t.attempted <- t.attempted + 1;
          let w0 = wall () and v0 = Proc.now () in
          (match hot_txn st node rng ~op:t.attempted with
          | Ok () ->
              st.h_commits <- st.h_commits + 1;
              Samples.add t.lat_ms (ms (wall () -. w0));
              Samples.add t.virt_ms ((Proc.now () -. v0) /. 1000.0);
              t.txns <- t.txns + 1;
              t.updates <- t.updates + 4
          | Error e -> fail t ("hotlock: " ^ Printexc.to_string e));
          Proc.sleep (-.hot_think_mean_us *. log (1.0 -. Rng.float rng 1.0))
        done)
  done;
  (match Cluster.run c with
  | () -> ()
  | exception e -> fail t ("hotlock round: " ^ Printexc.to_string e));
  t.busy_s <- t.busy_s +. (wall () -. t0);
  t.words <- t.words +. (Gc.minor_words () -. words0);
  t.records <-
    t.records + sum_nodes c (fun n -> (rvm_stats c n).Rvm.records_applied) - applied0;
  if st.h_rounds = hot_epoch_rounds then begin
    if not (hot_judge st) then fail t "hotlock: counter or caches wrong at epoch end";
    let c, rngs = hot_cluster ~seed:st.h_seed ~flight:st.h_flight in
    st.h_cluster <- c;
    st.h_rngs <- rngs;
    st.h_commits <- 0;
    st.h_rounds <- 0
  end

let hot_setup ?(flight = true) ~seed (sz : sizes) =
  let c, rngs = hot_cluster ~seed ~flight in
  let st =
    {
      h_seed = seed;
      h_flight = flight;
      h_cluster = c;
      h_rngs = rngs;
      h_commits = 0;
      h_rounds = 0;
      h_acquire_vms = [];
      h_commit_vms = [];
    }
  in
  (* Warm-up: one full round, so the measured rounds start with the
     token already circulating. *)
  let warm = tally () in
  hot_round st ~per_client:sz.hot_per_client warm;
  if warm.failed > 0 then failwith "hotlock warm-up round failed";
  st

(* ------------------------------------------------------------------ *)
(* restart: set-up commits a fixed history on two nodes — a T2-A and a
   T12-A traversal, logged as command records under Adaptive logging,
   and many small value transactions on 6 other regions, each under its
   own lock.  One op restores every region device to its pre-history
   image and runs Cluster.timed_recovery; the mode cycles serial →
   partitioned → on-demand. *)

let restart_regions = [ 1; 2; 3; 4; 5; 6 ]
let restart_region_size = 65536
let modes = [| Cluster.Serial; Cluster.Partitioned; Cluster.OnDemand |]
let mode_name = function
  | Cluster.Serial -> "serial"
  | Cluster.Partitioned -> "partitioned"
  | Cluster.OnDemand -> "ondemand"

type restart = {
  r_cluster : Cluster.t;
  r_pre : (int * Bytes.t) list;  (** region → pre-history device image *)
  r_live : (int * Bytes.t) list;  (** region → live cache after history *)
  r_updates : int;  (** set_range calls the history committed *)
}

let small_txn node rng ~region =
  let txn = Txn.begin_ node in
  Txn.acquire txn region;
  for _ = 0 to Rng.int rng 4 do
    Txn.set_u64 txn ~region
      ~offset:(8 * Rng.int rng (restart_region_size / 8))
      (Rng.int64 rng)
  done;
  Txn.commit txn

let restart_setup ~seed (sz : sizes) =
  let config =
    {
      Config.default with
      Config.charge_costs = true;
      log_mode = Lbc_wal.Command.Adaptive;
    }
  in
  let c = Runner.setup ~config ~nodes:2 sz.schema in
  List.iter
    (fun r ->
      Cluster.add_region c ~id:r ~size:restart_region_size;
      (* A full-size zero image, so a recovered device compares equal to
         the cache byte for byte. *)
      Dev.load (Cluster.region_dev c r) (Bytes.make restart_region_size '\000');
      Cluster.map_region_all c ~region:r)
    restart_regions;
  let all = Runner.region :: restart_regions in
  let pre = List.map (fun r -> (r, Dev.stable_snapshot (Cluster.region_dev c r))) all in
  let set0 = sum_nodes c (fun n -> (rvm_stats c n).Rvm.set_ranges) in
  ignore (Runner.run ~cluster:c ~writer:0 sz.schema (Traversal.T2 Traversal.A));
  ignore (Runner.run ~cluster:c ~writer:1 sz.schema (Traversal.T12 Traversal.A));
  let rng = Rng.create seed in
  for n = 0 to 1 do
    let rng = Rng.split rng in
    Cluster.spawn c ~node:n (fun node ->
        (* node 0 writes regions 1-3, node 1 regions 4-6 *)
        for _ = 1 to sz.restart_txns do
          small_txn node rng ~region:(1 + (3 * n) + Rng.int rng 3)
        done;
        (* One transaction under both the OO7 lock and region 1's joins
           region 1's value chain to the command chain's replay stream,
           whose length then depends on the seed. *)
        if n = 0 then begin
          let txn = Txn.begin_ node in
          Txn.acquire txn Runner.lock;
          Txn.acquire txn 1;
          Txn.set_u64 txn ~region:1 ~offset:0 (Rng.int64 rng);
          Txn.commit txn
        end)
  done;
  Cluster.run c;
  let live = List.map (fun r -> (r, image c ~node:0 ~region:r)) all in
  if not (List.for_all (fun (r, img) -> Bytes.equal img (image c ~node:1 ~region:r)) live)
  then failwith "restart: node caches differ after the history";
  {
    r_cluster = c;
    r_pre = pre;
    r_live = live;
    r_updates = sum_nodes c (fun n -> (rvm_stats c n).Rvm.set_ranges) - set0;
  }

let region_bytes_written st =
  List.fold_left
    (fun acc (r, _) -> acc + Dev.bytes_written (Cluster.region_dev st.r_cluster r))
    0 st.r_pre

(* The mode follows [t]'s own op count, so two tallies stepped in pairs
   recover in the same mode.  Returns the mode and the region bytes the
   recovery wrote. *)
let restart_op st (t : tally) =
  let c = st.r_cluster in
  let mode = modes.(t.ops mod Array.length modes) in
  let op = t.ops in
  t.ops <- t.ops + 1;
  t.attempted <- t.attempted + 1;
  let t0 = wall () in
  List.iter (fun (r, img) -> Dev.load (Cluster.region_dev c r) img) st.r_pre;
  let written0 = region_bytes_written st in
  match
    Trace.span ~op ~parent:0 ("restart.recovery." ^ mode_name mode) (fun _ ->
        Cluster.timed_recovery c ~mode)
  with
  | exception e ->
      fail t ("restart: " ^ Printexc.to_string e);
      (mode, 0)
  | outcome, virt_us ->
      let t1 = wall () in
      let written = region_bytes_written st - written0 in
      if
        not
          (List.for_all
             (fun (r, live) ->
               Bytes.equal live (Dev.stable_snapshot (Cluster.region_dev c r)))
             st.r_live)
      then fail t "restart: recovered image differs from the live caches"
      else begin
        let n = outcome.Lbc_rvm.Recovery.records_replayed in
        Samples.add t.lat_ms (ms (t1 -. t0));
        Samples.add t.virt_ms (virt_us /. 1000.0);
        t.busy_s <- t.busy_s +. (t1 -. t0);
        t.txns <- t.txns + n;
        t.records <- t.records + n;
        t.updates <- t.updates + st.r_updates
      end;
      (mode, written)

(* Collect the heap (and compact it, where the runtime can) before every
   set-up and op, outside the timed region, so no op pays for garbage
   its predecessors left. *)
let settle () = Gc.compact ()

(* ------------------------------------------------------------------ *)
(* Untraced run: [sizes.setups] slices that together take [seconds].
   Each sets up afresh (setup_s is the median set-up time), runs ops
   until its share of the run is over and is judged at its end; then the
   end-to-end metrics. *)

(* One set-up's state, reachable only through these closures. *)
type instance = {
  op : tally -> unit;
  judge : unit -> bool;
  close : unit -> unit;  (** releases what the platform holds: domains, files *)
}

type workload = {
  setup : unit -> instance;
  min_ops : int;
  virt_window : int;
      (** ops whose platform-clock times make virtual_ms_*: a fixed,
          deterministic prefix of the run *)
}

let workload ~name ~seed (sz : sizes) =
  match name with
  | "oo7-sim" | "oo7-real" ->
      let real = String.equal name "oo7-real" in
      {
        setup =
          (fun () ->
            let s = oo7_setup ~real sz in
            { op = oo7_op s; judge = (fun () -> oo7_judge s); close = (fun () -> oo7_close s) });
        min_ops = 3;
        virt_window = (if real then max_int else 2);
      }
  | "hotlock" ->
      {
        setup =
          (fun () ->
            let s = hot_setup ~seed sz in
            {
              op = hot_round s ~per_client:sz.hot_per_client;
              judge = (fun () -> hot_judge s);
              close = ignore;
            });
        min_ops = 2;
        virt_window = hot_nodes * sz.hot_per_client;
      }
  | "restart" ->
      {
        setup =
          (fun () ->
            let s = restart_setup ~seed sz in
            { op = (fun t -> ignore (restart_op s t)); judge = (fun () -> true); close = ignore });
        min_ops = 3;
        virt_window = Array.length modes;
      }
  | other -> invalid_arg ("unknown workload " ^ other)

let untraced ~name ~seed ~seconds sz =
  let w = workload ~name ~seed sz in
  let t = tally ~virt_cap:w.virt_window () in
  let setup_times = ref [] and judged = ref true and rss = ref Float.nan in
  (* Each slice starts on a fresh set-up, so the set-up times sample the
     whole run as the op times do: the host's speed changes in phases
     that last seconds.  Every slice runs at least one op.  A slice's
     state is garbage by the next slice's [settle]. *)
  let start = wall () in
  for i = 1 to sz.setups do
    if t.failed = 0 then begin
      settle ();
      let t0 = wall () in
      let inst = w.setup () in
      setup_times := (wall () -. t0) :: !setup_times;
      let ops0 = t.ops in
      let stop = start +. (seconds *. float_of_int i /. float_of_int sz.setups) in
      while t.failed = 0 && (t.ops = ops0 || t.ops < w.min_ops || wall () < stop) do
        settle ();
        inst.op t
      done;
      (* After the first slice only, so the figure counts one set-up's
         state (the runtime cannot compact away what later set-ups
         fragment), and before the judge allocates. *)
      if Float.is_nan !rss then rss := peak_rss_mb ();
      if not (inst.judge ()) then begin
        judged := false;
        prerr_endline ("lbcbench: " ^ name ^ ": judge failed at the end of a slice")
      end;
      inst.close ()
    end
  done;
  let judged = !judged and rss = !rss in
  let virt = Samples.sorted t.virt_ms and lat = Samples.sorted t.lat_ms in
  let per_s n = float_of_int n /. t.busy_s in
  pr "%s: %d ops, %d attempted, %d failed, %.2f s busy, %d virtual samples" name t.ops
    t.attempted t.failed t.busy_s (Array.length virt);
  pr "latency ms mean %.3f p10 %.3f p25 %.3f p50 %.3f p75 %.3f p90 %.3f; set-ups s %s"
    (Samples.mean t.lat_ms) (quantile 10.0 lat) (quantile 25.0 lat) (quantile 50.0 lat)
    (quantile 75.0 lat) (quantile 90.0 lat)
    (String.concat " " (List.rev_map (Printf.sprintf "%.3f") !setup_times));
  (* Host-time metrics are means over the whole run: the host runs the
     program at two speeds in phases of seconds, and a median jumps
     between them with the share of slow time (README.md, "Noise"). *)
  let metrics =
    [
      ("setup_s", median !setup_times, "s");
      ("peak_rss_mb", rss, "MB");
      ("latency_ms_mean", Samples.mean t.lat_ms, "ms");
      ("updates_per_s", per_s t.updates, "1/s");
      ("txn_per_s", per_s t.txns, "1/s");
      ("records_per_s", per_s t.records, "1/s");
      ("virtual_ms_p50", quantile 50.0 virt, "ms");
      ("virtual_ms_p99", quantile 99.0 virt, "ms");
    ]
  in
  (judged, t.attempted, t.failed, metrics)

(* ------------------------------------------------------------------ *)
(* Traced run: the per-layer ledger.  Every row names the end-to-end
   metric it should move and the workload on which it is predicted flat
   (README.md has the table). *)

type row = { r_name : string; r_value : float; r_unit : string; r_moves : string; r_flat : string }

let rows = ref []

let row ?(flat = "-") ~moves name unit value =
  rows := { r_name = name; r_value = value; r_unit = unit; r_moves = moves; r_flat = flat } :: !rows

(* [n] pairs of [a] and [b], alternating which goes first. *)
let alternate n a b =
  for i = 1 to n do
    if i land 1 = 1 then begin
      a ();
      b ()
    end
    else begin
      b ();
      a ()
    end
  done

(* Run [n] traced ops; on the run's own workload pair each with an
   untraced op and return the traced / untraced median-latency ratio. *)
let paired ~own ~n op =
  let traced = tally () and plain = tally () in
  let run_traced () =
    Trace.enabled := true;
    op traced
  and run_plain () =
    Trace.enabled := false;
    op plain;
    Trace.enabled := true
  in
  if own then alternate n run_traced run_plain
  else
    for _ = 1 to n do
      run_traced ()
    done;
  let ratio =
    if own then Samples.median traced.lat_ms /. Samples.median plain.lat_ms else Float.nan
  in
  (traced, plain, ratio)

let ratio a b = float_of_int a /. float_of_int (max 1 b)

let ledger_oo7 ~own ~real (sz : sizes) =
  let st = oo7_setup ~real sz in
  let w = st.o_name and c = st.o_cluster in
  let set0 = sum_nodes c (fun n -> (rvm_stats c n).Rvm.set_ranges)
  and ranges0 = sum_nodes c (fun n -> (rvm_stats c n).Rvm.ranges_logged)
  and logged0 = sum_nodes c (fun n -> (rvm_stats c n).Rvm.bytes_logged)
  and written0 = sum_nodes c (fun n -> (rvm_stats c n).Rvm.log_bytes_written)
  and syncs0 = sum_nodes c (fun n -> Dev.sync_count (log_dev c n)) in
  let n = if real then sz.ledger_real_ops else sz.ledger_oo7_ops in
  let traced, plain, overhead = paired ~own ~n (oo7_op st) in
  let ops = traced.ops + plain.ops in
  let delta f v0 = sum_nodes c f - v0 in
  let updates_per_op = ratio traced.updates traced.txns in
  let lat = "latency_ms_mean" and e2e2 = "latency_ms_mean, updates_per_s" in
  row ~moves:lat ~flat:"restart" (w ^ ".locks.acquire.ms_p50") "ms"
    (Trace.ms_p50 (w ^ ".locks.acquire"));
  row ~moves:e2e2 ~flat:"hotlock" (w ^ ".oo7.traversal.ms_p50") "ms"
    (Trace.ms_p50 (w ^ ".oo7.traversal"));
  row ~moves:e2e2 ~flat:"hotlock" (w ^ ".oo7.traversal.words_per_update") "words"
    (Trace.words_p50 (w ^ ".oo7.traversal") /. updates_per_op);
  row ~moves:lat (w ^ ".core.commit.ms_p50") "ms" (Trace.ms_p50 (w ^ ".core.commit"));
  row ~moves:lat (w ^ ".core.commit.words_per_op") "words"
    (Trace.words_p50 (w ^ ".core.commit"));
  row ~moves:lat
    ~flat:(if real then "-" else "oo7-real")
    (w ^ ".core.propagate.ms_p50") "ms"
    (Trace.ms_p50 (w ^ ".core.propagate"));
  row ~moves:"updates_per_s" (w ^ ".rvm.set_range.coalesce_ratio") "ratio"
    (ratio
       (delta (fun n -> (rvm_stats c n).Rvm.ranges_logged) ranges0)
       (delta (fun n -> (rvm_stats c n).Rvm.set_ranges) set0));
  if real then begin
    row ~moves:"latency_ms_mean, txn_per_s" ~flat:"oo7-sim"
      (w ^ ".wal.log.bytes_per_user_byte") "ratio"
      (ratio
         (delta (fun n -> (rvm_stats c n).Rvm.log_bytes_written) written0)
         (delta (fun n -> (rvm_stats c n).Rvm.bytes_logged) logged0));
    row ~moves:"latency_ms_mean, txn_per_s" ~flat:"oo7-sim" (w ^ ".storage.syncs_per_op")
      "count"
      (ratio (delta (fun n -> Dev.sync_count (log_dev c n)) syncs0) ops)
  end
  else begin
    (* Object access alone: the same traversal over a plain byte image,
       no transaction, so traversal.ms minus this is detect. *)
    for i = 1 to 3 do
      let db = Database.attach_bytes sz.schema (image c ~node:0 ~region:Runner.region) in
      Trace.span ~op:i ~parent:0 "oo7.access" (fun _ -> ignore (Traversal.run db t2b))
    done;
    row ~moves:e2e2 ~flat:"hotlock" "oo7.access.ms" "ms" (Trace.ms_p50 "oo7.access")
  end;
  if not (oo7_judge st) then failwith (w ^ ": checksums differ");
  oo7_close st;
  (traced.attempted + plain.attempted, traced.failed + plain.failed, overhead)

let ledger_hotlock ~own ~seed (sz : sizes) =
  (* The counts below are read off the first cluster: set-up and the
     paired rounds must all run on it. *)
  assert (1 + (2 * sz.ledger_hot_rounds) <= hot_epoch_rounds);
  let st = hot_setup ~seed sz in
  let c = st.h_cluster in
  let tables f = sum_nodes c (fun n -> f (Lbc_locks.Table.stats (Node.locks (Cluster.node c n)))) in
  let local0 = tables (fun s -> s.Lbc_locks.Table.local_grants)
  and remote0 = tables (fun s -> s.Lbc_locks.Table.remote_grants)
  and waits0 = sum_nodes c (fun n -> (Node.stats (Cluster.node c n)).Node.interlock_waits)
  and msgs0 = Cluster.total_messages c
  and bytes0 = Cluster.total_bytes c
  and logged0 = sum_nodes c (fun n -> (rvm_stats c n).Rvm.bytes_logged)
  and written0 = sum_nodes c (fun n -> (rvm_stats c n).Rvm.log_bytes_written)
  and syncs0 = sum_nodes c (fun n -> Dev.sync_count (log_dev c n)) in
  let traced, plain, overhead =
    paired ~own ~n:sz.ledger_hot_rounds (hot_round st ~per_client:sz.hot_per_client)
  in
  let txns = traced.txns + plain.txns in
  let local = tables (fun s -> s.Lbc_locks.Table.local_grants) - local0
  and remote = tables (fun s -> s.Lbc_locks.Table.remote_grants) - remote0 in
  let m = "virtual_ms_p50, virtual_ms_p99" in
  row ~moves:m ~flat:"restart" "hotlock.locks.acquire.virtual_ms_p50" "ms"
    (median st.h_acquire_vms);
  row ~moves:m ~flat:"restart" "hotlock.locks.remote_grant_ratio" "ratio"
    (ratio remote (local + remote));
  row ~moves:m "hotlock.core.commit.virtual_ms_p50" "ms" (median st.h_commit_vms);
  row ~moves:m "hotlock.core.interlock_waits_per_txn" "count"
    (ratio (sum_nodes c (fun n -> (Node.stats (Cluster.node c n)).Node.interlock_waits) - waits0) txns);
  row ~moves:"txn_per_s" "hotlock.net.messages_per_txn" "count"
    (ratio (Cluster.total_messages c - msgs0) txns);
  row ~moves:"txn_per_s" "hotlock.net.bytes_per_txn" "bytes"
    (ratio (Cluster.total_bytes c - bytes0) txns);
  row ~moves:"txn_per_s" "hotlock.core.txn.words_per_txn" "words"
    (traced.words /. float_of_int (max 1 traced.txns));
  row ~moves:"latency_ms_mean, txn_per_s" ~flat:"oo7-sim" "hotlock.wal.log.bytes_per_user_byte"
    "ratio"
    (ratio
       (sum_nodes c (fun n -> (rvm_stats c n).Rvm.log_bytes_written) - written0)
       (sum_nodes c (fun n -> (rvm_stats c n).Rvm.bytes_logged) - logged0));
  row ~moves:"latency_ms_mean, txn_per_s" ~flat:"oo7-sim" "hotlock.storage.syncs_per_op" "count"
    (ratio (sum_nodes c (fun n -> Dev.sync_count (log_dev c n)) - syncs0) txns);
  if not (hot_judge st) then failwith "hotlock: final counter or caches wrong";
  (* The flight ring's cost: identical seeded clusters with the ring on
     and off, rounds alternating which goes first, untraced. *)
  Trace.enabled := false;
  let on = hot_setup ~flight:true ~seed sz and off = hot_setup ~flight:false ~seed sz in
  let t_on = tally () and t_off = tally () in
  let round st t =
    settle ();
    let b0 = t.busy_s in
    hot_round st ~per_client:sz.hot_per_client t;
    ms (t.busy_s -. b0)
  in
  let on_ms = ref [] and off_ms = ref [] in
  alternate sz.flight_pairs
    (fun () -> on_ms := round on t_on :: !on_ms)
    (fun () -> off_ms := round off t_off :: !off_ms);
  Trace.enabled := true;
  row ~moves:"txn_per_s" "hotlock.obs.flight.overhead_ratio" "ratio"
    (median !on_ms /. median !off_ms);
  ( traced.attempted + plain.attempted + t_on.attempted + t_off.attempted,
    traced.failed + plain.failed + t_on.failed + t_off.failed,
    overhead )

let ledger_restart ~own ~seed (sz : sizes) =
  let st = restart_setup ~seed sz in
  let c = st.r_cluster in
  let virt = Hashtbl.create 3 and written = ref [] in
  let op t =
    let n0 = t.virt_ms.Samples.n in
    let mode, w = restart_op st t in
    if t.virt_ms.Samples.n > n0 && !Trace.enabled then begin
      Hashtbl.replace virt (mode_name mode) (Samples.last t.virt_ms);
      written := float_of_int w :: !written
    end
  in
  let traced, plain, overhead = paired ~own ~n:(Array.length modes) op in
  let vms mode = Option.value (Hashtbl.find_opt virt mode) ~default:Float.nan in
  let m = "virtual_ms_p50" in
  row ~moves:m "restart.rvm.recovery.serial_virtual_ms" "ms" (vms "serial");
  row ~moves:m "restart.rvm.recovery.partitioned_virtual_ms" "ms" (vms "partitioned");
  row ~moves:m "restart.rvm.recovery.ondemand_virtual_ms" "ms" (vms "ondemand");
  row ~moves:m "restart.rvm.recovery.first_partition_virtual_ms" "ms"
    (match Lbc_obs.Obs.hist (Cluster.obs c) "time_to_first_partition_us" with
    | Some h -> Lbc_obs.Obs.Histogram.max_value h /. 1000.0
    | None -> Float.nan);
  row ~moves:"latency_ms_mean" "restart.storage.bytes_written_per_recovery" "bytes"
    (median !written);
  (* The recovery pipeline's stages, each timed on its own over scratch
     devices loaded with the pre-history images. *)
  let scratch () =
    let devs = Hashtbl.create 8 in
    List.iter
      (fun (r, img) ->
        let d = Dev.create () in
        Dev.load d img;
        Hashtbl.replace devs r d)
      st.r_pre;
    Hashtbl.find_opt devs
  in
  let timed name f = Trace.span ~op:0 ~parent:0 name (fun _ -> f ()) in
  let records =
    match timed "restart.wal.scan_merge" (fun () -> Cluster.merged_records c) with
    | Ok records -> records
    | Error (Lbc_core.Merge.Unorderable why) -> failwith ("restart: merge failed: " ^ why)
  in
  let streams = timed "restart.core.merge_partition" (fun () -> Lbc_core.Merge.partition records) in
  (* Each record kind replayed on its own, in merged order. *)
  let cmds, values =
    List.partition (fun (r : Record.txn) -> Option.is_some r.Record.cmd) records
  in
  let replay name records =
    let db_for_region = scratch () in
    let w0 = Gc.minor_words () in
    ignore (timed name (fun () -> Lbc_rvm.Recovery.replay_records records ~db_for_region));
    (Gc.minor_words () -. w0) /. float_of_int (max 1 (List.length records))
  in
  ignore (replay "restart.rvm.replay_value" values);
  let cmd_words = replay "restart.rvm.replay_command" cmds in
  let logs = List.init (Cluster.size c) (fun n -> Rvm.log (Node.rvm (Cluster.node c n))) in
  let indexes =
    timed "restart.wal.region_index" (fun () ->
        List.map (fun log -> (log, fst (Lbc_wal.Region_index.of_log log))) logs)
  in
  let db_for_region = scratch () in
  timed "restart.rvm.replay_chain" (fun () ->
      List.iter
        (fun (log, index) ->
          List.iter
            (fun offsets ->
              match Lbc_rvm.Recovery.replay_chain ~log ~offsets ~db_for_region with
              | Ok _ -> ()
              | Error e -> failwith ("restart: replay_chain: " ^ e))
            (Lbc_wal.Region_index.chains index))
        indexes);
  let rp = "latency_ms_mean, records_per_s" in
  row ~moves:rp ~flat:"oo7-sim, oo7-real" "restart.wal.scan_merge.ms" "ms"
    (Trace.ms_p50 "restart.wal.scan_merge");
  row ~moves:rp ~flat:"oo7-sim, oo7-real" "restart.core.merge_partition.ms" "ms"
    (Trace.ms_p50 "restart.core.merge_partition");
  row ~moves:rp ~flat:"oo7-sim, oo7-real" "restart.rvm.replay_value.ms" "ms"
    (Trace.ms_p50 "restart.rvm.replay_value");
  row ~moves:rp ~flat:"oo7-sim, oo7-real" "restart.rvm.replay_command.ms" "ms"
    (Trace.ms_p50 "restart.rvm.replay_command");
  row ~moves:rp ~flat:"oo7-sim, oo7-real" "restart.rvm.replay_command.words_per_record" "words"
    cmd_words;
  row ~moves:"latency_ms_mean" "restart.wal.region_index.ms" "ms"
    (Trace.ms_p50 "restart.wal.region_index");
  row ~moves:"latency_ms_mean" "restart.rvm.replay_chain.ms" "ms"
    (Trace.ms_p50 "restart.rvm.replay_chain");
  pr "restart: %d records merged (%d command), %d replay streams" (List.length records)
    (List.length cmds) (List.length streams);
  (traced.attempted + plain.attempted, traced.failed + plain.failed, overhead)

(* The ranges-per-record sweep: value records captured from three
   traversals, fed to each stage of the data path on their own.  It runs
   on the paper's own database (seed 1994 — [Schema.tiny] under --tiny),
   whose records have the range counts the rows are labelled with. *)
let sweep ~tiny =
  let schema = if tiny then Schema.tiny else Schema.small in
  let c = Runner.setup ~config:Config.measured ~nodes:1 schema in
  (* Median seconds per call over samples of [batch] calls, the batch
     grown until one sample takes at least a millisecond. *)
  let per_call f =
    let time batch =
      let t0 = wall () in
      for _ = 1 to batch do
        f ()
      done;
      wall () -. t0
    in
    let rec calibrate batch =
      let dt = time batch in
      if dt >= 1e-3 || batch >= 4096 then (batch, dt) else calibrate (batch * 2)
    in
    let batch, first = calibrate 1 in
    let samples = ref [ first ] and total = ref first in
    while List.length !samples < 3 || (!total < 0.1 && List.length !samples < 200) do
      let dt = time batch in
      samples := dt :: !samples;
      total := !total +. dt
    done;
    median !samples /. float_of_int batch
  in
  List.iter
    (fun (kind, label) ->
      let r = (Runner.run ~cluster:c ~writer:0 schema kind).Runner.value in
      let ranges = List.length r.Record.ranges in
      let ns_per_range s = s *. 1e9 /. float_of_int ranges in
      let add layer ~moves ~flat f =
        row ~moves ~flat (Printf.sprintf "%s.%s" layer label) "ns/range"
          (ns_per_range (per_call f))
      in
      let w = Lbc_util.Codec.writer () in
      add "wal.record_encode_into" ~moves:"oo7-real latency_ms_mean" ~flat:"hotlock" (fun () ->
          Lbc_util.Codec.clear w;
          Record.encode_into w r);
      add "core.wire_encode_iov" ~moves:"oo7-* latency_ms_mean" ~flat:"hotlock" (fun () ->
          ignore (Lbc_core.Wire.encode_iov r));
      let iov = Lbc_core.Wire.encode_iov r and flat = Lbc_core.Wire.encode r in
      add "core.wire_decode_iov" ~moves:"oo7-sim latency_ms_mean" ~flat:"oo7-real" (fun () ->
          ignore (Lbc_core.Wire.decode_iov iov));
      add "core.wire_decode" ~moves:"oo7-real latency_ms_mean" ~flat:"oo7-sim" (fun () ->
          ignore (Lbc_core.Wire.decode flat));
      let rvm =
        Rvm.init ~node:1 ~log_dev:(Dev.create ())
          ~options:{ Rvm.default_options with Rvm.disk_logging = false }
          ()
      in
      ignore
        (Rvm.map_region rvm ~id:Runner.region ~db:(Dev.create ())
           ~size:(Schema.region_size schema));
      add "rvm.apply_record" ~moves:"oo7-* latency_ms_mean" ~flat:"hotlock" (fun () ->
          Rvm.apply_record rvm r);
      let path = Printf.sprintf "sweep-%d.log" (Unix.getpid ()) in
      let dev = Dev.create_file ~path () in
      let log = Lbc_wal.Log.attach dev in
      add "wal.log_append_force" ~moves:"oo7-real latency_ms_mean" ~flat:"oo7-sim" (fun () ->
          ignore (Lbc_wal.Log.append log r);
          Lbc_wal.Log.force log);
      Dev.close dev;
      Sys.remove path;
      pr "sweep %s: %s, %d ranges" label (Traversal.name kind) ranges)
    [
      (Traversal.T12 Traversal.A, "r500");
      (Traversal.T3 Traversal.A, "r5959");
      (Traversal.T2 Traversal.B, "r10000");
    ]

let traced ~name ~seed ~tiny (sz : sizes) spin =
  Trace.enabled := true;
  row ~moves:"(diagnostic)" "host.spin_ms" "ms" spin;
  let own w = String.equal name w in
  let s1 = ledger_oo7 ~own:(own "oo7-sim") ~real:false sz in
  let s2 = ledger_oo7 ~own:(own "oo7-real") ~real:true sz in
  let s3 = ledger_hotlock ~own:(own "hotlock") ~seed sz in
  let s4 = ledger_restart ~own:(own "restart") ~seed sz in
  let sections = [ s1; s2; s3; s4 ] in
  sweep ~tiny;
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 sections in
  let attempted = sum (fun (a, _, _) -> a) and failed = sum (fun (_, f, _) -> f) in
  let _, _, overhead = List.find (fun (_, _, o) -> not (Float.is_nan o)) sections in
  row ~moves:"(all, against the untraced run)" "trace.overhead_ratio" "ratio" overhead;
  Trace.enabled := false;
  Trace.write (Printf.sprintf "spans-%s-%d.jsonl" name seed);
  let rows = List.rev !rows in
  pr "%-52s %14s %-9s %-34s %s" "per-layer metric" "value" "unit" "should move" "flat on";
  List.iter
    (fun r -> pr "%-52s %14.4f %-9s %-34s %s" r.r_name r.r_value r.r_unit r.r_moves r.r_flat)
    rows;
  (failed = 0, attempted, failed, List.map (fun r -> (r.r_name, r.r_value, r.r_unit)) rows)

(* ------------------------------------------------------------------ *)

let json_result ~correct ~attempted ~failed metrics =
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  List.iter
    (fun (n, v, _) -> if not (Float.is_finite v) then prerr_endline ("lbcbench: no value for " ^ n))
    metrics;
  let b = Buffer.create 4096 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    (correct && finite) attempted failed;
  List.iteri
    (fun i (name, v, unit) ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "%S: {\"value\": %.17g, \"unit\": %S}" name
        (if Float.is_finite v then v else 0.0)
        unit)
    metrics;
  Buffer.add_string b "}}";
  Buffer.contents b

let () =
  let name = ref "" and seed = ref (-1) and seconds = ref 10.0 and trace = ref 0 in
  let tiny = ref false in
  let usage =
    "lbcbench.exe --workload oo7-sim|oo7-real|hotlock|restart --seed N --seconds S \
     --trace 0|1 [--tiny]"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string name, " workload to run");
      ("--seed", Arg.Set_int seed, " input seed (non-negative)");
      ("--seconds", Arg.Set_float seconds, " measured seconds");
      ("--trace", Arg.Set_int trace, " 1 for the traced per-layer run");
      ("--tiny", Arg.Set tiny, " tiny sizes (smoke test)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if
    (not (List.mem !name [ "oo7-sim"; "oo7-real"; "hotlock"; "restart" ]))
    || !seed < 0 || !seconds <= 0.0
    || not (List.mem !trace [ 0; 1 ])
  then begin
    prerr_endline usage;
    exit 2
  end;
  let sz = sizes ~seed:!seed ~tiny:!tiny in
  let spin = host_spin_ms () in
  pr "workload %s seed %d seconds %g trace %d%s" !name !seed !seconds !trace
    (if !tiny then " tiny" else "");
  pr "host.spin_ms %.3f" spin;
  let correct, attempted, failed, metrics =
    if !trace = 1 then traced ~name:!name ~seed:!seed ~tiny:!tiny sz spin
    else untraced ~name:!name ~seed:!seed ~seconds:!seconds sz
  in
  pr "host.spin_ms %.3f (end of run)" (host_spin_ms ());
  print_endline (json_result ~correct ~attempted ~failed metrics)
