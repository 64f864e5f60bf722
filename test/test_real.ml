(* The real backend: OCaml 5 domains + socket fabric + real files.

   Three layers of evidence:
   - the atomic accounting really is atomic (two domains hammering the
     Slice counters and an Obs sink lose no increments);
   - the socket framing is faithful (random [Wire.encode_iov] payloads
     round-trip through [Msg_codec] + [Frame] byte-identically to the
     sim fabric's by-reference delivery, including arbitrary short-read
     boundaries);
   - the whole stack works end to end (an OO7 traversal propagates
     between two domains over real sockets and real files, committing
     the same bytes the sim backend commits). *)

module Slice = Lbc_util.Slice
module Obs = Lbc_obs.Obs
module Frame = Lbc_real.Frame
module Msg_codec = Lbc_real.Msg_codec

(* ---------------------------------------------------------------- *)
(* Satellite: atomic counters under two domains *)

let test_slice_counters_parallel () =
  Slice.reset_counters ();
  let per_domain = 50_000 in
  let work () =
    for _ = 1 to per_domain do
      Slice.count_copy 3;
      Slice.count_saved 2;
      Slice.count_alloc ()
    done
  in
  let d1 = Domain.spawn work and d2 = Domain.spawn work in
  Domain.join d1;
  Domain.join d2;
  Alcotest.(check int) "copied" (2 * per_domain * 3) (Slice.bytes_copied ());
  Alcotest.(check int)
    "baseline" (2 * per_domain * 5)
    (Slice.bytes_copied_baseline ());
  Alcotest.(check int) "allocs" (2 * per_domain) (Slice.encode_allocs ());
  Slice.reset_counters ()

let test_obs_parallel () =
  let obs = Obs.create ~now:(fun () -> 0.0) ~nodes:2 () in
  let per_domain = 20_000 in
  let work node () =
    for i = 1 to per_domain do
      Obs.count obs "hits" 1;
      Obs.observe obs "lat" (float_of_int i);
      Obs.instant obs ~name:"tick" ~pid:node ~tid:Obs.lane_txn ~arg:i
    done
  in
  let d1 = Domain.spawn (work 0) and d2 = Domain.spawn (work 1) in
  Domain.join d1;
  Domain.join d2;
  (match List.assoc_opt "hits" (Obs.counters obs) with
  | Some n -> Alcotest.(check int) "counter" (2 * per_domain) n
  | None -> Alcotest.fail "hits counter missing");
  match List.assoc_opt "lat" (Obs.hists obs) with
  | Some h ->
      Alcotest.(check int) "hist count" (2 * per_domain) (Obs.Histogram.count h)
  | None -> Alcotest.fail "lat histogram missing"

(* ---------------------------------------------------------------- *)
(* Satellite: framing equivalence with the sim fabric *)

let arb_txn =
  let open QCheck in
  let range =
    triple (int_bound 3) (int_bound 4000)
      (string_gen_of_size (Gen.int_range 1 64) Gen.printable)
  in
  let locks = small_list (pair (int_bound 20) (int_bound 1000)) in
  map
    (fun (node, tid, (locks, ranges)) ->
      {
        Lbc_wal.Record.node;
        tid;
        locks =
          List.map
            (fun (lock_id, seqno) ->
              { Lbc_wal.Record.lock_id; seqno; prev_write_seq = 0 })
            locks;
        ranges =
          List.map
            (fun (region, offset, data) ->
              { Lbc_wal.Record.region; offset; data = Bytes.of_string data })
            ranges;
        cmd = None;
      })
    (triple (int_bound 7) (int_bound 10_000) (pair locks (small_list range)))

(* Chop [frames] into randomly-sized stream segments and feed them
   through a pipe in that pattern, so Frame.read sees torn boundaries:
   prefixes split across reads, bodies delivered byte-by-byte, frames
   glued together. *)
let feed_through_pipe ~chop frames =
  let all = Bytes.concat Bytes.empty frames in
  let r, w = Unix.pipe () in
  let writer =
    Thread.create
      (fun () ->
        let pos = ref 0 in
        let chop = ref chop in
        while !pos < Bytes.length all do
          let n =
            match !chop with
            | [] -> Bytes.length all - !pos
            | c :: rest ->
                chop := rest;
                max 1 (min c (Bytes.length all - !pos))
          in
          let rec put off len =
            if len > 0 then begin
              let k = Unix.write w all off len in
              put (off + k) (len - k)
            end
          in
          put !pos n;
          pos := !pos + n
        done;
        Unix.close w)
      ()
  in
  let out = ref [] in
  let continue = ref true in
  while !continue do
    match Frame.read r with
    | Some b -> out := b :: !out
    | None -> continue := false
  done;
  Thread.join writer;
  Unix.close r;
  List.rev !out

(* One frame as contiguous bytes (the reader side never sees the iovec
   structure — only the stream). *)
let frame_bytes iov =
  let len = Slice.iov_length iov in
  let b = Bytes.create (Frame.header_bytes + len) in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.blit (Slice.concat iov) 0 b Frame.header_bytes len;
  b

let prop_framing_matches_sim =
  QCheck.Test.make ~count:200 ~name:"socket framing = sim delivery"
    QCheck.(pair (small_list arb_txn) (small_list (int_bound 40)))
    (fun (txns, chop) ->
      (* Sim side: encode_iov handed across by reference, decoded from
         the gather list. *)
      let iovs = List.map Lbc_core.Wire.encode_iov txns in
      let via_sim = List.map Lbc_core.Wire.decode_iov iovs in
      (* Socket side: the same iovecs framed as Update messages, the
         byte stream torn at [chop] boundaries, reassembled, decoded. *)
      let frames =
        List.map
          (fun iov -> frame_bytes (Msg_codec.encode (Lbc_core.Msg.Update iov)))
          iovs
      in
      let bodies = feed_through_pipe ~chop frames in
      if List.length bodies <> List.length frames then false
      else begin
        let via_socket =
          List.map
            (fun body ->
              match Msg_codec.decode body with
              | Lbc_core.Msg.Update iov -> Lbc_core.Wire.decode_iov iov
              | _ -> QCheck.Test.fail_report "decoded to non-Update")
            bodies
        in
        List.for_all2
          (fun a b -> Lbc_wal.Record.equal_txn a b)
          via_sim via_socket
      end)

let all_msgs =
  [
    Lbc_core.Msg.Lock
      (Lbc_locks.Table.Request { epoch = 3; lock = 17; requester = 2 });
    Lbc_core.Msg.Lock
      (Lbc_locks.Table.Forward { epoch = 0; lock = 0; requester = 0 });
    Lbc_core.Msg.Lock
      (Lbc_locks.Table.Token
         { epoch = 7; lock = 9; seqno = 123; last_write_seq = 120;
           last_writer = -1 });
    Lbc_core.Msg.Fetch { lock = 4; have = 17 };
    Lbc_core.Msg.Fetched
      {
        lock = 4;
        payloads =
          [ [ Slice.of_string "abc"; Slice.of_string "def" ];
            []; [ Slice.of_string "x" ] ];
      };
    Lbc_core.Msg.LowWater { applied = [ (1, 10); (2, 0); (9, 300) ] };
    Lbc_core.Msg.Update [ Slice.of_string "payload"; Slice.of_string "!" ];
  ]

let test_codec_roundtrip_all_constructors () =
  List.iter
    (fun m ->
      let body = Slice.concat (Msg_codec.encode m) in
      let m' = Msg_codec.decode body in
      let show m = Format.asprintf "%a" Lbc_core.Msg.pp m in
      Alcotest.(check string) "roundtrip" (show m) (show m');
      (* Fetched/Update payload bytes must survive exactly *)
      match (m, m') with
      | Lbc_core.Msg.Update a, Lbc_core.Msg.Update b ->
          Alcotest.(check bytes) "update bytes" (Slice.concat a)
            (Slice.concat b)
      | Lbc_core.Msg.Fetched { payloads = a; _ },
        Lbc_core.Msg.Fetched { payloads = b; _ } ->
          List.iter2
            (fun x y ->
              Alcotest.(check bytes) "payload bytes" (Slice.concat x)
                (Slice.concat y))
            a b
      | _ -> ())
    all_msgs

(* ---------------------------------------------------------------- *)
(* End to end: OO7 on two domains over sockets and files *)

let real_backend () = Lbc_core.Platform.Custom Lbc_real.Backend.factory

let small_schema = Lbc_oo7.Schema.small

let run_oo7 ~backend =
  let cluster = Lbc_oo7.Runner.setup ?backend ~nodes:2 small_schema in
  let outcome =
    Lbc_oo7.Runner.run ~cluster ~writer:0 small_schema
      (Lbc_oo7.Traversal.T2 Lbc_oo7.Traversal.A)
  in
  let region =
    Lbc_rvm.Rvm.region
      (Lbc_core.Node.rvm (Lbc_core.Cluster.node cluster 1))
      Lbc_oo7.Runner.region
  in
  let reader_image =
    Lbc_rvm.Region.read region ~offset:0 ~len:(Lbc_rvm.Region.size region)
  in
  Lbc_core.Cluster.shutdown cluster;
  (outcome, reader_image)

let test_oo7_real_matches_sim () =
  let sim_outcome, sim_image = run_oo7 ~backend:None in
  let real_outcome, real_image = run_oo7 ~backend:(Some (real_backend ())) in
  (* Same traversal, same committed record, same propagated bytes —
     only the clock differs. *)
  Alcotest.(check int)
    "field updates"
    sim_outcome.Lbc_oo7.Runner.result.Lbc_oo7.Traversal.field_updates
    real_outcome.Lbc_oo7.Runner.result.Lbc_oo7.Traversal.field_updates;
  Alcotest.(check bytes)
    "record bytes"
    (Lbc_core.Wire.encode sim_outcome.Lbc_oo7.Runner.record)
    (Lbc_core.Wire.encode real_outcome.Lbc_oo7.Runner.record);
  Alcotest.(check bytes) "reader image" sim_image real_image

(* The writer's elapsed time is on the platform clock, which on real
   domains is the wall clock: even a tiny traversal takes time. *)
let test_oo7_real_elapsed () =
  let tiny = Lbc_oo7.Schema.tiny in
  let cluster =
    Lbc_oo7.Runner.setup ~backend:(real_backend ()) ~nodes:2 tiny
  in
  let o =
    Lbc_oo7.Runner.run ~cluster ~writer:0 tiny
      (Lbc_oo7.Traversal.T2 Lbc_oo7.Traversal.A)
  in
  Lbc_core.Cluster.shutdown cluster;
  Alcotest.(check bool)
    (Printf.sprintf "elapsed %.1f µs > 0" o.Lbc_oo7.Runner.elapsed)
    true
    (o.Lbc_oo7.Runner.elapsed > 0.0)

(* Two domains write their own flight rings concurrently (one ring per
   node, single-writer each); the dump merges them into one wall-clock
   stream that passes the structural self-check. *)
let test_flight_dump_two_domains () =
  let module FD = Lbc_obs.Flight_dump in
  let nodes = 2 in
  let region_size = 4096 in
  let c = Lbc_core.Cluster.create ~backend:(real_backend ()) ~nodes () in
  Lbc_core.Cluster.add_region c ~id:0 ~size:region_size;
  Lbc_core.Cluster.map_region_all c ~region:0;
  for n = 0 to nodes - 1 do
    Lbc_core.Cluster.spawn c ~node:n (fun node ->
        for i = 1 to 10 do
          let txn = Lbc_core.Node.Txn.begin_ node in
          Lbc_core.Node.Txn.acquire txn n;
          Lbc_core.Node.Txn.set_u64 txn ~region:0 ~offset:(8 * n)
            (Int64.of_int i);
          Lbc_core.Node.Txn.commit txn
        done)
  done;
  Lbc_core.Cluster.run c;
  let path = Filename.temp_file "lbc-flight-real" ".bin" in
  let (_ : string) = Lbc_core.Cluster.dump_flight ~path c in
  Lbc_core.Cluster.shutdown c;
  (match FD.read path with
  | Error e -> Alcotest.failf "read failed: %s" e
  | Ok d ->
      Alcotest.(check string) "wall clock" "wall-us" d.FD.d_clock;
      Alcotest.(check (list string)) "self-check clean" [] (FD.self_check d);
      Alcotest.(check int) "one ring per domain" nodes
        (Array.length d.FD.d_rings);
      Array.iter
        (fun ring ->
          if Array.length ring.FD.r_events = 0 then
            Alcotest.failf "domain %d recorded no events" ring.FD.r_id)
        d.FD.d_rings;
      let merged = FD.merged d in
      Alcotest.(check bool) "events from both domains merged" true
        (Array.length merged
        = Array.fold_left
            (fun acc r -> acc + Array.length r.FD.r_events)
            0 d.FD.d_rings);
      Array.iteri
        (fun i ev ->
          if i > 0 && ev.FD.ev_ts_ns < merged.(i - 1).FD.ev_ts_ns then
            Alcotest.failf "merged wall-clock stream steps backwards at %d" i)
        merged);
  Sys.remove path

let test_real_rejects_sim_only () =
  let backend = real_backend () in
  Alcotest.check_raises "sched is sim-only"
    (Invalid_argument
       "Cluster.create: schedule policies are sim-only (deterministic \
        same-time ties do not exist on a preemptive backend)")
    (fun () ->
      ignore
        (Lbc_core.Cluster.create ~backend
           ~sched:(Lbc_sim.Schedule.Random_tie 1) ~nodes:2 ()));
  let cluster = Lbc_core.Cluster.create ~backend ~nodes:2 () in
  Alcotest.check_raises "crash is sim-only"
    (Lbc_core.Platform.Unsupported
       "Cluster.crash requires the sim backend (running on real)")
    (fun () -> Lbc_core.Cluster.crash cluster ~node:0);
  Lbc_core.Cluster.shutdown cluster

let suites =
  [
    ( "real-atomics",
      [
        Alcotest.test_case "slice counters, two domains" `Quick
          test_slice_counters_parallel;
        Alcotest.test_case "obs sink, two domains" `Quick test_obs_parallel;
      ] );
    ( "real-framing",
      [
        Alcotest.test_case "codec roundtrip, all constructors" `Quick
          test_codec_roundtrip_all_constructors;
        QCheck_alcotest.to_alcotest prop_framing_matches_sim;
      ] );
    ( "real-backend",
      [
        Alcotest.test_case "oo7 over domains = oo7 over sim" `Quick
          test_oo7_real_matches_sim;
        Alcotest.test_case "writer elapsed on the wall clock" `Quick
          test_oo7_real_elapsed;
        Alcotest.test_case "flight dump merges two domains" `Quick
          test_flight_dump_two_domains;
        Alcotest.test_case "sim-only operations refuse" `Quick
          test_real_rejects_sim_only;
      ] );
  ]
