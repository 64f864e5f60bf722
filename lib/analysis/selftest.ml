(* End-to-end self-test for the checker itself.

   Positive half: run chaos-style simulated workloads (the same shape as
   test/test_chaos.ml) under several configurations and require that the
   verifier accepts every per-node redo log it produces.

   Negative half ("mutation check"): seed one corruption per invariant
   into otherwise-valid streams and require that the verifier reports a
   violation with the right name:

   - seqno swap        -> seqno-monotonicity
   - seqno gap         -> seqno-gap (a write drops out of the chain)
   - unlocked write    -> unlocked-race
   - codec truncation  -> codec-decode

   Plus a lint self-check on a synthetic source fragment. *)

module R = Lbc_wal.Record
open Lbc_core

type result = { check : string; ok : bool; detail : string }

let all_ok results = List.for_all (fun r -> r.ok) results

(* --------------------------------------------------------------- *)
(* The chaos workload (mirrors test/test_chaos.ml, scaled down); the
   explorer's scenarios run the same geometry and worker *)

let regions = 2
let locks_per_region = 2
let region_size = 2048
let all_locks = regions * locks_per_region
let lock_region l = l / locks_per_region

let lock_offset rng l =
  let part = l mod locks_per_region in
  let span = region_size / locks_per_region in
  (part * span) + (8 * Lbc_util.Rng.int rng (span / 8))

let mk_cluster ?sched config ~nodes =
  let c = Cluster.create ~config ?sched ~nodes () in
  for r = 0 to regions - 1 do
    Cluster.add_region c ~id:r ~size:region_size;
    Cluster.map_region_all c ~region:r
  done;
  c

(* [iterations] transactions on [node], each over one or two random
   locks; a quarter of the held locks go unwritten and one transaction
   in ten aborts.  Draws from its own split of [rng]. *)
let worker c rng ~node ~iterations =
  let rng = Lbc_util.Rng.split rng in
  Cluster.spawn c ~node (fun node ->
      for _ = 1 to iterations do
        let txn = Node.Txn.begin_ node in
        let l1 = Lbc_util.Rng.int rng all_locks in
        let l2 = Lbc_util.Rng.int rng all_locks in
        let ls = List.sort_uniq Int.compare [ l1; l2 ] in
        List.iter (fun l -> Node.Txn.acquire txn l) ls;
        List.iter
          (fun l ->
            if Lbc_util.Rng.int rng 4 > 0 then
              Node.Txn.set_u64 txn ~region:(lock_region l)
                ~offset:(lock_offset rng l)
                (Lbc_util.Rng.int64 rng))
          ls;
        if Lbc_util.Rng.int rng 10 = 0 then Node.Txn.abort txn
        else Node.Txn.commit txn;
        Lbc_sim.Proc.sleep (Lbc_util.Rng.float rng 30.0)
      done)

let build_sim_logs ?(checkpoints = false) ~config ~nodes ~seed ~iterations ()
    =
  let c = mk_cluster config ~nodes in
  let rng = Lbc_util.Rng.create seed in
  for n = 0 to nodes - 1 do
    worker c rng ~node:n ~iterations
  done;
  if checkpoints then begin
    Cluster.run ~until:300.0 c;
    ignore (Cluster.checkpoint c : int)
  end;
  Cluster.run c;
  List.init nodes (fun n -> Lbc_rvm.Rvm.log (Node.rvm (Cluster.node c n)))

let build_sim_streams ?checkpoints ~config ~nodes ~seed ~iterations () =
  List.map Invariants.stream_of_log
    (build_sim_logs ?checkpoints ~config ~nodes ~seed ~iterations ())

(* --------------------------------------------------------------- *)
(* Corruption seeding *)

(* Replace the [i]-th record of stream [si]. *)
let patch streams si i f =
  List.mapi
    (fun s stream ->
      if s <> si then stream
      else List.mapi (fun j txn -> if j = i then f txn else txn) stream)
    streams

let set_seqno lock seqno (txn : R.txn) =
  {
    txn with
    R.locks =
      List.map
        (fun l -> if l.R.lock_id = lock then { l with R.seqno } else l)
        txn.R.locks;
  }

(* Two records of the same stream holding the same lock, to swap. *)
let find_swap_target streams =
  let found = ref None in
  List.iteri
    (fun si stream ->
      List.iteri
        (fun i (txn : R.txn) ->
          List.iter
            (fun l ->
              List.iteri
                (fun j (txn2 : R.txn) ->
                  if j > i && !found = None then
                    List.iter
                      (fun l2 ->
                        if l2.R.lock_id = l.R.lock_id && !found = None then
                          found :=
                            Some (si, i, j, l.R.lock_id, l.R.seqno, l2.R.seqno))
                      txn2.R.locks)
                stream)
            txn.R.locks)
        stream)
    streams;
  !found

let corrupt_seqno_swap streams =
  match find_swap_target streams with
  | None -> None
  | Some (si, i, j, lock, s1, s2) ->
      Some
        (patch
           (patch streams si i (set_seqno lock s2))
           si j (set_seqno lock s1))

(* A writing record, not the first of its lock's chain, whose seqno a
   later record names as prev_write_seq: dropping it leaves a hole the
   chain check must flag as seqno-gap. *)
let find_drop_target streams =
  let all = List.concat streams in
  let referenced lock seqno =
    List.exists
      (fun (t : R.txn) ->
        List.exists
          (fun l -> l.R.lock_id = lock && l.R.prev_write_seq = seqno)
          t.R.locks)
      all
  in
  let has_earlier lock seqno =
    List.exists
      (fun (t : R.txn) ->
        List.exists
          (fun l -> l.R.lock_id = lock && l.R.seqno < seqno)
          t.R.locks)
      all
  in
  let found = ref None in
  List.iteri
    (fun si stream ->
      List.iteri
        (fun i (txn : R.txn) ->
          if !found = None && txn.R.ranges <> [] then
            List.iter
              (fun l ->
                if
                  !found = None
                  && referenced l.R.lock_id l.R.seqno
                  && has_earlier l.R.lock_id l.R.seqno
                then found := Some (si, i))
              txn.R.locks)
        stream)
    streams;
  !found

let corrupt_seqno_gap streams =
  match find_drop_target streams with
  | None -> None
  | Some (si, i) ->
      Some
        (List.mapi
           (fun s stream ->
             if s <> si then stream
             else List.filteri (fun j _ -> j <> i) stream)
           streams)

(* Append a fresh stream holding one lock-less transaction that rewrites
   bytes some properly-locked transaction also wrote.  Zero-range
   commits (read-only transactions, lock-only records) are
   legal stream entries; the match skips them instead of trusting a
   separate guard to have filtered them before a [List.hd]. *)
let corrupt_unlocked_write streams =
  let target =
    List.find_opt
      (fun (t : R.txn) -> t.R.ranges <> [])
      (List.concat streams)
  in
  match target with
  | None | Some { R.ranges = []; _ } -> None
  | Some { R.ranges = r :: _; _ } ->
      let rogue =
        {
          R.node = List.length streams;
          tid = 999_999;
          locks = [];
          ranges = [ r ];
          cmd = None;
        }
      in
      Some (streams @ [ [ rogue ] ])

let corrupt_codec_truncation streams =
  let target =
    List.find_opt
      (fun (t : R.txn) -> t.R.ranges <> [])
      (List.concat streams)
  in
  match target with
  | None -> None
  | Some t ->
      let payload = Wire.encode t in
      Some (Bytes.sub payload 0 (Bytes.length payload - 5))

(* --------------------------------------------------------------- *)
(* The self-test proper *)

let names violations =
  List.sort_uniq String.compare (List.map Violation.name violations)

let expect_clean check streams =
  match Invariants.check_streams streams with
  | [] -> { check; ok = true; detail = "no violations" }
  | vs ->
      {
        check;
        ok = false;
        detail =
          Printf.sprintf "%d unexpected violations: %s" (List.length vs)
            (String.concat "; " (List.map Violation.to_string vs));
      }

let expect_violation check name violations =
  if List.mem name (names violations) then
    {
      check;
      ok = true;
      detail = Printf.sprintf "flagged as expected (%s)" name;
    }
  else
    {
      check;
      ok = false;
      detail =
        Printf.sprintf "expected a %s violation, got [%s]" name
          (String.concat "; " (names violations));
    }

let missing check what = { check; ok = false; detail = "no target: " ^ what }

let lint_fixture =
  String.concat "\n"
    [
      "let sorted xs = List.sort compare xs";
      "let f () = try g () with _ -> 0";
      "let cast (x : int) : float = Obj.magic x";
      "let dup b = Bytes.sub b 0 4";
      "let dup_ok b = Bytes.copy b (* copy-ok: fixture *)";
      "let dbg x = Printf.printf \"x=%d\\n\" x";
      "let dbg_ok x = Format.eprintf \"x=%d@.\" x (* print-ok: fixture *)";
      "let tie e t = e.at = now t";
      "let tie_ok e t = e.at = now t (* eq-ok: fixture *)";
      "let wall () = Unix.gettimeofday ()";
      "let seed () = Random.self_init ()";
      "let wall_ok () = Unix.sleepf 0.1 (* clock-ok: fixture *)";
    ]

(* A second fixture scanned under the flight recorder's path: the
   flight-alloc rule is scoped to lib/obs flight.ml, so it must fire
   there (and nowhere in the main fixture above). *)
let flight_fixture =
  String.concat "\n"
    [
      "let ring () = Bytes.create 4096";
      "let ring_ok () = Bytes.create 4096 (* alloc-ok: fixture *)";
      "let scratch () = Buffer.create 16";
      "let poke r = Bytes.unsafe_set r 0 'x'";
    ]

let run () =
  let streams =
    build_sim_streams ~config:Config.default ~nodes:4 ~seed:101 ~iterations:20
      ()
  in
  let clean_cases =
    [
      ("clean: eager", streams);
      ( "clean: multicast",
        build_sim_streams
          ~config:{ Config.default with Config.multicast = true }
          ~nodes:5 ~seed:303 ~iterations:15 () );
      ( "clean: lazy propagation",
        build_sim_streams
          ~config:{ Config.default with Config.propagation = Config.Lazy }
          ~nodes:3 ~seed:505 ~iterations:15 () );
      ( "clean: checkpoint (trimmed logs)",
        build_sim_streams ~checkpoints:true ~config:Config.default ~nodes:3
          ~seed:202 ~iterations:15 () );
    ]
  in
  let clean = List.map (fun (n, s) -> expect_clean n s) clean_cases in
  let swap =
    match corrupt_seqno_swap streams with
    | None -> missing "corrupt: seqno swap" "no lock used twice in one log"
    | Some mutated ->
        expect_violation "corrupt: seqno swap" "seqno-monotonicity"
          (Invariants.check_streams mutated)
  in
  let gap =
    match corrupt_seqno_gap streams with
    | None -> missing "corrupt: seqno gap" "no referenced mid-chain write"
    | Some mutated ->
        expect_violation "corrupt: seqno gap" "seqno-gap"
          (Invariants.check_streams mutated)
  in
  let race =
    match corrupt_unlocked_write streams with
    | None -> missing "corrupt: unlocked write" "no writing record"
    | Some mutated ->
        expect_violation "corrupt: unlocked overlapping write" "unlocked-race"
          (Invariants.check_streams mutated)
  in
  let trunc =
    match corrupt_codec_truncation streams with
    | None -> missing "corrupt: codec truncation" "no writing record"
    | Some payload ->
        expect_violation "corrupt: codec truncation" "codec-decode"
          (Invariants.check_wire_image payload)
  in
  let zero_range =
    (* A stream of zero-range (read-only) commits: the verifier must
       accept it and the mutation helpers must skip it cleanly rather
       than crash on an empty range list. *)
    let ro node tid seqno prev =
      {
        R.node;
        tid;
        locks = [ { R.lock_id = 0; seqno; prev_write_seq = prev } ];
        ranges = [];
        cmd = None;
      }
    in
    let streams = [ [ ro 0 1 1 0; ro 0 2 3 0 ]; [ ro 1 3 2 0 ] ] in
    match corrupt_unlocked_write streams with
    | Some _ ->
        {
          check = "fixture: zero-range commit";
          ok = false;
          detail = "mutation helper fabricated a write from a read-only txn";
        }
    | None -> expect_clean "fixture: zero-range commit" streams
    | exception e ->
        {
          check = "fixture: zero-range commit";
          ok = false;
          detail = "mutation helper raised: " ^ Printexc.to_string e;
        }
  in
  let lint =
    let vs = Lint.scan_source ~file:"lib/core/fixture.ml" lint_fixture in
    let got = names vs in
    if
      List.mem "poly-compare" got
      && List.mem "catch-all-handler" got
      && List.mem "obj-magic" got
      && List.mem "hot-path-copy" got
      && List.mem "print-debug" got
      && List.mem "float-equality" got
      && List.mem "wall-clock" got
      (* the copy-ok / print-ok / eq-ok / clock-ok lines must be the hits
         that are NOT reported *)
      && List.length (List.filter (String.equal "hot-path-copy") got) = 1
      && List.length (List.filter (String.equal "print-debug") got) = 1
      && List.length
           (List.filter (String.equal "float-equality")
              (List.map Violation.name vs))
         = 1
      && List.length
           (List.filter (String.equal "wall-clock") (List.map Violation.name vs))
         = 2
    then
      {
        check = "lint: fixture";
        ok = true;
        detail =
          "all seven rules fire on the fixture; copy-ok, print-ok, eq-ok \
           and clock-ok suppress";
      }
    else
      {
        check = "lint: fixture";
        ok = false;
        detail = Printf.sprintf "rules fired: [%s]" (String.concat "; " got);
      }
  in
  let flight_lint =
    (* Path-scoped: the same fragment is clean outside lib/obs flight.ml
       and yields exactly two flight-alloc hits inside it (the alloc-ok
       line and the non-allocating Bytes.unsafe_set suppress). *)
    let inside =
      List.map Violation.name
        (Lint.scan_source ~file:"lib/obs/flight.ml" flight_fixture)
    in
    let outside =
      List.filter (String.equal "flight-alloc")
        (List.map Violation.name
           (Lint.scan_source ~file:"lib/core/fixture.ml" flight_fixture))
    in
    if
      List.length (List.filter (String.equal "flight-alloc") inside) = 2
      && List.length inside = 2 && outside = []
    then
      {
        check = "lint: flight-alloc fixture";
        ok = true;
        detail =
          "fires twice in lib/obs/flight.ml; alloc-ok and unsafe_set \
           suppress; silent elsewhere";
      }
    else
      {
        check = "lint: flight-alloc fixture";
        ok = false;
        detail =
          Printf.sprintf "inside: [%s]; outside flight-alloc: %d"
            (String.concat "; " inside)
            (List.length outside);
      }
  in
  let serialize =
    (* A two-node committed stream replayed against the sequential spec:
       the matching final image passes, a one-byte corruption is flagged
       as a serializability divergence. *)
    let txn node tid seqno prev byte =
      {
        R.node;
        tid;
        locks = [ { R.lock_id = 0; seqno; prev_write_seq = prev } ];
        ranges =
          [ { R.region = 0; offset = 4; data = Bytes.make 1 (Char.chr byte) } ];
        cmd = None;
      }
    in
    let streams = [ [ txn 0 1 1 0 0x11 ]; [ txn 1 2 2 1 0x22 ] ] in
    let expected = Bytes.make 16 '\000' in
    Bytes.set expected 4 (Char.chr 0x22);
    let corrupted = Bytes.copy expected in
    Bytes.set corrupted 4 (Char.chr 0x11);
    let regions = [ (0, 16) ] in
    let clean_res =
      match
        Serialize.check ~regions ~finals:[ ("node 0", fun _ -> expected) ]
          streams
      with
      | [] ->
          { check = "serialize: spec matches"; ok = true; detail = "clean" }
      | vs ->
          {
            check = "serialize: spec matches";
            ok = false;
            detail = String.concat "; " (List.map Violation.to_string vs);
          }
    in
    let corrupt_res =
      expect_violation "serialize: diverging image flagged" "serializability"
        (Serialize.check ~regions
           ~finals:[ ("node 0", fun _ -> corrupted) ]
           streams)
    in
    [ clean_res; corrupt_res ]
  in
  clean @ [ swap; gap; race; trunc; zero_range; lint; flight_lint ] @ serialize
