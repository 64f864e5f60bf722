(* Tests for the distributed token-lock package. *)

open Lbc_sim
open Lbc_net
open Lbc_locks

let mk_cluster ?(nodes = 3) () =
  let e = Engine.create () in
  let f =
    Fabric.create ~params:Params.instant ~engine:e ~nodes ~size:(fun _ -> 16) ()
  in
  let tables =
    Array.init nodes (fun n ->
        Table.create ~node:n ~nodes
          ~send:(fun ~dst m -> Fabric.send f ~src:n ~dst m)
          ())
  in
  for n = 0 to nodes - 1 do
    for p = 0 to nodes - 1 do
      if p <> n then
        Proc.spawn e ~name:(Printf.sprintf "lockdisp-%d-%d" n p) (fun () ->
            while true do
              let m = Fabric.recv f ~dst:n ~src:p in
              Table.handle tables.(n) ~src:p m
            done)
    done
  done;
  (e, tables)

let check_int = Alcotest.(check int)

(* Lock 0 is managed by node 0, lock 1 by node 1, etc. *)

let test_local_acquire_immediate () =
  let e, tables = mk_cluster () in
  let grants = ref [] in
  Proc.spawn e (fun () ->
      let g1 = Table.acquire tables.(0) 0 in
      Table.release tables.(0) 0 ~wrote:true;
      let g2 = Table.acquire tables.(0) 0 in
      Table.release tables.(0) 0 ~wrote:false;
      let g3 = Table.acquire tables.(0) 0 in
      Table.release tables.(0) 0 ~wrote:false;
      grants := [ g1; g2; g3 ]);
  Engine.run e;
  (match !grants with
  | [ g1; g2; g3 ] ->
      check_int "seq 1" 1 g1.Table.seqno;
      check_int "no writer before" 0 g1.Table.prev_write_seq;
      check_int "seq 2" 2 g2.Table.seqno;
      check_int "write at seq1 visible" 1 g2.Table.prev_write_seq;
      check_int "seq 3" 3 g3.Table.seqno;
      check_int "read release does not advance" 1 g3.Table.prev_write_seq
  | _ -> Alcotest.fail "missing grants");
  check_int "all local" 3 (Table.stats tables.(0)).Table.local_grants;
  check_int "no requests" 0 (Table.stats tables.(0)).Table.requests_sent

let test_remote_acquire_moves_token () =
  let e, tables = mk_cluster () in
  let got = ref None in
  Proc.spawn e (fun () ->
      let g = Table.acquire tables.(1) 0 in
      got := Some g.Table.seqno;
      Table.release tables.(1) 0 ~wrote:false);
  Engine.run e;
  Alcotest.(check (option int)) "granted remotely" (Some 1) !got;
  Alcotest.(check bool) "token moved" true (Table.has_token tables.(1) 0);
  Alcotest.(check bool) "manager lost token" false (Table.has_token tables.(0) 0);
  check_int "one remote grant" 1 (Table.stats tables.(1)).Table.remote_grants

let test_mutual_exclusion () =
  let e, tables = mk_cluster () in
  let in_cs = ref false and violations = ref 0 and entries = ref 0 in
  let worker n =
    Proc.spawn e ~name:(Printf.sprintf "worker%d" n) (fun () ->
        for _ = 1 to 10 do
          ignore (Table.acquire tables.(n) 5);
          if !in_cs then incr violations;
          in_cs := true;
          incr entries;
          Proc.sleep 3.0;
          in_cs := false;
          Table.release tables.(n) 5 ~wrote:true;
          Proc.sleep 1.0
        done)
  in
  worker 0; worker 1; worker 2;
  Engine.run e;
  check_int "no violations" 0 !violations;
  check_int "all entered" 30 !entries

let test_seqnos_total_order () =
  let e, tables = mk_cluster () in
  let seqs = ref [] in
  let worker n =
    Proc.spawn e (fun () ->
        for _ = 1 to 7 do
          let g = Table.acquire tables.(n) 2 in
          seqs := g.Table.seqno :: !seqs;
          Proc.sleep 2.0;
          Table.release tables.(n) 2 ~wrote:(n = 0);
          Proc.sleep 2.0
        done)
  in
  worker 0; worker 1; worker 2;
  Engine.run e;
  let sorted = List.sort compare !seqs in
  Alcotest.(check (list int)) "seqnos are 1..21 each exactly once"
    (List.init 21 (fun i -> i + 1))
    sorted

let test_prev_write_seq_tracks_writers () =
  let e, tables = mk_cluster () in
  let observed = ref [] in
  Proc.spawn e (fun () ->
      (* Node 0 writes (seq 1), node 1 reads (seq 2), node 2 must still see
         prev_write_seq = 1. *)
      let g0 = Table.acquire tables.(0) 0 in
      Table.release tables.(0) 0 ~wrote:true;
      Proc.spawn (Proc.engine ()) (fun () ->
          let g1 = Table.acquire tables.(1) 0 in
          Table.release tables.(1) 0 ~wrote:false;
          Proc.spawn (Proc.engine ()) (fun () ->
              let g2 = Table.acquire tables.(2) 0 in
              Table.release tables.(2) 0 ~wrote:false;
              observed := [ g0; g1; g2 ]));
      ());
  Engine.run e;
  match !observed with
  | [ g0; g1; g2 ] ->
      check_int "writer saw none" 0 g0.Table.prev_write_seq;
      check_int "reader sees write 1" 1 g1.Table.prev_write_seq;
      check_int "second reader still sees write 1" 1 g2.Table.prev_write_seq;
      check_int "seqno 3" 3 g2.Table.seqno
  | _ -> Alcotest.fail "missing grants"

let test_local_waiters_fifo () =
  let e, tables = mk_cluster () in
  let order = ref [] in
  Proc.spawn e ~name:"holder" (fun () ->
      ignore (Table.acquire tables.(0) 0);
      Proc.sleep 10.0;
      Table.release tables.(0) 0 ~wrote:false);
  for i = 1 to 3 do
    Proc.spawn e ~name:(Printf.sprintf "waiter%d" i) (fun () ->
        Proc.sleep (float_of_int i);
        ignore (Table.acquire tables.(0) 0);
        order := i :: !order;
        Table.release tables.(0) 0 ~wrote:false)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !order)

let test_token_cached_after_remote_grant () =
  let e, tables = mk_cluster () in
  Proc.spawn e (fun () ->
      ignore (Table.acquire tables.(2) 0);
      Table.release tables.(2) 0 ~wrote:false;
      (* Second acquire needs no communication: token is cached. *)
      ignore (Table.acquire tables.(2) 0);
      Table.release tables.(2) 0 ~wrote:false);
  Engine.run e;
  let st = Table.stats tables.(2) in
  check_int "one request only" 1 st.Table.requests_sent;
  check_int "one remote grant" 1 st.Table.remote_grants;
  check_int "one local grant" 1 st.Table.local_grants

let test_release_without_hold () =
  let _, tables = mk_cluster () in
  Alcotest.(check bool) "raises" true
    (try Table.release tables.(0) 0 ~wrote:false; false
     with Table.Protocol_error _ -> true)

let test_distinct_locks_independent () =
  let e, tables = mk_cluster () in
  let concurrent = ref 0 and max_concurrent = ref 0 in
  let worker n lock =
    Proc.spawn e (fun () ->
        ignore (Table.acquire tables.(n) lock);
        incr concurrent;
        if !concurrent > !max_concurrent then max_concurrent := !concurrent;
        Proc.sleep 10.0;
        decr concurrent;
        Table.release tables.(n) lock ~wrote:false)
  in
  worker 0 10;
  worker 1 11;
  worker 2 12;
  Engine.run e;
  check_int "all three held simultaneously" 3 !max_concurrent

let test_stress_random_contention () =
  (* Heavier randomized schedule; checks mutual exclusion per lock and
     that every acquire eventually succeeds (the run terminates). *)
  let nodes = 4 in
  let e = Engine.create () in
  let f =
    Fabric.create ~params:Params.an1 ~engine:e ~nodes ~size:(fun _ -> 16) ()
  in
  let tables =
    Array.init nodes (fun n ->
        Table.create ~node:n ~nodes
          ~send:(fun ~dst m -> Fabric.send f ~src:n ~dst m)
          ())
  in
  for n = 0 to nodes - 1 do
    for p = 0 to nodes - 1 do
      if p <> n then
        Proc.spawn e (fun () ->
            while true do
              let m = Fabric.recv f ~dst:n ~src:p in
              Table.handle tables.(n) ~src:p m
            done)
    done
  done;
  let rng = Lbc_util.Rng.create 2024 in
  let holders = Array.make 3 (-1) in
  let completed = ref 0 in
  for n = 0 to nodes - 1 do
    let rng = Lbc_util.Rng.split rng in
    Proc.spawn e (fun () ->
        for _ = 1 to 25 do
          let lock = Lbc_util.Rng.int rng 3 in
          ignore (Table.acquire tables.(n) lock);
          if holders.(lock) <> -1 then
            Alcotest.failf "lock %d already held by %d" lock holders.(lock);
          holders.(lock) <- n;
          Proc.sleep (Lbc_util.Rng.float rng 50.0);
          holders.(lock) <- -1;
          Table.release tables.(n) lock ~wrote:(Lbc_util.Rng.bool rng);
          incr completed;
          Proc.sleep (Lbc_util.Rng.float rng 20.0)
        done)
  done;
  Engine.run e;
  check_int "all iterations completed" 100 !completed

let test_acquire_timeout_expires () =
  let e, tables = mk_cluster () in
  let outcome = ref (Some { Table.seqno = -1; prev_write_seq = -1; last_writer = -1 }) in
  Proc.spawn e ~name:"holder" (fun () ->
      ignore (Table.acquire tables.(0) 0);
      Proc.sleep 1000.0;
      Table.release tables.(0) 0 ~wrote:false);
  Proc.spawn e ~name:"impatient" (fun () ->
      Proc.sleep 1.0;
      outcome := Table.acquire_timeout tables.(1) 0 ~timeout:100.0);
  Engine.run e;
  Alcotest.(check bool) "timed out" true (!outcome = None);
  (* The token eventually arrives anyway and is cached, not lost. *)
  Alcotest.(check bool) "token cached after late arrival" true
    (Table.has_token tables.(1) 0)

let test_acquire_timeout_granted_in_time () =
  let e, tables = mk_cluster () in
  let outcome = ref None in
  Proc.spawn e (fun () ->
      ignore (Table.acquire tables.(0) 0);
      Proc.sleep 50.0;
      Table.release tables.(0) 0 ~wrote:false);
  Proc.spawn e (fun () ->
      Proc.sleep 1.0;
      outcome := Table.acquire_timeout tables.(1) 0 ~timeout:10_000.0);
  Engine.run e;
  Alcotest.(check bool) "granted" true (Option.is_some !outcome)

let test_timeout_waiter_does_not_capture_grant () =
  (* A cancelled waiter must be skipped; the next live waiter gets the
     lock. *)
  let e, tables = mk_cluster () in
  let got = ref [] in
  Proc.spawn e ~name:"holder" (fun () ->
      ignore (Table.acquire tables.(0) 0);
      Proc.sleep 500.0;
      Table.release tables.(0) 0 ~wrote:false);
  Proc.spawn e ~name:"quitter" (fun () ->
      Proc.sleep 1.0;
      match Table.acquire_timeout tables.(0) 0 ~timeout:50.0 with
      | None -> got := "quitter-timeout" :: !got
      | Some _ -> got := "quitter-granted" :: !got);
  Proc.spawn e ~name:"patient" (fun () ->
      Proc.sleep 2.0;
      ignore (Table.acquire tables.(0) 0);
      got := "patient-granted" :: !got;
      Table.release tables.(0) 0 ~wrote:false);
  Engine.run e;
  Alcotest.(check (list string)) "order"
    [ "quitter-timeout"; "patient-granted" ]
    (List.rev !got)

let test_deadlock_broken_by_timeout () =
  (* Classic AB/BA deadlock; node 1 times out, releases, retries. *)
  let e, tables = mk_cluster () in
  let done_ = ref 0 in
  Proc.spawn e ~name:"A" (fun () ->
      ignore (Table.acquire tables.(0) 0);
      Proc.sleep 20.0;
      (* A waits for lock 1 indefinitely; it must eventually win. *)
      ignore (Table.acquire tables.(0) 1);
      Table.release tables.(0) 1 ~wrote:false;
      Table.release tables.(0) 0 ~wrote:false;
      incr done_);
  Proc.spawn e ~name:"B" (fun () ->
      ignore (Table.acquire tables.(1) 1);
      Proc.sleep 20.0;
      (match Table.acquire_timeout tables.(1) 0 ~timeout:200.0 with
      | Some _ ->
          Table.release tables.(1) 0 ~wrote:false;
          Table.release tables.(1) 1 ~wrote:false
      | None ->
          (* Deadlock broken: back off completely, retry later. *)
          Table.release tables.(1) 1 ~wrote:false;
          Proc.sleep 500.0;
          ignore (Table.acquire tables.(1) 1);
          ignore (Table.acquire tables.(1) 0);
          Table.release tables.(1) 0 ~wrote:false;
          Table.release tables.(1) 1 ~wrote:false);
      incr done_);
  Engine.run e;
  Alcotest.(check int) "both completed" 2 !done_

let suites =
  [
    ( "locks.table",
      [
        Alcotest.test_case "local acquire immediate" `Quick
          test_local_acquire_immediate;
        Alcotest.test_case "remote acquire moves token" `Quick
          test_remote_acquire_moves_token;
        Alcotest.test_case "mutual exclusion" `Quick test_mutual_exclusion;
        Alcotest.test_case "seqnos total order" `Quick test_seqnos_total_order;
        Alcotest.test_case "prev_write_seq" `Quick
          test_prev_write_seq_tracks_writers;
        Alcotest.test_case "local waiters fifo" `Quick test_local_waiters_fifo;
        Alcotest.test_case "token cached" `Quick
          test_token_cached_after_remote_grant;
        Alcotest.test_case "release without hold" `Quick
          test_release_without_hold;
        Alcotest.test_case "distinct locks independent" `Quick
          test_distinct_locks_independent;
        Alcotest.test_case "stress random contention" `Quick
          test_stress_random_contention;
      ] );
    ( "locks.timeout",
      [
        Alcotest.test_case "timeout expires" `Quick test_acquire_timeout_expires;
        Alcotest.test_case "granted in time" `Quick
          test_acquire_timeout_granted_in_time;
        Alcotest.test_case "cancelled waiter skipped" `Quick
          test_timeout_waiter_does_not_capture_grant;
        Alcotest.test_case "deadlock broken" `Quick test_deadlock_broken_by_timeout;
      ] );
  ]
