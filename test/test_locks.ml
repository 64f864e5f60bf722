(* Tests for the distributed token-lock package. *)

open Lbc_sim
open Lbc_net
open Lbc_locks

(* The table calls no engine: here a fabric carries its messages and a
   simulated process parks on an ivar the table fills. *)
let mk_cluster ?(nodes = 3) () =
  let e = Engine.create () in
  let f =
    Fabric.create ~params:Params.instant ~engine:e ~nodes ~size:(fun _ -> 16) ()
  in
  let tables =
    Array.init nodes (fun n ->
        Table.create ~node:n ~nodes
          ~send:(fun ~dst m -> Fabric.send f ~src:n ~dst m)
          ~grant:Ivar.fill ())
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

(* A blocking acquire without timeouts. *)
let acquire t lock =
  match Table.acquire t lock with
  | Some g -> g
  | None ->
      let iv = Ivar.create () in
      Table.wait t lock iv;
      Ivar.read iv

let check_int = Alcotest.(check int)

(* Lock 0 is managed by node 0, lock 1 by node 1, etc. *)

let test_local_acquire_immediate () =
  let e, tables = mk_cluster () in
  let grants = ref [] in
  Proc.spawn e (fun () ->
      let g1 = acquire tables.(0) 0 in
      Table.release tables.(0) 0 ~wrote:true;
      let g2 = acquire tables.(0) 0 in
      Table.release tables.(0) 0 ~wrote:false;
      let g3 = acquire tables.(0) 0 in
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
      let g = acquire tables.(1) 0 in
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
          ignore (acquire tables.(n) 5);
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
          let g = acquire tables.(n) 2 in
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
      let g0 = acquire tables.(0) 0 in
      Table.release tables.(0) 0 ~wrote:true;
      Proc.spawn (Proc.engine ()) (fun () ->
          let g1 = acquire tables.(1) 0 in
          Table.release tables.(1) 0 ~wrote:false;
          Proc.spawn (Proc.engine ()) (fun () ->
              let g2 = acquire tables.(2) 0 in
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
      ignore (acquire tables.(0) 0);
      Proc.sleep 10.0;
      Table.release tables.(0) 0 ~wrote:false);
  for i = 1 to 3 do
    Proc.spawn e ~name:(Printf.sprintf "waiter%d" i) (fun () ->
        Proc.sleep (float_of_int i);
        ignore (acquire tables.(0) 0);
        order := i :: !order;
        Table.release tables.(0) 0 ~wrote:false)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !order)

let test_token_cached_after_remote_grant () =
  let e, tables = mk_cluster () in
  Proc.spawn e (fun () ->
      ignore (acquire tables.(2) 0);
      Table.release tables.(2) 0 ~wrote:false;
      (* Second acquire needs no communication: token is cached. *)
      ignore (acquire tables.(2) 0);
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
        ignore (acquire tables.(n) lock);
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
          ~grant:Ivar.fill ())
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
          ignore (acquire tables.(n) lock);
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

(* Timeouts belong to the one waiter, [Node.Txn]: a cluster whose
   transactions only take locks. *)
module Cluster = Lbc_core.Cluster
module Txn = Lbc_core.Node.Txn

let lock_txn c ~node body =
  Cluster.spawn c ~node (fun n -> body (Txn.begin_ n))

let test_acquire_timeout_expires () =
  let c = Cluster.create ~nodes:3 () in
  let outcome = ref true in
  lock_txn c ~node:0 (fun txn ->
      Txn.acquire txn 0;
      Proc.sleep 1000.0;
      Txn.commit txn);
  lock_txn c ~node:1 (fun txn ->
      Proc.sleep 1.0;
      outcome := Txn.acquire_timeout txn 0 ~timeout:100.0;
      Txn.abort txn);
  Cluster.run c;
  Alcotest.(check bool) "timed out" false !outcome;
  (* The token eventually arrives anyway and is cached, not lost. *)
  Alcotest.(check bool) "token cached after late arrival" true
    (Table.has_token (Lbc_core.Node.locks (Cluster.node c 1)) 0)

let test_acquire_timeout_granted_in_time () =
  let c = Cluster.create ~nodes:3 () in
  let outcome = ref false in
  lock_txn c ~node:0 (fun txn ->
      Txn.acquire txn 0;
      Proc.sleep 50.0;
      Txn.commit txn);
  lock_txn c ~node:1 (fun txn ->
      Proc.sleep 1.0;
      outcome := Txn.acquire_timeout txn 0 ~timeout:10_000.0;
      Txn.commit txn);
  Cluster.run c;
  Alcotest.(check bool) "granted" true !outcome

let test_timeout_waiter_does_not_capture_grant () =
  (* A cancelled waiter must be skipped; the next live waiter gets the
     lock. *)
  let c = Cluster.create ~nodes:3 () in
  let got = ref [] in
  lock_txn c ~node:0 (fun txn ->
      Txn.acquire txn 0;
      Proc.sleep 500.0;
      Txn.commit txn);
  lock_txn c ~node:0 (fun txn ->
      Proc.sleep 1.0;
      if Txn.acquire_timeout txn 0 ~timeout:50.0 then begin
        got := "quitter-granted" :: !got;
        Txn.commit txn
      end
      else begin
        got := "quitter-timeout" :: !got;
        Txn.abort txn
      end);
  lock_txn c ~node:0 (fun txn ->
      Proc.sleep 2.0;
      Txn.acquire txn 0;
      got := "patient-granted" :: !got;
      Txn.commit txn);
  Cluster.run c;
  Alcotest.(check (list string)) "order"
    [ "quitter-timeout"; "patient-granted" ]
    (List.rev !got)

let test_deadlock_broken_by_timeout () =
  (* Classic AB/BA deadlock; node 1 times out, aborts, retries. *)
  let c = Cluster.create ~nodes:3 () in
  let done_ = ref 0 in
  lock_txn c ~node:0 (fun txn ->
      Txn.acquire txn 0;
      Proc.sleep 20.0;
      (* A waits for lock 1 indefinitely; it must eventually win. *)
      Txn.acquire txn 1;
      Txn.commit txn;
      incr done_);
  Cluster.spawn c ~node:1 (fun node ->
      let txn = Txn.begin_ node in
      Txn.acquire txn 1;
      Proc.sleep 20.0;
      if Txn.acquire_timeout txn 0 ~timeout:200.0 then Txn.commit txn
      else begin
        (* Deadlock broken: back off completely, retry later. *)
        Txn.abort txn;
        Proc.sleep 500.0;
        let txn = Txn.begin_ node in
        Txn.acquire txn 1;
        Txn.acquire txn 0;
        Txn.commit txn
      end;
      incr done_);
  Cluster.run c;
  Alcotest.(check int) "both completed" 2 !done_

(* ------------------------------------------------------------------ *)
(* The protocol alone: three tables exchange messages over plain FIFO
   queues, one per channel, and nothing else runs.  Two clients per node
   each run 8 transactions of 1-2 locks, taken in lock order; each step
   takes one random enabled action: deliver a channel's head, a client's
   next acquire or release, or the hand-over of a pending grant.  Lock l
   is managed by node l, so node 2 manages neither lock and is the node
   that may crash. *)

type mode = No_timeouts | Timeouts | Crash

exception Violation of string

let violation fmt = Printf.ksprintf (fun m -> raise (Violation m)) fmt

type handle = {
  client : int;
  lock : int;
  mutable granted : Table.grant option;
  mutable withdrawn : bool;
}

type phase = Run | Wait of handle | Dead | Done

type client = {
  node : int;
  txns : (int list * bool) array;  (* locks in lock order, wrote *)
  mutable next : int;  (* the running transaction *)
  mutable todo : int list;  (* its locks not yet taken *)
  mutable held : (int * int) list;  (* (lock, seqno), acquisition order *)
  mutable wrote : bool;
  mutable aborted : bool;
  mutable phase : phase;
  mutable committed : int;
  mutable lost : int;  (* aborted on a timeout, or cut by the crash *)
}

type action = Deliver of int * int | Step of int | Cancel of int | Reclaim | Rejoin

let run_protocol mode seed =
  let nodes = 3 and locks = 2 and txns = 8 and failed = 2 in
  let rng = Random.State.make [| seed |] in
  let chans =
    Array.init nodes (fun _ -> Array.init nodes (fun _ -> Queue.create ()))
  in
  let crash_at = if mode = Crash then Random.State.int rng 400 else -1 in
  let down = ref false and reclaimed = ref false in
  let holder = Array.make locks (-1) in
  let last_seq = Array.make locks 0 and last_write = Array.make locks 0 in
  let clients =
    Array.init (2 * nodes) (fun i ->
        let txn _ =
          ( List.nth [ [ 0 ]; [ 1 ]; [ 0; 1 ] ] (Random.State.int rng 3),
            Random.State.bool rng )
        in
        { node = i / 2; txns = Array.init txns txn; next = 0; todo = [];
          held = []; wrote = false; aborted = false; phase = Run;
          committed = 0; lost = 0 })
  in
  let start c =
    if c.next >= txns then c.phase <- Done
    else begin
      let ls, wrote = c.txns.(c.next) in
      c.todo <- ls;
      c.wrote <- wrote;
      c.aborted <- false;
      c.phase <- Run
    end
  in
  let finish c =
    if c.held = [] && c.todo = [] then begin
      if c.aborted then c.lost <- c.lost + 1
      else c.committed <- c.committed + 1;
      c.next <- c.next + 1;
      start c
    end
  in
  Array.iter start clients;
  let take i lock (g : Table.grant) =
    if holder.(lock) >= 0 then
      violation "lock %d granted to client %d while client %d holds it" lock i
        holder.(lock);
    if g.seqno <= last_seq.(lock) then
      violation "lock %d: seqno %d after %d" lock g.seqno last_seq.(lock);
    if g.prev_write_seq <> last_write.(lock) then
      violation "lock %d seqno %d: prev_write_seq %d, last writing release %d"
        lock g.seqno g.prev_write_seq last_write.(lock);
    holder.(lock) <- i;
    last_seq.(lock) <- g.seqno
  in
  let on_grant h g =
    if h.withdrawn then violation "client %d's cancelled handle granted" h.client;
    if Option.is_some h.granted then
      violation "client %d's handle granted twice" h.client;
    if clients.(h.client).phase = Dead then
      violation "client %d granted while its node is down" h.client;
    take h.client h.lock g;
    h.granted <- Some g
  in
  let tables =
    Array.init nodes (fun n ->
        Table.create ~node:n ~nodes
          ~send:(fun ~dst m ->
            if not (!down && dst = failed) then Queue.add m chans.(n).(dst))
          ~grant:on_grant ())
  in
  let perform = function
    | Deliver (src, dst) ->
        Table.handle tables.(dst) ~src (Queue.pop chans.(src).(dst))
    | Step i -> (
        let c = clients.(i) in
        match (c.phase, c.todo, c.held) with
        | Wait ({ granted = Some g; _ } as h), _ :: rest, _ ->
            c.held <- c.held @ [ (h.lock, g.seqno) ];
            c.todo <- rest;
            c.phase <- Run
        | Run, lock :: rest, _ -> (
            match Table.acquire tables.(c.node) lock with
            | Some g ->
                take i lock g;
                c.held <- c.held @ [ (lock, g.seqno) ];
                c.todo <- rest
            | None ->
                let h = { client = i; lock; granted = None; withdrawn = false } in
                c.phase <- Wait h;
                Table.wait tables.(c.node) lock h)
        | Run, [], (lock, seqno) :: rest ->
            holder.(lock) <- -1;
            if c.wrote then last_write.(lock) <- seqno;
            c.held <- rest;
            Table.release tables.(c.node) lock ~wrote:c.wrote;
            finish c
        | _ -> assert false)
    | Cancel i -> (
        let c = clients.(i) in
        match c.phase with
        | Wait h ->
            (* The wait timed out: withdraw it and abort the transaction. *)
            h.withdrawn <- true;
            Table.cancel tables.(c.node) h.lock h;
            c.todo <- [];
            c.wrote <- false;
            c.aborted <- true;
            c.phase <- Run;
            finish c
        | _ -> assert false)
    | Reclaim ->
        (* The tokens the dead clients held are re-issued. *)
        Array.iteri
          (fun l h -> if h >= 0 && clients.(h).phase = Dead then holder.(l) <- -1)
          holder;
        reclaimed := true;
        Table.reclaim tables ~failed
    | Rejoin ->
        Table.rejoin_reset tables.(failed);
        down := false;
        Array.iter
          (fun c ->
            if c.phase = Dead then begin
              c.next <- c.next + 1;
              c.held <- [];
              start c
            end)
          clients
  in
  (* Node 2 crashes: its clients die holding what they hold, their
     running transactions lost, and traffic to it is lost from now on. *)
  let crash () =
    down := true;
    Array.iter Queue.clear (Array.map (fun row -> row.(failed)) chans);
    Array.iter
      (fun c ->
        if c.node = failed && c.phase <> Done then begin
          c.phase <- Dead;
          c.lost <- c.lost + 1
        end)
      clients
  in
  let enabled () =
    let acts = ref [] in
    let add a = acts := a :: !acts in
    for src = 0 to nodes - 1 do
      for dst = 0 to nodes - 1 do
        if not (Queue.is_empty chans.(src).(dst)) then add (Deliver (src, dst))
      done
    done;
    Array.iteri
      (fun i c ->
        match c.phase with
        | Run -> add (Step i)
        | Wait { granted = Some _; _ } -> add (Step i)
        | Wait _ -> if mode = Timeouts then add (Cancel i)
        | Dead | Done -> ())
      clients;
    if !down then add (if !reclaimed then Rejoin else Reclaim);
    Array.of_list !acts
  in
  let rec loop steps =
    if steps = crash_at then crash ();
    match enabled () with
    | [||] when crash_at > steps -> loop crash_at
    | [||] -> ()
    | _ when steps > 100_000 -> violation "no end after %d steps" steps
    | acts ->
        perform acts.(Random.State.int rng (Array.length acts));
        loop (steps + 1)
  in
  loop 0;
  Array.iteri
    (fun i c ->
      if c.phase <> Done then violation "client %d never finished" i;
      if c.committed + c.lost <> txns then
        violation "client %d: %d committed, %d lost" i c.committed c.lost;
      if mode <> Timeouts && c.lost > (if c.node = failed then 1 else 0) then
        violation "client %d lost %d transactions" i c.lost)
    clients

let prop_protocol mode name =
  QCheck.Test.make ~name ~count:5_000
    QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000_000))
    (fun seed ->
      match run_protocol mode seed with
      | () -> true
      | exception Violation m -> QCheck.Test.fail_reportf "seed %d: %s" seed m
      | exception Table.Protocol_error m ->
          QCheck.Test.fail_reportf "seed %d: Protocol_error %s" seed m)

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
    ( "locks.protocol",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_protocol No_timeouts "no timeouts";
          prop_protocol Timeouts "timeouts cancel and abort";
          prop_protocol Crash "node 2 crashes, reclaim, rejoin";
        ] );
  ]
