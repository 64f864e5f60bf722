(* Tests for the discrete-event simulator: engine, processes, sync. *)

open Lbc_sim

let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_time_order () =
  let e = Engine.create () in
  let order = ref [] in
  let mark tag () = order := tag :: !order in
  Engine.schedule e ~delay:30.0 (mark "c");
  Engine.schedule e ~delay:10.0 (mark "a");
  Engine.schedule e ~delay:20.0 (mark "b");
  Engine.run e;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ]
    (List.rev !order);
  check_float "clock at last event" 30.0 (Engine.now e)

let test_engine_same_instant_fifo () =
  let e = Engine.create () in
  let order = ref [] in
  for i = 1 to 5 do
    Engine.schedule e ~delay:1.0 (fun () -> order := i :: !order)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !order)

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let hits = ref [] in
  Engine.schedule e ~delay:5.0 (fun () ->
      hits := ("outer", Engine.now e) :: !hits;
      Engine.schedule e ~delay:2.5 (fun () ->
          hits := ("inner", Engine.now e) :: !hits));
  Engine.run e;
  match List.rev !hits with
  | [ ("outer", t1); ("inner", t2) ] ->
      check_float "outer" 5.0 t1;
      check_float "inner" 7.5 t2
  | _ -> Alcotest.fail "wrong event sequence"

let test_engine_negative_delay () =
  let e = Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      Engine.schedule e ~delay:(-1.0) ignore)

let test_engine_run_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  Engine.schedule e ~delay:10.0 (fun () -> incr fired);
  Engine.schedule e ~delay:100.0 (fun () -> incr fired);
  Engine.run ~until:50.0 e;
  check_int "only first fired" 1 !fired;
  check_float "clock parked at until" 50.0 (Engine.now e);
  check_int "one pending" 1 (Engine.pending e);
  Engine.run e;
  check_int "second fired" 2 !fired

(* ------------------------------------------------------------------ *)
(* Schedule policies *)

(* Run ten same-instant events under a policy; return the firing order
   and the recorded decision trace. *)
let tie_order policy =
  let e = Engine.create ~policy () in
  let order = ref [] in
  for i = 0 to 9 do
    Engine.schedule e ~delay:1.0 (fun () -> order := i :: !order)
  done;
  Engine.run e;
  (List.rev !order, Engine.decisions e, Engine.choice_points e)

let test_sched_fifo_records_zero_decisions () =
  let order, decisions, points = tie_order Schedule.Fifo in
  Alcotest.(check (list int)) "fifo order" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    order;
  check_int "choice points seen" 9 points;
  Alcotest.(check (list int)) "all decisions are index 0"
    (List.init 9 (fun _ -> 0))
    decisions

let test_sched_random_permutes_deterministically () =
  let o1, d1, _ = tie_order (Schedule.Random_tie 42) in
  let o2, _, _ = tie_order (Schedule.Random_tie 42) in
  let o3, _, _ = tie_order (Schedule.Random_tie 43) in
  Alcotest.(check (list int)) "same seed, same order" o1 o2;
  Alcotest.(check bool) "different seed, different order" true (o1 <> o3);
  Alcotest.(check bool) "some decision deviates from fifo" true
    (List.exists (fun d -> d <> 0) d1);
  (* Still a permutation of the ripe set. *)
  Alcotest.(check (list int)) "permutation" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.sort compare o1)

let test_sched_pct_priorities_deterministic () =
  let o1, _, _ = tie_order (Schedule.Pct 7) in
  let o2, _, _ = tie_order (Schedule.Pct 7) in
  Alcotest.(check (list int)) "same seed, same order" o1 o2;
  Alcotest.(check (list int)) "permutation" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.sort compare o1)

let test_sched_replay_reproduces_random_run () =
  let o1, d1, _ = tie_order (Schedule.Random_tie 99) in
  let o2, d2, _ = tie_order (Schedule.Replay (Array.of_list d1)) in
  Alcotest.(check (list int)) "replay = original order" o1 o2;
  Alcotest.(check (list int)) "replay records the same trace" d1 d2

let test_sched_replay_short_trace_falls_back_to_fifo () =
  (* Only the first decision survives; the rest fall back to index 0. *)
  let _, d, _ = tie_order (Schedule.Random_tie 5) in
  let truncated = [| List.hd d |] in
  let order, _, _ = tie_order (Schedule.Replay truncated) in
  check_int "still runs everything" 10 (List.length order);
  Alcotest.(check (list int)) "permutation" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.sort compare order)

let test_sched_policy_string_roundtrip () =
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Schedule.policy_to_string p) true
        (Schedule.policy_of_string (Schedule.policy_to_string p) = Some p))
    [ Schedule.Fifo; Schedule.Random_tie 17; Schedule.Pct 23 ]

(* Events at distinct instants are untouched by any policy: only
   same-time ties are a degree of freedom. *)
let test_sched_time_order_is_inviolate () =
  let run policy =
    let e = Engine.create ~policy () in
    let order = ref [] in
    List.iteri
      (fun i d -> Engine.schedule e ~delay:d (fun () -> order := i :: !order))
      [ 30.0; 10.0; 20.0 ];
    Engine.run e;
    List.rev !order
  in
  List.iter
    (fun p -> Alcotest.(check (list int)) "time order" [ 1; 2; 0 ] (run p))
    [ Schedule.Random_tie 3; Schedule.Pct 4; Schedule.Replay [| 1; 1; 1 |] ]

(* ------------------------------------------------------------------ *)
(* Processes *)

let test_proc_sleep_advances_time () =
  let e = Engine.create () in
  let finish = ref 0.0 in
  Proc.spawn e (fun () ->
      Proc.sleep 12.0;
      Proc.sleep 30.0;
      finish := Proc.now ());
  Engine.run e;
  check_float "slept 42" 42.0 !finish

let test_proc_interleaving () =
  let e = Engine.create () in
  let trace = ref [] in
  let mark tag = trace := (tag, Engine.now e) :: !trace in
  Proc.spawn e ~name:"a" (fun () ->
      mark "a0";
      Proc.sleep 10.0;
      mark "a1";
      Proc.sleep 10.0;
      mark "a2");
  Proc.spawn e ~name:"b" (fun () ->
      mark "b0";
      Proc.sleep 15.0;
      mark "b1");
  Engine.run e;
  Alcotest.(check (list string)) "interleaving"
    [ "a0"; "b0"; "a1"; "b1"; "a2" ]
    (List.rev_map fst !trace)

let test_proc_exception_propagates () =
  let e = Engine.create () in
  Proc.spawn e ~name:"boom" (fun () -> failwith "kaput");
  Alcotest.check_raises "exception surfaces" (Failure "kaput") (fun () ->
      Engine.run e)

let test_proc_outside_process () =
  Alcotest.check_raises "sleep outside process" Proc.Not_in_process (fun () ->
      Proc.sleep 1.0)

(* ------------------------------------------------------------------ *)
(* Ivar *)

let test_ivar_read_after_fill () =
  let e = Engine.create () in
  let iv = Ivar.create () in
  let got = ref 0 in
  Ivar.fill iv 99;
  Proc.spawn e (fun () -> got := Ivar.read iv);
  Engine.run e;
  check_int "value" 99 !got

let test_ivar_read_blocks_until_fill () =
  let e = Engine.create () in
  let iv = Ivar.create () in
  let got_at = ref (-1.0) in
  Proc.spawn e (fun () ->
      ignore (Ivar.read iv);
      got_at := Proc.now ());
  Proc.spawn e (fun () ->
      Proc.sleep 25.0;
      Ivar.fill iv "done");
  Engine.run e;
  check_float "woken at fill time" 25.0 !got_at

let test_ivar_double_fill () =
  let iv = Ivar.create () in
  Ivar.fill iv 1;
  Alcotest.check_raises "double fill"
    (Invalid_argument "Ivar.fill: already filled") (fun () -> Ivar.fill iv 2)

let test_ivar_multiple_readers_fifo () =
  let e = Engine.create () in
  let iv = Ivar.create () in
  let order = ref [] in
  for i = 1 to 3 do
    Proc.spawn e (fun () ->
        ignore (Ivar.read iv);
        order := i :: !order)
  done;
  Proc.spawn e (fun () ->
      Proc.sleep 1.0;
      Ivar.fill iv ());
  Engine.run e;
  Alcotest.(check (list int)) "fifo wakeup" [ 1; 2; 3 ] (List.rev !order)

(* ------------------------------------------------------------------ *)
(* Mailbox *)

let test_mailbox_fifo () =
  let e = Engine.create () in
  let mb = Mailbox.create () in
  let got = ref [] in
  Proc.spawn e (fun () ->
      for _ = 1 to 3 do
        got := Mailbox.recv mb :: !got
      done);
  Proc.spawn e (fun () ->
      Mailbox.send mb 1;
      Proc.sleep 5.0;
      Mailbox.send mb 2;
      Mailbox.send mb 3);
  Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !got)

let test_mailbox_try_recv () =
  let mb = Mailbox.create () in
  Alcotest.(check (option int)) "empty" None (Mailbox.try_recv mb);
  Mailbox.send mb 7;
  Alcotest.(check (option int)) "one" (Some 7) (Mailbox.try_recv mb);
  Alcotest.(check bool) "drained" true (Mailbox.is_empty mb)

let test_mailbox_two_receivers () =
  let e = Engine.create () in
  let mb = Mailbox.create () in
  let who = ref [] in
  Proc.spawn e ~name:"r1" (fun () ->
      let v = Mailbox.recv mb in
      who := ("r1", v) :: !who);
  Proc.spawn e ~name:"r2" (fun () ->
      let v = Mailbox.recv mb in
      who := ("r2", v) :: !who);
  Proc.spawn e (fun () ->
      Proc.sleep 1.0;
      Mailbox.send mb "x";
      Mailbox.send mb "y");
  Engine.run e;
  Alcotest.(check (list (pair string string)))
    "receivers served in order"
    [ ("r1", "x"); ("r2", "y") ]
    (List.rev !who)

(* ------------------------------------------------------------------ *)
(* Condvar *)

let test_condvar_broadcast_wakes_all () =
  let e = Engine.create () in
  let c = Condvar.create () in
  let woken = ref 0 in
  for _ = 1 to 4 do
    Proc.spawn e (fun () ->
        Condvar.wait c;
        incr woken)
  done;
  Proc.spawn e (fun () ->
      Proc.sleep 1.0;
      Condvar.broadcast c);
  Engine.run e;
  check_int "all woken" 4 !woken

let test_condvar_signal_wakes_one () =
  let e = Engine.create () in
  let c = Condvar.create () in
  let woken = ref 0 in
  for _ = 1 to 3 do
    Proc.spawn e (fun () ->
        Condvar.wait c;
        incr woken)
  done;
  Proc.spawn e (fun () ->
      Proc.sleep 1.0;
      Condvar.signal c);
  Engine.run e;
  check_int "one woken" 1 !woken

let test_condvar_await_predicate () =
  let e = Engine.create () in
  let c = Condvar.create () in
  let counter = ref 0 in
  let done_at = ref (-1.0) in
  Proc.spawn e (fun () ->
      Condvar.await c (fun () -> !counter >= 3);
      done_at := Proc.now ());
  Proc.spawn e (fun () ->
      for _ = 1 to 3 do
        Proc.sleep 10.0;
        incr counter;
        Condvar.broadcast c
      done);
  Engine.run e;
  check_float "resumed after third bump" 30.0 !done_at

(* ------------------------------------------------------------------ *)
(* Blocked-process registry and process lifecycle *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_blocked_registry_reports_stuck () =
  let e = Engine.create () in
  let iv : int Ivar.t = Ivar.create () in
  Proc.spawn e ~name:"stuck" (fun () ->
      ignore (Ivar.read ~info:"nobody will fill this" iv));
  Engine.run e;
  (* The queue drained but the process is still suspended: the registry
     names it and says what it waits on. *)
  check_int "one blocked process" 1 (Engine.blocked_count e);
  match Engine.blocked e with
  | [ desc ] ->
      Alcotest.(check bool) "names the process" true (contains desc "stuck");
      Alcotest.(check bool) "says what it waits on" true
        (contains desc "nobody will fill this")
  | other ->
      Alcotest.fail
        (Printf.sprintf "expected one description, got %d" (List.length other))

let test_blocked_excludes_daemons () =
  let e = Engine.create () in
  let mb : int Mailbox.t = Mailbox.create () in
  (* Forever idle on an empty channel: a daemon's normal state, not a
     hang worth reporting. *)
  Proc.spawn e ~name:"dispatcher" ~daemon:true (fun () ->
      ignore (Mailbox.recv mb));
  Proc.spawn e ~name:"worker" (fun () -> Proc.sleep 5.0);
  Engine.run e;
  Alcotest.(check (list string)) "no blocked reported" [] (Engine.blocked e)

let test_alive_kills_at_resume () =
  let e = Engine.create () in
  let dead = ref false in
  let reached = ref false in
  Proc.spawn e ~name:"victim"
    ~alive:(fun () -> not !dead)
    (fun () ->
      Proc.sleep 10.0;
      reached := true);
  Engine.schedule e ~delay:5.0 (fun () -> dead := true);
  Engine.run e;
  Alcotest.(check bool) "killed before resuming" false !reached;
  (* A killed process is not a stranded one. *)
  Alcotest.(check (list string)) "not reported blocked" [] (Engine.blocked e)

let test_blocked_clears_on_resume () =
  let e = Engine.create () in
  let iv : int Ivar.t = Ivar.create () in
  let got = ref 0 in
  Proc.spawn e ~name:"reader" (fun () -> got := Ivar.read iv);
  Proc.spawn e ~name:"writer" (fun () ->
      Proc.sleep 3.0;
      Ivar.fill iv 42);
  Engine.run e;
  check_int "value delivered" 42 !got;
  check_int "registry empty" 0 (Engine.blocked_count e)

(* ------------------------------------------------------------------ *)
(* In-place sleep advance *)

(* A sleep outside any process still raises, including from a bare
   event callback that runs after a process has slept in place. *)
let test_sleep_outside_after_in_place () =
  let e = Engine.create () in
  Proc.spawn e (fun () ->
      for _ = 1 to 5 do
        Proc.sleep 1.0
      done);
  Engine.schedule e ~delay:20.0 (fun () -> Proc.sleep 1.0);
  Alcotest.check_raises "bare callback" Proc.Not_in_process (fun () ->
      Engine.run e);
  Alcotest.check_raises "after run" Proc.Not_in_process (fun () ->
      Proc.sleep 1.0)

(* Back-to-back sleeps with nothing else queued advance in place; none
   of them may wake past [until]. *)
let test_sleep_stops_at_until () =
  let e = Engine.create () in
  let seen = ref [] in
  Proc.spawn e (fun () ->
      for _ = 1 to 10 do
        Proc.sleep 10.0;
        seen := Proc.now () :: !seen
      done);
  Engine.run ~until:25.0 e;
  Alcotest.(check (list (float 0.0))) "woke at 10, 20" [ 20.0; 10.0 ] !seen;
  check_float "clock parked at until" 25.0 (Engine.now e);
  check_int "wake-up at 30 still queued" 1 (Engine.pending e);
  Engine.run e;
  check_int "all ten woke" 10 (List.length !seen);
  check_float "last at 100" 100.0 (Engine.now e)

(* Random programs of a few processes, run once with [Proc.sleep] and
   once with a reference sleep that always queues a wake-up (suspend +
   schedule: the queued semantics the in-place advance must reproduce).
   Process 0 is killed through [alive] when some [Kill] runs. *)
type sim_op =
  | Sleep of float
  | Yield
  | Fill of int
  | Read of int
  | Send of int
  | Recv of int
  | Signal
  | Broadcast
  | Wait
  | Callback of float * int  (* bare event: log, then act (0-3) *)
  | Kill

let show_op = function
  | Sleep d -> Printf.sprintf "sleep %g" d
  | Yield -> "yield"
  | Fill i -> Printf.sprintf "fill %d" i
  | Read i -> Printf.sprintf "read %d" i
  | Send i -> Printf.sprintf "send %d" i
  | Recv i -> Printf.sprintf "recv %d" i
  | Signal -> "signal"
  | Broadcast -> "broadcast"
  | Wait -> "wait"
  | Callback (d, a) -> Printf.sprintf "callback %g/%d" d a
  | Kill -> "kill"

let gen_sim_op =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun d -> Sleep d) (oneofl [ 0.0; 0.0; 1.0; 1.0; 2.0; 2.5; 5.0 ]));
        (2, return Yield);
        (1, map (fun i -> Fill i) (int_bound 1));
        (1, map (fun i -> Read i) (int_bound 1));
        (1, map (fun i -> Send i) (int_bound 1));
        (1, map (fun i -> Recv i) (int_bound 1));
        (1, return Signal);
        (1, return Broadcast);
        (1, return Wait);
        (2, map2 (fun d a -> Callback (d, a)) (oneofl [ 0.0; 1.0; 2.5 ]) (int_bound 3));
        (1, return Kill);
      ])

let gen_policy =
  QCheck.Gen.(
    oneof
      [
        return Schedule.Fifo;
        map (fun s -> Schedule.Random_tie s) (int_bound 1000);
        map (fun s -> Schedule.Pct s) (int_bound 1000);
      ])

let gen_program =
  QCheck.Gen.(
    triple
      (list_size (2 -- 5) (list_size (0 -- 8) gen_sim_op))
      gen_policy
      (opt (oneofl [ 0.5; 1.0; 2.0; 2.5; 4.0; 7.5 ])))

let show_program (procs, policy, until) =
  Printf.sprintf "%s until=%s\n%s"
    (Schedule.policy_to_string policy)
    (match until with Some u -> Printf.sprintf "%g" u | None -> "-")
    (String.concat "\n"
       (List.mapi
          (fun i ops ->
            Printf.sprintf "p%d: %s" i (String.concat "; " (List.map show_op ops)))
          procs))

(* Run the program; the result is everything a schedule can show. *)
let run_program ~sleep ~yield (procs, policy, until) =
  let e = Engine.create ~policy () in
  let log = ref [] in
  let note who what = log := Printf.sprintf "%g %s %s" (Engine.now e) who what :: !log in
  let ivars = Array.init 2 (fun _ -> Ivar.create ()) in
  let boxes = Array.init 2 (fun _ -> Mailbox.create ()) in
  let cv = Condvar.create () in
  let dead = ref false in
  let act = function
    | 1 -> Mailbox.send boxes.(0) (-1)
    | 2 -> Condvar.broadcast cv
    | 3 -> dead := true
    | _ -> ()
  in
  List.iteri
    (fun pid ops ->
      let who = Printf.sprintf "p%d" pid in
      let alive = if pid = 0 then fun () -> not !dead else fun () -> true in
      Proc.spawn e ~name:who ~alive (fun () ->
          note who "start";
          List.iteri
            (fun j op ->
              let v =
                match op with
                | Sleep d -> sleep d; 0
                | Yield -> yield (); 0
                | Fill i ->
                    if not (Ivar.is_filled ivars.(i)) then Ivar.fill ivars.(i) pid;
                    0
                | Read i -> Ivar.read ivars.(i)
                | Send i -> Mailbox.send boxes.(i) pid; 0
                | Recv i -> Mailbox.recv boxes.(i)
                | Signal -> Condvar.signal cv; 0
                | Broadcast -> Condvar.broadcast cv; 0
                | Wait -> Condvar.wait cv; 0
                | Callback (d, a) ->
                    Engine.schedule e ~delay:d (fun () ->
                        note "cb" (Printf.sprintf "%s.%d" who j);
                        act a);
                    0
                | Kill -> dead := true; 0
              in
              note who (Printf.sprintf "op%d=%d" j v))
            ops;
          note who "end"))
    procs;
  (match until with Some u -> Engine.run ~until:u e | None -> Engine.run e);
  ( List.rev !log,
    Engine.now e,
    Engine.decisions e,
    Engine.choice_points e,
    Engine.pending e,
    Engine.blocked e )

let queued_sleep dt =
  let e = Proc.engine () in
  Proc.suspend (fun resume -> Engine.schedule e ~delay:dt (fun () -> resume ()))

let prop_in_place_equals_queued =
  QCheck.Test.make ~name:"in-place sleep = queued sleep" ~count:1000
    (QCheck.make ~print:show_program gen_program)
    (fun program ->
      run_program ~sleep:Proc.sleep ~yield:Proc.yield program
      = run_program ~sleep:queued_sleep
          ~yield:(fun () -> queued_sleep 0.0)
          program)

let suites =
  [
    ( "sim.engine",
      [
        Alcotest.test_case "time order" `Quick test_engine_time_order;
        Alcotest.test_case "same-instant fifo" `Quick
          test_engine_same_instant_fifo;
        Alcotest.test_case "nested schedule" `Quick test_engine_nested_schedule;
        Alcotest.test_case "negative delay" `Quick test_engine_negative_delay;
        Alcotest.test_case "run until" `Quick test_engine_run_until;
      ] );
    ( "sim.schedule",
      [
        Alcotest.test_case "fifo records zero decisions" `Quick
          test_sched_fifo_records_zero_decisions;
        Alcotest.test_case "random ties deterministic per seed" `Quick
          test_sched_random_permutes_deterministically;
        Alcotest.test_case "pct deterministic per seed" `Quick
          test_sched_pct_priorities_deterministic;
        Alcotest.test_case "replay reproduces a random run" `Quick
          test_sched_replay_reproduces_random_run;
        Alcotest.test_case "short replay falls back to fifo" `Quick
          test_sched_replay_short_trace_falls_back_to_fifo;
        Alcotest.test_case "policy string roundtrip" `Quick
          test_sched_policy_string_roundtrip;
        Alcotest.test_case "time order inviolate" `Quick
          test_sched_time_order_is_inviolate;
      ] );
    ( "sim.proc",
      [
        Alcotest.test_case "sleep advances time" `Quick
          test_proc_sleep_advances_time;
        Alcotest.test_case "interleaving" `Quick test_proc_interleaving;
        Alcotest.test_case "exception propagates" `Quick
          test_proc_exception_propagates;
        Alcotest.test_case "outside process" `Quick test_proc_outside_process;
        Alcotest.test_case "outside process after in-place sleeps" `Quick
          test_sleep_outside_after_in_place;
        Alcotest.test_case "sleep stops at until" `Quick
          test_sleep_stops_at_until;
        QCheck_alcotest.to_alcotest prop_in_place_equals_queued;
      ] );
    ( "sim.ivar",
      [
        Alcotest.test_case "read after fill" `Quick test_ivar_read_after_fill;
        Alcotest.test_case "read blocks" `Quick test_ivar_read_blocks_until_fill;
        Alcotest.test_case "double fill" `Quick test_ivar_double_fill;
        Alcotest.test_case "multiple readers fifo" `Quick
          test_ivar_multiple_readers_fifo;
      ] );
    ( "sim.mailbox",
      [
        Alcotest.test_case "fifo" `Quick test_mailbox_fifo;
        Alcotest.test_case "try_recv" `Quick test_mailbox_try_recv;
        Alcotest.test_case "two receivers" `Quick test_mailbox_two_receivers;
      ] );
    ( "sim.condvar",
      [
        Alcotest.test_case "broadcast wakes all" `Quick
          test_condvar_broadcast_wakes_all;
        Alcotest.test_case "signal wakes one" `Quick
          test_condvar_signal_wakes_one;
        Alcotest.test_case "await predicate" `Quick test_condvar_await_predicate;
      ] );
    ( "sim.blocked",
      [
        Alcotest.test_case "registry reports stuck" `Quick
          test_blocked_registry_reports_stuck;
        Alcotest.test_case "daemons excluded" `Quick test_blocked_excludes_daemons;
        Alcotest.test_case "alive kills at resume" `Quick
          test_alive_kills_at_resume;
        Alcotest.test_case "clears on resume" `Quick test_blocked_clears_on_resume;
      ] );
  ]
