(* Tests for the simulated network fabric. *)

open Lbc_sim
open Lbc_net

let mk ?(params = Params.instant) ?policy ?(nodes = 3) () =
  let e = Engine.create ?policy () in
  let f = Fabric.create ~params ~engine:e ~nodes ~size:String.length () in
  (e, f)

let test_send_recv () =
  let e, f = mk () in
  let got = ref "" in
  Proc.spawn e (fun () -> got := Fabric.recv f ~dst:1 ~src:0);
  Proc.spawn e (fun () -> Fabric.send f ~src:0 ~dst:1 "ping");
  Engine.run e;
  Alcotest.(check string) "delivered" "ping" !got

(* Whatever order a policy gives the deliveries ripe at one instant,
   every channel delivers its send order minus what it drops: 3 nodes,
   5 back-to-back messages on every channel, and channel 0->1 losing
   its even-numbered ones. *)
let prop_fifo_per_channel =
  QCheck.Test.make ~name:"fifo per channel" ~count:1000
    QCheck.(pair bool (int_bound 1_000_000))
    (fun (pct, seed) ->
      let nodes = 3 in
      let policy = if pct then Schedule.Pct seed else Random_tie seed in
      let e, f = mk ~policy ~nodes () in
      let even m = Char.code m.[2] land 1 = 0 in
      Fabric.set_drop_filter f ~src:0 ~dst:1 (Some even);
      let kept = Array.make_matrix nodes nodes [] in
      let got = Array.make_matrix nodes nodes [] in
      for src = 0 to nodes - 1 do
        for dst = 0 to nodes - 1 do
          if src <> dst then begin
            let msgs = List.init 5 (Printf.sprintf "%d%d%d" src dst) in
            if (src, dst) = (0, 1) then
              kept.(src).(dst) <- List.filter (Fun.negate even) msgs
            else kept.(src).(dst) <- msgs;
            Proc.spawn e (fun () -> List.iter (Fabric.send f ~src ~dst) msgs);
            Proc.spawn e (fun () ->
                List.iter
                  (fun _ ->
                    let m = Fabric.recv f ~dst ~src in
                    got.(src).(dst) <- m :: got.(src).(dst))
                  kept.(src).(dst))
          end
        done
      done;
      Engine.run e;
      Array.for_all2 (Array.for_all2 (fun k g -> k = List.rev g)) kept got)

let test_send_cost_blocks_sender () =
  let params =
    { Params.send_base = 100.0; send_per_byte = 1.0; propagation = 10.0 }
  in
  let e, f = mk ~params () in
  let sent_at = ref 0.0 and got_at = ref 0.0 in
  Proc.spawn e (fun () ->
      Fabric.send f ~src:0 ~dst:1 "12345";
      sent_at := Proc.now ());
  Proc.spawn e (fun () ->
      ignore (Fabric.recv f ~dst:1 ~src:0);
      got_at := Proc.now ());
  Engine.run e;
  (* writev cost = 100 + 5 = 105; delivery 10 later. *)
  Alcotest.(check (float 1e-9)) "sender blocked" 105.0 !sent_at;
  Alcotest.(check (float 1e-9)) "delivery time" 115.0 !got_at

let test_channels_independent () =
  let e, f = mk () in
  (* A message from 2 must not appear on the 0->1 channel. *)
  let got = ref [] in
  Proc.spawn e (fun () ->
      let m = Fabric.recv f ~dst:1 ~src:0 in
      got := ("from0", m) :: !got);
  Proc.spawn e (fun () ->
      let m = Fabric.recv f ~dst:1 ~src:2 in
      got := ("from2", m) :: !got);
  Proc.spawn e (fun () -> Fabric.send f ~src:2 ~dst:1 "two");
  Proc.spawn e (fun () ->
      Proc.sleep 5.0;
      Fabric.send f ~src:0 ~dst:1 "zero");
  Engine.run e;
  Alcotest.(check (list (pair string string)))
    "right channels"
    [ ("from2", "two"); ("from0", "zero") ]
    (List.rev !got)

let test_self_send_rejected () =
  let e, f = mk () in
  let raised = ref false in
  Proc.spawn e (fun () ->
      try Fabric.send f ~src:1 ~dst:1 "loop"
      with Invalid_argument _ -> raised := true);
  Engine.run e;
  Alcotest.(check bool) "rejected" true !raised

let drop_all _ = true

let test_drop_injection () =
  let e, f = mk () in
  Fabric.set_drop_filter f ~src:0 ~dst:1 (Some drop_all);
  let got = ref None in
  Proc.spawn e (fun () ->
      Fabric.send f ~src:0 ~dst:1 "lost";
      Fabric.set_drop_filter f ~src:0 ~dst:1 None;
      Fabric.send f ~src:0 ~dst:1 "kept");
  Proc.spawn e (fun () -> got := Some (Fabric.recv f ~dst:1 ~src:0));
  Engine.run e;
  Alcotest.(check (option string)) "only undropped arrives" (Some "kept") !got

let test_accounting () =
  let e, f = mk () in
  Proc.spawn e (fun () ->
      Fabric.send f ~src:0 ~dst:1 "xxxx";
      Fabric.send f ~src:0 ~dst:2 "yy";
      Fabric.send f ~src:1 ~dst:2 "z");
  (* Drain receivers so the run terminates cleanly. *)
  Proc.spawn e (fun () -> ignore (Fabric.recv f ~dst:1 ~src:0));
  Proc.spawn e (fun () -> ignore (Fabric.recv f ~dst:2 ~src:0));
  Proc.spawn e (fun () -> ignore (Fabric.recv f ~dst:2 ~src:1));
  Engine.run e;
  Alcotest.(check int) "msgs from 0" 2 (Fabric.messages_sent f ~src:0);
  Alcotest.(check int) "bytes from 0" 6 (Fabric.bytes_sent f ~src:0);
  Alcotest.(check int) "total msgs" 3 (Fabric.total_messages f);
  Alcotest.(check int) "total bytes" 7 (Fabric.total_bytes f)

(* ------------------------------------------------------------------ *)
(* Fault injection accounting *)

let test_drop_counted_per_channel () =
  let e, f = mk () in
  Fabric.set_drop_filter f ~src:0 ~dst:1 (Some drop_all);
  Proc.spawn e (fun () ->
      Fabric.send f ~src:0 ~dst:1 "lost1";
      Fabric.send f ~src:0 ~dst:1 "lost2";
      Fabric.send f ~src:0 ~dst:2 "fine");
  Proc.spawn e (fun () -> ignore (Fabric.recv f ~dst:2 ~src:0));
  Engine.run e;
  Alcotest.(check int) "two dropped on 0->1" 2
    (Fabric.messages_dropped f ~src:0 ~dst:1);
  Alcotest.(check int) "none dropped on 0->2" 0
    (Fabric.messages_dropped f ~src:0 ~dst:2);
  Alcotest.(check int) "total dropped" 2 (Fabric.total_dropped f)

let test_drop_filter_selective () =
  let e, f = mk () in
  (* Lose only "data" traffic; "ctl" traffic stays reliable — the shape
     chaos tests use to cut the data plane but not the lock plane. *)
  Fabric.set_drop_filter f ~src:0 ~dst:1
    (Some (fun m -> String.length m > 3));
  let got = ref [] in
  Proc.spawn e (fun () ->
      Fabric.send f ~src:0 ~dst:1 "data-payload";
      Fabric.send f ~src:0 ~dst:1 "ctl";
      Fabric.set_drop_filter f ~src:0 ~dst:1 None;
      Fabric.send f ~src:0 ~dst:1 "data-payload-2");
  Proc.spawn e (fun () ->
      for _ = 1 to 2 do
        got := Fabric.recv f ~dst:1 ~src:0 :: !got
      done);
  Engine.run e;
  Alcotest.(check (list string))
    "filtered traffic lost, rest in order"
    [ "ctl"; "data-payload-2" ]
    (List.rev !got);
  Alcotest.(check int) "the loss was counted" 1
    (Fabric.messages_dropped f ~src:0 ~dst:1)

let test_down_node_loses_traffic () =
  let e, f = mk () in
  let got = ref [] in
  Proc.spawn e (fun () ->
      (* Queued but never received: purged when the node goes down. *)
      Fabric.send f ~src:0 ~dst:1 "queued";
      Fabric.set_down f 1 true;
      Alcotest.(check bool) "marked down" true (Fabric.is_down f 1);
      Fabric.send f ~src:0 ~dst:1 "to-down";
      Fabric.send f ~src:1 ~dst:2 "from-down";
      (* Let the in-flight delivery reach the down node and be lost
         before connectivity returns. *)
      Proc.sleep 10.0;
      Fabric.set_down f 1 false;
      Fabric.send f ~src:0 ~dst:1 "after-restart");
  Proc.spawn e (fun () -> got := [ Fabric.recv f ~dst:1 ~src:0 ]);
  Engine.run e;
  Alcotest.(check (list string)) "only post-restart traffic" [ "after-restart" ]
    !got;
  (* queued + to-down on 0->1, from-down on 1->2. *)
  Alcotest.(check int) "channel 0->1 drops" 2
    (Fabric.messages_dropped f ~src:0 ~dst:1);
  Alcotest.(check int) "channel 1->2 drops" 1
    (Fabric.messages_dropped f ~src:1 ~dst:2);
  Alcotest.(check int) "total" 3 (Fabric.total_dropped f)

let suites =
  [
    ( "net.fabric",
      [
        Alcotest.test_case "send/recv" `Quick test_send_recv;
        QCheck_alcotest.to_alcotest prop_fifo_per_channel;
        Alcotest.test_case "send cost blocks sender" `Quick
          test_send_cost_blocks_sender;
        Alcotest.test_case "channels independent" `Quick
          test_channels_independent;
        Alcotest.test_case "self send rejected" `Quick test_self_send_rejected;
        Alcotest.test_case "drop injection" `Quick test_drop_injection;
        Alcotest.test_case "accounting" `Quick test_accounting;
      ] );
    ( "net.faults",
      [
        Alcotest.test_case "drops counted per channel" `Quick
          test_drop_counted_per_channel;
        Alcotest.test_case "drop filter selective" `Quick
          test_drop_filter_selective;
        Alcotest.test_case "down node loses traffic" `Quick
          test_down_node_loses_traffic;
      ] );
  ]
