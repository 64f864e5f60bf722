module Obs = Lbc_obs.Obs

type 'm t = {
  engine : Lbc_sim.Engine.t;
  nodes : int;
  params : Params.t;
  size : 'm -> int;
  channels : 'm Lbc_sim.Mailbox.t array array;  (* channels.(src).(dst) *)
  in_flight : (int * 'm) Queue.t array array;  (* sent, not yet delivered *)
  drop_filter : ('m -> bool) option array array;
  down : bool array;
  messages_sent : int array;
  bytes_sent : int array;
  dropped : int array array;  (* dropped.(src).(dst) *)
  mutable obs : Obs.t;
}

let create ?(params = Params.an1) ~engine ~nodes ~size () =
  if nodes <= 0 then invalid_arg "Fabric.create: nodes must be positive";
  {
    engine;
    nodes;
    params;
    size;
    channels =
      Array.init nodes (fun _ ->
          Array.init nodes (fun _ -> Lbc_sim.Mailbox.create ()));
    in_flight =
      Array.init nodes (fun _ -> Array.init nodes (fun _ -> Queue.create ()));
    drop_filter = Array.make_matrix nodes nodes None;
    down = Array.make nodes false;
    messages_sent = Array.make nodes 0;
    bytes_sent = Array.make nodes 0;
    dropped = Array.make_matrix nodes nodes 0;
    obs = Obs.disabled;
  }

let set_obs t obs = t.obs <- obs
let engine t = t.engine
let nodes t = t.nodes
let params t = t.params

let check_node t who n =
  if n < 0 || n >= t.nodes then
    invalid_arg (Printf.sprintf "Fabric: bad %s node %d" who n)

let count_drop t ~src ~dst ~len =
  t.dropped.(src).(dst) <- t.dropped.(src).(dst) + 1;
  if Obs.enabled t.obs then begin
    Obs.count ~pid:dst t.obs "net_drops" 1;
    Obs.instant t.obs ~name:"net.drop" ~pid:dst ~tid:Obs.lane_net ~arg:len
  end

let should_drop t ~src ~dst msg =
  match t.drop_filter.(src).(dst) with Some f -> f msg | None -> false

(* Put one message on the wire: it is dropped at delivery time if the
   destination is down by then (the crash loses in-flight traffic).  A
   delivery event lands its channel's oldest message in flight, not the
   one it was scheduled with, so a policy that reorders the ripe
   deliveries of one instant never reorders a channel. *)
let deliver t ~src ~dst ~len msg =
  if should_drop t ~src ~dst msg then count_drop t ~src ~dst ~len
  else begin
    Queue.push (len, msg) t.in_flight.(src).(dst);
    Lbc_sim.Engine.schedule t.engine ~delay:t.params.Params.propagation
      (fun () ->
        let len, msg = Queue.pop t.in_flight.(src).(dst) in
        if t.down.(dst) then count_drop t ~src ~dst ~len
        else begin
          Obs.instant t.obs ~name:"net.deliver" ~pid:dst ~tid:Obs.lane_net
            ~arg:len;
          Lbc_sim.Mailbox.send t.channels.(src).(dst) msg
        end)
  end

(* One transmission from [src] reaching each of [dsts]: the sender pays
   a single writev cost, then the message goes on every wire. *)
let transmit t ~src ~dsts msg =
  let len = t.size msg in
  if t.down.(src) then List.iter (fun dst -> count_drop t ~src ~dst ~len) dsts
  else begin
    t.messages_sent.(src) <- t.messages_sent.(src) + 1;
    t.bytes_sent.(src) <- t.bytes_sent.(src) + len;
    let sp =
      if Obs.enabled t.obs then begin
        Obs.count ~pid:src t.obs "net_msgs" 1;
        Obs.count ~pid:src t.obs "net_bytes" len;
        Obs.span_begin t.obs ~name:"net.send" ~pid:src ~tid:Obs.lane_net
          ~arg:len
      end
      else Obs.null_span
    in
    Lbc_sim.Proc.sleep (Params.send_cost t.params len);
    List.iter (fun dst -> deliver t ~src ~dst ~len msg) dsts;
    ignore (Obs.span_end t.obs sp : float)
  end

let send t ~src ~dst msg =
  check_node t "src" src;
  check_node t "dst" dst;
  if src = dst then invalid_arg "Fabric.send: src = dst";
  transmit t ~src ~dsts:[ dst ] msg

let broadcast t ~src ~dsts msg =
  check_node t "src" src;
  let dsts =
    List.sort_uniq Int.compare (List.filter (fun d -> d <> src) dsts)
  in
  List.iter (fun d -> check_node t "dst" d) dsts;
  transmit t ~src ~dsts msg

let recv t ~dst ~src =
  check_node t "src" src;
  check_node t "dst" dst;
  Lbc_sim.Mailbox.recv
    ~info:(Printf.sprintf "net recv %d<-%d" dst src)
    t.channels.(src).(dst)

let set_drop_filter t ~src ~dst f =
  check_node t "src" src;
  check_node t "dst" dst;
  t.drop_filter.(src).(dst) <- f

let purge_inbound t node =
  for src = 0 to t.nodes - 1 do
    if src <> node then
      let mailbox = t.channels.(src).(node) in
      let rec drain () =
        match Lbc_sim.Mailbox.try_recv mailbox with
        | None -> ()
        | Some m ->
            count_drop t ~src ~dst:node ~len:(t.size m);
            drain ()
      in
      drain ()
  done

let set_down t node v =
  check_node t "node" node;
  t.down.(node) <- v;
  (* A crashing node loses the messages its receiver threads had not yet
     consumed; count them as dropped traffic. *)
  if v then purge_inbound t node

let is_down t node =
  check_node t "node" node;
  t.down.(node)

let messages_sent t ~src =
  check_node t "src" src;
  t.messages_sent.(src)

let bytes_sent t ~src =
  check_node t "src" src;
  t.bytes_sent.(src)

let messages_dropped t ~src ~dst =
  check_node t "src" src;
  check_node t "dst" dst;
  t.dropped.(src).(dst)

let total_messages t = Array.fold_left ( + ) 0 t.messages_sent
let total_bytes t = Array.fold_left ( + ) 0 t.bytes_sent

let total_dropped t =
  Array.fold_left (fun acc row -> Array.fold_left ( + ) acc row) 0 t.dropped
