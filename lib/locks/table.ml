module Obs = Lbc_obs.Obs

type grant = { seqno : int; prev_write_seq : int; last_writer : int }

type msg =
  | Request of { epoch : int; lock : int; requester : int }
  | Forward of { epoch : int; lock : int; requester : int }
  | Token of {
      epoch : int;
      lock : int;
      seqno : int;
      last_write_seq : int;
      last_writer : int;
    }

(* Nominal sizes: two small ints for requests, three for a token, plus a
   small header carrying the epoch — comparable to the prototype's control
   messages. *)
let msg_size = function
  | Request _ | Forward _ -> 16
  | Token _ -> 24

let pp_msg ppf = function
  | Request { epoch; lock; requester } ->
      Format.fprintf ppf "Request(l%d<-n%d e%d)" lock requester epoch
  | Forward { epoch; lock; requester } ->
      Format.fprintf ppf "Forward(l%d<-n%d e%d)" lock requester epoch
  | Token { epoch; lock; seqno; last_write_seq; last_writer } ->
      Format.fprintf ppf "Token(l%d seq=%d lws=%d lw=%d e%d)" lock seqno
        last_write_seq last_writer epoch

exception Protocol_error of string

type waiter = { iv : grant option Lbc_sim.Ivar.t; mutable cancelled : bool }

type lstate = {
  id : int;
  mutable have_token : bool;
  mutable busy : bool;
  mutable held_seq : int;  (* seqno of the current local holder *)
  mutable seqno : int;  (* valid while we own the token *)
  mutable last_write_seq : int;  (* valid while we own the token *)
  mutable last_writer : int;  (* node of the last writing acquire; -1 if none *)
  mutable pending_remote : int option;  (* node owed our token *)
  mutable requesting : bool;  (* Request sent, Token not yet received *)
  waiters : waiter Queue.t;
  mutable tail : int;  (* manager-side: current end of the waiter chain *)
}

type stats = {
  mutable local_grants : int;
  mutable remote_grants : int;
  mutable tokens_passed : int;
  mutable requests_sent : int;
  mutable stale_msgs : int;
}

(* Pop waiters until one that has not timed out. *)
let rec next_waiter waiters =
  match Queue.take_opt waiters with
  | Some w when w.cancelled -> next_waiter waiters
  | other -> other

let live_waiters waiters =
  Queue.fold (fun acc w -> if w.cancelled then acc else acc + 1) 0 waiters

type t = {
  node : int;
  nodes : int;
  send : dst:int -> msg -> unit;
  locks : (int, lstate) Hashtbl.t;
  stats : stats;
  mutable epoch : int;  (* lease epoch; messages from older epochs are stale *)
  mutable obs : Obs.t;
  heat_keys : (int, string) Hashtbl.t;
      (* memoized per-lock "lock_acquires:N" counter keys; per-table, so
         only this node's execution context touches it *)
}

let create ~node ~nodes ~send () =
  if nodes <= 0 || node < 0 || node >= nodes then
    invalid_arg "Table.create: bad node/nodes";
  {
    node;
    nodes;
    send;
    locks = Hashtbl.create 16;
    stats =
      {
        local_grants = 0;
        remote_grants = 0;
        tokens_passed = 0;
        requests_sent = 0;
        stale_msgs = 0;
      };
    epoch = 0;
    obs = Obs.disabled;
    heat_keys = Hashtbl.create 16;
  }

let set_obs t obs = t.obs <- obs
let node t = t.node
let manager_of t lock = lock mod t.nodes
let stats t = t.stats
let epoch t = t.epoch

let state t lock =
  if lock < 0 then invalid_arg "Table: negative lock id";
  match Hashtbl.find_opt t.locks lock with
  | Some s -> s
  | None ->
      let is_manager = manager_of t lock = t.node in
      let s =
        {
          id = lock;
          have_token = is_manager;
          busy = false;
          held_seq = 0;
          seqno = 0;
          last_write_seq = 0;
          last_writer = -1;
          pending_remote = None;
          requesting = false;
          waiters = Queue.create ();
          tail = manager_of t lock;
        }
      in
      Hashtbl.add t.locks lock s;
      s

let held t lock = (state t lock).busy
let has_token t lock = (state t lock).have_token

(* Grant the token to one local waiter (or return the grant directly). *)
let grant_locally s =
  s.busy <- true;
  s.seqno <- s.seqno + 1;
  s.held_seq <- s.seqno;
  { seqno = s.seqno; prev_write_seq = s.last_write_seq; last_writer = s.last_writer }

let pass_token t s ~to_ =
  if not s.have_token then raise (Protocol_error "passing a token we lack");
  s.have_token <- false;
  t.stats.tokens_passed <- t.stats.tokens_passed + 1;
  if Obs.enabled t.obs then begin
    Obs.count ~pid:t.node t.obs "token_hops" 1;
    Obs.instant t.obs ~name:"token.pass" ~pid:t.node ~tid:Obs.lane_lock
      ~arg:s.id
  end;
  t.send ~dst:to_
    (Token
       {
         epoch = t.epoch;
         lock = s.id;
         seqno = s.seqno;
         last_write_seq = s.last_write_seq;
         last_writer = s.last_writer;
       })

let rec request_token t s =
  if not s.requesting then begin
    s.requesting <- true;
    t.stats.requests_sent <- t.stats.requests_sent + 1;
    Obs.count ~pid:t.node t.obs "token_requests" 1;
    let mgr = manager_of t s.id in
    if mgr = t.node then
      (* We are the manager: short-circuit the self-send. *)
      handle_request t s.id t.node
    else t.send ~dst:mgr (Request { epoch = t.epoch; lock = s.id; requester = t.node })
  end

and handle_request t lock requester =
  let s = state t lock in
  if manager_of t lock <> t.node then
    raise (Protocol_error "Request received by a non-manager");
  let prev = s.tail in
  s.tail <- requester;
  if prev = requester then
    raise (Protocol_error "requester already at queue tail");
  if prev = t.node then handle_forward t lock requester
  else t.send ~dst:prev (Forward { epoch = t.epoch; lock; requester })

and handle_forward t lock requester =
  let s = state t lock in
  (match s.pending_remote with
  | Some other ->
      raise
        (Protocol_error
           (Printf.sprintf "two pending token requests (%d, %d)" other requester))
  | None -> ());
  if
    s.have_token && (not s.busy)
    && live_waiters s.waiters = 0
    && not s.requesting
  then pass_token t s ~to_:requester
  else s.pending_remote <- Some requester

let handle_token t lock ~seqno ~last_write_seq ~last_writer =
  let s = state t lock in
  if s.have_token then raise (Protocol_error "token received while owning it");
  s.have_token <- true;
  s.requesting <- false;
  s.seqno <- seqno;
  s.last_write_seq <- last_write_seq;
  s.last_writer <- last_writer;
  match next_waiter s.waiters with
  | Some w ->
      let g = grant_locally s in
      t.stats.remote_grants <- t.stats.remote_grants + 1;
      Lbc_sim.Ivar.fill w.iv (Some g)
  | None -> (
      (* Nobody waits any more; honour a pending forward immediately. *)
      match s.pending_remote with
      | Some r ->
          s.pending_remote <- None;
          pass_token t s ~to_:r
      | None -> ())

let handle t ~src:_ msg =
  let msg_epoch =
    match msg with
    | Request { epoch; _ } | Forward { epoch; _ } | Token { epoch; _ } -> epoch
  in
  (* Lease fencing: traffic from before the last reclaim is void. *)
  if msg_epoch <> t.epoch then t.stats.stale_msgs <- t.stats.stale_msgs + 1
  else
    match msg with
    | Request { lock; requester; _ } -> handle_request t lock requester
    | Forward { lock; requester; _ } -> handle_forward t lock requester
    | Token { lock; seqno; last_write_seq; last_writer; _ } ->
        handle_token t lock ~seqno ~last_write_seq ~last_writer

let enqueue_waiter t s =
  let w = { iv = Lbc_sim.Ivar.create (); cancelled = false } in
  Queue.add w s.waiters;
  if not s.have_token then request_token t s;
  w

(* Per-lock acquire counters ("heat"): an on-demand rejoin drains its
   cold replay chains hottest-lock-first, reading these back through the
   shared obs registry. *)
let heat_key lock = Printf.sprintf "lock_acquires:%d" lock

(* Memoized variant for the acquire hot path: the sink is always on
   since the flight recorder, and a sprintf per acquire costs more than
   the counter update itself.  Per-table, so only this node's execution
   context touches the memo. *)
let heat_key_memo t lock =
  match Hashtbl.find_opt t.heat_keys lock with
  | Some k -> k
  | None ->
      let k = heat_key lock in
      Hashtbl.replace t.heat_keys lock k;
      k

let note_heat t lock =
  if Obs.enabled t.obs then
    Obs.count ~pid:t.node t.obs (heat_key_memo t lock) 1

let acquire t lock =
  note_heat t lock;
  let s = state t lock in
  if s.have_token && (not s.busy) && live_waiters s.waiters = 0 then begin
    t.stats.local_grants <- t.stats.local_grants + 1;
    Obs.observe ~pid:t.node t.obs "lock_wait_us" 0.0;
    grant_locally s
  end
  else begin
    let sp =
      Obs.span_begin t.obs ~name:"lock.wait" ~pid:t.node ~tid:Obs.lane_lock
        ~arg:lock
    in
    let w = enqueue_waiter t s in
    match
      Lbc_sim.Ivar.read ~info:(Printf.sprintf "lock-wait l%d" lock) w.iv
    with
    | Some g ->
        Obs.observe ~pid:t.node t.obs "lock_wait_us" (Obs.span_end t.obs sp);
        g
    | None -> raise (Protocol_error "acquire: waiter cancelled unexpectedly")
  end

let acquire_timeout t lock ~timeout =
  note_heat t lock;
  let s = state t lock in
  if s.have_token && (not s.busy) && live_waiters s.waiters = 0 then begin
    t.stats.local_grants <- t.stats.local_grants + 1;
    Obs.observe ~pid:t.node t.obs "lock_wait_us" 0.0;
    Some (grant_locally s)
  end
  else begin
    let sp =
      Obs.span_begin t.obs ~name:"lock.wait" ~pid:t.node ~tid:Obs.lane_lock
        ~arg:lock
    in
    let w = enqueue_waiter t s in
    let engine = Lbc_sim.Proc.engine () in
    Lbc_sim.Engine.schedule engine ~delay:timeout (fun () ->
        if not (Lbc_sim.Ivar.is_filled w.iv) then begin
          w.cancelled <- true;
          Lbc_sim.Ivar.fill w.iv None
        end);
    let res =
      Lbc_sim.Ivar.read
        ~info:(Printf.sprintf "lock-wait l%d (timeout %.0f)" lock timeout)
        w.iv
    in
    let wait = Obs.span_end t.obs sp in
    if res <> None then Obs.observe ~pid:t.node t.obs "lock_wait_us" wait;
    res
  end

let release t lock ~wrote =
  let s = state t lock in
  if not s.busy then raise (Protocol_error "release of a lock not held");
  if wrote then begin
    s.last_write_seq <- s.held_seq;
    s.last_writer <- t.node
  end;
  s.busy <- false;
  match s.pending_remote with
  | Some r ->
      s.pending_remote <- None;
      pass_token t s ~to_:r;
      (* Local waiters must now queue through the manager again. *)
      if live_waiters s.waiters > 0 then request_token t s
  | None -> (
      match next_waiter s.waiters with
      | Some w ->
          let g = grant_locally s in
          t.stats.local_grants <- t.stats.local_grants + 1;
          Lbc_sim.Ivar.fill w.iv (Some g)
      | None -> ())

(* ------------------------------------------------------------------ *)
(* Crash recovery: lease-expiry reclaim and rejoin reset.              *)

(* Grant to a local waiter or honour a pending forward, if idle. *)
let dispatch t s =
  if s.have_token && not s.busy then
    match next_waiter s.waiters with
    | Some w ->
        let g = grant_locally s in
        t.stats.local_grants <- t.stats.local_grants + 1;
        Lbc_sim.Ivar.fill w.iv (Some g)
    | None -> (
        match s.pending_remote with
        | Some r ->
            s.pending_remote <- None;
            pass_token t s ~to_:r
        | None -> ())

let lock_ids tables =
  let set = Hashtbl.create 64 in
  Array.iter
    (fun t -> Hashtbl.iter (fun id _ -> Hashtbl.replace set id ()) t.locks)
    tables;
  List.sort Int.compare (Hashtbl.fold (fun id () acc -> id :: acc) set [])

(* Rebuild one lock after [failed]'s lease expired.  Pure state surgery:
   no suspension point, so the caller can fence and repair every lock in
   one atomic step.  Returns the sends to perform afterwards (each may
   suspend the calling process) as thunks that re-check their
   preconditions, since earlier sends may have let the cluster move. *)
let reclaim_lock tables ~failed lock =
  let n = Array.length tables in
  let mgr = lock mod n in
  if mgr <> failed then begin
    let entry i = Hashtbl.find_opt tables.(i).locks lock in
    (* Splice [failed] out of the pending chain: its predecessor now owes
       the token directly to its successor. *)
    let f_next =
      match entry failed with
      | Some fs -> (
          match fs.pending_remote with
          | Some q when q <> failed -> Some q
          | _ -> None)
      | None -> None
    in
    Array.iteri
      (fun i _ ->
        if i <> failed then
          match entry i with
          | Some s when s.pending_remote = Some failed ->
              s.pending_remote <- f_next
          | _ -> ())
      tables;
    (* Find the surviving token owner, if any. *)
    let holder = ref None in
    Array.iteri
      (fun i _ ->
        if i <> failed then
          match entry i with
          | Some s when s.have_token -> holder := Some i
          | _ -> ())
      tables;
    let holder =
      match !holder with
      | Some h -> h
      | None when not (Hashtbl.mem tables.(mgr).locks lock) ->
          (* Token never left the manager. *)
          ignore (state tables.(mgr) lock : lstate);
          mgr
      | None ->
          (* The token went down with [failed] (held there, or in flight
             to or from it).  Rematerialize it at the manager, seeded with
             the highest sequence state any table recorded: the fields are
             monotone and travel with the token, so the maximum over all
             copies is exactly what the lost token carried. *)
          let s_m = state tables.(mgr) lock in
          let best_seq = ref 0 and best_lws = ref 0 and best_lw = ref (-1) in
          Array.iter
            (fun t_i ->
              match Hashtbl.find_opt t_i.locks lock with
              | Some s ->
                  if (s.seqno, s.last_write_seq) > (!best_seq, !best_lws)
                  then begin
                    best_seq := s.seqno;
                    best_lws := s.last_write_seq;
                    best_lw := s.last_writer
                  end
              | None -> ())
            tables;
          s_m.have_token <- true;
          s_m.requesting <- false;
          s_m.seqno <- !best_seq;
          s_m.last_write_seq <- !best_lws;
          s_m.last_writer <- !best_lw;
          mgr
    in
    (* Walk the surviving chain; everything on it keeps its links and is
       served normally. *)
    let reachable = Array.make n false in
    let rec walk i =
      reachable.(i) <- true;
      match (match entry i with Some s -> s.pending_remote | None -> None) with
      | Some j when j <> failed && not reachable.(j) -> walk j
      | _ -> i
    in
    let chain_end = walk holder in
    (state tables.(mgr) lock).tail <- chain_end;
    (* Nodes cut off from the chain (their request or its forward was lost
       with the failure) re-enter the queue from scratch. *)
    let rekicks = ref [] in
    Array.iteri
      (fun i _ ->
        if i <> failed && not reachable.(i) then
          match entry i with
          | Some s ->
              s.pending_remote <- None;
              if s.requesting then begin
                s.requesting <- false;
                if live_waiters s.waiters > 0 then rekicks := i :: !rekicks
              end
          | None -> ())
      tables;
    (fun () -> dispatch tables.(holder) (state tables.(holder) lock))
    :: List.map
         (fun i () ->
           let s = state tables.(i) lock in
           if
             (not s.have_token) && (not s.requesting)
             && live_waiters s.waiters > 0
           then request_token tables.(i) s)
         (List.sort Int.compare !rekicks)
  end
  else []

let reclaim tables ~failed =
  let n = Array.length tables in
  if n = 0 then invalid_arg "Table.reclaim: no tables";
  if failed < 0 || failed >= n then invalid_arg "Table.reclaim: bad failed node";
  (* Epoch fence (lease expiry): bump every table so that messages still
     in flight from the old epoch are discarded on receipt.  The fence and
     the per-lock surgery run in one atomic step (no suspension point), so
     the surgery sees a frozen, consistent snapshot: pre-fence traffic is
     void on arrival and no post-fence traffic exists yet.  Only then do
     the deferred sends run. *)
  let epoch = 1 + Array.fold_left (fun m t_i -> max m t_i.epoch) 0 tables in
  Array.iter (fun t_i -> t_i.epoch <- epoch) tables;
  let sends = List.concat_map (reclaim_lock tables ~failed) (lock_ids tables) in
  List.iter (fun f -> f ()) sends

let rejoin_reset t =
  Hashtbl.iter
    (fun _ s ->
      s.busy <- false;
      s.held_seq <- 0;
      s.pending_remote <- None;
      s.requesting <- false;
      Queue.clear s.waiters;
      (* Tokens this node held were invalidated by the reclaim; locks it
         manages were skipped (manager failure is outside the fault
         model), so their manager-side state stays. *)
      if manager_of t s.id <> t.node then s.have_token <- false)
    t.locks
