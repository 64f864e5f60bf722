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

let pp_msg ppf = function
  | Request { epoch; lock; requester } ->
      Format.fprintf ppf "Request(l%d<-n%d e%d)" lock requester epoch
  | Forward { epoch; lock; requester } ->
      Format.fprintf ppf "Forward(l%d<-n%d e%d)" lock requester epoch
  | Token { epoch; lock; seqno; last_write_seq; last_writer } ->
      Format.fprintf ppf "Token(l%d seq=%d lws=%d lw=%d e%d)" lock seqno
        last_write_seq last_writer epoch

exception Protocol_error of string

type 'w lstate = {
  id : int;
  mutable have_token : bool;
  mutable busy : bool;
  mutable held_seq : int;  (* seqno of the current local holder *)
  mutable seqno : int;  (* valid while we own the token *)
  mutable last_write_seq : int;  (* valid while we own the token *)
  mutable last_writer : int;  (* node of the last writing acquire; -1 if none *)
  mutable pending_remote : int option;  (* node owed our token *)
  mutable requesting : bool;  (* Request sent, Token not yet received *)
  waiters : 'w Queue.t;  (* local handles, FIFO *)
  mutable tail : int;  (* manager-side: current end of the waiter chain *)
}

type stats = {
  mutable local_grants : int;
  mutable remote_grants : int;
  mutable requests_sent : int;
  mutable stale_msgs : int;
}

type 'w t = {
  node : int;
  nodes : int;
  send : dst:int -> msg -> unit;
  grant : 'w -> grant -> unit;
  locks : (int, 'w lstate) Hashtbl.t;
  stats : stats;
  mutable epoch : int;  (* lease epoch; messages from older epochs are stale *)
  mutable obs : Obs.t;
}

let create ~node ~nodes ~send ~grant () =
  if nodes <= 0 || node < 0 || node >= nodes then
    invalid_arg "Table.create: bad node/nodes";
  {
    node;
    nodes;
    send;
    grant;
    locks = Hashtbl.create 16;
    stats =
      { local_grants = 0; remote_grants = 0; requests_sent = 0; stale_msgs = 0 };
    epoch = 0;
    obs = Obs.disabled;
  }

let set_obs t obs = t.obs <- obs
let manager_of t lock = lock mod t.nodes
let stats t = t.stats

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

let has_token t lock = (state t lock).have_token

let grant_locally s =
  s.busy <- true;
  s.seqno <- s.seqno + 1;
  s.held_seq <- s.seqno;
  { seqno = s.seqno; prev_write_seq = s.last_write_seq; last_writer = s.last_writer }

let pass_token t s ~to_ =
  if not s.have_token then raise (Protocol_error "passing a token we lack");
  s.have_token <- false;
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

(* The one place a free token here moves on: to the oldest local waiter,
   else to the node owed it.  [remote] says whether a Token message just
   brought it, for the grant counters. *)
let serve t s ~remote =
  match Queue.take_opt s.waiters with
  | Some w ->
      let g = grant_locally s in
      if remote then t.stats.remote_grants <- t.stats.remote_grants + 1
      else t.stats.local_grants <- t.stats.local_grants + 1;
      t.grant w g
  | None -> (
      match s.pending_remote with
      | Some r ->
          s.pending_remote <- None;
          pass_token t s ~to_:r
      | None -> ())

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
    && Queue.is_empty s.waiters
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
  serve t s ~remote:true

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

let acquire t lock =
  let s = state t lock in
  if s.have_token && (not s.busy) && Queue.is_empty s.waiters then begin
    t.stats.local_grants <- t.stats.local_grants + 1;
    Some (grant_locally s)
  end
  else None

let wait t lock w =
  let s = state t lock in
  Queue.add w s.waiters;
  if not s.have_token then request_token t s

let cancel t lock w =
  let s = state t lock in
  let rest = Queue.of_seq (Seq.filter (( != ) w) (Queue.to_seq s.waiters)) in
  Queue.clear s.waiters;
  Queue.transfer rest s.waiters

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
      if not (Queue.is_empty s.waiters) then request_token t s
  | None -> serve t s ~remote:false

(* ------------------------------------------------------------------ *)
(* Crash recovery: lease-expiry reclaim and rejoin reset.              *)

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
          ignore (state tables.(mgr) lock : _ lstate);
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
                if not (Queue.is_empty s.waiters) then rekicks := i :: !rekicks
              end
          | None -> ())
      tables;
    (fun () ->
      let s = state tables.(holder) lock in
      if s.have_token && not s.busy then serve tables.(holder) s ~remote:false)
    :: List.map
         (fun i () ->
           let s = state tables.(i) lock in
           if
             (not s.have_token) && (not s.requesting)
             && not (Queue.is_empty s.waiters)
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
