module Record = Lbc_wal.Record

type t = {
  applied : (int, int) Hashtbl.t;  (* lock id -> applied write seqno *)
  applying : (int * int, unit) Hashtbl.t;
      (* (lock, seqno) of each write whose apply has not landed yet *)
  held : (int * int, Record.txn) Hashtbl.t;
      (* (lock, seqno of the write a record lacks) -> the record; one
         binding per held record ([Hashtbl.add]) *)
  mutable pinned : bool;
  mutable buffered : Record.txn list;  (* while pinned, newest first *)
}

let create () =
  { applied = Hashtbl.create 16; applying = Hashtbl.create 16;
    held = Hashtbl.create 16; pinned = false; buffered = [] }

let applied_seq t lock = Option.value ~default:0 (Hashtbl.find_opt t.applied lock)

let set_applied t lock seq =
  if seq > applied_seq t lock then Hashtbl.replace t.applied lock seq

let applied t = Hashtbl.fold (fun lock seq acc -> (lock, seq) :: acc) t.applied []
let pending_count t = Hashtbl.length t.held + List.length t.buffered
let pinned t = t.pinned
let pin t = t.pinned <- true

let accept t =
  let buffered = List.rev t.buffered in
  t.pinned <- false;
  t.buffered <- [];
  buffered

(* Judge [r]: drop it, hold it under the first write it lacks, or apply
   it and queue on [woken] the records held under its writes.  True when
   [r] was held. *)
let offer t ~apply ~landed woken (r : Record.txn) =
  let has (l : Record.lock_info) seq = applied_seq t l.lock_id >= seq in
  let dup (l : Record.lock_info) =
    has l l.seqno || Hashtbl.mem t.applying (l.lock_id, l.seqno)
  in
  if List.exists dup r.locks then false
  else
    match
      List.find_opt
        (fun (l : Record.lock_info) -> not (has l l.prev_write_seq))
        r.locks
    with
    | Some l ->
        Hashtbl.add t.held (l.lock_id, l.prev_write_seq) r;
        true
    | None ->
        let writes =
          List.map (fun (l : Record.lock_info) -> (l.lock_id, l.seqno)) r.locks
        in
        List.iter (fun w -> Hashtbl.replace t.applying w ()) writes;
        (match apply r with
        | () -> List.iter (Hashtbl.remove t.applying) writes
        | exception e ->
            List.iter (Hashtbl.remove t.applying) writes;
            raise e);
        List.iter
          (fun (l : Record.lock_info) ->
            set_applied t l.lock_id l.seqno;
            let key = (l.lock_id, l.seqno) in
            (* [find_all] lists the newest binding first *)
            List.iter
              (fun w ->
                Hashtbl.remove t.held key;
                Queue.add w woken)
              (List.rev (Hashtbl.find_all t.held key)))
          r.locks;
        landed ();
        false

let receive t ~apply ~landed r =
  if t.pinned then begin
    t.buffered <- r :: t.buffered;
    false
  end
  else begin
    let woken = Queue.create () in
    let held = offer t ~apply ~landed woken r in
    while not (Queue.is_empty woken) do
      ignore (offer t ~apply ~landed woken (Queue.pop woken) : bool)
    done;
    held
  end
