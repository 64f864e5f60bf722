type 'a t = { items : 'a Queue.t; waiters : ('a -> unit) Queue.t }

let create () = { items = Queue.create (); waiters = Queue.create () }

let send t v =
  match Queue.take_opt t.waiters with
  | Some resume -> resume v
  | None -> Queue.add v t.items

let try_recv t = Queue.take_opt t.items

let recv ?(info = "mailbox.recv") t =
  match Queue.take_opt t.items with
  | Some v -> v
  | None -> Proc.suspend ~info (fun resume -> Queue.add resume t.waiters)

let is_empty t = Queue.is_empty t.items
