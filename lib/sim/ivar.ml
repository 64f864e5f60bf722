type 'a state = Empty of ('a -> unit) list | Full of 'a
type 'a t = { mutable state : 'a state }

let create () = { state = Empty [] }

let fill t v =
  match t.state with
  | Full _ -> invalid_arg "Ivar.fill: already filled"
  | Empty waiters ->
      t.state <- Full v;
      (* Wake in FIFO order; waiters were consed on, so reverse. *)
      List.iter (fun resume -> resume v) (List.rev waiters)

let is_filled t = match t.state with Full _ -> true | Empty _ -> false

let read ?(info = "ivar.read") t =
  match t.state with
  | Full v -> v
  | Empty _ ->
      Proc.suspend ~info (fun resume ->
          match t.state with
          | Full v -> resume v
          | Empty waiters -> t.state <- Empty (resume :: waiters))
