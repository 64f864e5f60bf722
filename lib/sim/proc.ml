exception Not_in_process
exception Killed

type meta = { name : string; daemon : bool; alive : unit -> bool }

type _ Effect.t +=
  | Sleep : Engine.time -> unit Effect.t
  | Suspend : (('a -> unit) -> unit) -> 'a Effect.t
  | Current_engine : Engine.t Effect.t
  | Self_meta : meta Effect.t

(* The process an engine event resumed, while it runs on top of that
   event: set by the start and wake-up callbacks that [spawn] and the
   [Sleep] handler schedule, cleared whenever control goes back toward
   the engine — the process performs [Sleep] or [Suspend], returns, or
   raises.  A process resumed by another one ([Ivar.fill] and friends
   call [resume] directly) runs with the cell empty, because the
   resumer's remaining code must still run before anything the resumed
   process sleeps toward.  Per domain: the real backend runs one engine
   per domain. *)
type running = { eng : Engine.t; alive : unit -> bool }

let current : running option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let set_current r = Domain.DLS.set current r

(* A sleep that nothing can interleave advances the clock in place
   (Engine.advance_in_place), and the process goes on as if woken. *)
let sleep dt =
  match Domain.DLS.get current with
  | Some r when Engine.advance_in_place r.eng dt ->
      if not (r.alive ()) then raise Killed
  | _ -> (
      try Effect.perform (Sleep dt)
      with Effect.Unhandled _ -> raise Not_in_process)

let engine () =
  try Effect.perform Current_engine
  with Effect.Unhandled _ -> raise Not_in_process

let self_meta () =
  try Effect.perform Self_meta
  with Effect.Unhandled _ -> raise Not_in_process

let suspend ?info register =
  match info with
  | None -> (
      try Effect.perform (Suspend register)
      with Effect.Unhandled _ -> raise Not_in_process)
  | Some info ->
      (* Register in the engine's blocked-process registry for the
         duration of the suspension, so a process that is never resumed
         shows up in the stranded report. *)
      let eng = engine () in
      let m = self_meta () in
      let id =
        Engine.block_begin eng
          ~desc:(m.name ^ ": " ^ info)
          ~daemon:m.daemon ~alive:m.alive
      in
      Effect.perform
        (Suspend
           (fun resume ->
             register (fun v ->
                 Engine.block_end eng id;
                 resume v)))

let now () = Engine.now (engine ())
let yield () = sleep 0.0

let spawn eng ?(name = "proc") ?(daemon = false) ?(alive = fun () -> true) f =
  let open Effect.Deep in
  let meta = { name; daemon; alive } in
  let self = Some { eng; alive } in
  let handler =
    {
      retc = (fun () -> set_current None);
      exnc =
        (fun e ->
          set_current None;
          match e with
          | Killed -> ()  (* the process's node crashed; die silently *)
          | Failure _ ->
              let bt = Printexc.get_raw_backtrace () in
              Printexc.raise_with_backtrace e bt
          | _ ->
              let bt = Printexc.get_raw_backtrace () in
              let e' =
                Failure
                  (Printf.sprintf "process %s: %s" name (Printexc.to_string e))
              in
              Printexc.raise_with_backtrace e' bt);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Sleep dt ->
              Some
                (fun (k : (a, unit) continuation) ->
                  set_current None;
                  Engine.schedule eng ~delay:dt (fun () ->
                      set_current self;
                      if alive () then continue k ()
                      else discontinue k Killed))
          | Suspend register ->
              Some
                (fun (k : (a, unit) continuation) ->
                  set_current None;
                  register (fun v ->
                      (* Resumed from inside whatever calls [resume]:
                         run with the cell empty, then hand it back. *)
                      let resumer = Domain.DLS.get current in
                      set_current None;
                      if alive () then continue k v
                      else discontinue k Killed;
                      set_current resumer))
          | Current_engine ->
              Some (fun (k : (a, unit) continuation) -> continue k eng)
          | Self_meta ->
              Some (fun (k : (a, unit) continuation) -> continue k meta)
          | _ -> None);
    }
  in
  Engine.schedule eng (fun () ->
      if alive () then begin
        set_current self;
        match_with f () handler
      end)
