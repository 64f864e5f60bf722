(* Tests for a rejoining node's replay chains: [Rejoin] alone against a
   list model of the chains a log tail indexes into. *)

open Lbc_core

let nlocks = 4
let nregions = 4

type key = Lock of int | Region of int

type step =
  | Touch of key  (* a gate's touch: claim the key's chain if it is cold *)
  | Claim of int  (* chain numbers are taken modulo the chain count *)
  | Finish of int
  | Fail of int

let gen_key =
  QCheck.Gen.(
    oneof
      [
        map (fun l -> Lock l) (int_bound (nlocks - 1));
        map (fun r -> Region r) (int_bound (nregions - 1));
      ])

let gen_step =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun k -> Touch k) gen_key);
        (3, map (fun c -> Claim c) nat);
        (3, map (fun c -> Finish c) nat);
        (1, map (fun c -> Fail c) nat);
      ])

(* A log tail: each record names some locks and touches some regions. *)
let gen_tail =
  QCheck.Gen.(
    list_size (0 -- 12)
      (pair
         (list_size (0 -- 2) (int_bound (nlocks - 1)))
         (list_size (0 -- 2) (int_bound (nregions - 1)))))

let show_key = function
  | Lock l -> Printf.sprintf "lock %d" l
  | Region r -> Printf.sprintf "region %d" r

let show_step = function
  | Touch k -> "touch " ^ show_key k
  | Claim c -> Printf.sprintf "claim %d" c
  | Finish c -> Printf.sprintf "finish %d" c
  | Fail c -> Printf.sprintf "fail %d" c

let ints xs = String.concat ";" (List.map string_of_int xs)

let show_tail tail =
  String.concat " "
    (List.map
       (fun (ls, rs) -> Printf.sprintf "{l[%s] r[%s]}" (ints ls) (ints rs))
       tail)

(* The tail's records at offsets 16, 116, ..., indexed as a rejoin
   indexes its log. *)
let chains_of tail =
  let idx = Lbc_wal.Region_index.create () in
  List.iteri
    (fun i (ls, rs) ->
      let locks =
        List.map
          (fun l ->
            { Lbc_wal.Record.lock_id = l; seqno = i + 1; prev_write_seq = 0 })
          (List.sort_uniq Int.compare ls)
      in
      let ranges =
        List.map
          (fun r ->
            { Lbc_wal.Record.region = r; offset = 0; data = Bytes.make 8 'x' })
          (List.sort_uniq Int.compare rs)
      in
      Lbc_wal.Region_index.add idx ~off:(16 + (100 * i))
        { Lbc_wal.Record.node = 0; tid = i; locks; ranges; cmd = None })
    tail;
  Lbc_wal.Region_index.entries idx

(* The reference: each chain's status in an array, a key's chain found
   by a walk of the chain list, and the number of times each chain has
   finished. *)
let prop_rejoin_model =
  QCheck.Test.make ~name:"chains match a list model" ~count:500
    QCheck.(
      make
        ~print:(fun (tail, steps) ->
          show_tail tail ^ " / "
          ^ String.concat ", " (List.map show_step steps))
        Gen.(pair gen_tail (list_size (1 -- 40) gen_step)))
    (fun (tail, steps) ->
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let entries = chains_of tail in
      let chains = Array.of_list entries in
      let n = Array.length chains in
      let r = Rejoin.create entries in
      let status = Array.make n Rejoin.Cold in
      let finished = Array.make n 0 in
      let covering = function
        | Lock l ->
            List.find_index
              (fun (c : Lbc_wal.Region_index.chain) -> List.mem l c.locks)
              entries
        | Region g ->
            List.find_index
              (fun (c : Lbc_wal.Region_index.chain) -> List.mem g c.regions)
              entries
      in
      let lookup = function
        | Lock l -> Rejoin.lock_chain r l
        | Region g -> Rejoin.region_chain r g
      in
      let keys =
        List.init nlocks (fun l -> Lock l)
        @ List.init nregions (fun g -> Region g)
      in
      (* A transition the model forbids must raise and change nothing. *)
      let move c ~from ~to_ f what =
        if status.(c) = from then begin
          f r c;
          status.(c) <- to_
        end
        else
          match f r c with
          | () -> fail "%s %d from the wrong state went through" what c
          | exception Invalid_argument _ -> ()
      in
      if Rejoin.chains r <> n then
        fail "chains %d, want %d" (Rejoin.chains r) n;
      (* The drain order: every chain once, lengths never rising, ties
         in first-offset (= chain number) order. *)
      let drain = Rejoin.drain r in
      if List.sort Int.compare drain <> List.init n Fun.id then
        fail "drain [%s] is not every chain once" (ints drain);
      let len c = List.length chains.(c).offsets in
      let rec ordered = function
        | a :: (b :: _ as rest) ->
            (len a > len b || (len a = len b && a < b)) && ordered rest
        | _ -> true
      in
      if not (ordered drain) then fail "drain [%s] out of order" (ints drain);
      List.iter
        (fun step ->
          (match step with
          | Touch k -> (
              match covering k with
              | Some c when status.(c) = Rejoin.Cold ->
                  move c ~from:Rejoin.Cold ~to_:Rejoin.Replaying Rejoin.claim
                    "claim"
              | _ -> ())
          | _ when n = 0 -> ()
          | Claim c ->
              move (c mod n) ~from:Rejoin.Cold ~to_:Rejoin.Replaying
                Rejoin.claim "claim"
          | Finish c ->
              let c = c mod n in
              move c ~from:Rejoin.Replaying ~to_:Rejoin.Warm
                (fun r c ->
                  Rejoin.finish r c;
                  finished.(c) <- finished.(c) + 1)
                "finish"
          | Fail c ->
              move (c mod n) ~from:Rejoin.Replaying ~to_:Rejoin.Cold
                Rejoin.fail "fail");
          (* Every key: its own chain, cold until that chain finishes. *)
          List.iter
            (fun k ->
              let want = covering k in
              if lookup k <> want then fail "%s: wrong chain" (show_key k);
              match want with
              | None -> ()
              | Some c ->
                  if (Rejoin.status r c = Rejoin.Warm) <> (finished.(c) = 1)
                  then fail "%s: warm before its chain finished" (show_key k))
            keys;
          Array.iteri
            (fun c s ->
              if Rejoin.status r c <> s then fail "chain %d: status differs" c;
              if finished.(c) > 1 then fail "chain %d finished twice" c)
            status;
          let cold =
            Array.fold_left
              (fun n s -> if s = Rejoin.Warm then n else n + 1)
              0 status
          in
          if Rejoin.cold r <> cold then
            fail "cold %d, want %d" (Rejoin.cold r) cold)
        steps;
      true)

let suites =
  [ ("core.rejoin", [ QCheck_alcotest.to_alcotest prop_rejoin_model ]) ]
