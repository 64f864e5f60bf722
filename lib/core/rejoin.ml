type status = Cold | Replaying | Warm

type t = {
  offsets : int list array;  (* chain -> its records' log offsets *)
  status : status array;
  of_lock : (int, int) Hashtbl.t;  (* lock -> chain *)
  of_region : (int, int) Hashtbl.t;  (* region -> chain *)
  mutable cold : int;  (* chains not yet Warm *)
}

let create (entries : Lbc_wal.Region_index.chain list) =
  let offsets =
    Array.of_list (List.map (fun c -> c.Lbc_wal.Region_index.offsets) entries)
  in
  let of_lock = Hashtbl.create 32 and of_region = Hashtbl.create 32 in
  List.iteri
    (fun i (c : Lbc_wal.Region_index.chain) ->
      List.iter (fun l -> Hashtbl.replace of_lock l i) c.locks;
      List.iter (fun r -> Hashtbl.replace of_region r i) c.regions)
    entries;
  let n = Array.length offsets in
  { offsets; status = Array.make n Cold; of_lock; of_region; cold = n }

let chains t = Array.length t.offsets
let cold t = t.cold
let lock_chain t lock = Hashtbl.find_opt t.of_lock lock
let region_chain t region = Hashtbl.find_opt t.of_region region
let status t c = t.status.(c)
let offsets t c = t.offsets.(c)

let move t c ~from ~to_ what =
  if t.status.(c) <> from then
    invalid_arg (Printf.sprintf "Rejoin.%s: chain %d" what c);
  t.status.(c) <- to_

let claim t c = move t c ~from:Cold ~to_:Replaying "claim"
let fail t c = move t c ~from:Replaying ~to_:Cold "fail"

let finish t c =
  move t c ~from:Replaying ~to_:Warm "finish";
  t.cold <- t.cold - 1

let largest_first size l =
  List.stable_sort (fun a b -> Int.compare (size b) (size a)) l

let drain t =
  largest_first
    (fun c -> List.length t.offsets.(c))
    (List.init (chains t) Fun.id)
