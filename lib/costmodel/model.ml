type update_class = Redundant | Ordered | Unordered

(* Calibration (Section 4.3): the paper states that at 1000 updates per
   transaction, log-based coherency beats Cpy/Cmp below 45 updates/page
   (55 if ordered), i.e. an unordered update costs 813/45 = 18.1 µs and an
   ordered one 813/55 = 14.8 µs, where 813 µs = trap + copy + compare.
   The unordered cost is dominated by the range-tree search, so it grows
   with the logarithm of the tree size (Figures 5-6). *)
let unordered_base = 6.11
let unordered_log_coeff = 1.2
let ordered_cost = 813.0 /. 55.0
let redundant_cost = 4.5

let log2 x = log x /. log 2.0

let per_update_cost cls ~nth =
  if nth < 1 then invalid_arg "Model.per_update_cost: nth < 1";
  match cls with
  | Redundant -> redundant_cost
  | Ordered -> ordered_cost
  | Unordered ->
      unordered_base +. (unordered_log_coeff *. log2 (float_of_int (max 2 nth)))

(* Total detect cost of a transaction given how many calls of each class
   it made (order-insensitive approximation using the running count). *)
let detect_log ~update_classes =
  List.fold_left
    (fun acc (cls, count) ->
      match cls with
      | Redundant -> acc +. (redundant_cost *. float_of_int count)
      | Ordered -> acc +. (ordered_cost *. float_of_int count)
      | Unordered ->
          let sum = ref 0.0 in
          for i = 1 to count do
            sum := !sum +. per_update_cost Unordered ~nth:i
          done;
          acc +. !sum)
    0.0 update_classes

(* Commit-time gather: ~1 µs of iovec bookkeeping per range plus a
   warm-cache copy of the modified bytes into the system buffer. *)
let collect_log ~ranges ~bytes =
  float_of_int ranges +. (Table2.copy_per_byte_warm *. float_of_int bytes)

(* One writev per peer; same fixed/percentage split as the AN1 network
   parameters (677 µs for a full 8 KB page). *)
let writev_base = 100.0
let writev_per_byte = (Table2.page_send_tcp -. writev_base) /. float_of_int Table2.page_size

let network_log ~message_bytes ~peers =
  float_of_int peers
  *. (writev_base +. (writev_per_byte *. float_of_int message_bytes))

let apply_log ~ranges ~bytes =
  (0.5 *. float_of_int ranges)
  +. (Table2.copy_per_byte_warm *. float_of_int bytes)

(* Figure 8's disk bar: a synchronous force of the log tail.  Matches the
   osdi94_disk storage profile (45 ms seek/rotation + 0.8 µs/B). *)
let disk_force ~bytes = 45_000.0 +. (0.8 *. float_of_int bytes)

type traversal_profile = {
  updates : int;
  unique_bytes : int;
  message_bytes : int;
  pages_updated : int;
  ranges : int;
  ordered_updates : int;
  redundant_updates : int;
}

let log_phases ?(peers = 1) p =
  let unordered = p.updates - p.ordered_updates - p.redundant_updates in
  let detect =
    detect_log
      ~update_classes:
        [
          (Unordered, max 0 unordered);
          (Ordered, p.ordered_updates);
          (Redundant, p.redundant_updates);
        ]
  in
  Phases.add (Phases.detect detect)
    (Phases.add
       (Phases.collect (collect_log ~ranges:p.ranges ~bytes:p.unique_bytes))
       (Phases.add
          (Phases.network (network_log ~message_bytes:p.message_bytes ~peers))
          (Phases.apply (apply_log ~ranges:p.ranges ~bytes:p.unique_bytes))))

let page_phases ?(peers = 1) p =
  let pages = float_of_int p.pages_updated in
  Phases.add
    (Phases.detect (pages *. Table2.trap_and_protect))
    (Phases.add
       (Phases.network (float_of_int peers *. pages *. Table2.page_send_tcp))
       (Phases.apply (pages *. Table2.page_copy_cold)))

let cpycmp_phases ?(peers = 1) p =
  let pages = float_of_int p.pages_updated in
  Phases.add
    (Phases.detect (pages *. (Table2.trap_and_protect +. Table2.page_copy_cold)))
    (Phases.add
       (Phases.collect (pages *. Table2.page_compare_cold))
       (Phases.add
          (Phases.network (network_log ~message_bytes:p.message_bytes ~peers))
          (Phases.apply (apply_log ~ranges:p.ranges ~bytes:p.unique_bytes))))
