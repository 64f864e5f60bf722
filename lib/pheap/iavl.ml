type key = int64 * int64

(* Node layout: value (entry address), left, right, height — 8-byte
   fields at fixed offsets. *)
let node_size = 32
let f_value = 0
let f_left = 8
let f_right = 16
let f_height = 24

let slots_size = 16 (* root, free-list head *)

type t = { heap : Heap.t; slots : int; key_of : int -> key }

let attach heap ~slots ~key_of = { heap; slots; key_of }

let root t = Heap.get_int t.heap t.slots
let set_root t v = Heap.set_int t.heap t.slots v
let free_slot t = t.slots + 8

let value t n = Heap.get_int t.heap (n + f_value)
let left t n = Heap.get_int t.heap (n + f_left)
let right t n = Heap.get_int t.heap (n + f_right)
let height_of t n = if n = 0 then 0 else Heap.get_int t.heap (n + f_height)
let set_left t n v = Heap.set_int t.heap (n + f_left) v
let set_right t n v = Heap.set_int t.heap (n + f_right) v
let key_at t n = t.key_of (value t n)

(* Recompute from the children; writes only when the value changes. *)
let update_height t n =
  let h = 1 + max (height_of t (left t n)) (height_of t (right t n)) in
  if height_of t n <> h then Heap.set_int t.heap (n + f_height) h

let balance_factor t n = height_of t (left t n) - height_of t (right t n)

let rotate_right t n =
  let l = left t n in
  set_left t n (right t l);
  set_right t l n;
  update_height t n;
  update_height t l;
  l

let rotate_left t n =
  let r = right t n in
  set_right t n (left t r);
  set_left t r n;
  update_height t n;
  update_height t r;
  r

(* Restore the AVL invariant at a node whose subtrees are already
   balanced; returns the (possibly new) subtree root. *)
let rebalance t n =
  update_height t n;
  let bf = balance_factor t n in
  if bf > 1 then begin
    if balance_factor t (left t n) < 0 then set_left t n (rotate_left t (left t n));
    rotate_right t n
  end
  else if bf < -1 then begin
    if balance_factor t (right t n) > 0 then
      set_right t n (rotate_right t (right t n));
    rotate_left t n
  end
  else n

let rec min_node t n = if left t n = 0 then n else min_node t (left t n)
let rec max_node t n = if right t n = 0 then n else max_node t (right t n)

let compare_key (a1, a2) (b1, b2) =
  let c = Int64.unsigned_compare a1 b1 in
  if c <> 0 then c else Int64.unsigned_compare a2 b2

(* Freed nodes are chained through their left-child field; the list
   head lives in the second slot. *)
let alloc_node t entry =
  let n =
    match Heap.get_int t.heap (free_slot t) with
    | 0 -> Heap.alloc t.heap node_size
    | n ->
        Heap.set_int t.heap (free_slot t) (left t n);
        n
  in
  (* One store initializes the whole node. *)
  let image = Bytes.make node_size '\000' in
  Bytes.set_int64_le image f_value (Int64.of_int entry);
  Bytes.set_int64_le image f_height 1L;
  Heap.set_bytes t.heap n image;
  n

let free_node t n =
  set_left t n (Heap.get_int t.heap (free_slot t));
  Heap.set_int t.heap (free_slot t) n

let insert t entry =
  let key = t.key_of entry in
  let inserted = ref false in
  let rec go n =
    if n = 0 then begin
      inserted := true;
      alloc_node t entry
    end
    else begin
      let c = compare_key key (key_at t n) in
      if c = 0 then n
      else begin
        if c < 0 then begin
          let l' = go (left t n) in
          if l' <> left t n then set_left t n l'
        end
        else begin
          let r' = go (right t n) in
          if r' <> right t n then set_right t n r'
        end;
        if !inserted then rebalance t n else n
      end
    end
  in
  let r = go (root t) in
  if r <> root t then set_root t r;
  !inserted

let delete t entry =
  let key = t.key_of entry in
  let deleted = ref false in
  let rec go n =
    if n = 0 then 0
    else begin
      let c = compare_key key (key_at t n) in
      if c < 0 then begin
        let l' = go (left t n) in
        if l' <> left t n then set_left t n l';
        if !deleted then rebalance t n else n
      end
      else if c > 0 then begin
        let r' = go (right t n) in
        if r' <> right t n then set_right t n r';
        if !deleted then rebalance t n else n
      end
      else begin
        (* Keys are unique (the entry address is the tie-breaker). *)
        deleted := true;
        if left t n = 0 then begin
          let r = right t n in
          free_node t n;
          r
        end
        else if right t n = 0 then begin
          let l = left t n in
          free_node t n;
          l
        end
        else begin
          (* Two children: move the in-order successor's value up, then
             remove the successor node. *)
          let succ = min_node t (right t n) in
          Heap.set_int t.heap (n + f_value) (value t succ);
          let rec remove_min m =
            if left t m = 0 then right t m
            else begin
              let l' = remove_min (left t m) in
              if l' <> left t m then set_left t m l';
              rebalance t m
            end
          in
          let r' = remove_min (right t n) in
          free_node t succ;
          if r' <> right t n then set_right t n r';
          rebalance t n
        end
      end
    end
  in
  let r = go (root t) in
  if r <> root t then set_root t r;
  !deleted

let contains t entry =
  let key = t.key_of entry in
  let rec go n =
    if n = 0 then false
    else
      let c = compare_key key (key_at t n) in
      if c = 0 then value t n = entry
      else if c < 0 then go (left t n)
      else go (right t n)
  in
  go (root t)

type update_outcome = In_place | Relocated

let update t entry ~new_key ~set =
  let key = t.key_of entry in
  let rec find n lo hi =
    if n = 0 then None
    else
      let k = key_at t n in
      let c = compare_key key k in
      if c = 0 then Some (n, lo, hi)
      else if c < 0 then find (left t n) lo (Some k)
      else find (right t n) (Some k) hi
  in
  match find (root t) None None with
  | None -> raise (Heap.Heap_error "Iavl.update: entry not in tree")
  | Some (n, lo, hi) ->
      let pred =
        if left t n <> 0 then Some (key_at t (max_node t (left t n)))
        else lo
      in
      let succ =
        if right t n <> 0 then
          Some (key_at t (min_node t (right t n)))
        else hi
      in
      let fits =
        (match pred with None -> true | Some p -> compare_key new_key p > 0)
        && match succ with None -> true | Some s -> compare_key new_key s < 0
      in
      if fits then begin
        (* The node's position is still correct: the key change is free. *)
        set ();
        In_place
      end
      else begin
        ignore (delete t entry);
        set ();
        ignore (insert t entry);
        Relocated
      end

let fold t ~init ~f =
  let rec go n acc =
    if n = 0 then acc
    else
      let acc = go (left t n) acc in
      let acc = f acc (value t n) in
      go (right t n) acc
  in
  go (root t) init

let cardinal t = fold t ~init:0 ~f:(fun a _ -> a + 1)
let height t = height_of t (root t)

let check_invariants t =
  let fail msg = raise (Heap.Heap_error ("Iavl.check_invariants: " ^ msg)) in
  let key_lt a b = compare_key (key_at t a) (key_at t b) < 0 in
  let rec go n =
    if n = 0 then 0
    else begin
      let hl = go (left t n) and hr = go (right t n) in
      if abs (hl - hr) > 1 then fail "unbalanced node";
      if 1 + max hl hr <> height_of t n then fail "stale height";
      if left t n <> 0 && not (key_lt (left t n) n) then
        fail "left key out of order";
      if right t n <> 0 && not (key_lt n (right t n)) then
        fail "right key out of order";
      1 + max hl hr
    end
  in
  ignore (go (root t))
