(* Tests for the persistent heap: layouts, allocator, AVL index. *)

open Lbc_pheap

let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Layout *)

let test_layout_offsets () =
  let l = Layout.make [ ("id", 8); ("date", 8); ("conns", 72) ] in
  check_int "id at 0" 0 (Layout.offset l "id");
  check_int "date at 8" 8 (Layout.offset l "date");
  check_int "conns at 16" 16 (Layout.offset l "conns");
  check_int "size" 88 (Layout.size l);
  Alcotest.(check (list string)) "fields" [ "id"; "date"; "conns" ]
    (Layout.fields l)

let test_layout_padding () =
  let l = Layout.make ~pad_to:200 [ ("id", 8) ] in
  check_int "padded size" 200 (Layout.size l)

let test_layout_errors () =
  Alcotest.(check bool) "duplicate field" true
    (try ignore (Layout.make [ ("a", 8); ("a", 8) ]); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "pad too small" true
    (try ignore (Layout.make ~pad_to:4 [ ("a", 8) ]); false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Heap *)

let fresh_heap ?(size = 4096) () =
  let image = Bytes.make size '\000' in
  (Heap.of_bytes image, image)

let test_heap_alloc_bump () =
  let h, _ = fresh_heap () in
  let a = Heap.alloc h 100 in
  let b = Heap.alloc h 50 in
  check_int "first at data start" Heap.data_start a;
  check_int "bump" (Heap.data_start + 100) b;
  check_int "frontier" (Heap.data_start + 150) (Heap.allocated h)

let test_heap_alloc_exhaustion () =
  let h, _ = fresh_heap ~size:64 () in
  Alcotest.(check bool) "heap full" true
    (try ignore (Heap.alloc h 1000); false with Heap.Heap_error _ -> true)

let test_heap_u64_roundtrip () =
  let h, _ = fresh_heap () in
  let a = Heap.alloc h 16 in
  Heap.set_u64 h a 0xDEADBEEFL;
  Alcotest.(check int64) "u64" 0xDEADBEEFL (Heap.get_u64 h a)

let test_heap_allocator_is_persistent () =
  (* The allocation pointer lives in the image: re-attaching sees it. *)
  let h, image = fresh_heap () in
  ignore (Heap.alloc h 123);
  let h' = Heap.of_bytes image in
  check_int "frontier persisted" (Heap.data_start + 123) (Heap.allocated h')

let test_heap_rejects_garbage () =
  let image = Bytes.make 64 'x' in
  Alcotest.(check bool) "bad magic" true
    (try ignore (Heap.of_bytes image); false with Heap.Heap_error _ -> true)

let test_heap_field_access () =
  let l = Layout.make [ ("id", 8); ("x", 8) ] in
  let h, _ = fresh_heap () in
  let a = Heap.alloc h (Layout.size l) in
  let field name = a + Layout.offset l name in
  Heap.set_int h (field "x") 42;
  check_int "field" 42 (Heap.get_int h (field "x"));
  check_int "other field untouched" 0 (Heap.get_int h (field "id"))

(* ------------------------------------------------------------------ *)
(* AVL index *)

let fresh_index ?(size = 1 lsl 20) () =
  let h, _ = fresh_heap ~size () in
  let slots = Heap.alloc h Avl.slots_size in
  Avl.attach h ~slots

let k i = (Int64.of_int i, 0L)

let test_avl_insert_contains () =
  let t = fresh_index () in
  Alcotest.(check bool) "insert" true (Avl.insert t (k 5));
  Alcotest.(check bool) "insert" true (Avl.insert t (k 3));
  Alcotest.(check bool) "duplicate" false (Avl.insert t (k 5));
  Alcotest.(check bool) "contains 3" true (Avl.contains t (k 3));
  Alcotest.(check bool) "contains 5" true (Avl.contains t (k 5));
  Alcotest.(check bool) "not 4" false (Avl.contains t (k 4));
  check_int "cardinal" 2 (Avl.cardinal t)

let test_avl_sorted_fold () =
  let t = fresh_index () in
  List.iter (fun i -> ignore (Avl.insert t (k i))) [ 5; 1; 9; 3; 7 ];
  let keys = List.rev (Avl.fold t ~init:[] ~f:(fun acc (hi, _) -> hi :: acc)) in
  Alcotest.(check (list int64)) "sorted" [ 1L; 3L; 5L; 7L; 9L ] keys;
  Alcotest.(check (option (pair int64 int64))) "min" (Some (1L, 0L)) (Avl.min_key t)

let test_avl_delete () =
  let t = fresh_index () in
  List.iter (fun i -> ignore (Avl.insert t (k i))) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check bool) "delete 3" true (Avl.delete t (k 3));
  Alcotest.(check bool) "already gone" false (Avl.delete t (k 3));
  Alcotest.(check bool) "not contains" false (Avl.contains t (k 3));
  check_int "cardinal" 4 (Avl.cardinal t);
  Avl.check_invariants t

let test_avl_balanced_height () =
  let t = fresh_index () in
  for i = 1 to 1024 do
    ignore (Avl.insert t (k i))
  done;
  Avl.check_invariants t;
  Alcotest.(check bool)
    (Printf.sprintf "height %d <= 1.44 log2 n" (Avl.height t))
    true
    (Avl.height t <= 15)

let test_avl_free_list_reuse () =
  (* delete/insert churn must not grow the heap once the free list is
     primed (the T3 traversal depends on this). *)
  let t = fresh_index () in
  for round = 0 to 20 do
    for i = 1 to 100 do
      if round > 0 then ignore (Avl.delete t (k i));
      ignore (Avl.insert t (k (i + (round * 1000))));
      ignore (Avl.delete t (k (i + (round * 1000))));
      ignore (Avl.insert t (k i))
    done
  done;
  Avl.check_invariants t;
  check_int "cardinal stable" 100 (Avl.cardinal t)

let test_avl_replace_key_in_place () =
  let t = fresh_index () in
  List.iter (fun i -> ignore (Avl.insert t (k (10 * i)))) [ 1; 2; 3 ];
  (* 20 -> 25 stays between 10 and 30. *)
  Alcotest.(check bool) "in place" true
    (Avl.replace_key t ~old_key:(k 20) ~new_key:(k 25) = Avl.In_place);
  Alcotest.(check bool) "new key present" true (Avl.contains t (k 25));
  Alcotest.(check bool) "old key gone" false (Avl.contains t (k 20));
  Avl.check_invariants t

let test_avl_replace_key_reinserts () =
  let t = fresh_index () in
  List.iter (fun i -> ignore (Avl.insert t (k i))) [ 10; 20; 30; 40 ];
  (* 10 -> 35 must relocate past 20 and 30. *)
  Alcotest.(check bool) "reinserted" true
    (Avl.replace_key t ~old_key:(k 10) ~new_key:(k 35) = Avl.Reinserted);
  let keys = List.rev (Avl.fold t ~init:[] ~f:(fun acc (hi, _) -> hi :: acc)) in
  Alcotest.(check (list int64)) "order maintained" [ 20L; 30L; 35L; 40L ] keys;
  Avl.check_invariants t

let test_avl_replace_key_missing () =
  let t = fresh_index () in
  ignore (Avl.insert t (k 1));
  Alcotest.(check bool) "missing old key" true
    (Avl.replace_key t ~old_key:(k 99) ~new_key:(k 100) = Avl.Not_found)

let test_avl_composite_key_ordering () =
  let t = fresh_index () in
  ignore (Avl.insert t (5L, 10L));
  ignore (Avl.insert t (5L, 2L));
  ignore (Avl.insert t (4L, 99L));
  let keys = List.rev (Avl.fold t ~init:[] ~f:(fun acc key -> key :: acc)) in
  Alcotest.(check (list (pair int64 int64)))
    "secondary breaks ties"
    [ (4L, 99L); (5L, 2L); (5L, 10L) ]
    keys

let prop_avl_matches_set_model =
  QCheck.Test.make ~name:"avl matches Set model under random ops" ~count:120
    (QCheck.make
       QCheck.Gen.(list_size (1 -- 200) (pair bool (int_bound 50))))
    (fun ops ->
      let t = fresh_index () in
      let module Iset = Set.Make (Int) in
      let model = ref Iset.empty in
      List.iter
        (fun (ins, i) ->
          if ins then begin
            let added = Avl.insert t (k i) in
            let expected = not (Iset.mem i !model) in
            if added <> expected then failwith "insert result mismatch";
            model := Iset.add i !model
          end
          else begin
            let removed = Avl.delete t (k i) in
            let expected = Iset.mem i !model in
            if removed <> expected then failwith "delete result mismatch";
            model := Iset.remove i !model
          end)
        ops;
      Avl.check_invariants t;
      let keys =
        List.rev (Avl.fold t ~init:[] ~f:(fun acc (hi, _) -> Int64.to_int hi :: acc))
      in
      keys = Iset.elements !model && Avl.cardinal t = Iset.cardinal !model)

let test_avl_heap_bounded_by_free_list () =
  let image = Bytes.make (1 lsl 16) '\000' in
  let h = Heap.of_bytes image in
  let slots = Heap.alloc h Avl.slots_size in
  let t = Avl.attach h ~slots in
  for i = 1 to 50 do
    ignore (Avl.insert t (k i))
  done;
  let frontier = Heap.allocated h in
  (* Steady-state churn: every insert reuses a freed node. *)
  for i = 1 to 500 do
    ignore (Avl.delete t (k (((i - 1) mod 50) + 1)));
    ignore (Avl.insert t (k (((i - 1) mod 50) + 1)))
  done;
  check_int "no heap growth" frontier (Heap.allocated h)

(* ------------------------------------------------------------------ *)
(* Indirect-key AVL (Iavl): entries whose keys live outside the tree *)

(* A little entry table in the heap: each entry is an 8-byte date at a
   fixed address; the index orders entries by (date, address). *)
let fresh_iavl ?(entries = 64) () =
  let image = Bytes.make (1 lsl 18) '\000' in
  let h = Heap.of_bytes image in
  let slots = Heap.alloc h Iavl.slots_size in
  let addrs = Array.init entries (fun _ -> Heap.alloc h 8) in
  let key_of addr = (Heap.get_u64 h addr, Int64.of_int addr) in
  let t = Iavl.attach h ~slots ~key_of in
  let set_date i v = Heap.set_u64 h addrs.(i) (Int64.of_int v) in
  (t, addrs, set_date)

let test_iavl_orders_by_indirect_key () =
  let t, addrs, set_date = fresh_iavl ~entries:4 () in
  set_date 0 30;
  set_date 1 10;
  set_date 2 20;
  set_date 3 20;
  Array.iter (fun a -> ignore (Iavl.insert t a)) addrs;
  let order = List.rev (Iavl.fold t ~init:[] ~f:(fun acc a -> a :: acc)) in
  (* dates 10, 20, 20 (tie by address), 30 *)
  Alcotest.(check (list int)) "ordered by (date, addr)"
    [ addrs.(1); addrs.(2); addrs.(3); addrs.(0) ]
    order;
  Iavl.check_invariants t

let test_iavl_update_in_place () =
  let t, addrs, set_date = fresh_iavl ~entries:3 () in
  set_date 0 10;
  set_date 1 20;
  set_date 2 30;
  Array.iter (fun a -> ignore (Iavl.insert t a)) addrs;
  (* 20 -> 25 keeps position: no restructuring. *)
  let outcome =
    Iavl.update t addrs.(1) ~new_key:(25L, Int64.of_int addrs.(1))
      ~set:(fun () -> set_date 1 25)
  in
  Alcotest.(check bool) "in place" true (outcome = Iavl.In_place);
  Iavl.check_invariants t;
  Alcotest.(check bool) "still findable" true (Iavl.contains t addrs.(1))

let test_iavl_update_relocates () =
  let t, addrs, set_date = fresh_iavl ~entries:3 () in
  set_date 0 10;
  set_date 1 20;
  set_date 2 30;
  Array.iter (fun a -> ignore (Iavl.insert t a)) addrs;
  (* 10 -> 99 must move past both others. *)
  let outcome =
    Iavl.update t addrs.(0) ~new_key:(99L, Int64.of_int addrs.(0))
      ~set:(fun () -> set_date 0 99)
  in
  Alcotest.(check bool) "relocated" true (outcome = Iavl.Relocated);
  let order = List.rev (Iavl.fold t ~init:[] ~f:(fun acc a -> a :: acc)) in
  Alcotest.(check (list int)) "new order"
    [ addrs.(1); addrs.(2); addrs.(0) ]
    order;
  Iavl.check_invariants t

let test_iavl_update_missing_raises () =
  let t, addrs, set_date = fresh_iavl ~entries:2 () in
  set_date 0 1;
  set_date 1 2;
  ignore (Iavl.insert t addrs.(0));
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Iavl.update t addrs.(1) ~new_key:(5L, Int64.of_int addrs.(1))
            ~set:(fun () -> set_date 1 5));
       false
     with Heap.Heap_error _ -> true)

let prop_iavl_matches_model =
  QCheck.Test.make ~name:"iavl matches model under random date churn"
    ~count:100
    (QCheck.make
       QCheck.Gen.(list_size (1 -- 150) (triple (int_bound 2) (int_bound 23) (int_bound 40))))
    (fun ops ->
      let entries = 24 in
      let t, addrs, set_date = fresh_iavl ~entries () in
      let dates = Array.make entries 0 in
      let present = Array.make entries false in
      (* Seed distinct initial dates. *)
      Array.iteri
        (fun i _ ->
          dates.(i) <- i;
          set_date i i)
        addrs;
      List.iter
        (fun (op, i, d) ->
          match op with
          | 0 ->
              let added = Iavl.insert t addrs.(i) in
              if added = present.(i) then failwith "insert mismatch";
              present.(i) <- true
          | 1 ->
              let removed = Iavl.delete t addrs.(i) in
              if removed <> present.(i) then failwith "delete mismatch";
              present.(i) <- false
          | _ ->
              if present.(i) then begin
                ignore
                  (Iavl.update t addrs.(i)
                     ~new_key:(Int64.of_int d, Int64.of_int addrs.(i))
                     ~set:(fun () ->
                       dates.(i) <- d;
                       set_date i d))
              end)
        ops;
      Iavl.check_invariants t;
      let expected =
        Array.to_list (Array.mapi (fun i a -> (i, a)) addrs)
        |> List.filter (fun (i, _) -> present.(i))
        |> List.map (fun (i, a) -> (dates.(i), a))
        |> List.sort compare
        |> List.map snd
      in
      let actual = List.rev (Iavl.fold t ~init:[] ~f:(fun acc a -> a :: acc)) in
      actual = expected)

let suites =
  [
    ( "pheap.layout",
      [
        Alcotest.test_case "offsets" `Quick test_layout_offsets;
        Alcotest.test_case "padding" `Quick test_layout_padding;
        Alcotest.test_case "errors" `Quick test_layout_errors;
      ] );
    ( "pheap.heap",
      [
        Alcotest.test_case "bump alloc" `Quick test_heap_alloc_bump;
        Alcotest.test_case "exhaustion" `Quick test_heap_alloc_exhaustion;
        Alcotest.test_case "u64 roundtrip" `Quick test_heap_u64_roundtrip;
        Alcotest.test_case "persistent allocator" `Quick
          test_heap_allocator_is_persistent;
        Alcotest.test_case "rejects garbage" `Quick test_heap_rejects_garbage;
        Alcotest.test_case "field access" `Quick test_heap_field_access;
      ] );
    ( "pheap.avl",
      [
        Alcotest.test_case "insert/contains" `Quick test_avl_insert_contains;
        Alcotest.test_case "sorted fold" `Quick test_avl_sorted_fold;
        Alcotest.test_case "delete" `Quick test_avl_delete;
        Alcotest.test_case "balanced height" `Quick test_avl_balanced_height;
        Alcotest.test_case "free-list reuse" `Quick test_avl_free_list_reuse;
        Alcotest.test_case "composite keys" `Quick
          test_avl_composite_key_ordering;
        Alcotest.test_case "heap bounded" `Quick
          test_avl_heap_bounded_by_free_list;
        Alcotest.test_case "replace_key in place" `Quick
          test_avl_replace_key_in_place;
        Alcotest.test_case "replace_key reinserts" `Quick
          test_avl_replace_key_reinserts;
        Alcotest.test_case "replace_key missing" `Quick
          test_avl_replace_key_missing;
        QCheck_alcotest.to_alcotest prop_avl_matches_set_model;
      ] );
    ( "pheap.iavl",
      [
        Alcotest.test_case "indirect key order" `Quick
          test_iavl_orders_by_indirect_key;
        Alcotest.test_case "update in place" `Quick test_iavl_update_in_place;
        Alcotest.test_case "update relocates" `Quick test_iavl_update_relocates;
        Alcotest.test_case "update missing raises" `Quick
          test_iavl_update_missing_raises;
        QCheck_alcotest.to_alcotest prop_iavl_matches_model;
      ] );
  ]
