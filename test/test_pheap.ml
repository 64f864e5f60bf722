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
(* Indirect-key AVL (Iavl): entries whose keys live outside the tree *)

(* A little entry table in the heap: each entry is an 8-byte date at a
   fixed address; the index orders entries by (date, address). *)
let iavl_on h ~entries =
  let slots = Heap.alloc h Iavl.slots_size in
  let addrs = Array.init entries (fun _ -> Heap.alloc h 8) in
  let key_of addr = (Heap.get_u64 h addr, Int64.of_int addr) in
  let t = Iavl.attach h ~slots ~key_of in
  let set_date i v = Heap.set_u64 h addrs.(i) (Int64.of_int v) in
  (t, addrs, set_date)

let iavl_heap () = Heap.of_bytes (Bytes.make (1 lsl 18) '\000')
let fresh_iavl ?(entries = 64) () = iavl_on (iavl_heap ()) ~entries

(* AVL mechanics: balance, height and the intrusive free list. *)

let test_avl_balanced_height () =
  let t, addrs, set_date = fresh_iavl ~entries:1024 () in
  Array.iteri
    (fun i a ->
      set_date i i;
      ignore (Iavl.insert t a))
    addrs;
  Alcotest.(check bool)
    (Printf.sprintf "height %d <= 1.44 log2 n" (Iavl.height t))
    true
    (Iavl.height t <= 15);
  Iavl.check_invariants t

let test_avl_free_list_reuse () =
  (* delete/insert churn must not grow the heap once the free list is
     primed (the T3 traversal depends on this).  Entries 0..99 stay;
     entries 100..199 pass through the tree with a fresh date each round. *)
  let h = iavl_heap () in
  let t, addrs, set_date = iavl_on h ~entries:200 in
  for i = 0 to 99 do
    set_date i i
  done;
  let primed = ref 0 in
  for round = 0 to 20 do
    for i = 0 to 99 do
      if round > 0 then ignore (Iavl.delete t addrs.(i));
      set_date (100 + i) (i + ((round + 1) * 1000));
      ignore (Iavl.insert t addrs.(100 + i));
      ignore (Iavl.delete t addrs.(100 + i));
      ignore (Iavl.insert t addrs.(i))
    done;
    if round = 0 then primed := Heap.allocated h
  done;
  check_int "no heap growth after round 0" !primed (Heap.allocated h);
  check_int "cardinal stable" 100 (Iavl.cardinal t);
  Iavl.check_invariants t

let test_avl_heap_bounded_by_free_list () =
  let h = iavl_heap () in
  let t, addrs, set_date = iavl_on h ~entries:50 in
  Array.iteri
    (fun i a ->
      set_date i i;
      ignore (Iavl.insert t a))
    addrs;
  let frontier = Heap.allocated h in
  (* Steady-state churn: every insert reuses a freed node. *)
  for i = 0 to 499 do
    ignore (Iavl.delete t addrs.(i mod 50));
    ignore (Iavl.insert t addrs.(i mod 50))
  done;
  check_int "no heap growth" frontier (Heap.allocated h);
  Iavl.check_invariants t

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
        Alcotest.test_case "balanced height" `Quick test_avl_balanced_height;
        Alcotest.test_case "free-list reuse" `Quick test_avl_free_list_reuse;
        Alcotest.test_case "heap bounded" `Quick
          test_avl_heap_bounded_by_free_list;
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
