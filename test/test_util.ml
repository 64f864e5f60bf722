(* Tests for the lbc.util substrate: CRC-32, codecs, RNG, pqueue. *)

open Lbc_util

let check_int32 = Alcotest.(check int32)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Crc32 *)

let test_crc_known_vector () =
  (* The standard CRC-32 check value. *)
  check_int32 "crc(123456789)" 0xCBF43926l (Crc32.string "123456789")

let test_crc_empty () = check_int32 "crc(empty)" 0l (Crc32.string "")

let test_crc_incremental () =
  let s = "the quick brown fox jumps over the lazy dog" in
  let direct = Crc32.string s in
  let a = String.sub s 0 10 and b = String.sub s 10 (String.length s - 10) in
  let crc = Crc32.update_string (Crc32.update_string Crc32.empty a) b in
  check_int32 "incremental = one-shot" direct (Crc32.finish crc)

let test_crc_bounds () =
  let b = Bytes.create 4 in
  Alcotest.check_raises "out of bounds" (Invalid_argument "Crc32.update")
    (fun () -> ignore (Crc32.update Crc32.empty b ~pos:2 ~len:3))

let prop_crc_detects_flip =
  QCheck.Test.make ~name:"crc detects single-byte flip" ~count:200
    QCheck.(pair (string_of_size Gen.(1 -- 64)) small_nat)
    (fun (s, i) ->
      QCheck.assume (String.length s > 0);
      let i = i mod String.length s in
      let b = Bytes.of_string s in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5A));
      Crc32.string s <> Crc32.bytes b ~pos:0 ~len:(Bytes.length b))

(* The table-driven update against the CRC defined bit by bit: random
   bytes at an unaligned offset inside a larger buffer, lengths 0-300,
   fed in random incremental pieces. *)
let crc_bitwise s =
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      c := !c lxor Char.code ch;
      for _ = 1 to 8 do
        c := if !c land 1 = 1 then (!c lsr 1) lxor 0xEDB88320 else !c lsr 1
      done)
    s;
  Int32.of_int (!c lxor 0xFFFFFFFF)

let prop_crc_matches_bitwise =
  let gen =
    QCheck.Gen.(
      quad (int_bound 15) (string_size (0 -- 300)) (int_bound 15)
        (list_size (0 -- 6) (int_bound 300)))
  in
  QCheck.Test.make ~name:"update matches a bitwise reference" ~count:1_000
    (QCheck.make gen) (fun (lead, s, trail, splits) ->
      let n = String.length s in
      let b = Bytes.make (lead + n + trail) '#' in
      Bytes.blit_string s 0 b lead n;
      let cuts = List.sort_uniq Int.compare (List.map (min n) splits) in
      let rec feed crc from = function
        | [] -> Crc32.update crc b ~pos:(lead + from) ~len:(n - from)
        | c :: rest ->
            feed (Crc32.update crc b ~pos:(lead + from) ~len:(c - from)) c rest
      in
      Int32.equal (Crc32.finish (feed Crc32.empty 0 cuts)) (crc_bitwise s))

(* ------------------------------------------------------------------ *)
(* Codec *)

let test_codec_roundtrip_fixed () =
  let w = Codec.writer () in
  Codec.u8 w 0xAB;
  Codec.u16 w 0xBEEF;
  Codec.u32 w 0xDEADBEEF;
  Codec.u64 w 0x0123456789ABCDEFL;
  Codec.int_as_u64 w max_int;
  Codec.raw_string w "hello";
  let r = Codec.reader (Codec.contents w) in
  check_int "u8" 0xAB (Codec.get_u8 r);
  check_int "u16" 0xBEEF (Codec.get_u16 r);
  check_int "u32" 0xDEADBEEF (Codec.get_u32 r);
  Alcotest.(check int64) "u64" 0x0123456789ABCDEFL (Codec.get_u64 r);
  check_int "int_as_u64" max_int (Codec.get_int_as_u64 r);
  Alcotest.(check string) "raw" "hello"
    (Bytes.to_string (Codec.get_raw r ~len:5));
  check_int "exhausted" 0 (Codec.remaining r)

let test_codec_truncated () =
  let r = Codec.reader (Bytes.of_string "\x01") in
  ignore (Codec.get_u8 r);
  Alcotest.check_raises "truncated u8" (Codec.Truncated "u8") (fun () ->
      ignore (Codec.get_u8 r))

let test_codec_patch () =
  let w = Codec.writer () in
  Codec.u8 w 0x11;
  let at = Codec.length w in
  Codec.u32 w 0;
  Codec.u8 w 0x22;
  Codec.patch_u32 w ~at 0xCAFEBABE;
  let r = Codec.reader (Codec.contents w) in
  check_int "before" 0x11 (Codec.get_u8 r);
  check_int "patched" 0xCAFEBABE (Codec.get_u32 r);
  check_int "after" 0x22 (Codec.get_u8 r)

let prop_varint_roundtrip =
  QCheck.Test.make ~name:"varint roundtrip" ~count:500
    QCheck.(oneof [ small_nat; int_range 0 max_int ])
    (fun n ->
      let w = Codec.writer () in
      Codec.varint w n;
      let r = Codec.reader (Codec.contents w) in
      Codec.get_varint r = n && Codec.remaining r = 0)

let prop_u32_roundtrip =
  QCheck.Test.make ~name:"u32 roundtrip" ~count:500
    QCheck.(int_bound 0xFFFFFFF)
    (fun n ->
      let w = Codec.writer () in
      Codec.u32 w n;
      Codec.get_u32 (Codec.reader (Codec.contents w)) = n)

(* ------------------------------------------------------------------ *)
(* Slice *)

let test_slice_windows_share_base () =
  let b = Bytes.of_string "0123456789" in
  let s = Slice.of_bytes ~pos:2 ~len:6 b in
  check_int "length" 6 (Slice.length s);
  Alcotest.(check char) "get" '2' (Slice.get s 0);
  let sub = Slice.sub s ~pos:1 ~len:3 in
  Alcotest.(check string) "sub window" "345" (Slice.to_string sub);
  Alcotest.(check bool) "same base, no copy" true (Slice.base sub == b);
  check_int "sub pos is absolute" 3 (Slice.pos sub);
  (* The window observes later mutation of the shared buffer. *)
  Bytes.set b 3 'X';
  Alcotest.(check string) "shared" "X45" (Slice.to_string sub)

let test_slice_iov () =
  let iov =
    [ Slice.of_string "ab"; Slice.of_string ""; Slice.of_string "cde" ]
  in
  check_int "iov_length" 5 (Slice.iov_length iov);
  Alcotest.(check string) "concat" "abcde"
    (Bytes.to_string (Slice.concat iov))

let test_slice_copy_accounting () =
  Slice.reset_counters ();
  let s = Slice.of_bytes (Bytes.of_string "0123456789") in
  let sub = Slice.sub s ~pos:0 ~len:4 in
  ignore (Slice.base sub);
  check_int "windowing copies nothing" 0 (Slice.bytes_copied ());
  ignore (Slice.to_bytes sub);
  check_int "to_bytes counted" 4 (Slice.bytes_copied ());
  Slice.count_saved 10;
  check_int "baseline = copied + saved" 14 (Slice.bytes_copied_baseline ());
  Slice.reset_counters ();
  check_int "reset" 0 (Slice.bytes_copied ())

let test_arena_patch_in_place () =
  let w = Codec.writer ~capacity:4 () in
  Codec.raw_string w "heXlo";
  (* 'e' 'l' 'l' 'o', little-endian, over bytes 1-4 of a grown arena *)
  Codec.patch_u32 w ~at:1 0x6F6C6C65;
  Alcotest.(check string) "patched in place" "hello"
    (Slice.to_string (Codec.slice w));
  Codec.clear w;
  check_int "clear" 0 (Codec.length w)

let test_patch_u32_large_buffer () =
  (* Regression: patching a length field inside a buffer much larger
     than 64 KiB must be O(1) in-place, not a copy of the whole buffer.
     The old Buffer-based writer did to_bytes + blit + re-add — O(n). *)
  let w = Codec.writer () in
  Codec.u32 w 0;  (* placeholder at offset 0 *)
  for i = 1 to 80_000 do
    Codec.u8 w (i land 0xff)
  done;
  let at = Codec.length w in
  Codec.u32 w 0;  (* second placeholder, past 64 KiB *)
  Codec.raw_string w "tail";
  Slice.reset_counters ();
  Codec.patch_u32 w ~at:0 0xAAAAAAAA;
  Codec.patch_u32 w ~at 0xBBBBBBBB;
  check_int "patches copy nothing" 0 (Slice.bytes_copied ());
  let b = Codec.contents w in
  check_int "first patched" 0xAAAAAAAA
    (Codec.get_u32 (Codec.reader b));
  let r = Codec.reader b in
  Codec.skip r at;
  check_int "second patched (inside >64 KiB buffer)" 0xBBBBBBBB
    (Codec.get_u32 r);
  check_int "bytes before intact" (80_000 land 0xff)
    (Char.code (Bytes.get b (at - 1)));
  Alcotest.(check string) "bytes after intact" "tail"
    (Bytes.sub_string b (at + 4) 4)

let test_reader_of_slices_spans_segments () =
  (* A segmented reader must decode fields that straddle segment
     boundaries — the decode side of gather lists. *)
  let w = Codec.writer () in
  Codec.u16 w 0xBEEF;
  Codec.u32 w 0xDEADBEEF;
  Codec.varint w 300;
  Codec.raw_string w "payload";
  let b = Codec.contents w in
  (* Split into 3-byte segments. *)
  let rec split pos =
    if pos >= Bytes.length b then []
    else
      let len = min 3 (Bytes.length b - pos) in
      Slice.of_bytes ~pos ~len b :: split (pos + len)
  in
  let r = Codec.reader_of_slices (split 0) in
  check_int "u16 across segments" 0xBEEF (Codec.get_u16 r);
  check_int "u32 across segments" 0xDEADBEEF (Codec.get_u32 r);
  check_int "varint across segments" 300 (Codec.get_varint r);
  Alcotest.(check string) "raw across segments" "payload"
    (Bytes.to_string (Codec.get_raw r ~len:7));
  check_int "exhausted" 0 (Codec.remaining r)

(* The gather reader against a model position in the flat string: cut
   into random segments (empty ones included, first and last too), read
   by random primitive sequences.  After every read [remaining] is the
   unread count, a word that straddles segments reads as in the flat
   string, and a read past the end raises [Truncated] — a huge
   [get_raw] before allocating anything. *)
type read_op =
  | U8
  | U16
  | U32
  | U64
  | Varint
  | Raw of int
  | Iov of int
  | Rest  (* [get_iov] of everything left *)
  | Skip of int
  | Huge_raw

let prop_gather_reader =
  let gen =
    QCheck.Gen.(
      string_size (0 -- 48) >>= fun s ->
      let n = String.length s in
      let cut = frequency [ (1, return 0); (1, return n); (4, int_bound n) ] in
      let len = int_bound (n + 4) in
      let op =
        frequency
          [ (3, return U8); (2, return U16); (2, return U32); (2, return U64);
            (2, return Varint); (2, map (fun l -> Raw l) len);
            (2, map (fun l -> Iov l) len); (1, return Rest);
            (2, map (fun l -> Skip l) len); (1, return Huge_raw) ]
      in
      triple (return s) (list_size (0 -- 10) cut) (list_size (1 -- 12) op))
  in
  let segments s cuts =
    let bounds = (0 :: List.sort Int.compare cuts) @ [ String.length s ] in
    let rec go = function
      | a :: (b :: _ as rest) ->
          (* Each segment is a window into its own padded buffer. *)
          let base = Bytes.of_string ("##" ^ String.sub s a (b - a) ^ "##") in
          Slice.of_bytes base ~pos:2 ~len:(b - a) :: go rest
      | _ -> []
    in
    go bounds
  in
  (* The model: what the op yields from position [p], and the new
     position, or [None] when it must raise [Truncated]. *)
  let model s p op =
    let n = String.length s in
    let take l =
      if l <= n - p then Some (`S (String.sub s p l), p + l) else None
    in
    let word k =
      if p + k > n then None
      else
        let v = ref 0L in
        for i = k - 1 downto 0 do
          let byte = Int64.of_int (Char.code s.[p + i]) in
          v := Int64.logor (Int64.shift_left !v 8) byte
        done;
        Some (!v, p + k)
    in
    let int_word k =
      Option.map (fun (v, p') -> (`I (Int64.to_int v), p')) (word k)
    in
    match op with
    | U8 -> if p < n then Some (`I (Char.code s.[p]), p + 1) else None
    | U16 -> int_word 2
    | U32 -> int_word 4
    | U64 -> Option.map (fun (v, p') -> (`L v, p')) (word 8)
    | Varint ->
        let rec loop shift acc q =
          if shift > 62 || q >= n then None
          else
            let b = Char.code s.[q] in
            let acc = acc lor ((b land 0x7F) lsl shift) in
            if b land 0x80 = 0 then Some (`I acc, q + 1)
            else loop (shift + 7) acc (q + 1)
        in
        loop 0 0 p
    | Raw l | Iov l -> take l
    | Rest -> take (n - p)
    | Skip l -> Option.map (fun (_, p') -> (`S "", p')) (take l)
    | Huge_raw -> None
  in
  let run r = function
    | U8 -> `I (Codec.get_u8 r)
    | U16 -> `I (Codec.get_u16 r)
    | U32 -> `I (Codec.get_u32 r)
    | U64 -> `L (Codec.get_u64 r)
    | Varint -> `I (Codec.get_varint r)
    | Raw len -> `S (Bytes.to_string (Codec.get_raw r ~len))
    | Iov len -> `S (Bytes.to_string (Slice.concat (Codec.get_iov r ~len)))
    | Rest ->
        let len = Codec.remaining r in
        `S (Bytes.to_string (Slice.concat (Codec.get_iov r ~len)))
    | Skip n ->
        Codec.skip r n;
        `S ""
    | Huge_raw -> `S (Bytes.to_string (Codec.get_raw r ~len:(1 lsl 50)))
  in
  QCheck.Test.make ~name:"gather reader matches a flat model" ~count:500
    (QCheck.make gen) (fun (s, cuts, ops) ->
      let r = Codec.reader_of_slices (segments s cuts) in
      let rec steps p = function
        | [] -> true
        | op :: rest -> (
            (* Start from an empty minor heap: a minor collection inside
               the measured read inflates OCaml 5.1's byte count. *)
            Gc.minor ();
            let before = Gc.allocated_bytes () in
            match (model s p op, run r op) with
            | Some (v, p'), v' ->
                v = v'
                && Codec.remaining r = String.length s - p'
                && steps p' rest
            | None, _ -> false
            | exception Codec.Truncated _ ->
                (* Raised where the model ends, with no large allocation. *)
                model s p op = None
                && Gc.allocated_bytes () -. before < 65536.0)
      in
      Codec.remaining r = String.length s && steps 0 ops)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  (* After splitting, the two generators should not produce the same
     stream. *)
  let same = ref true in
  for _ = 1 to 16 do
    if Rng.int64 a <> Rng.int64 b then same := false
  done;
  Alcotest.(check bool) "streams diverge" false !same

let prop_rng_int_in_bounds =
  QCheck.Test.make ~name:"Rng.int within bounds" ~count:300
    QCheck.(pair small_nat (int_range 1 10_000))
    (fun (seed, bound) ->
      let t = Rng.create seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Rng.int t bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

let test_rng_shuffle_permutes () =
  let t = Rng.create 3 in
  let a = Array.init 100 Fun.id in
  Rng.shuffle t a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 100 Fun.id) sorted

(* ------------------------------------------------------------------ *)
(* Pqueue *)

let test_pqueue_ordering () =
  let q = Pqueue.create ~compare:Int.compare in
  List.iter (Pqueue.push q) [ 5; 1; 4; 1; 3; 9; 2 ];
  let drained = List.init 7 (fun _ -> Pqueue.pop_exn q) in
  Alcotest.(check (list int)) "sorted" [ 1; 1; 2; 3; 4; 5; 9 ] drained;
  Alcotest.(check bool) "empty" true (Pqueue.is_empty q)

let test_pqueue_fifo_ties () =
  (* Equal keys must come out in insertion order (determinism). *)
  let q = Pqueue.create ~compare:(fun (a, _) (b, _) -> Int.compare a b) in
  List.iter (Pqueue.push q) [ (1, "a"); (1, "b"); (0, "z"); (1, "c") ];
  let tags = List.init 4 (fun _ -> snd (Pqueue.pop_exn q)) in
  Alcotest.(check (list string)) "fifo ties" [ "z"; "a"; "b"; "c" ] tags

let test_pqueue_to_list_nondestructive () =
  let q = Pqueue.create ~compare:Int.compare in
  List.iter (Pqueue.push q) [ 3; 1; 2 ];
  Alcotest.(check (list int)) "to_list" [ 1; 2; 3 ] (Pqueue.to_list q);
  check_int "length unchanged" 3 (Pqueue.length q);
  Alcotest.(check (option int)) "peek" (Some 1) (Pqueue.peek q)

let prop_pqueue_sorts =
  QCheck.Test.make ~name:"pqueue drains sorted" ~count:200
    QCheck.(list int)
    (fun xs ->
      let q = Pqueue.create ~compare:Int.compare in
      List.iter (Pqueue.push q) xs;
      let rec drain acc =
        match Pqueue.pop q with None -> List.rev acc | Some v -> drain (v :: acc)
      in
      drain [] = List.sort compare xs)

(* Same-key entries must drain in push order for arbitrary key streams —
   the engine's schedule determinism rides on this, so it gets its own
   property beyond the fixed-vector test above. *)
let prop_pqueue_stable_ties =
  QCheck.Test.make ~name:"pqueue same-key entries drain in push order"
    ~count:300
    QCheck.(list (int_bound 7))
    (fun keys ->
      let q = Pqueue.create ~compare:(fun (a, _) (b, _) -> Int.compare a b) in
      List.iteri (fun i k -> Pqueue.push q (k, i)) keys;
      let rec drain acc =
        match Pqueue.pop q with
        | None -> List.rev acc
        | Some v -> drain (v :: acc)
      in
      (* A stable sort of (key, push index) by key alone is exactly the
         required drain order. *)
      drain []
      = List.stable_sort
          (fun (a, _) (b, _) -> Int.compare a b)
          (List.mapi (fun i k -> (k, i)) keys))

(* Interleaved pushes and pops against a sorted-list model: after any
   operation sequence the queue and the model agree on every
   observation (pop results, peek, length). *)
let prop_pqueue_model =
  QCheck.Test.make ~name:"pqueue matches sorted-list model" ~count:300
    QCheck.(list (option (int_bound 100)))
    (fun ops ->
      (* [Some k] pushes k; [None] pops. *)
      let q = Pqueue.create ~compare:Int.compare in
      let model = ref [] in
      List.for_all
        (fun op ->
          let op_ok =
            match op with
            | Some k ->
                Pqueue.push q k;
                model := List.merge compare [ k ] !model;
                true
            | None -> (
                match (Pqueue.pop q, !model) with
                | Some v, m :: rest when v = m ->
                    model := rest;
                    true
                | None, [] -> true
                | _ -> false)
          in
          op_ok
          && Pqueue.length q = List.length !model
          && Pqueue.peek q = (match !model with [] -> None | m :: _ -> Some m))
        ops)

let qtest = QCheck_alcotest.to_alcotest

let suites =
  [
    ( "util.crc32",
      [
        Alcotest.test_case "known vector" `Quick test_crc_known_vector;
        Alcotest.test_case "empty" `Quick test_crc_empty;
        Alcotest.test_case "incremental" `Quick test_crc_incremental;
        Alcotest.test_case "bounds" `Quick test_crc_bounds;
        qtest prop_crc_detects_flip;
        qtest prop_crc_matches_bitwise;
      ] );
    ( "util.codec",
      [
        Alcotest.test_case "roundtrip fixed" `Quick test_codec_roundtrip_fixed;
        Alcotest.test_case "truncated" `Quick test_codec_truncated;
        Alcotest.test_case "patch_u32" `Quick test_codec_patch;
        Alcotest.test_case "patch_u32 in >64 KiB buffer" `Quick
          test_patch_u32_large_buffer;
        Alcotest.test_case "segmented reader" `Quick
          test_reader_of_slices_spans_segments;
        qtest prop_gather_reader;
        qtest prop_varint_roundtrip;
        qtest prop_u32_roundtrip;
        Alcotest.test_case "arena patches in place" `Quick
          test_arena_patch_in_place;
      ] );
    ( "util.slice",
      [
        Alcotest.test_case "windows share the base" `Quick
          test_slice_windows_share_base;
        Alcotest.test_case "gather lists" `Quick test_slice_iov;
        Alcotest.test_case "copy accounting" `Quick test_slice_copy_accounting;
      ] );
    ( "util.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "split independent" `Quick test_rng_split_independent;
        Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
        qtest prop_rng_int_in_bounds;
      ] );
    ( "util.pqueue",
      [
        Alcotest.test_case "ordering" `Quick test_pqueue_ordering;
        Alcotest.test_case "fifo ties" `Quick test_pqueue_fifo_ties;
        Alcotest.test_case "to_list nondestructive" `Quick
          test_pqueue_to_list_nondestructive;
        qtest prop_pqueue_sorts;
        qtest prop_pqueue_stable_ties;
        qtest prop_pqueue_model;
      ] );
  ]
