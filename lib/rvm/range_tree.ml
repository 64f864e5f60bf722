module Imap = Map.Make (Int)

type case = Ordered_append | Exact_match | Extended | Inserted

type t = {
  mutable map : int Imap.t;  (* offset -> len *)
  mutable stored_bytes : int;
  mutable max_end : int;  (* end of the highest range; 0 when empty *)
  mutable last : (int * int) option;  (* last range touched (cache) *)
}

let create () =
  { map = Imap.empty; stored_bytes = 0; max_end = 0; last = None }

let count t = Imap.cardinal t.map
let total_bytes t = t.stored_bytes

(* Store [offset, offset+len), replacing a range of [old_len] bytes at
   the same offset (0 when there was none). *)
let store t ~offset ~old_len ~len =
  t.map <- Imap.add offset len t.map;
  t.stored_bytes <- t.stored_bytes - old_len + len;
  if offset + len > t.max_end then t.max_end <- offset + len;
  t.last <- Some (offset, len)

let add t ~offset ~len =
  if len <= 0 then invalid_arg "Range_tree.add: len must be positive";
  if offset < 0 then invalid_arg "Range_tree.add: negative offset";
  (* Last-range cache: repeated modification of the same object. *)
  match t.last with
  | Some (o, l) when o = offset && len <= l -> Exact_match
  | _ when offset >= t.max_end ->
      (* Address-ordered call past everything stored (or the first call):
         no search. *)
      store t ~offset ~old_len:0 ~len;
      Ordered_append
  | _ -> (
      (* Coalesce only exact/extending matches at the same offset; other
         overlaps are stored as separate ranges (possibly logging some
         bytes twice), which is the trade the paper makes for speed. *)
      match Imap.find_opt offset t.map with
      | Some l when len <= l -> Exact_match
      | Some l ->
          store t ~offset ~old_len:l ~len;
          Extended
      | None ->
          store t ~offset ~old_len:0 ~len;
          Inserted)

let fold t ~init ~f =
  Imap.fold (fun offset len acc -> f acc ~offset ~len) t.map init

let ranges t = List.rev (fold t ~init:[] ~f:(fun acc ~offset ~len -> (offset, len) :: acc))

(* Linear scan: the tree may store overlapping ranges, so a
   nearest-predecessor lookup is not sufficient.  Test-only helper. *)
let mem_byte t pos = Imap.exists (fun o l -> o <= pos && pos < o + l) t.map
