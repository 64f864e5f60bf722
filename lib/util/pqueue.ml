type 'a entry = { value : 'a; seq : int }

type 'a t = {
  compare : 'a -> 'a -> int;
  mutable heap : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

let create ~compare = { compare; heap = [||]; size = 0; next_seq = 0 }
let length t = t.size
let is_empty t = t.size = 0

let entry_lt t a b =
  let c = t.compare a.value b.value in
  if c <> 0 then c < 0 else a.seq < b.seq

let grow t =
  let cap = Array.length t.heap in
  if t.size = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let nheap = Array.make ncap t.heap.(0) in
    Array.blit t.heap 0 nheap 0 t.size;
    t.heap <- nheap
  end

let push t v =
  let e = { value = v; seq = t.next_seq } in
  t.next_seq <- t.next_seq + 1;
  if t.size = 0 && Array.length t.heap = 0 then t.heap <- Array.make 16 e;
  grow t;
  t.heap.(t.size) <- e;
  t.size <- t.size + 1;
  (* Sift up. *)
  let i = ref (t.size - 1) in
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    entry_lt t t.heap.(!i) t.heap.(parent)
  do
    let parent = (!i - 1) / 2 in
    let tmp = t.heap.(!i) in
    t.heap.(!i) <- t.heap.(parent);
    t.heap.(parent) <- tmp;
    i := parent
  done

let peek t = if t.size = 0 then None else Some t.heap.(0).value

let peek_exn t =
  if t.size = 0 then invalid_arg "Pqueue.peek_exn: empty";
  t.heap.(0).value

let sift_down t =
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < t.size && entry_lt t t.heap.(l) t.heap.(!smallest) then smallest := l;
    if r < t.size && entry_lt t t.heap.(r) t.heap.(!smallest) then smallest := r;
    if !smallest = !i then continue := false
    else begin
      let tmp = t.heap.(!i) in
      t.heap.(!i) <- t.heap.(!smallest);
      t.heap.(!smallest) <- tmp;
      i := !smallest
    end
  done

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.heap.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.heap.(0) <- t.heap.(t.size);
      sift_down t
    end;
    Some top.value
  end

let pop_exn t =
  match pop t with
  | Some v -> v
  | None -> invalid_arg "Pqueue.pop_exn: empty"

let to_list t =
  let copy =
    {
      compare = t.compare;
      heap = Array.sub t.heap 0 (Stdlib.max t.size 0);
      size = t.size;
      next_seq = t.next_seq;
    }
  in
  let rec drain acc =
    match pop copy with None -> List.rev acc | Some v -> drain (v :: acc)
  in
  drain []
