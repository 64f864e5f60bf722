module Codec = Lbc_util.Codec
module Slice = Lbc_util.Slice
module Table = Lbc_locks.Table

type t =
  | Lock of Table.msg
  | Update of Slice.t list
  | Fetch of { lock : int; have : int }
  | Fetched of { lock : int; payloads : Slice.t list list }
  | LowWater of { applied : (int * int) list }

let tag_request = 0
let tag_forward = 1
let tag_token = 2
let tag_update = 3
let tag_fetch = 4
let tag_fetched = 5
let tag_low_water = 6

let encode m =
  let w = Codec.writer () in
  let head tag ints =
    Codec.u8 w tag;
    List.iter (Codec.varint w) ints
  in
  match m with
  | Lock (Table.Request { epoch; lock; requester }) ->
      head tag_request [ epoch; lock; requester ];
      [ Codec.slice w ]
  | Lock (Table.Forward { epoch; lock; requester }) ->
      head tag_forward [ epoch; lock; requester ];
      [ Codec.slice w ]
  | Lock (Table.Token { epoch; lock; seqno; last_write_seq; last_writer }) ->
      head tag_token [ epoch; lock; seqno; last_write_seq ];
      (* last_writer is -1 when the lock was never write-held *)
      Codec.u64 w (Int64.of_int last_writer);
      [ Codec.slice w ]
  | Update iov ->
      head tag_update [];
      Codec.slice w :: iov
  | Fetch { lock; have } ->
      head tag_fetch [ lock; have ];
      [ Codec.slice w ]
  | Fetched { lock; payloads } ->
      (* Lengths up front, then the payload slices concatenated: the
         header stays one slice and every payload rides zero-copy.  The
         last payload's list is shared, not copied (a T2-B record's is
         20,001 cells), as [decode] shares it through [Codec.get_iov]. *)
      head tag_fetched
        (lock :: List.length payloads :: List.map Slice.iov_length payloads);
      Codec.slice w
      :: List.fold_right
           (fun p acc -> match acc with [] -> p | _ -> p @ acc)
           payloads []
  | LowWater { applied } ->
      let pairs = List.concat_map (fun (lock, seq) -> [ lock; seq ]) applied in
      head tag_low_water (List.length applied :: pairs);
      [ Codec.slice w ]

let decode iov =
  let r = Codec.reader_of_slices iov in
  let tag = Codec.get_u8 r in
  if tag = tag_request || tag = tag_forward then begin
    let epoch = Codec.get_varint r in
    let lock = Codec.get_varint r in
    let requester = Codec.get_varint r in
    if tag = tag_request then Lock (Table.Request { epoch; lock; requester })
    else Lock (Table.Forward { epoch; lock; requester })
  end
  else if tag = tag_token then begin
    let epoch = Codec.get_varint r in
    let lock = Codec.get_varint r in
    let seqno = Codec.get_varint r in
    let last_write_seq = Codec.get_varint r in
    let last_writer = Int64.to_int (Codec.get_u64 r) in
    Lock (Table.Token { epoch; lock; seqno; last_write_seq; last_writer })
  end
  else if tag = tag_update then
    Update (Codec.get_iov r ~len:(Codec.remaining r))
  else if tag = tag_fetch then begin
    let lock = Codec.get_varint r in
    let have = Codec.get_varint r in
    Fetch { lock; have }
  end
  else if tag = tag_fetched then begin
    let lock = Codec.get_varint r in
    let n = Codec.get_count r in
    let lens = List.init n (fun _ -> Codec.get_varint r) in
    Fetched { lock; payloads = List.map (fun len -> Codec.get_iov r ~len) lens }
  end
  else if tag = tag_low_water then begin
    let n = Codec.get_count r in
    let applied =
      List.init n (fun _ ->
          let lock = Codec.get_varint r in
          let seq = Codec.get_varint r in
          (lock, seq))
    in
    LowWater { applied }
  end
  else raise (Codec.Truncated (Printf.sprintf "Msg: unknown tag %d" tag))

let prefix_bytes = 4
let frame_size body = prefix_bytes + Slice.iov_length body

let pp ppf = function
  | Lock m -> Format.fprintf ppf "Lock(%a)" Table.pp_msg m
  | Update iov -> Format.fprintf ppf "Update(%dB)" (Slice.iov_length iov)
  | Fetch { lock; have } -> Format.fprintf ppf "Fetch(l%d>%d)" lock have
  | Fetched { lock; payloads } ->
      Format.fprintf ppf "Fetched(l%d,%d records)" lock (List.length payloads)
  | LowWater { applied } ->
      Format.fprintf ppf "LowWater(%d locks)" (List.length applied)
