(* Wire codec for {!Lbc_core.Msg.t}, the one message type the fabric
   carries.  The sim fabric hands message values across by reference;
   sockets need real bytes, so this codec defines the frame payload:

   {v tag u8 | fields (Codec varints) | raw payload slices v}

   [Update] and [Fetched] payloads — already-encoded {!Lbc_core.Wire}
   records — are not copied on either side: [encode] returns them as
   trailing slices of the gather list (written straight from the log
   arena), and [decode] returns windows into the received frame
   buffer. *)

module Codec = Lbc_util.Codec
module Slice = Lbc_util.Slice
module Table = Lbc_locks.Table

let tag_request = 0
let tag_forward = 1
let tag_token = 2
let tag_update = 3
let tag_fetch = 4
let tag_fetched = 5
let tag_low_water = 6

let encode (m : Lbc_core.Msg.t) : Slice.t list =
  let w = Codec.writer () in
  match m with
  | Lock (Table.Request { epoch; lock; requester }) ->
      Codec.u8 w tag_request;
      Codec.varint w epoch;
      Codec.varint w lock;
      Codec.varint w requester;
      [ Codec.slice w ]
  | Lock (Table.Forward { epoch; lock; requester }) ->
      Codec.u8 w tag_forward;
      Codec.varint w epoch;
      Codec.varint w lock;
      Codec.varint w requester;
      [ Codec.slice w ]
  | Lock (Table.Token { epoch; lock; seqno; last_write_seq; last_writer }) ->
      Codec.u8 w tag_token;
      Codec.varint w epoch;
      Codec.varint w lock;
      Codec.varint w seqno;
      Codec.varint w last_write_seq;
      (* last_writer is -1 when the lock was never write-held *)
      Codec.u64 w (Int64.of_int last_writer);
      [ Codec.slice w ]
  | Update iov ->
      Codec.u8 w tag_update;
      Codec.slice w :: iov
  | Fetch { lock; have } ->
      Codec.u8 w tag_fetch;
      Codec.varint w lock;
      Codec.varint w have;
      [ Codec.slice w ]
  | Fetched { lock; payloads } ->
      (* Lengths up front, then the payload slices concatenated: the
         header stays one slice and every payload rides zero-copy. *)
      Codec.u8 w tag_fetched;
      Codec.varint w lock;
      Codec.varint w (List.length payloads);
      List.iter (fun iov -> Codec.varint w (Slice.iov_length iov)) payloads;
      Codec.slice w :: List.concat payloads
  | LowWater { applied } ->
      Codec.u8 w tag_low_water;
      Codec.varint w (List.length applied);
      List.iter
        (fun (lock, seq) ->
          Codec.varint w lock;
          Codec.varint w seq)
        applied;
      [ Codec.slice w ]

let decode (body : Bytes.t) : Lbc_core.Msg.t =
  let r = Codec.reader body in
  let tag = Codec.get_u8 r in
  if tag = tag_request || tag = tag_forward then begin
    let epoch = Codec.get_varint r in
    let lock = Codec.get_varint r in
    let requester = Codec.get_varint r in
    let m =
      if tag = tag_request then Table.Request { epoch; lock; requester }
      else Table.Forward { epoch; lock; requester }
    in
    Lbc_core.Msg.Lock m
  end
  else if tag = tag_token then begin
    let epoch = Codec.get_varint r in
    let lock = Codec.get_varint r in
    let seqno = Codec.get_varint r in
    let last_write_seq = Codec.get_varint r in
    let last_writer = Int64.to_int (Codec.get_u64 r) in
    Lbc_core.Msg.Lock
      (Table.Token { epoch; lock; seqno; last_write_seq; last_writer })
  end
  else if tag = tag_update then
    Lbc_core.Msg.Update [ Codec.get_slice r ~len:(Codec.remaining r) ]
  else if tag = tag_fetch then begin
    let lock = Codec.get_varint r in
    let have = Codec.get_varint r in
    Lbc_core.Msg.Fetch { lock; have }
  end
  else if tag = tag_fetched then begin
    let lock = Codec.get_varint r in
    let n = Codec.get_count r in
    let lens = List.init n (fun _ -> Codec.get_varint r) in
    let payloads = List.map (fun len -> [ Codec.get_slice r ~len ]) lens in
    Lbc_core.Msg.Fetched { lock; payloads }
  end
  else if tag = tag_low_water then begin
    let n = Codec.get_count r in
    let applied =
      List.init n (fun _ ->
          let lock = Codec.get_varint r in
          let seq = Codec.get_varint r in
          (lock, seq))
    in
    Lbc_core.Msg.LowWater { applied }
  end
  else raise (Codec.Truncated (Printf.sprintf "Msg_codec: unknown tag %d" tag))
