(* Socket framing for the real fabric: every message is one frame —
   a little-endian u32 byte count followed by that many body bytes.
   The sim fabric charges the same frame ([Msg.frame_size]); here the
   prefix and body are actually written.

   [write] is a gather write: the prefix, then each slice of the iovec
   straight from its backing buffer ([Unix.write base pos len]) — the
   payload is never concatenated.  [read] reassembles a frame from a
   stream that may deliver it in arbitrary short reads (TCP and pipes
   both tear frames at any byte boundary). *)

let header_bytes = Lbc_core.Msg.prefix_bytes

let rec write_all fd b pos len =
  if len > 0 then begin
    let n = Unix.write fd b pos len in
    write_all fd b (pos + n) (len - n)
  end

let write fd (iov : Lbc_util.Slice.t list) =
  let len = Lbc_util.Slice.iov_length iov in
  let hdr = Bytes.create header_bytes in
  Bytes.set_int32_le hdr 0 (Int32.of_int len);
  write_all fd hdr 0 header_bytes;
  List.iter
    (fun s ->
      write_all fd (Lbc_util.Slice.base s) (Lbc_util.Slice.pos s)
        (Lbc_util.Slice.length s))
    iov;
  header_bytes + len

exception Torn of string

(* [read_exact ~eof_ok] returns [false] on EOF before the first byte;
   EOF mid-value means the peer died inside a frame. *)
let read_exact fd b pos len ~eof_ok =
  let got = ref 0 in
  (try
     while !got < len do
       let n = Unix.read fd b (pos + !got) (len - !got) in
       if n = 0 then
         if !got = 0 && eof_ok then raise Exit
         else
           raise
             (Torn (Printf.sprintf "eof after %d of %d frame bytes" !got len));
       got := !got + n
     done;
     true
   with Exit -> false)

let read fd =
  let hdr = Bytes.create header_bytes in
  if not (read_exact fd hdr 0 header_bytes ~eof_ok:true) then None
  else begin
    let len = Int32.to_int (Bytes.get_int32_le hdr 0) in
    if len < 0 then raise (Torn (Printf.sprintf "negative frame length %d" len));
    let body = Bytes.create len in
    ignore (read_exact fd body 0 len ~eof_ok:false : bool);
    Some body
  end
