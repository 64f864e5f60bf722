type image = { mutable data : Bytes.t; mutable len : int }

type pending = { off : int; payload : Bytes.t }

(* Two backings behind one device interface:

   [Mem] is the simulation's device — an in-memory current/stable image
   pair whose gap (the pending write queue) models a volatile disk cache,
   so crash tests can lose or tear unsynced writes deterministically.

   [File] is the real backend's device — an ordinary file descriptor
   where [write] issues real positional writes and [sync] is a real
   [fsync].  The kernel owns the volatile cache, so the stable image is
   not observable from here: [crash] (deterministic write loss) is
   unsupported, and [stable_snapshot] reads the file as-is.  All file
   operations serialize on a per-device mutex because a region database
   is shared by every node domain. *)
type mem = {
  current : image;
  stable : image;
  pending : pending Queue.t;
  mutable pending_bytes : int;
}

type file = { fd : Unix.file_descr; m : Mutex.t; mutable flen : int }

type backing = Mem of mem | File of file

type t = {
  name : string;
  latency : Latency.t;
  backing : backing;
  mutable bytes_written : int;
  mutable sync_count : int;
}

let image () = { data = Bytes.create 0; len = 0 }

let create ?(latency = Latency.none) ?(name = "dev") () =
  {
    name;
    latency;
    backing =
      Mem
        {
          current = image ();
          stable = image ();
          pending = Queue.create ();
          pending_bytes = 0;
        };
    bytes_written = 0;
    sync_count = 0;
  }

let create_file ?(latency = Latency.none) ~path ?name () =
  let name = match name with Some n -> n | None -> Filename.basename path in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  let flen = (Unix.fstat fd).Unix.st_size in
  {
    name;
    latency;
    backing = File { fd; m = Mutex.create (); flen };
    bytes_written = 0;
    sync_count = 0;
  }

let close t =
  match t.backing with Mem _ -> () | File f -> Unix.close f.fd

let name t = t.name

let size t =
  match t.backing with Mem m -> m.current.len | File f -> f.flen

let stable_size t =
  match t.backing with Mem m -> m.stable.len | File f -> f.flen

let bytes_written t = t.bytes_written
let sync_count t = t.sync_count

(* Outside any simulated process (device setup, log formatting at cluster
   construction, offline tools) operations are free: there is no virtual
   clock to charge.  Inside a process the cost is charged as sleep. *)
let charge _t cost =
  if cost > 0.0 then
    try Lbc_sim.Proc.sleep cost with Lbc_sim.Proc.Not_in_process -> ()

let ensure_capacity img n =
  if n > Bytes.length img.data then begin
    let cap = max n (max 256 (2 * Bytes.length img.data)) in
    let d = Bytes.make cap '\000' in
    Bytes.blit img.data 0 d 0 img.len;
    img.data <- d
  end;
  if n > img.len then img.len <- n

let apply_to img ~off b ~pos ~len =
  ensure_capacity img (off + len);
  Bytes.blit b pos img.data off len

let with_fd f k =
  Mutex.lock f.m;
  match k () with
  | v ->
      Mutex.unlock f.m;
      v
  | exception e ->
      Mutex.unlock f.m;
      raise e

(* A signal delivery (the flight recorder's timer, a profiler) can
   interrupt a blocking read or write with EINTR; the syscall must be
   reissued, not surfaced as an error. *)
let rec eintr_retry k =
  try k () with Unix.Unix_error (Unix.EINTR, _, _) -> eintr_retry k

let file_read f ~off b ~pos ~len =
  with_fd f (fun () ->
      ignore (Unix.lseek f.fd off Unix.SEEK_SET : int);
      let got = ref 0 in
      let eof = ref false in
      while (not !eof) && !got < len do
        let n =
          eintr_retry (fun () -> Unix.read f.fd b (pos + !got) (len - !got))
        in
        if n = 0 then begin
          (* Past EOF (the file is shorter than the tracked length — a
             crash truncated it under us): zero-fill the remainder
             instead of failing, so a log scan over a real device sees
             the same all-zero tail a simulated device presents and
             degrades to its structured torn-tail verdict at the
             offending offset. *)
          Bytes.fill b (pos + !got) (len - !got) '\000';
          eof := true
        end
        else got := !got + n
      done)

let file_write f ~off b ~pos ~len =
  with_fd f (fun () ->
      ignore (Unix.lseek f.fd off Unix.SEEK_SET : int);
      let put = ref 0 in
      while !put < len do
        let n =
          eintr_retry (fun () -> Unix.write f.fd b (pos + !put) (len - !put))
        in
        put := !put + n
      done;
      if off + len > f.flen then f.flen <- off + len)

let read t ~off ~len =
  if off < 0 || len < 0 || off + len > size t then
    invalid_arg
      (Printf.sprintf "Dev.read %s: [%d,%d) beyond size %d" t.name off
         (off + len) (size t));
  charge t (t.latency.read_base +. (t.latency.read_per_byte *. float_of_int len));
  Lbc_util.Slice.count_copy len;
  match t.backing with
  | Mem m -> Bytes.sub m.current.data off len
  | File f ->
      let b = Bytes.create len in
      file_read f ~off b ~pos:0 ~len;
      b

let write t ~off b ~pos ~len =
  if off < 0 || pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg (Printf.sprintf "Dev.write %s: bad range" t.name);
  Lbc_util.Slice.count_copy len;
  (match t.backing with
  | Mem m ->
      apply_to m.current ~off b ~pos ~len;
      (* The pending queue owns its payload: the caller may reuse [b] (the
         log's encode arena does) before the next sync.  This capture is
         the one copy the write path keeps — the same copy the kernel
         makes into the page cache on the file path. *)
      Queue.add { off; payload = Bytes.sub b pos len } m.pending;
      m.pending_bytes <- m.pending_bytes + len
  | File f -> file_write f ~off b ~pos ~len);
  t.bytes_written <- t.bytes_written + len;
  (* Charged only once the bytes are captured: another process that runs
     during the sleep (a second committer on the same node) may already
     reuse [b]. *)
  charge t (t.latency.write_base +. (t.latency.write_per_byte *. float_of_int len))

let write_slice t ~off s =
  write t ~off (Lbc_util.Slice.base s) ~pos:(Lbc_util.Slice.pos s)
    ~len:(Lbc_util.Slice.length s)

let write_string t ~off s =
  write t ~off (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

let sync t =
  (match t.backing with
  | Mem m ->
      charge t
        (t.latency.sync_base
        +. (t.latency.sync_per_byte *. float_of_int m.pending_bytes));
      Queue.iter
        (fun { off; payload } ->
          apply_to m.stable ~off payload ~pos:0 ~len:(Bytes.length payload))
        m.pending;
      Queue.clear m.pending;
      m.pending_bytes <- 0
  | File f -> with_fd f (fun () -> Unix.fsync f.fd));
  t.sync_count <- t.sync_count + 1

let copy_image ~src ~dst =
  ensure_capacity dst src.len;
  Bytes.blit src.data 0 dst.data 0 src.len;
  dst.len <- src.len

let crash ?(apply = 0) ?(tear_bytes = 0) t =
  match t.backing with
  | File _ ->
      invalid_arg
        (Printf.sprintf
           "Dev.crash %s: deterministic write loss needs the simulated \
            device"
           t.name)
  | Mem m ->
      (* Apply the surviving prefix of pending writes to the stable image,
         then make it the current image. *)
      let applied = ref 0 in
      Queue.iter
        (fun { off; payload } ->
          if !applied < apply then begin
            apply_to m.stable ~off payload ~pos:0 ~len:(Bytes.length payload);
            incr applied
          end
          else if !applied = apply && tear_bytes > 0 then begin
            let len = min tear_bytes (Bytes.length payload) in
            apply_to m.stable ~off payload ~pos:0 ~len;
            incr applied
          end)
        m.pending;
      Queue.clear m.pending;
      m.pending_bytes <- 0;
      copy_image ~src:m.stable ~dst:m.current

let snapshot t =
  Lbc_util.Slice.count_copy (size t);
  match t.backing with
  | Mem m -> Bytes.sub m.current.data 0 m.current.len
  | File f ->
      let b = Bytes.create f.flen in
      file_read f ~off:0 b ~pos:0 ~len:f.flen;
      b

let stable_snapshot t =
  match t.backing with
  | Mem m ->
      Lbc_util.Slice.count_copy m.stable.len;
      Bytes.sub m.stable.data 0 m.stable.len
  | File _ -> snapshot t

let load t b =
  match t.backing with
  | Mem m ->
      let set img =
        img.data <- Bytes.copy b;
        img.len <- Bytes.length b
      in
      set m.current;
      set m.stable;
      Queue.clear m.pending;
      m.pending_bytes <- 0
  | File f ->
      with_fd f (fun () ->
          Unix.ftruncate f.fd 0;
          f.flen <- 0);
      file_write f ~off:0 b ~pos:0 ~len:(Bytes.length b);
      with_fd f (fun () -> Unix.fsync f.fd)

let load_file t path =
  match In_channel.with_open_bin path In_channel.input_all with
  | image -> Ok (load t (Bytes.unsafe_of_string image))
  | exception Sys_error why ->
      (* Some messages name the path already ("P: No such file ..."),
         a read error does not ("Is a directory"). *)
      let prefix = path ^ ": " in
      Error (if String.starts_with ~prefix why then why else prefix ^ why)
