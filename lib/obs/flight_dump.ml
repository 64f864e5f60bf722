(* LBCF — the on-disk flight recorder dump format, its decoder, the
   N-ring merge, structural self-check, and a Chrome-trace renderer.

   Layout (all integers LEB128 varints unless noted):

     "LBCF"            magic, 4 raw bytes
     version           1 raw byte (currently 2: span and instant
                       records carry an argument)
     dumped_at_ns      platform clock at dump time
     clock             length-prefixed label ("virtual-us" | "wall-us")
     ring_count
     per ring:
       ring_id recorded dropped cap last_ts_ns
       name_count  (len name)*          -- intern table, index = id
       body_len  body                   -- Flight records, oldest first

   Record timestamps inside a body are deltas; the decoder accumulates
   them from zero and then shifts every event so the newest lands on
   [last_ts_ns] (see flight.ml: eviction can remove the delta chain's
   base, the anchor is kept outside the ring). *)

type kind = Span | Instant | Count | Flow_start | Flow_end

type event = {
  ev_ring : int;
  ev_kind : kind;
  ev_name : string; (* "" for flow endpoints *)
  ev_lane : int;
  ev_ts_ns : int; (* absolute; for spans this is the END time *)
  ev_dur_ns : int; (* spans only, else 0 *)
  ev_arg : int; (* span/instant argument, counter delta or flow id *)
}

type ring = {
  r_id : int;
  r_recorded : int;
  r_dropped : int;
  r_cap : int;
  r_last_ts_ns : int;
  r_names : string array;
  r_events : event array;
  r_errors : string list; (* decode-time structural problems *)
}

type dump = {
  d_version : int;
  d_clock : string;
  d_dumped_at_ns : int;
  d_rings : ring array;
}

let magic = "LBCF"
let version = 2

(* ---------------------------------------------------------------- *)
(* Writing *)

let add_varint buf v =
  let v = ref v in
  while !v >= 128 do
    Buffer.add_char buf (Char.chr ((!v land 0x7f) lor 0x80));
    v := !v lsr 7
  done;
  Buffer.add_char buf (Char.chr !v)

let add_str buf s =
  add_varint buf (String.length s);
  Buffer.add_string buf s

let encode ~clock ~dumped_at_ns (rings : (int * Flight.t) array) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  Buffer.add_char buf (Char.chr version);
  add_varint buf dumped_at_ns;
  add_str buf clock;
  add_varint buf (Array.length rings);
  Array.iter
    (fun (id, r) ->
      add_varint buf id;
      add_varint buf (Flight.recorded r);
      add_varint buf (Flight.dropped r);
      add_varint buf (Flight.capacity r);
      add_varint buf (Flight.last_ts_ns r);
      let names = Flight.names r in
      add_varint buf (Array.length names);
      Array.iter (add_str buf) names;
      add_str buf (Flight.dump_body r))
    rings;
  Buffer.contents buf

let write ~path ~clock ~dumped_at_ns rings =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (encode ~clock ~dumped_at_ns rings))

(* ---------------------------------------------------------------- *)
(* Decoding *)

exception Corrupt of string

type cursor = { s : string; mutable pos : int }

let u8 c =
  if c.pos >= String.length c.s then raise (Corrupt "truncated");
  let b = Char.code c.s.[c.pos] in
  c.pos <- c.pos + 1;
  b

let varint c =
  let v = ref 0 and shift = ref 0 and continue = ref true in
  while !continue do
    let b = u8 c in
    if !shift > 56 then raise (Corrupt "varint too long");
    v := !v lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    continue := b land 0x80 <> 0
  done;
  !v

let remaining c = String.length c.s - c.pos

(* A length or count is checked against the bytes left before anything
   is allocated from it: a hostile varint can be negative or huge. *)
let str c =
  let n = varint c in
  if n < 0 || n > remaining c then raise (Corrupt "bad string length");
  let s = String.sub c.s c.pos n in
  c.pos <- c.pos + n;
  s

let unzigzag v = (v lsr 1) lxor (-(v land 1))

(* Decode one ring body.  Returns events in record order with
   timestamps already re-absolutized against [last_ts_ns]. *)
let decode_body ~ring_id ~names ~last_ts_ns body =
  let c = { s = body; pos = 0 } in
  (* The first structural problem ends the ring's decode: records past
     it are garbage. *)
  let name_of id =
    if id >= 0 && id < Array.length names then names.(id)
    else
      raise
        (Corrupt
           (Printf.sprintf "name id %d outside intern table (%d names)" id
              (Array.length names)))
  in
  let events = ref [] in
  let ts = ref 0 in
  let errors =
    match
      while c.pos < String.length c.s do
        let start = c.pos in
        let len = u8 c in
        let payload_end = start + 1 + len in
        if payload_end > String.length c.s then
          raise (Corrupt (Printf.sprintf "record at %d overruns body" start));
        let tag = u8 c in
        let ev =
          match tag with
          | 0 ->
              let lane = varint c in
              let name = name_of (varint c) in
              ts := !ts + varint c;
              let dur = varint c in
              let arg = unzigzag (varint c) in
              { ev_ring = ring_id; ev_kind = Span; ev_name = name;
                ev_lane = lane; ev_ts_ns = !ts; ev_dur_ns = dur; ev_arg = arg }
          | 1 ->
              let lane = varint c in
              let name = name_of (varint c) in
              ts := !ts + varint c;
              let arg = unzigzag (varint c) in
              { ev_ring = ring_id; ev_kind = Instant; ev_name = name;
                ev_lane = lane; ev_ts_ns = !ts; ev_dur_ns = 0; ev_arg = arg }
          | 2 ->
              let name = name_of (varint c) in
              ts := !ts + varint c;
              let delta = unzigzag (varint c) in
              { ev_ring = ring_id; ev_kind = Count; ev_name = name;
                ev_lane = 0; ev_ts_ns = !ts; ev_dur_ns = 0; ev_arg = delta }
          | 3 | 4 ->
              let lane = varint c in
              ts := !ts + varint c;
              let id = varint c in
              { ev_ring = ring_id;
                ev_kind = (if tag = 3 then Flow_start else Flow_end);
                ev_name = ""; ev_lane = lane; ev_ts_ns = !ts; ev_dur_ns = 0;
                ev_arg = id }
          | t -> raise (Corrupt (Printf.sprintf "unknown tag %d at %d" t start))
        in
        if c.pos <> payload_end then
          raise
            (Corrupt
               (Printf.sprintf "record at %d: decoded %d bytes, length says %d"
                  start (c.pos - start - 1) len));
        events := ev :: !events
      done
    with
    | () -> []
    | exception Corrupt m -> [ Printf.sprintf "ring %d: %s" ring_id m ]
  in
  let events = Array.of_list (List.rev !events) in
  let n = Array.length events in
  if n > 0 then begin
    (* Shift relative times so the newest event lands on the anchor. *)
    let offset = last_ts_ns - events.(n - 1).ev_ts_ns in
    Array.iteri
      (fun i ev -> events.(i) <- { ev with ev_ts_ns = ev.ev_ts_ns + offset })
      events
  end;
  (events, errors)

let decode_ring ~id ~recorded ~dropped ~cap ~last_ts_ns ~names body =
  let events, errors = decode_body ~ring_id:id ~names ~last_ts_ns body in
  { r_id = id; r_recorded = recorded; r_dropped = dropped; r_cap = cap;
    r_last_ts_ns = last_ts_ns; r_names = names; r_events = events;
    r_errors = errors }

let of_string s =
  let c = { s; pos = 0 } in
  if String.length s < 5 || String.sub s 0 4 <> magic then
    Error "not an LBCF flight dump (bad magic)"
  else begin
    c.pos <- 4;
    match
      let v = u8 c in
      if v <> version then
        raise (Corrupt (Printf.sprintf "unsupported version %d" v));
      let dumped_at_ns = varint c in
      let clock = str c in
      (* A ring header is at least seven bytes and a name at least one,
         which bounds both counts by the bytes left. *)
      let nrings = varint c in
      if nrings < 0 || nrings > remaining c / 7 then
        raise (Corrupt "implausible ring count");
      let rings =
        Array.init nrings (fun _ ->
            let id = varint c in
            let recorded = varint c in
            let dropped = varint c in
            let cap = varint c in
            let last_ts_ns = varint c in
            let nnames = varint c in
            if nnames < 0 || nnames > remaining c then
              raise (Corrupt "implausible name count");
            let names = Array.init nnames (fun _ -> str c) in
            let body = str c in
            decode_ring ~id ~recorded ~dropped ~cap ~last_ts_ns ~names body)
      in
      { d_version = version; d_clock = clock; d_dumped_at_ns = dumped_at_ns;
        d_rings = rings }
    with
    | d -> Ok d
    | exception Corrupt m -> Error m
  end

let read path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> of_string s
  | exception Sys_error m -> Error m

let is_flight_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        if in_channel_length ic < 4 then "" else really_input_string ic 4)
  with
  | s -> s = magic
  | exception Sys_error _ -> false

(* ---------------------------------------------------------------- *)
(* Self-check: the invariants lbc-trace --self-check validates. *)

let self_check d =
  let problems = ref [] in
  let add fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  Array.iter
    (fun r ->
      (* 1. Interned-id closure + clean structural decode. *)
      List.iter (fun e -> add "%s" e) r.r_errors;
      (* 2. Drop accounting: every event ever recorded is either still
         decodable or tallied as dropped. *)
      let survived = Array.length r.r_events in
      if r.r_recorded <> r.r_dropped + survived then
        add "ring %d: drop accounting broken: recorded=%d dropped=%d decoded=%d"
          r.r_id r.r_recorded r.r_dropped survived;
      (* 3. Per-ring timestamp monotonicity (and the anchor pins the
         newest event). *)
      let prev = ref min_int in
      Array.iter
        (fun ev ->
          if ev.ev_ts_ns < !prev then
            add "ring %d: timestamp regression %d -> %d in %S" r.r_id !prev
              ev.ev_ts_ns ev.ev_name;
          prev := ev.ev_ts_ns;
          if ev.ev_dur_ns < 0 then
            add "ring %d: negative duration in %S" r.r_id ev.ev_name)
        r.r_events;
      if survived > 0 && r.r_events.(survived - 1).ev_ts_ns <> r.r_last_ts_ns
      then
        add "ring %d: newest event ts %d does not match anchor %d" r.r_id
          r.r_events.(survived - 1).ev_ts_ns r.r_last_ts_ns)
    d.d_rings;
  List.rev !problems

(* Merge all rings into one event stream ordered by timestamp (stable,
   so same-instant events keep ring order). *)
let merged d =
  let all = Array.concat (Array.to_list (Array.map (fun r -> r.r_events) d.d_rings)) in
  let a = Array.copy all in
  let cmp a b =
    let c = Int.compare a.ev_ts_ns b.ev_ts_ns in
    if c <> 0 then c else Int.compare a.ev_ring b.ev_ring
  in
  Array.stable_sort cmp a;
  a

(* ---------------------------------------------------------------- *)
(* Chrome-trace rendering: one process per ring, lanes as threads in
   pipeline order, for Perfetto. *)

(* What a span's or instant's argument means, by event name; the other
   events pass 0 and render without args. *)
let arg_label = function
  | "lock.wait" | "interlock" | "token.pass" -> Some "lock"
  | "net.send" | "net.deliver" | "net.drop" | "log.append" | "log.ctrl"
  | "log.flush" | "ckpt" ->
      Some "bytes"
  | "apply" | "hold" -> Some "writer"
  | "crash" | "rejoin" -> Some "epoch"
  | _ -> None

let render_chrome d =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[\n";
  let first = ref true in
  let emit fmt =
    Printf.ksprintf
      (fun s ->
        if !first then first := false else Buffer.add_string buf ",\n";
        Buffer.add_string buf s)
      fmt
  in
  Array.iter
    (fun r ->
      emit
        "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"node %d\"}}"
        r.r_id r.r_id;
      for lane = 0 to 4 do
        emit
          "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
          r.r_id lane (Flight.lane_name lane);
        emit
          "{\"ph\":\"M\",\"name\":\"thread_sort_index\",\"pid\":%d,\"tid\":%d,\"args\":{\"sort_index\":%d}}"
          r.r_id lane lane
      done)
    d.d_rings;
  let args ev =
    match arg_label ev.ev_name with
    | Some label -> Printf.sprintf ",\"args\":{\"%s\":%d}" label ev.ev_arg
    | None -> ""
  in
  let counters = Hashtbl.create 16 in
  Array.iter
    (fun ev ->
      let ts_us = float_of_int ev.ev_ts_ns /. 1000.0 in
      match ev.ev_kind with
      | Span ->
          let dur_us = float_of_int ev.ev_dur_ns /. 1000.0 in
          emit
            "{\"ph\":\"X\",\"name\":\"%s\",\"cat\":\"lbc\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f%s}"
            (Json.escape ev.ev_name) ev.ev_ring ev.ev_lane (ts_us -. dur_us)
            dur_us (args ev)
      | Instant ->
          emit
            "{\"ph\":\"i\",\"name\":\"%s\",\"cat\":\"lbc\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"s\":\"t\"%s}"
            (Json.escape ev.ev_name) ev.ev_ring ev.ev_lane ts_us (args ev)
      | Count ->
          let key = (ev.ev_ring, ev.ev_name) in
          let total =
            (match Hashtbl.find_opt counters key with Some v -> v | None -> 0)
            + ev.ev_arg
          in
          Hashtbl.replace counters key total;
          emit
            "{\"ph\":\"C\",\"name\":\"%s\",\"pid\":%d,\"tid\":0,\"ts\":%.3f,\"args\":{\"%s\":%d}}"
            (Json.escape ev.ev_name) ev.ev_ring ts_us (Json.escape ev.ev_name)
            total
      | Flow_start ->
          emit
            "{\"ph\":\"s\",\"name\":\"write\",\"cat\":\"flow\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"id\":%d}"
            ev.ev_ring ev.ev_lane ts_us ev.ev_arg
      | Flow_end ->
          emit
            "{\"ph\":\"f\",\"bp\":\"e\",\"name\":\"write\",\"cat\":\"flow\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"id\":%d}"
            ev.ev_ring ev.ev_lane ts_us ev.ev_arg)
    (merged d);
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents buf

(* ---------------------------------------------------------------- *)
(* Summary used by lbc-trace and tests. *)

let kind_name = function
  | Span -> "span"
  | Instant -> "instant"
  | Count -> "count"
  | Flow_start -> "flow-start"
  | Flow_end -> "flow-end"

let pp_summary ppf d =
  Format.fprintf ppf "flight dump: clock=%s rings=%d dumped_at=%dns@."
    d.d_clock (Array.length d.d_rings) d.d_dumped_at_ns;
  Array.iter
    (fun r ->
      let survived = Array.length r.r_events in
      Format.fprintf ppf
        "  node%d: %d recorded, %d dropped, %d decoded, %d names, cap %dB@."
        r.r_id r.r_recorded r.r_dropped survived (Array.length r.r_names)
        r.r_cap;
      if survived > 0 then
        Format.fprintf ppf "    window: %d..%d ns (%.3f ms)@."
          r.r_events.(0).ev_ts_ns r.r_events.(survived - 1).ev_ts_ns
          (float_of_int
             (r.r_events.(survived - 1).ev_ts_ns - r.r_events.(0).ev_ts_ns)
          /. 1e6))
    d.d_rings
