type kind = Log | Cpy_cmp | Page

let kind_name = function Log -> "Log" | Cpy_cmp -> "Cpy/Cmp" | Page -> "Page"

type stats = {
  mutable write_faults : int;
  mutable pages_twinned : int;
  mutable pages_compared : int;
  mutable pages_shipped : int;
}

let page_size = Lbc_costmodel.Table2.page_size

module Iset = Set.Make (Int)

module Dtxn = struct
  type detection =
    | D_log
    | D_cpy_cmp of (int, Twin.t) Hashtbl.t  (* region -> twins *)
    | D_page of (int, Iset.t ref) Hashtbl.t  (* region -> dirty pages *)

  type t = {
    node : Lbc_core.Node.t;
    inner : Lbc_core.Node.Txn.t;
    detection : detection;
    stats : stats;
  }

  let begin_ node ~kind =
    {
      node;
      inner = Lbc_core.Node.Txn.begin_ node;
      detection =
        (match kind with
        | Log -> D_log
        | Cpy_cmp -> D_cpy_cmp (Hashtbl.create 4)
        | Page -> D_page (Hashtbl.create 4));
      stats =
        { write_faults = 0; pages_twinned = 0; pages_compared = 0; pages_shipped = 0 };
    }

  let kind t =
    match t.detection with D_log -> Log | D_cpy_cmp _ -> Cpy_cmp | D_page _ -> Page

  let stats t = t.stats
  let acquire t lock = Lbc_core.Node.Txn.acquire t.inner lock

  let region_of t region = Lbc_rvm.Rvm.region (Lbc_core.Node.rvm t.node) region

  let reader t region ~offset ~len =
    Lbc_rvm.Region.read (region_of t region) ~offset ~len

  let twin_for tbl region =
    match Hashtbl.find_opt tbl region with
    | Some tw -> tw
    | None ->
        let tw = Twin.create ~page_size in
        Hashtbl.add tbl region tw;
        tw

  let pages_for tbl region =
    match Hashtbl.find_opt tbl region with
    | Some s -> s
    | None ->
        let s = ref Iset.empty in
        Hashtbl.add tbl region s;
        s

  (* The accessor a detected store goes through.  Under Log every store
     declares its set_range; under the page-grained backends it goes
     straight to the cached image and only the fault/dirty bookkeeping of
     the declaration records it, as real hardware-detected DSM would. *)
  let mem t ~region =
    match t.detection with
    | D_log -> Lbc_core.Node.Txn.mem t.inner ~region
    | D_cpy_cmp twins ->
        let tw = twin_for twins region in
        Lbc_core.Node.mem t.node ~region ~declare:(fun ~offset ~len ->
            let faults = Twin.touch tw ~read:(reader t region) ~offset ~len in
            t.stats.write_faults <- t.stats.write_faults + faults;
            t.stats.pages_twinned <- t.stats.pages_twinned + faults)
    | D_page pages ->
        let s = pages_for pages region in
        Lbc_core.Node.mem t.node ~region ~declare:(fun ~offset ~len ->
            for p = offset / page_size to (offset + len - 1) / page_size do
              if not (Iset.mem p !s) then begin
                t.stats.write_faults <- t.stats.write_faults + 1;
                s := Iset.add p !s
              end
            done)

  let write t ~region ~offset b = Lbc_util.Mem.write (mem t ~region) ~offset b

  let set_u64 t ~region ~offset v =
    Lbc_util.Mem.set_u64 (mem t ~region) offset v

  (* Commit: convert the detected updates into set_range declarations so
     the ordinary redo-record path picks the new values out of memory. *)
  let commit t =
    (match t.detection with
    | D_log -> ()
    | D_cpy_cmp twins ->
        Hashtbl.iter
          (fun region tw ->
            t.stats.pages_compared <-
              t.stats.pages_compared + List.length (Twin.dirty_pages tw);
            List.iter
              (fun (offset, len) ->
                Lbc_core.Node.Txn.set_range t.inner ~region ~offset ~len)
              (Twin.diff tw ~read:(reader t region)))
          twins
    | D_page pages ->
        Hashtbl.iter
          (fun region s ->
            let size = Lbc_rvm.Region.size (region_of t region) in
            Iset.iter
              (fun p ->
                let offset = p * page_size in
                let len = min page_size (size - offset) in
                t.stats.pages_shipped <- t.stats.pages_shipped + 1;
                Lbc_core.Node.Txn.set_range t.inner ~region ~offset ~len)
              !s)
          pages);
    Lbc_core.Node.Txn.commit_record t.inner
end
