type t = { size : int; table : (string * (int * int)) list (* name -> offset, size *) }

let make ?pad_to fields =
  let _, table =
    List.fold_left
      (fun (off, acc) (name, fsize) ->
        if fsize <= 0 then invalid_arg "Layout.make: field size must be positive";
        if List.mem_assoc name acc then
          invalid_arg (Printf.sprintf "Layout.make: duplicate field %s" name);
        (off + fsize, (name, (off, fsize)) :: acc))
      (0, []) fields
  in
  let used = List.fold_left (fun a (_, s) -> a + s) 0 fields in
  let size =
    match pad_to with
    | None -> used
    | Some p ->
        if p < used then
          invalid_arg
            (Printf.sprintf "Layout.make: pad_to %d < fields total %d" p used);
        p
  in
  { size; table = List.rev table }

let size t = t.size

(* [List.assoc] raises [Not_found] itself, and allocates no option. *)
let offset t name = fst (List.assoc name t.table)

let fields t = List.map fst t.table
