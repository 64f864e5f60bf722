(* Repo-specific source lint.  Eight rules, all lexical over comment- and
   string-stripped source text:

   - poly-compare: a bare (or Stdlib-qualified) [compare] applied as a
     function.  Polymorphic compare on wire/record types silently orders
     by field declaration order and breaks when a field becomes abstract
     or mutable; the repo's record types must use explicit comparators.
   - catch-all-handler: [try ... with _ ->] in recovery-path code
     (rvm/wal/core/storage/locks).  Recovery must distinguish a torn
     record from a programming error; a wildcard handler converts
     corruption into silent data loss.
   - obj-magic: any use of [Obj.magic].
   - hot-path-copy: [Bytes.sub], [Bytes.copy] or [Buffer.to_bytes] in the
     zero-copy data path (wal/net/core).  Those layers move committed
     data by reference (Slice windows and gather lists); a materializing
     copy belongs in lib/util where it is counted, or needs an explicit
     [copy-ok] comment on the same line explaining why it is fine.
   - float-equality: [=] or [<>] applied to a sim-clock value in lib/
     (an operand reading or ending in [at], [now], [clock] or
     [deadline]).  Timestamps are floats; exact equality on them is
     almost always a tie-break bug waiting for a perturbed schedule —
     order comparisons or an explicit tolerance are wanted instead.  A
     deliberate exact-tie test takes an [eq-ok] comment on the line.
   - print-debug: [Printf.printf] / [Printf.eprintf] / [Format.printf] /
     [Format.eprintf] in library code.  Libraries must report through a
     formatter handed to them (as report.ml does) or through the tracing
     layer (lib/obs), never by writing to the process's std channels —
     stray debugging output corrupts harness stdout (bench JSON, golden
     tests).  report.ml and lib/obs are exempt; elsewhere a deliberate
     print takes a [print-ok] comment on the same line.
   - wall-clock: [Unix.gettimeofday], [Unix.sleep]/[Unix.sleepf] or
     [Random.self_init] in library code outside lib/real.  The sim's
     determinism rests on every library reading time from the engine
     (Proc.now / Engine.now) and randomness from a seeded Rng; one stray
     host-clock read makes replayed schedules diverge.  lib/real is the
     one place wall time is the point; elsewhere a deliberate use takes
     a [clock-ok] comment on the same line.
   - flight-alloc: an allocating [Bytes.*] constructor or any [Buffer.*]
     use in the flight-recorder ring (lib/obs flight.ml).  The ring is
     always on and its record path must stay allocation-free (~ns/event,
     no GC pressure on every span of every run); deliberate one-time or
     dump-path allocations take an [alloc-ok] comment on the same line.

   The scanner blanks comments, string literals and character literals
   (preserving newlines and byte positions), so mentions of [compare] in
   docs or in this very file's rule table do not trip the lint. *)

let rules =
  [
    "poly-compare";
    "catch-all-handler";
    "obj-magic";
    "hot-path-copy";
    "print-debug";
    "float-equality";
    "wall-clock";
    "flight-alloc";
  ]

(* Directories whose files are considered recovery paths for the
   catch-all-handler rule. *)
let recovery_dirs = [ "rvm"; "wal"; "core"; "storage"; "locks"; "analysis" ]

let in_recovery_path file =
  let parts = String.split_on_char '/' file in
  List.exists (fun p -> List.mem p recovery_dirs) parts

(* Directories forming the zero-copy data path, for hot-path-copy. *)
let hot_path_dirs = [ "wal"; "net"; "core" ]

let in_hot_path file =
  let parts = String.split_on_char '/' file in
  List.exists (fun p -> List.mem p hot_path_dirs) parts

(* Library code for the print-debug rule: anything under lib/, except
   report.ml (whose job is rendering) and lib/obs (whose job is
   emitting trace files). *)
let in_library file =
  let parts = String.split_on_char '/' file in
  List.mem "lib" parts
  && (not (List.mem "obs" parts))
  && Filename.basename file <> "report.ml"

(* --------------------------------------------------------------- *)
(* Comment / string stripping *)

let effective src =
  let n = String.length src in
  let out = Bytes.of_string src in
  let blank i = if Bytes.get out i <> '\n' then Bytes.set out i ' ' in
  let i = ref 0 in
  let depth = ref 0 in
  while !i < n do
    let c = src.[!i] in
    if !depth > 0 then begin
      (* Inside a (possibly nested) comment. *)
      if c = '(' && !i + 1 < n && src.[!i + 1] = '*' then begin
        blank !i;
        blank (!i + 1);
        incr depth;
        i := !i + 2
      end
      else if c = '*' && !i + 1 < n && src.[!i + 1] = ')' then begin
        blank !i;
        blank (!i + 1);
        decr depth;
        i := !i + 2
      end
      else begin
        blank !i;
        incr i
      end
    end
    else if c = '(' && !i + 1 < n && src.[!i + 1] = '*' then begin
      blank !i;
      blank (!i + 1);
      incr depth;
      i := !i + 2
    end
    else if c = '"' then begin
      blank !i;
      incr i;
      let fin = ref false in
      while (not !fin) && !i < n do
        (match src.[!i] with
        | '\\' when !i + 1 < n ->
            blank !i;
            blank (!i + 1);
            incr i
        | '"' -> fin := true
        | _ -> blank !i);
        incr i
      done
    end
    else if
      (* Character literal: 'x' or '\x..'; leave type variables ('a)
         alone by requiring the closing quote. *)
      c = '\''
      && ((!i + 2 < n && src.[!i + 2] = '\'' && src.[!i + 1] <> '\\')
         || (!i + 3 < n && src.[!i + 1] = '\\' && src.[!i + 3] = '\''))
    then begin
      let len = if src.[!i + 1] = '\\' then 4 else 3 in
      for j = !i to !i + len - 1 do
        blank j
      done;
      i := !i + len
    end
    else incr i
  done;
  Bytes.to_string out

let line_of src pos =
  let line = ref 1 in
  for i = 0 to min pos (String.length src - 1) - 1 do
    if src.[i] = '\n' then incr line
  done;
  !line

let is_ident c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

(* All positions where [word] occurs as a whole token. *)
let token_positions text word =
  let wl = String.length word and n = String.length text in
  let rec loop from acc =
    if from + wl > n then List.rev acc
    else
      match String.index_from_opt text from word.[0] with
      | None -> List.rev acc
      | Some p when p + wl > n -> List.rev acc
      | Some p ->
          let matches =
            String.sub text p wl = word
            && (p = 0 || not (is_ident text.[p - 1]))
            && (p + wl = n || not (is_ident text.[p + wl]))
          in
          loop (p + 1) (if matches then p :: acc else acc)
  in
  loop 0 []

let prev_nonspace text pos =
  let rec loop i =
    if i < 0 then None
    else
      match text.[i] with ' ' | '\t' | '\n' -> loop (i - 1) | c -> Some (i, c)
  in
  loop (pos - 1)

let next_nonspace text pos =
  let n = String.length text in
  let rec loop i =
    if i >= n then None
    else
      match text.[i] with ' ' | '\t' | '\n' -> loop (i + 1) | c -> Some (i, c)
  in
  loop pos

let word_ending_at text pos =
  (* The identifier whose last char is at [pos]. *)
  let rec start i = if i >= 0 && is_ident text.[i] then start (i - 1) else i in
  let s = start pos in
  String.sub text (s + 1) (pos - s)

(* --------------------------------------------------------------- *)
(* Rules *)

let check_poly_compare ~file text =
  List.filter_map
    (fun p ->
      let flagged_qualifier =
        match prev_nonspace text p with
        | Some (i, '.') -> (
            (* Qualified: only Stdlib/Pervasives count as polymorphic. *)
            match word_ending_at text (i - 1) with
            | "Stdlib" | "Pervasives" -> Some true
            | _ -> Some false)
        | Some (_, '~') -> Some false (* labelled argument *)
        | Some (i, c) when is_ident c -> (
            match word_ending_at text i with
            | "let" | "and" | "val" | "external" | "method" ->
                Some false (* a definition of compare, not a use *)
            | _ -> None)
        | _ -> None
      in
      let declaration_like =
        match next_nonspace text (p + String.length "compare") with
        | Some (_, (':' | ';' | '=' | '}')) ->
            true (* type/field declaration or record pun *)
        | _ -> false
      in
      match flagged_qualifier with
      | Some false -> None
      | Some true ->
          Some
            (Violation.Lint
               {
                 file;
                 line = line_of text p;
                 rule = "poly-compare";
                 detail =
                   "Stdlib.compare is polymorphic; use an explicit comparator";
               })
      | None ->
          if declaration_like then None
          else
            Some
              (Violation.Lint
                 {
                   file;
                   line = line_of text p;
                   rule = "poly-compare";
                   detail =
                     "bare polymorphic compare; use Int.compare / \
                      String.compare or a per-type comparator";
                 }))
    (token_positions text "compare")

let check_catch_all ~file text =
  if not (in_recovery_path file) then []
  else
    List.filter_map
      (fun p ->
        (* with [|] _ -> *)
        let after = p + String.length "with" in
        let after =
          match next_nonspace text after with
          | Some (i, '|') -> i + 1
          | _ -> after
        in
        let arrow_follows i =
          match next_nonspace text (i + 1) with
          | Some (j, '-') -> j + 1 < String.length text && text.[j + 1] = '>'
          | _ -> false
        in
        match next_nonspace text after with
        | Some (i, '_')
          when (i + 1 >= String.length text || not (is_ident text.[i + 1]))
               && arrow_follows i ->
            Some
              (Violation.Lint
                 {
                   file;
                   line = line_of text p;
                   rule = "catch-all-handler";
                   detail =
                     "catch-all exception handler in a recovery path; match \
                      the expected exceptions explicitly";
                 })
        | _ -> None)
      (token_positions text "with")

let check_obj_magic ~file text =
  List.filter_map
    (fun p ->
      match next_nonspace text (p + String.length "Obj") with
      | Some (i, '.') -> (
          match next_nonspace text (i + 1) with
          | Some (j, 'm')
            when j + 5 <= String.length text
                 && String.sub text j 5 = "magic"
                 && (j + 5 = String.length text
                    || not (is_ident text.[j + 5])) ->
              Some
                (Violation.Lint
                   {
                     file;
                     line = line_of text p;
                     rule = "obj-magic";
                     detail = "Obj.magic defeats the type system";
                   })
          | _ -> None)
      | _ -> None)
    (token_positions text "Obj")

(* The raw source line containing byte position [pos] ([effective]
   preserves byte positions, so positions in the stripped text index the
   original source directly). *)
let raw_line src pos =
  let n = String.length src in
  let pos = min pos (n - 1) in
  let rec back i = if i > 0 && src.[i - 1] <> '\n' then back (i - 1) else i in
  let rec fwd i = if i < n && src.[i] <> '\n' then fwd (i + 1) else i in
  let s = back pos in
  String.sub src s (fwd pos - s)

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec loop i = i + nn <= nh && (String.sub hay i nn = needle || loop (i + 1)) in
  loop 0

let check_hot_path_copy ~file ~src text =
  if not (in_hot_path file) then []
  else
    let qualified_call ~modname ~fns p =
      match next_nonspace text (p + String.length modname) with
      | Some (i, '.') -> (
          match next_nonspace text (i + 1) with
          | Some (j, c) when is_ident c ->
              let rec fin k =
                if k < String.length text && is_ident text.[k] then fin (k + 1)
                else k
              in
              let word = String.sub text j (fin j - j) in
              if List.mem word fns then Some (modname ^ "." ^ word) else None
          | _ -> None)
      | _ -> None
    in
    let flag modname fns =
      List.filter_map
        (fun p ->
          match qualified_call ~modname ~fns p with
          | None -> None
          | Some callee ->
              (* copy-ok on the same source line opts the call out. *)
              if contains_sub (raw_line src p) "copy-ok" then None
              else
                Some
                  (Violation.Lint
                     {
                       file;
                       line = line_of text p;
                       rule = "hot-path-copy";
                       detail =
                         callee
                         ^ " materializes a copy on the zero-copy data path; \
                            use Slice windows / gather lists, or annotate the \
                            line with copy-ok";
                     }))
        (token_positions text modname)
    in
    flag "Bytes" [ "sub"; "copy" ] @ flag "Buffer" [ "to_bytes" ]

let check_print_debug ~file ~src text =
  if not (in_library file) then []
  else
    let qualified_call ~modname ~fns p =
      match next_nonspace text (p + String.length modname) with
      | Some (i, '.') -> (
          match next_nonspace text (i + 1) with
          | Some (j, c) when is_ident c ->
              let rec fin k =
                if k < String.length text && is_ident text.[k] then fin (k + 1)
                else k
              in
              let word = String.sub text j (fin j - j) in
              if List.mem word fns then Some (modname ^ "." ^ word) else None
          | _ -> None)
      | _ -> None
    in
    let flag modname =
      List.filter_map
        (fun p ->
          match qualified_call ~modname ~fns:[ "printf"; "eprintf" ] p with
          | None -> None
          | Some callee ->
              (* print-ok on the same source line opts the call out. *)
              if contains_sub (raw_line src p) "print-ok" then None
              else
                Some
                  (Violation.Lint
                     {
                       file;
                       line = line_of text p;
                       rule = "print-debug";
                       detail =
                         callee
                         ^ " writes to a std channel from library code; \
                            render through a caller-supplied formatter or \
                            lib/obs, or annotate the line with print-ok";
                     }))
        (token_positions text modname)
    in
    flag "Printf" @ flag "Format"

(* Library code for the wall-clock rule: anything under lib/ except
   lib/real, whose entire purpose is running on the host clock. *)
let in_deterministic_lib file =
  let parts = String.split_on_char '/' file in
  List.mem "lib" parts && not (List.mem "real" parts)

let check_wall_clock ~file ~src text =
  if not (in_deterministic_lib file) then []
  else
    let qualified_call ~modname ~fns p =
      match next_nonspace text (p + String.length modname) with
      | Some (i, '.') -> (
          match next_nonspace text (i + 1) with
          | Some (j, c) when is_ident c ->
              let rec fin k =
                if k < String.length text && is_ident text.[k] then fin (k + 1)
                else k
              in
              let word = String.sub text j (fin j - j) in
              if List.mem word fns then Some (modname ^ "." ^ word) else None
          | _ -> None)
      | _ -> None
    in
    let flag modname fns =
      List.filter_map
        (fun p ->
          match qualified_call ~modname ~fns p with
          | None -> None
          | Some callee ->
              (* clock-ok on the same source line opts the call out. *)
              if contains_sub (raw_line src p) "clock-ok" then None
              else
                Some
                  (Violation.Lint
                     {
                       file;
                       line = line_of text p;
                       rule = "wall-clock";
                       detail =
                         callee
                         ^ " reads the host clock/entropy in deterministic \
                            library code; use Proc.now / Engine.now and a \
                            seeded Rng, move it to lib/real, or annotate the \
                            line with clock-ok";
                     }))
        (token_positions text modname)
    in
    flag "Unix" [ "gettimeofday"; "sleep"; "sleepf" ]
    @ flag "Random" [ "self_init" ]

(* The flight-recorder ring hot path: flight.ml inside an obs library
   directory.  Everything in that file except explicitly annotated
   one-time/dump-path allocations runs per recorded event. *)
let in_flight_ring file =
  let parts = String.split_on_char '/' file in
  List.mem "obs" parts && Filename.basename file = "flight.ml"

let check_flight_alloc ~file ~src text =
  if not (in_flight_ring file) then []
  else
    let qualified_call ~modname ~fns p =
      match next_nonspace text (p + String.length modname) with
      | Some (i, '.') -> (
          match next_nonspace text (i + 1) with
          | Some (j, c) when is_ident c ->
              let rec fin k =
                if k < String.length text && is_ident text.[k] then fin (k + 1)
                else k
              in
              let word = String.sub text j (fin j - j) in
              if fns = [] || List.mem word fns then
                Some (modname ^ "." ^ word)
              else None
          | _ -> None)
      | _ -> None
    in
    let flag modname fns =
      List.filter_map
        (fun p ->
          match qualified_call ~modname ~fns p with
          | None -> None
          | Some callee ->
              (* alloc-ok on the same source line opts the call out. *)
              if contains_sub (raw_line src p) "alloc-ok" then None
              else
                Some
                  (Violation.Lint
                     {
                       file;
                       line = line_of text p;
                       rule = "flight-alloc";
                       detail =
                         callee
                         ^ " allocates in the always-on flight ring; the \
                            per-event record path must be allocation-free \
                            — write into the preallocated ring, or \
                            annotate a one-time/dump-path allocation with \
                            alloc-ok";
                     }))
        (token_positions text modname)
    in
    flag "Bytes"
      [
        "create"; "make"; "init"; "sub"; "sub_string"; "copy"; "cat";
        "extend"; "of_string"; "to_string";
      ]
    @ flag "Buffer" []

(* Clock-valued operand heuristic for float-equality: an identifier (or
   the last component of a dotted path) that names a simulation
   timestamp. *)
let clockish word =
  let suffix s =
    let n = String.length s and m = String.length word in
    m > n && String.sub word (m - n) n = s
  in
  match word with
  | "at" | "now" | "clock" | "deadline" -> true
  | _ -> suffix "_at" || suffix "_deadline" || suffix "_clock"

let in_lib file = List.mem "lib" (String.split_on_char '/' file)

let check_float_equality ~file ~src text =
  if not (in_lib file) then []
  else begin
    let n = String.length text in
    (* Positions of a standalone [=] or of [<>]. *)
    let ops = ref [] in
    for i = 0 to n - 1 do
      if
        text.[i] = '='
        && (i = 0 || not (List.mem text.[i - 1] [ '<'; '>'; '!'; '='; ':' ]))
        && (i + 1 >= n || text.[i + 1] <> '=')
      then ops := i :: !ops
      else if text.[i] = '<' && i + 1 < n && text.[i + 1] = '>' then
        ops := i :: !ops
    done;
    let path_tail_back i =
      (* Last component of the dotted path whose final char is at [i]. *)
      word_ending_at text i
    in
    let rec path_tail_fwd i =
      (* Last component of the dotted path starting at [i]. *)
      let rec fin k =
        if k < n && is_ident text.[k] then fin (k + 1) else k
      in
      let e = fin i in
      if e = i then ""
      else
        match next_nonspace text e with
        | Some (j, '.') -> (
            match next_nonspace text (j + 1) with
            | Some (k, c) when is_ident c && not (c >= 'A' && c <= 'Z') ->
                path_tail_fwd k
            | _ -> String.sub text i (e - i))
        | _ -> String.sub text i (e - i)
    in
    (* Start of the dotted path whose final char is at [i] (for context
       inspection: what precedes the left operand). *)
    let rec path_start i =
      let rec back k = if k >= 0 && is_ident text.[k] then back (k - 1) else k in
      let s = back i in
      match prev_nonspace text (s + 1) with
      | Some (j, '.') -> (
          match prev_nonspace text j with
          | Some (k, c) when is_ident c -> path_start k
          | _ -> s + 1)
      | _ -> s + 1
    in
    List.filter_map
      (fun p ->
        let left =
          match prev_nonspace text p with
          | Some (i, c) when is_ident c -> Some i
          | _ -> None
        in
        let right_pos = p + (if text.[p] = '<' then 2 else 1) in
        let right =
          match next_nonspace text right_pos with
          | Some (i, c) when is_ident c -> Some i
          | _ -> None
        in
        let left_clockish =
          match left with
          | Some i -> clockish (path_tail_back i)
          | None -> false
        in
        let right_clockish =
          match right with
          | Some i -> clockish (path_tail_fwd i)
          | None -> false
        in
        if not (left_clockish || right_clockish) then None
        else
          (* Exclude bindings and record fields: [let x = ...],
             [let f a b = ...], [{ at = ... }], [; clock = ...],
             [?(at = ...)].  Walk back over the (identifier) tokens
             preceding the left operand until something decides the
             context: a binder keyword or record punctuation means a
             definition, an expression keyword or operator means a
             comparison. *)
          let binding_like =
            match left with
            | None -> true  (* no left operand: not a comparison *)
            | Some i ->
                let rec walk pos steps =
                  if steps > 12 then false
                  else
                    match prev_nonspace text pos with
                    | None -> true  (* start of file: a definition *)
                    | Some (j, c) when is_ident c -> (
                        let w = word_ending_at text j in
                        match w with
                        | "let" | "and" | "rec" | "mutable" | "val"
                        | "method" | "external" | "with" ->
                            true
                        | "if" | "when" | "then" | "else" | "while"
                        | "do" | "begin" | "not" | "match" | "assert" ->
                            false
                        | _ -> walk (j - String.length w) (steps + 1))
                    | Some (j, c) -> (
                        match c with
                        | '{' | ';' -> true
                        | '(' -> j > 0 && text.[j - 1] = '?'
                        | _ -> false)
                in
                walk (path_start i) 0
          in
          if binding_like then None
          else if contains_sub (raw_line src p) "eq-ok" then None
          else
            Some
              (Violation.Lint
                 {
                   file;
                   line = line_of text p;
                   rule = "float-equality";
                   detail =
                     "exact equality on a sim-clock float hides tie-break \
                      bugs; compare with an order relation or a tolerance, \
                      or annotate the line with eq-ok";
                 }))
      (List.rev !ops)
  end

(* --------------------------------------------------------------- *)
(* Entry points *)

let scan_source ~file src =
  let text = effective src in
  List.concat
    [
      check_poly_compare ~file text;
      check_catch_all ~file text;
      check_obj_magic ~file text;
      check_hot_path_copy ~file ~src text;
      check_print_debug ~file ~src text;
      check_float_equality ~file ~src text;
      check_wall_clock ~file ~src text;
      check_flight_alloc ~file ~src text;
    ]

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let b = really_input_string ic len in
  close_in ic;
  b

let scan_file path = scan_source ~file:path (read_file path)

let lintable path =
  Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"

let rec scan_path path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun entry ->
           if entry = "_build" || String.length entry = 0 || entry.[0] = '.'
           then []
           else scan_path (Filename.concat path entry))
  else if lintable path then scan_file path
  else []

let scan_paths paths = List.concat_map scan_path paths
