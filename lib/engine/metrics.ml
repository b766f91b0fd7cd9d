(* Precomputed database metrics consumed by elastic sensitivity (paper §4):
   - mf(a, t): frequency of the most frequent value of column a in table t
     (the "max frequency" metric; the paper obtains it with one SQL query per
     join column and recomputes it on updates);
   - vr(a, t): value range (max - min) of a numeric column, used by the
     SUM/AVG/MIN/MAX extensions of §3.7.2;
   - the registry of public (non-protected) tables for the §3.6 optimisation;
   - table row counts, used to clamp the smooth-sensitivity scan. *)

type key = string * string (* table, column; both lowercase *)

type t = {
  mf : (key, int) Hashtbl.t;
  vr : (key, float) Hashtbl.t;
  publics : (string, unit) Hashtbl.t;
  row_counts : (string, int) Hashtbl.t;
  primary_keys : (key, unit) Hashtbl.t;
      (* columns whose uniqueness is a schema constraint: their max frequency
         is 1 in every database the engine will accept, so mf_k = 1 for all
         distances (the "UniqueOptimized" treatment visible in the paper's
         Figure 4 data) *)
}

let create () =
  {
    mf = Hashtbl.create 64;
    vr = Hashtbl.create 64;
    publics = Hashtbl.create 8;
    row_counts = Hashtbl.create 16;
    primary_keys = Hashtbl.create 16;
  }

let key table column = (String.lowercase_ascii table, String.lowercase_ascii column)

let set_mf t ~table ~column freq = Hashtbl.replace t.mf (key table column) freq
let set_vr t ~table ~column range = Hashtbl.replace t.vr (key table column) range
let set_row_count t ~table n = Hashtbl.replace t.row_counts (String.lowercase_ascii table) n

let mf t ~table ~column = Hashtbl.find_opt t.mf (key table column)
let vr t ~table ~column = Hashtbl.find_opt t.vr (key table column)
let row_count t ~table = Hashtbl.find_opt t.row_counts (String.lowercase_ascii table)

let set_primary_key t ~table ~column =
  Hashtbl.replace t.primary_keys (key table column) ()

let is_primary_key t ~table ~column = Hashtbl.mem t.primary_keys (key table column)

let set_public t table = Hashtbl.replace t.publics (String.lowercase_ascii table) ()
let clear_public t table = Hashtbl.remove t.publics (String.lowercase_ascii table)
let is_public t table = Hashtbl.mem t.publics (String.lowercase_ascii table)
let public_tables t = Hashtbl.fold (fun k () acc -> k :: acc) t.publics [] |> List.sort compare

(* Max frequency of a column's non-NULL values, by direct scan: the paper's
     SELECT COUNT(a) FROM T GROUP BY a ORDER BY count DESC LIMIT 1,
   keyed like the engines' GROUP BY and joins ([Row_table]), so [1] and
   [1.0] are one key here as in the join whose fan-out mf bounds. *)
let compute_mf table column =
  let counts = Row_table.Scalar.create 256 in
  Array.fold_left
    (fun best v ->
      if Value.is_null v then best
      else
        match Row_table.Scalar.find_opt counts v with
        | Some c ->
          incr c;
          max best !c
        | None ->
          Row_table.Scalar.add counts v (ref 1);
          max best 1)
    0 (Table.column_values table column)

(* Value range of a numeric column; None when the column has no numeric
   values (range metrics for string columns must come from a domain expert,
   cf. §3.7.2). *)
let compute_vr table column =
  let lo = ref infinity and hi = ref neg_infinity and seen = ref false in
  Array.iter
    (fun v ->
      match Value.to_float v with
      | Some f ->
        seen := true;
        if f < !lo then lo := f;
        if f > !hi then hi := f
      | None -> ())
    (Table.column_values table column);
  if !seen then Some (!hi -. !lo) else None

(* Collect every metric for every column of every table. In the paper's
   deployment this runs offline, once, and is refreshed by database
   triggers. *)
let compute db =
  let t = create () in
  List.iter
    (fun name ->
      let table = Database.find db name in
      set_row_count t ~table:name (Table.row_count table);
      Array.iter
        (fun column ->
          set_mf t ~table:name ~column (compute_mf table column);
          match compute_vr table column with
          | Some r -> set_vr t ~table:name ~column r
          | None -> ())
        (Table.columns table))
    (Database.table_names db);
  t

(* Refresh the metrics of a single table after an update. *)
let recompute_table t db name =
  let table = Database.find db name in
  set_row_count t ~table:name (Table.row_count table);
  Array.iter
    (fun column ->
      set_mf t ~table:name ~column (compute_mf table column);
      match compute_vr table column with
      | Some r -> set_vr t ~table:name ~column r
      | None -> Hashtbl.remove t.vr (key name column))
    (Table.columns table)

let total_rows t = Hashtbl.fold (fun _ n acc -> acc + n) t.row_counts 0

(* Column names known for a table (from the collected mf metrics). Allows the
   analysis to run from metrics alone, without a database connection. *)
let columns t ~table =
  let table = String.lowercase_ascii table in
  Hashtbl.fold (fun (tb, c) _ acc -> if tb = table then c :: acc else acc) t.mf []
  |> List.sort_uniq compare

let known_tables t =
  Hashtbl.fold (fun tb _ acc -> tb :: acc) t.row_counts [] |> List.sort_uniq compare

(* --- plain-text serialisation (one record per line) ----------------------- *)

let to_lines t =
  let lines = ref [] in
  Hashtbl.iter
    (fun (tbl, col) v -> lines := Fmt.str "mf\t%s\t%s\t%d" tbl col v :: !lines)
    t.mf;
  Hashtbl.iter
    (fun (tbl, col) v -> lines := Fmt.str "vr\t%s\t%s\t%.17g" tbl col v :: !lines)
    t.vr;
  Hashtbl.iter (fun tbl () -> lines := Fmt.str "public\t%s" tbl :: !lines) t.publics;
  Hashtbl.iter
    (fun (tbl, col) () -> lines := Fmt.str "pk\t%s\t%s" tbl col :: !lines)
    t.primary_keys;
  Hashtbl.iter
    (fun tbl n -> lines := Fmt.str "rows\t%s\t%d" tbl n :: !lines)
    t.row_counts;
  List.sort compare !lines

let of_lines lines =
  let t = create () in
  List.iter
    (fun line ->
      if String.trim line <> "" then
        match String.split_on_char '\t' line with
        | [ "mf"; tbl; col; v ] -> set_mf t ~table:tbl ~column:col (int_of_string v)
        | [ "vr"; tbl; col; v ] -> set_vr t ~table:tbl ~column:col (float_of_string v)
        | [ "public"; tbl ] -> set_public t tbl
        | [ "pk"; tbl; col ] -> set_primary_key t ~table:tbl ~column:col
        | [ "rows"; tbl; n ] -> set_row_count t ~table:tbl (int_of_string n)
        | _ -> invalid_arg ("Metrics.of_lines: malformed line: " ^ line))
    lines;
  t

(* The serialised form is sorted, so the digest is independent of hashtable
   iteration order: equal metrics always fingerprint alike. *)
let fingerprint t =
  Digest.to_hex (Digest.string (String.concat "\n" (to_lines t)))

let save t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> List.iter (fun l -> output_string oc (l ^ "\n")) (to_lines t))

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      of_lines (go []))
