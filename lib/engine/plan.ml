module Ast = Flex_sql.Ast

(* The engine's logical plan IR, the only form the executor runs. [of_query]
   is a structure-preserving translation of the parsed AST: comma-separated
   FROM items become left-deep cross joins, everything else maps one-to-one,
   and no rewrite happens here. {!Optimizer.rewrite} then transforms plans
   (predicate pushdown, join reordering, build-side selection, ...) and
   {!Executor.run_plan} executes either kind. The renderer is the engine's
   EXPLAIN; an optional {!estimator} annotates operators with estimated
   cardinalities. *)

type rel =
  | Scan of { table : string; alias : string }
  | Derived of { plan : t; alias : string }
  | Filter of { pred : Ast.expr; input : rel }
  | Join of {
      kind : Ast.join_kind;
      cond : Ast.join_cond;
      build_left : bool;
      left : rel;
      right : rel;
    }

and select_plan = {
  distinct : bool;
  projections : Ast.projection list;
  source : rel option; (* [None] = FROM-less SELECT *)
  where : Ast.expr option;
  group_by : Ast.expr list;
  having : Ast.expr option;
}

and body_plan =
  | Plan_select of select_plan
  | Plan_set of { op : set_op; all : bool; left : body_plan; right : body_plan }

and set_op = Union | Except | Intersect

and t = {
  ctes : (string * string list * t) list;
  body : body_plan;
  order_by : (Ast.expr * Ast.order_dir) list;
  limit : int option;
  offset : int option;
}

(* --- AST -> plan ----------------------------------------------------------- *)

let rec of_table_ref (tr : Ast.table_ref) : rel =
  match tr with
  | Ast.Table { name; alias } -> Scan { table = name; alias = Option.value alias ~default:name }
  | Ast.Derived { query; alias } -> Derived { plan = of_query query; alias }
  | Ast.Join { kind; left; right; cond } ->
    Join
      { kind; cond; build_left = false; left = of_table_ref left; right = of_table_ref right }

and source_of_from (from : Ast.table_ref list) : rel option =
  match from with
  | [] -> None
  | tr :: rest ->
    Some
      (List.fold_left
         (fun acc tr ->
           Join
             {
               kind = Ast.Cross;
               cond = Ast.Cond_none;
               build_left = false;
               left = acc;
               right = of_table_ref tr;
             })
         (of_table_ref tr) rest)

and of_select (s : Ast.select) : select_plan =
  {
    distinct = s.distinct;
    projections = s.projections;
    source = source_of_from s.from;
    where = s.where;
    group_by = s.group_by;
    having = s.having;
  }

and of_body (b : Ast.body) : body_plan =
  match b with
  | Ast.Select s -> Plan_select (of_select s)
  | Ast.Union { all; left; right } ->
    Plan_set { op = Union; all; left = of_body left; right = of_body right }
  | Ast.Except { all; left; right } ->
    Plan_set { op = Except; all; left = of_body left; right = of_body right }
  | Ast.Intersect { all; left; right } ->
    Plan_set { op = Intersect; all; left = of_body left; right = of_body right }

and of_query (q : Ast.query) : t =
  {
    ctes = List.map (fun (c : Ast.cte) -> (c.cte_name, c.cte_columns, of_query c.cte_query)) q.ctes;
    body = of_body q.body;
    order_by = q.order_by;
    limit = q.limit;
    offset = q.offset;
  }

(* --- traversals ------------------------------------------------------------ *)

let rec fold_rel_exprs f acc (r : rel) =
  match r with
  | Scan _ -> acc
  | Derived { plan; _ } -> fold_exprs f acc plan
  | Filter { pred; input } -> fold_rel_exprs f (f acc pred) input
  | Join { cond; left; right; _ } ->
    let acc = match cond with Ast.On e -> f acc e | _ -> acc in
    fold_rel_exprs f (fold_rel_exprs f acc left) right

and fold_select_exprs f acc (sp : select_plan) =
  let acc =
    List.fold_left
      (fun acc p -> match p with Ast.Proj_expr (e, _) -> f acc e | _ -> acc)
      acc sp.projections
  in
  let acc = match sp.source with Some r -> fold_rel_exprs f acc r | None -> acc in
  let acc = match sp.where with Some e -> f acc e | None -> acc in
  let acc = List.fold_left f acc sp.group_by in
  match sp.having with Some e -> f acc e | None -> acc

and fold_body_exprs f acc (b : body_plan) =
  match b with
  | Plan_select sp -> fold_select_exprs f acc sp
  | Plan_set { left; right; _ } -> fold_body_exprs f (fold_body_exprs f acc left) right

and fold_exprs : 'a. ('a -> Ast.expr -> 'a) -> 'a -> t -> 'a =
 fun f acc (p : t) ->
  let acc = List.fold_left (fun acc (_, _, cp) -> fold_exprs f acc cp) acc p.ctes in
  let acc = fold_body_exprs f acc p.body in
  List.fold_left (fun acc (e, _) -> f acc e) acc p.order_by

let columns_of_plan (p : t) : Ast.col_ref list =
  List.rev (fold_exprs (fun acc e -> List.rev_append (Ast.deep_expr_columns e) acc) [] p)

let rec rel_aliases (r : rel) =
  match r with
  | Scan { alias; _ } -> [ String.lowercase_ascii alias ]
  | Derived { alias; _ } -> [ String.lowercase_ascii alias ]
  | Filter { input; _ } -> rel_aliases input
  | Join { left; right; _ } -> rel_aliases left @ rel_aliases right

(* --- EXPLAIN ANALYZE traces ------------------------------------------------- *)

(* Operator statistics collected by {!Executor.run_plan_analyzed} and rendered
   by {!render_analyzed}. The executor and the renderer walk the same plan
   tree, so they agree on a node's identity through a path string built with
   the same constructors on both sides: ["q"] is the root plan, and each edge
   appends ["/c<i>"] (CTE i), ["/b"] (body), ["/l"]/["/r"] (set-operation or
   join children), ["/s"] (select source), ["/w"] (the WHERE stage), ["/i"]
   (a relational Filter's input), ["/d"] (a derived subquery's plan), or
   ["/o"] (the sort stage). Stats are inclusive of children, the Postgres
   EXPLAIN ANALYZE convention. *)
module Analyze = struct
  type stat = {
    rows_in : int; (* -1 when the operator has no single input cardinality *)
    rows_out : int;
    elapsed_ns : float; (* NaN when the stage has no independent timing *)
  }

  type trace = (string, stat) Hashtbl.t

  let create () : trace = Hashtbl.create 64
  let record tr ~path ?(rows_in = -1) ~rows_out elapsed_ns =
    Hashtbl.replace tr path { rows_in; rows_out; elapsed_ns }

  let find (tr : trace) path = Hashtbl.find_opt tr path

  let root_path = "q"
  let cte_path p i = p ^ "/c" ^ string_of_int i
  let body_path p = p ^ "/b"
  let left_path p = p ^ "/l"
  let right_path p = p ^ "/r"
  let source_path p = p ^ "/s"
  let where_path p = p ^ "/w"
  let input_path p = p ^ "/i"
  let derived_path p = p ^ "/d"
  let sort_path p = p ^ "/o"

  let result_rows (tr : trace) =
    match find tr root_path with Some s -> Some s.rows_out | None -> None

  (* The "  (actual ...)" suffix for one operator line. [show_rows] gates the
     row counts — they are exact private-table cardinalities, the same class
     of value as the optimizer's EXPLAIN estimates, so they render as [?]
     unless the deployment opted in (Server.config.explain_estimates). *)
  let suffix ~show_rows (s : stat) =
    let rows =
      if not show_rows then "?"
      else if s.rows_in >= 0 then Printf.sprintf "%d->%d" s.rows_in s.rows_out
      else string_of_int s.rows_out
    in
    if Float.is_nan s.elapsed_ns then Printf.sprintf "  (actual rows=%s)" rows
    else Printf.sprintf "  (actual rows=%s, %.2fms)" rows (s.elapsed_ns /. 1e6)
end

(* --- rendering ------------------------------------------------------------- *)

type estimator = {
  est_rel : rel -> float option;
  est_select : select_plan -> float option;
}

let no_estimator = { est_rel = (fun _ -> None); est_select = (fun _ -> None) }

let card_suffix est =
  match est with
  | None -> ""
  | Some c -> Fmt.str "  (~%.0f rows)" (Float.round c)

(* The renderer threads an [annot]: a set of callbacks that, given a node's
   trace path (and the node), return the suffix for its line. Estimated
   EXPLAIN and EXPLAIN ANALYZE are two instantiations of the same walk. *)
type annot = {
  ann_rel : string -> rel -> string;
  ann_select : string -> select_plan -> string;
  ann_where : string -> string;
  ann_set : string -> string;
  ann_sort : string -> string;
  ann_slice : string -> string;
}

let no_annot =
  {
    ann_rel = (fun _ _ -> "");
    ann_select = (fun _ _ -> "");
    ann_where = (fun _ -> "");
    ann_set = (fun _ -> "");
    ann_sort = (fun _ -> "");
    ann_slice = (fun _ -> "");
  }

let annot_of_est est =
  {
    no_annot with
    ann_rel = (fun _ r -> card_suffix (est.est_rel r));
    ann_select = (fun _ sp -> card_suffix (est.est_select sp));
  }

let annot_of_trace ~show_rows (tr : Analyze.trace) =
  let at path = match Analyze.find tr path with Some s -> Analyze.suffix ~show_rows s | None -> "" in
  {
    ann_rel = (fun path _ -> at path);
    ann_select = (fun path _ -> at path);
    ann_where = (fun path -> at (Analyze.where_path path));
    ann_set = (fun path -> at path);
    ann_sort = (fun path -> at (Analyze.sort_path path));
    ann_slice = (fun path -> at path);
  }

let col_str (c : Ast.col_ref) =
  match c.table with Some t -> t ^ "." ^ c.column | None -> c.column

(* Mirror Executor.split_join_condition, approximated syntactically: every
   column-equality conjunct becomes a hash key. *)
let join_keys (cond : Ast.join_cond) =
  match cond with
  | Ast.Cond_none -> ([], 0)
  | Ast.Using cols -> (List.map (fun c -> (c, c)) cols, 0)
  | Ast.Natural -> ([ ("<common>", "<common>") ], 0)
  | Ast.On e ->
    let conjuncts = Ast.conjuncts e in
    let keys, residual =
      List.partition
        (function Ast.Binop (Ast.Eq, Ast.Col _, Ast.Col _) -> true | _ -> false)
        conjuncts
    in
    ( List.filter_map
        (function
          | Ast.Binop (Ast.Eq, Ast.Col a, Ast.Col b) -> Some (col_str a, col_str b)
          | _ -> None)
        keys,
      List.length residual )

let rec pp_rel ann ppf (indent, path, r) =
  let pad = String.make (indent * 2) ' ' in
  let line fmt = Fmt.pf ppf ("%s" ^^ fmt ^^ "%s@.") pad in
  let card = ann.ann_rel path r in
  match r with
  | Scan { table; alias } ->
    if table = alias then line "Scan %s" table card else line "Scan %s AS %s" table alias card
  | Derived { plan; alias } ->
    line "Derived AS %s" alias card;
    pp_plan ann ppf (indent + 1, Analyze.derived_path path, plan)
  | Filter { pred; input } ->
    line "Filter %s" (Flex_sql.Pretty.expr pred) card;
    pp_rel ann ppf (indent + 1, Analyze.input_path path, input)
  | Join { kind; cond; build_left; left; right } ->
    let keys, residual = join_keys cond in
    let build = if build_left then " build=left" else "" in
    (if kind = Ast.Cross || keys = [] then
       line "%s [nested loop]%s"
         (Ast.join_kind_name kind)
         (if residual > 0 then Fmt.str " +%d residual" residual else "")
         card
     else
       line "%s [hash on %s]%s"
         (Ast.join_kind_name kind)
         (String.concat ", " (List.map (fun (a, b) -> a ^ " = " ^ b) keys))
         ((if residual > 0 then Fmt.str " +%d residual" residual else "") ^ build)
         card);
    pp_rel ann ppf (indent + 1, Analyze.left_path path, left);
    pp_rel ann ppf (indent + 1, Analyze.right_path path, right)

and pp_select ann ppf (indent, path, sp) =
  let pad = String.make (indent * 2) ' ' in
  let line fmt = Fmt.pf ppf ("%s" ^^ fmt ^^ "%s@.") pad in
  let card = ann.ann_select path sp in
  let aggs =
    List.map
      (fun (f, distinct, arg) ->
        Fmt.str "%s(%s%s)"
          (String.uppercase_ascii (Ast.agg_func_name f))
          (if distinct then "DISTINCT " else "")
          (match arg with Ast.Star -> "*" | Ast.Arg e -> Flex_sql.Pretty.expr e))
      (Ast.select_aggregates
         {
           Ast.distinct = sp.distinct;
           projections = sp.projections;
           from = [];
           where = sp.where;
           group_by = sp.group_by;
           having = sp.having;
         })
  in
  let column_names =
    List.map
      (function
        | Ast.Proj_star -> "*"
        | Ast.Proj_table_star t -> t ^ ".*"
        | Ast.Proj_expr (e, Some a) -> Flex_sql.Pretty.expr e ^ " AS " ^ a
        | Ast.Proj_expr (e, None) -> Flex_sql.Pretty.expr e)
      sp.projections
  in
  let grouped = aggs <> [] || sp.group_by <> [] in
  let indent =
    if not grouped then begin
      line "Project%s [%s]"
        (if sp.distinct then " DISTINCT" else "")
        (String.concat ", " column_names)
        card;
      indent + 1
    end
    else begin
      let indent =
        if sp.distinct then begin
          line "Project DISTINCT [%s]" (String.concat ", " column_names) card;
          indent + 1
        end
        else indent
      in
      let pad = String.make (indent * 2) ' ' in
      Fmt.pf ppf "%sAggregate [%s]%s%s%s@." pad (String.concat ", " aggs)
        (if sp.group_by = [] then ""
         else " GROUP BY " ^ String.concat ", " (List.map Flex_sql.Pretty.expr sp.group_by))
        (if sp.having <> None then " HAVING" else "")
        (if sp.distinct then "" else card);
      indent + 1
    end
  in
  let filtered =
    match sp.where with
    | None -> indent
    | Some e ->
      let pad = String.make (indent * 2) ' ' in
      Fmt.pf ppf "%sFilter %s%s@." pad (Flex_sql.Pretty.expr e) (ann.ann_where path);
      indent + 1
  in
  match sp.source with
  | None ->
    let pad = String.make (filtered * 2) ' ' in
    Fmt.pf ppf "%sScan <empty>@." pad
  | Some r -> pp_rel ann ppf (filtered, Analyze.source_path path, r)

and pp_body ann ppf (indent, path, b) =
  let pad = String.make (indent * 2) ' ' in
  match b with
  | Plan_select sp -> pp_select ann ppf (indent, path, sp)
  | Plan_set { op; all; left; right } ->
    let name = match op with Union -> "UNION" | Except -> "EXCEPT" | Intersect -> "INTERSECT" in
    Fmt.pf ppf "%s%s%s%s@." pad name (if all then " ALL" else "") (ann.ann_set path);
    pp_body ann ppf (indent + 1, Analyze.left_path path, left);
    pp_body ann ppf (indent + 1, Analyze.right_path path, right)

and pp_plan ann ppf (indent, path, (p : t)) =
  let pad = String.make (indent * 2) ' ' in
  let line fmt = Fmt.pf ppf ("%s" ^^ fmt ^^ "@.") pad in
  List.iteri
    (fun i (name, _, cp) ->
      line "CTE %s:" name;
      pp_plan ann ppf (indent + 1, Analyze.cte_path path i, cp))
    p.ctes;
  let sliced = p.limit <> None || p.offset <> None in
  if sliced then
    line "Slice%s%s%s"
      (match p.limit with Some n -> Fmt.str " LIMIT %d" n | None -> "")
      (match p.offset with Some n -> Fmt.str " OFFSET %d" n | None -> "")
      (ann.ann_slice path);
  let indent = if sliced then indent + 1 else indent in
  let sorted = p.order_by <> [] in
  if sorted then begin
    let pad = String.make (indent * 2) ' ' in
    Fmt.pf ppf "%sSort [%s]%s@." pad
      (String.concat ", "
         (List.map
            (fun (e, dir) ->
              Flex_sql.Pretty.expr e
              ^ (match dir with Ast.Asc -> " ASC" | Ast.Desc -> " DESC"))
            p.order_by))
      (ann.ann_sort path)
  end;
  pp_body ann ppf ((if sorted then indent + 1 else indent), Analyze.body_path path, p.body)

let pp_annot ann ppf t = pp_plan ann ppf (0, Analyze.root_path, t)

let pp ppf t = pp_annot no_annot ppf t

let to_string t = Fmt.str "%a" pp t

let render ?(est = no_estimator) t = Fmt.str "%a" (pp_annot (annot_of_est est)) t

let render_analyzed ?(show_rows = true) ~trace t =
  Fmt.str "%a" (pp_annot (annot_of_trace ~show_rows trace)) t

let explain_sql sql =
  match Flex_sql.Parser.parse sql with
  | Ok q -> Ok (to_string (of_query q))
  | Error e -> Error e
