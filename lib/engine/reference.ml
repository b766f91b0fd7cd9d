module Ast = Flex_sql.Ast

(* The original row-at-a-time tree-walking interpreter, preserved verbatim as
   a differential-testing oracle for the compiled/vectorized {!Executor}.
   Every query shape the engine supports must produce identical result sets
   (values AND row order) through both pipelines; test_engine asserts this
   over generated workloads. Keep this module simple and obviously correct —
   it is deliberately not optimised.

   Two seed bugs are fixed here as well as in Executor so the pipelines
   agree: the nested-loop arm dropped every row for a Cross join carrying
   equality keys, and LIMIT used a non-tail-recursive [take]. *)

exception Error of string

let error fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

type header = Compiled.header = { alias : string option; name : string }

type rel = { headers : header array; rows : Value.t array list }

type result_set = { columns : string list; rows : Value.t array list }

let to_result (r : rel) =
  { columns = Array.to_list (Array.map (fun h -> h.name) r.headers); rows = r.rows }

let resolve_opt = Compiled.resolve_opt

(* --- evaluation environment ---------------------------------------------- *)

type env = {
  db : Database.t;
  ctes : (string * rel) list;
  (* enclosing query scopes, innermost first: correlated subqueries resolve
     free column references against these *)
  outer : (header array * Value.t array) list;
}

(* Aggregate lookup: present only while projecting a grouped relation. *)
type agg_ctx = {
  group_rows : Value.t array list;
  group_size : int;
  memo : (Ast.agg_func * bool * Ast.agg_arg, Value.t) Hashtbl.t;
}

let rec eval_expr env headers (agg : agg_ctx option) (row : Value.t array) (e : Ast.expr)
    : Value.t =
  let recur e = eval_expr env headers agg row e in
  (* a correlated subquery sees the enclosing rows through env.outer *)
  let subquery_env = { env with outer = (headers, row) :: env.outer } in
  match e with
  | Ast.Lit Ast.Null -> Value.Null
  | Ast.Lit (Ast.Bool b) -> Value.Bool b
  | Ast.Lit (Ast.Int i) -> Value.Int i
  | Ast.Lit (Ast.Float f) -> Value.Float f
  | Ast.Lit (Ast.String s) -> Value.String s
  | Ast.Col c -> (
    match resolve_opt headers c with
    | Some i -> row.(i)
    | None ->
      (* free variable: walk the enclosing scopes (correlation) *)
      let rec walk = function
        | [] ->
          error "unknown column %s"
            (match c.Ast.table with Some t -> t ^ "." ^ c.Ast.column | None -> c.Ast.column)
        | (hs, r) :: rest -> (
          match resolve_opt hs c with Some i -> r.(i) | None -> walk rest)
      in
      walk env.outer)
  | Ast.Binop (op, a, b) -> Eval.binop op (recur a) (recur b)
  | Ast.Unop (op, a) -> Eval.unop op (recur a)
  | Ast.Agg { func; distinct; arg } -> (
    match agg with
    | None -> error "aggregate %s used outside a grouping context" (Ast.agg_func_name func)
    | Some ctx -> eval_aggregate env headers ctx (func, distinct, arg))
  | Ast.Func (name, args) -> Eval.func name (List.map recur args)
  | Ast.Case { operand; branches; else_ } -> (
    let matches (cond, _) =
      match operand with
      | None -> Eval.is_truthy (recur cond)
      | Some op -> (
        match Value.sql_equal (recur op) (recur cond) with
        | Some true -> true
        | Some false | None -> false)
    in
    match List.find_opt matches branches with
    | Some (_, v) -> recur v
    | None -> ( match else_ with Some e -> recur e | None -> Value.Null))
  | Ast.In { subject; negated; set } -> (
    let v = recur subject in
    if Value.is_null v then Value.Null
    else
      let members =
        match set with
        | Ast.In_list es -> List.map recur es
        | Ast.In_query q ->
          let r = eval_query subquery_env q in
          if Array.length r.headers <> 1 then
            error "IN subquery must return exactly one column";
          List.map (fun row -> row.(0)) r.rows
      in
      let found = List.exists (fun m -> Value.equal m v) members in
      Value.Bool (if negated then not found else found))
  | Ast.Between { subject; negated; lo; hi } -> (
    let v = recur subject and lo = recur lo and hi = recur hi in
    match (Value.sql_compare v lo, Value.sql_compare v hi) with
    | Some c1, Some c2 ->
      let inside = c1 >= 0 && c2 <= 0 in
      Value.Bool (if negated then not inside else inside)
    | _ -> Value.Null)
  | Ast.Like { subject; negated; pattern } -> (
    match Eval.like (recur subject) (recur pattern) with
    | Value.Bool b -> Value.Bool (if negated then not b else b)
    | v -> v)
  | Ast.Is_null { subject; negated } ->
    let isnull = Value.is_null (recur subject) in
    Value.Bool (if negated then not isnull else isnull)
  | Ast.Exists q ->
    let r = eval_query subquery_env q in
    Value.Bool (r.rows <> [])
  | Ast.Scalar_subquery q -> (
    let r = eval_query subquery_env q in
    if Array.length r.headers <> 1 then
      error "scalar subquery must return exactly one column";
    match r.rows with
    | [] -> Value.Null
    | [ row ] -> row.(0)
    | _ -> error "scalar subquery returned more than one row")
  | Ast.Cast (a, ty) -> Eval.cast (recur a) ty

and eval_aggregate env headers ctx (func, distinct, arg) =
  let key = (func, distinct, arg) in
  match Hashtbl.find_opt ctx.memo key with
  | Some v -> v
  | None ->
    let star = arg = Ast.Star in
    let values =
      match arg with
      | Ast.Star -> []
      | Ast.Arg e ->
        List.map (fun row -> eval_expr env headers None row e) ctx.group_rows
    in
    let v = Aggregate.compute func ~distinct ~star ~nrows:ctx.group_size values in
    Hashtbl.replace ctx.memo key v;
    v

(* --- table references ----------------------------------------------------- *)

and rel_of_table ~alias (t : Table.t) =
  let qualifier = match alias with Some a -> Some a | None -> Some (Table.name t) in
  {
    headers = Array.map (fun name -> { alias = qualifier; name }) (Table.columns t);
    rows = Array.to_list (Table.rows t);
  }

and requalify alias (r : rel) =
  { r with headers = Array.map (fun h -> { h with alias = Some alias }) r.headers }

and eval_table_ref env (tr : Ast.table_ref) : rel =
  match tr with
  | Ast.Table { name; alias } -> (
    match List.assoc_opt (String.lowercase_ascii name) env.ctes with
    | Some r -> requalify (Option.value alias ~default:name) r
    | None -> (
      match Database.find_opt env.db name with
      | Some t -> rel_of_table ~alias t
      | None -> error "unknown table %s" name))
  | Ast.Derived { query; alias } -> requalify alias (eval_query env query)
  | Ast.Join { kind; left; right; cond } ->
    let l = eval_table_ref env left in
    let r = eval_table_ref env right in
    join env kind l r cond

(* Equality key pairs (left index, right index) extracted from an ON
   condition; remaining conjuncts are evaluated on the combined row. *)
and split_join_condition lheaders rheaders (e : Ast.expr) =
  let conjuncts = Ast.conjuncts e in
  let try_pair = function
    | Ast.Binop (Ast.Eq, Ast.Col a, Ast.Col b) -> (
      match (resolve_opt lheaders a, resolve_opt rheaders b) with
      | Some li, Some ri -> Some (li, ri)
      | _ -> (
        match (resolve_opt lheaders b, resolve_opt rheaders a) with
        | Some li, Some ri -> Some (li, ri)
        | _ -> None))
    | _ -> None
  in
  List.fold_left
    (fun (keys, rest) c ->
      match try_pair c with
      | Some pair -> (pair :: keys, rest)
      | None -> (keys, c :: rest))
    ([], []) conjuncts

and join env kind (l : rel) (r : rel) (cond : Ast.join_cond) : rel =
  let headers = Array.append l.headers r.headers in
  let common_columns () =
    let rnames = Array.to_list (Array.map (fun h -> h.name) r.headers) in
    Array.to_list (Array.map (fun h -> h.name) l.headers)
    |> List.filter (fun n -> List.mem n rnames)
    |> List.sort_uniq compare
  in
  let keys, residual =
    match cond with
    | Ast.Cond_none -> ([], [])
    | Ast.On e -> split_join_condition l.headers r.headers e
    | Ast.Using _ | Ast.Natural ->
      let cols =
        match cond with Ast.Using cols -> cols | _ -> common_columns ()
      in
      let pairs =
        List.map
          (fun c ->
            let cr = { Ast.table = None; column = c } in
            match (resolve_opt l.headers cr, resolve_opt r.headers cr) with
            | Some li, Some ri -> (li, ri)
            | _ -> error "USING column %s not present on both sides" c)
          cols
      in
      (pairs, [])
  in
  let residual_ok combined =
    List.for_all
      (fun e -> Eval.is_truthy (eval_expr env headers None combined e))
      residual
  in
  let null_row n = Array.make n Value.Null in
  let rarr = Array.of_list r.rows in
  let rmatched = Array.make (Array.length rarr) false in
  let out = ref [] in
  let emit row = out := row :: !out in
  (match (kind, keys) with
  | Ast.Cross, _ | _, [] ->
    (* Nested loop; used for cross joins and non-equality conditions. A Cross
       join can still carry equality keys (e.g. an AST built directly); they
       must then hold as ordinary SQL equalities, not drop every row. *)
    let keys_ok lrow rrow =
      List.for_all
        (fun (li, ri) ->
          match Value.sql_equal lrow.(li) rrow.(ri) with
          | Some true -> true
          | Some false | None -> false)
        keys
    in
    let lmatched_any lrow =
      let any = ref false in
      Array.iteri
        (fun ri rrow ->
          let combined = Array.append lrow rrow in
          let ok =
            match cond with
            | Ast.Cond_none -> true
            | _ -> residual_ok combined && keys_ok lrow rrow
          in
          if ok then begin
            any := true;
            rmatched.(ri) <- true;
            emit combined
          end)
        rarr;
      !any
    in
    List.iter
      (fun lrow ->
        let matched = lmatched_any lrow in
        if (not matched) && (kind = Ast.Left || kind = Ast.Full) then
          emit (Array.append lrow (null_row (Array.length r.headers))))
      l.rows
  | _, keys ->
    (* Hash join on the equality keys, under SQL [=] (an Int meets an equal
       Float). *)
    let tbl = Row_table.create (max 16 (Array.length rarr)) in
    Array.iteri
      (fun ri rrow ->
        let key = Array.of_list (List.map (fun (_, rk) -> rrow.(rk)) keys) in
        if not (Array.exists Value.is_null key) then
          Row_table.add tbl key ri)
      rarr;
    List.iter
      (fun lrow ->
        let key = Array.of_list (List.map (fun (lk, _) -> lrow.(lk)) keys) in
        let candidates =
          if Array.exists Value.is_null key then [] else Row_table.find_all tbl key
        in
        let matched = ref false in
        (* find_all returns newest-first; reverse for stable output order *)
        List.iter
          (fun ri ->
            let combined = Array.append lrow rarr.(ri) in
            if residual_ok combined then begin
              matched := true;
              rmatched.(ri) <- true;
              emit combined
            end)
          (List.rev candidates);
        if (not !matched) && (kind = Ast.Left || kind = Ast.Full) then
          emit (Array.append lrow (null_row (Array.length r.headers))))
      l.rows);
  if kind = Ast.Right || kind = Ast.Full then
    Array.iteri
      (fun ri rrow ->
        if not rmatched.(ri) then
          emit (Array.append (null_row (Array.length l.headers)) rrow))
      rarr;
  { headers; rows = List.rev !out }

(* --- select evaluation ----------------------------------------------------- *)

and cross_all env = function
  | [] -> { headers = [||]; rows = [ [||] ] } (* FROM-less SELECT: one empty row *)
  | [ tr ] -> eval_table_ref env tr
  | tr :: rest ->
    List.fold_left
      (fun acc tr -> join env Ast.Cross acc (eval_table_ref env tr) Ast.Cond_none)
      (eval_table_ref env tr) rest

and expand_projections headers (projections : Ast.projection list) =
  (* Returns (expr, output name) pairs. *)
  List.concat_map
    (fun p ->
      match p with
      | Ast.Proj_star ->
        Array.to_list
          (Array.map
             (fun (h : header) ->
               (Ast.Col { Ast.table = h.alias; column = h.name }, h.name))
             headers)
      | Ast.Proj_table_star t ->
        let t' = String.lowercase_ascii t in
        let matches =
          Array.to_list headers
          |> List.filter (fun h ->
               match h.alias with
               | Some a -> String.lowercase_ascii a = t'
               | None -> false)
        in
        if matches = [] then error "unknown relation %s in %s.*" t t;
        List.map
          (fun (h : header) -> (Ast.Col { Ast.table = h.alias; column = h.name }, h.name))
          matches
      | Ast.Proj_expr (e, alias) ->
        let name =
          match alias with
          | Some a -> String.lowercase_ascii a
          | None -> (
            match e with
            | Ast.Col c -> String.lowercase_ascii c.column
            | Ast.Agg { func; _ } -> Ast.agg_func_name func
            | _ -> "expr")
        in
        [ (e, name) ])
    projections

and has_aggregate e =
  Ast.fold_expr (fun acc e -> acc || match e with Ast.Agg _ -> true | _ -> false) false e

and eval_select env (s : Ast.select) : rel =
  let source = cross_all env s.from in
  let filtered =
    match s.where with
    | None -> source.rows
    | Some pred ->
      List.filter
        (fun row -> Eval.is_truthy (eval_expr env source.headers None row pred))
        source.rows
  in
  let projections = expand_projections source.headers s.projections in
  let any_agg =
    List.exists (fun (e, _) -> has_aggregate e) projections
    || (match s.having with Some h -> has_aggregate h | None -> false)
  in
  let out_headers =
    Array.of_list (List.map (fun (_, name) -> { alias = None; name }) projections)
  in
  let rows =
    if s.group_by = [] && not any_agg then
      (* plain projection *)
      List.map
        (fun row ->
          Array.of_list
            (List.map (fun (e, _) -> eval_expr env source.headers None row e) projections))
        filtered
    else begin
      (* grouped path; an aggregate query without GROUP BY is a single group *)
      let groups : Value.t array list ref Row_table.t = Row_table.create 64 in
      let order = ref [] in
      let key_of row =
        Array.of_list
          (List.map (fun e -> eval_expr env source.headers None row e) s.group_by)
      in
      List.iter
        (fun row ->
          let key = key_of row in
          match Row_table.find_opt groups key with
          | Some cell -> cell := row :: !cell
          | None ->
            Row_table.add groups key (ref [ row ]);
            order := key :: !order)
        filtered;
      let keys_in_order = List.rev !order in
      let keys_in_order =
        (* no GROUP BY: one group over all rows, even when empty *)
        if s.group_by = [] then begin
          if keys_in_order = [] then begin
            Row_table.add groups [||] (ref []);
            [ [||] ]
          end
          else keys_in_order
        end
        else keys_in_order
      in
      List.filter_map
        (fun key ->
          let rows_rev = !(Row_table.find groups key) in
          let group_rows = List.rev rows_rev in
          let representative =
            match group_rows with
            | row :: _ -> row
            | [] -> Array.make (Array.length source.headers) Value.Null
          in
          let ctx =
            {
              group_rows;
              group_size = List.length group_rows;
              memo = Hashtbl.create 8;
            }
          in
          let keep =
            match s.having with
            | None -> true
            | Some h ->
              Eval.is_truthy
                (eval_expr env source.headers (Some ctx) representative h)
          in
          if not keep then None
          else
            Some
              (Array.of_list
                 (List.map
                    (fun (e, _) ->
                      eval_expr env source.headers (Some ctx) representative e)
                    projections)))
        keys_in_order
    end
  in
  { headers = out_headers; rows = (if s.distinct then dedupe rows else rows) }

(* --- set operations --------------------------------------------------------- *)

and check_arity op (l : rel) (r : rel) =
  if Array.length l.headers <> Array.length r.headers then
    error "%s operands have different column counts" op

(* Rows are keyed by [Row_table], the engines' SQL equality ([1] = [1.0]):
   first occurrences for DISTINCT/UNION, a multiset for EXCEPT/INTERSECT. *)
and dedupe rows =
  let seen = Row_table.create 64 in
  List.filter
    (fun row ->
      if Row_table.mem seen row then false
      else begin
        Row_table.replace seen row ();
        true
      end)
    rows

and counts rows =
  let tbl = Row_table.create 64 in
  List.iter
    (fun row ->
      match Row_table.find_opt tbl row with
      | Some c -> incr c
      | None -> Row_table.replace tbl row (ref 1))
    rows;
  tbl

(* Consume one copy of [row] from a multiset, if one is left. *)
and take counts row =
  match Row_table.find_opt counts row with
  | Some c when !c > 0 ->
    decr c;
    true
  | _ -> false

and eval_body env (b : Ast.body) : rel =
  match b with
  | Ast.Select s -> eval_select env s
  | Ast.Union { all; left; right } ->
    let l = eval_body env left and r = eval_body env right in
    check_arity "UNION" l r;
    let rows = l.rows @ r.rows in
    { headers = l.headers; rows = (if all then rows else dedupe rows) }
  | Ast.Except { all; left; right } ->
    let l = eval_body env left and r = eval_body env right in
    check_arity "EXCEPT" l r;
    let right = counts r.rows in
    let rows =
      if all then List.filter (fun row -> not (take right row)) l.rows
      else dedupe l.rows |> List.filter (fun row -> not (Row_table.mem right row))
    in
    { headers = l.headers; rows }
  | Ast.Intersect { all; left; right } ->
    let l = eval_body env left and r = eval_body env right in
    check_arity "INTERSECT" l r;
    let right = counts r.rows in
    let rows =
      if all then List.filter (take right) l.rows
      else dedupe l.rows |> List.filter (Row_table.mem right)
    in
    { headers = l.headers; rows }

(* --- full queries ------------------------------------------------------------ *)

and eval_query env (q : Ast.query) : rel =
  let env =
    List.fold_left
      (fun env (cte : Ast.cte) ->
        let r = eval_query env cte.cte_query in
        let r =
          if cte.cte_columns = [] then r
          else begin
            if List.length cte.cte_columns <> Array.length r.headers then
              error "CTE %s column list arity mismatch" cte.cte_name;
            {
              r with
              headers =
                Array.of_list
                  (List.map
                     (fun n -> { alias = None; name = String.lowercase_ascii n })
                     cte.cte_columns);
            }
          end
        in
        { env with ctes = (String.lowercase_ascii cte.cte_name, r) :: env.ctes })
      env q.ctes
  in
  (* ORDER BY may reference source columns that are not projected (standard
     SQL). When an order key does not resolve against the output relation,
     re-evaluate the select with the key appended as a hidden projection,
     sort, and strip the extra columns. Not available under DISTINCT, where
     SQL itself requires order keys to be projected. *)
  let r = eval_body env q.body in
  let order_key_visible (r : rel) (e : Ast.expr) =
    (not (has_aggregate e))
    && List.for_all
         (fun c -> resolve_opt r.headers c <> None)
         (Ast.expr_columns e)
  in
  let visible = Array.length r.headers in
  let r, order_by =
    if q.order_by = [] || List.for_all (fun (e, _) -> order_key_visible r e) q.order_by
    then (r, q.order_by)
    else
      match q.body with
      | Ast.Select s when not s.distinct ->
        let hidden = ref [] in
        let order_by =
          List.mapi
            (fun i (e, dir) ->
              if order_key_visible r e then (e, dir)
              else begin
                let name = Fmt.str "_ord%d" i in
                hidden := Ast.Proj_expr (e, Some name) :: !hidden;
                (Ast.Col { Ast.table = None; column = name }, dir)
              end)
            q.order_by
        in
        let extended =
          eval_select env { s with projections = s.projections @ List.rev !hidden }
        in
        (extended, order_by)
      | _ -> (r, q.order_by)
  in
  let r =
    if order_by = [] then r
    else begin
      let key_of row =
        List.map
          (fun (e, dir) ->
            let v =
              match e with
              | Ast.Lit (Ast.Int pos) when pos >= 1 && pos <= visible -> row.(pos - 1)
              | e -> eval_expr env r.headers None row e
            in
            (v, dir))
          order_by
      in
      let cmp ka kb =
        let rec go = function
          | [] -> 0
          | ((va, dir), (vb, _)) :: rest ->
            let c = Value.compare va vb in
            let c = match dir with Ast.Asc -> c | Ast.Desc -> -c in
            if c <> 0 then c else go rest
        in
        go (List.combine ka kb)
      in
      let decorated = List.map (fun row -> (key_of row, row)) r.rows in
      let sorted = List.stable_sort (fun (ka, _) (kb, _) -> cmp ka kb) decorated in
      { r with rows = List.map snd sorted }
    end
  in
  (* strip hidden order columns *)
  let r =
    if Array.length r.headers = visible then r
    else
      {
        headers = Array.sub r.headers 0 visible;
        rows = List.map (fun row -> Array.sub row 0 visible) r.rows;
      }
  in
  let drop n rows =
    let rec go n rows = if n <= 0 then rows else match rows with [] -> [] | _ :: r -> go (n - 1) r in
    go n rows
  in
  (* tail-recursive LIMIT: the seed's [take] overflowed the stack on large
     limits *)
  let take n rows =
    let rec go n acc rows =
      if n <= 0 then List.rev acc
      else match rows with [] -> List.rev acc | x :: r -> go (n - 1) (x :: acc) r
    in
    go n [] rows
  in
  let rows = match q.offset with Some n -> drop n r.rows | None -> r.rows in
  let rows = match q.limit with Some n -> take n rows | None -> rows in
  { r with rows }

(* --- public API ----------------------------------------------------------------- *)

let run db (q : Ast.query) : result_set =
  to_result (eval_query { db; ctes = []; outer = [] } q)

let run_sql db sql : (result_set, string) result =
  match Flex_sql.Parser.parse sql with
  | Stdlib.Error e -> Stdlib.Error e
  | Stdlib.Ok q -> (
    match run db q with
    | r -> Stdlib.Ok r
    | exception Error msg -> Stdlib.Error ("execution error: " ^ msg)
    | exception Compiled.Error msg -> Stdlib.Error ("execution error: " ^ msg)
    | exception Eval.Error msg -> Stdlib.Error ("evaluation error: " ^ msg)
    | exception Aggregate.Error msg -> Stdlib.Error ("aggregation error: " ^ msg))
