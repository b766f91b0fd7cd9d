module Ast = Flex_sql.Ast

(* Compile-once expression evaluation. An [Ast.expr] is translated into an
   OCaml closure [Value.t array -> Value.t] exactly once per relation: column
   references are resolved to integer offsets at compile time (correlated
   references against enclosing scopes resolve to the enclosing row's value,
   which is fixed for the duration of one relation evaluation, so they
   compile to constants). The per-row cost is then a plain closure call with
   no AST dispatch and no name resolution. *)

exception Error of string

let error fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

type header = { alias : string option; name : string }

let resolve_opt (headers : header array) (c : Ast.col_ref) =
  let col = String.lowercase_ascii c.column in
  let n = Array.length headers in
  match c.table with
  | Some t ->
    let t = String.lowercase_ascii t in
    let rec go i =
      if i >= n then None
      else
        match headers.(i).alias with
        | Some a when String.lowercase_ascii a = t && headers.(i).name = col -> Some i
        | _ -> go (i + 1)
    in
    go 0
  | None ->
    (* Unqualified: first match wins (real engines reject ambiguity; our
       generated workloads qualify anything genuinely ambiguous). *)
    let rec go i =
      if i >= n then None else if headers.(i).name = col then Some i else go (i + 1)
    in
    go 0

(* Projection expansion shared by the row pipeline and the columnar engine:
   [*] and [t.*] become explicit column references against [headers], and
   every projection gets its output name. *)
let expand_projections (headers : header array) (projections : Ast.projection list) =
  (* Returns (expr, output name) pairs. *)
  List.concat_map
    (fun p ->
      match p with
      | Ast.Proj_star ->
        Array.to_list
          (Array.map
             (fun (h : header) -> (Ast.Col { Ast.table = h.alias; column = h.name }, h.name))
             headers)
      | Ast.Proj_table_star t ->
        let t' = String.lowercase_ascii t in
        let matches =
          Array.to_list headers
          |> List.filter (fun (h : header) ->
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

type t = Value.t array -> Value.t

(* [subquery q] is staged: {!compile} applies it once per subquery node, at
   compile time, and the returned closure evaluates [q] for one enclosing
   row, pushed as the innermost scope, returning (column count, result
   rows). Provided by the executor, which plans [q] in the staging step; the
   evaluation itself cannot be precompiled, since a subquery's own relations
   are instantiated per enclosing row. *)
type subquery = Ast.query -> Value.t array -> int * Value.t array list

(* Aggregate slot registry: while compiling a grouped projection/HAVING, each
   distinct aggregate application (func, distinct, arg) is assigned a slot;
   the executor computes slot values once per group (lazily, so aggregates
   behind a failed HAVING are never forced) and publishes them through
   [current]. *)
type agg_slot = { func : Ast.agg_func; distinct : bool; star : bool; arg : t option }

type agg_slots = {
  mutable specs : (Ast.agg_func * bool * Ast.agg_arg) list; (* slot order *)
  mutable compiled : agg_slot list; (* slot order, aligned with specs *)
  mutable current : Value.t Lazy.t array;
}

let make_slots () = { specs = []; compiled = []; current = [||] }

let slots s = s.compiled

let specs s = s.specs

let set_group s values = s.current <- values

let rec index_of spec i = function
  | [] -> None
  | x :: rest -> if x = spec then Some i else index_of spec (i + 1) rest

let rec compile ~(subquery : subquery) ?agg ~(headers : header array)
    ~(outer : (header array * Value.t array) list) (e : Ast.expr) : t =
  let recur e = compile ~subquery ?agg ~headers ~outer e in
  match e with
  | Ast.Lit Ast.Null -> fun _ -> Value.Null
  | Ast.Lit (Ast.Bool b) ->
    let v = Value.Bool b in
    fun _ -> v
  | Ast.Lit (Ast.Int i) ->
    let v = Value.Int i in
    fun _ -> v
  | Ast.Lit (Ast.Float f) ->
    let v = Value.Float f in
    fun _ -> v
  | Ast.Lit (Ast.String s) ->
    let v = Value.String s in
    fun _ -> v
  | Ast.Col c -> (
    match resolve_opt headers c with
    | Some i -> fun row -> Array.unsafe_get row i
    | None ->
      (* free variable: resolve against the enclosing scopes (correlation);
         the enclosing row is fixed while this relation is evaluated, so the
         reference compiles to a constant *)
      let rec walk = function
        | [] ->
          error "unknown column %s"
            (match c.Ast.table with Some t -> t ^ "." ^ c.Ast.column | None -> c.Ast.column)
        | (hs, r) :: rest -> (
          match resolve_opt hs c with
          | Some i ->
            let v = r.(i) in
            fun _ -> v
          | None -> walk rest)
      in
      walk outer)
  | Ast.Binop (op, a, b) ->
    let ca = recur a and cb = recur b in
    fun row -> Eval.binop op (ca row) (cb row)
  | Ast.Unop (op, a) ->
    let ca = recur a in
    fun row -> Eval.unop op (ca row)
  | Ast.Agg { func; distinct; arg } -> (
    match agg with
    | None -> error "aggregate %s used outside a grouping context" (Ast.agg_func_name func)
    | Some slots ->
      let spec = (func, distinct, arg) in
      let i =
        match index_of spec 0 slots.specs with
        | Some i -> i
        | None ->
          let compiled_arg =
            match arg with
            | Ast.Star -> None
            | Ast.Arg e ->
              (* aggregate arguments are row-level: no nested aggregates *)
              Some (compile ~subquery ~headers ~outer e)
          in
          slots.specs <- slots.specs @ [ spec ];
          slots.compiled <-
            slots.compiled @ [ { func; distinct; star = arg = Ast.Star; arg = compiled_arg } ];
          List.length slots.specs - 1
      in
      fun _ -> Lazy.force slots.current.(i))
  | Ast.Func (name, args) ->
    let cs = List.map recur args in
    fun row -> Eval.func name (List.map (fun c -> c row) cs)
  | Ast.Case { operand; branches; else_ } ->
    let cop = Option.map recur operand in
    let cbr = List.map (fun (c, v) -> (recur c, recur v)) branches in
    let cel = Option.map recur else_ in
    fun row ->
      let matches (cc, _) =
        match cop with
        | None -> Eval.is_truthy (cc row)
        | Some co -> (
          match Value.sql_equal (co row) (cc row) with
          | Some true -> true
          | Some false | None -> false)
      in
      (match List.find_opt matches cbr with
      | Some (_, cv) -> cv row
      | None -> ( match cel with Some c -> c row | None -> Value.Null))
  | Ast.In { subject; negated; set } -> (
    let cs = recur subject in
    match set with
    | Ast.In_list es ->
      let cms = List.map recur es in
      fun row ->
        let v = cs row in
        if Value.is_null v then Value.Null
        else
          let members = List.map (fun c -> c row) cms in
          let found = List.exists (fun m -> Value.equal m v) members in
          Value.Bool (if negated then not found else found)
    | Ast.In_query q ->
      let sq = subquery q in
      fun row ->
        let v = cs row in
        if Value.is_null v then Value.Null
        else begin
          let ncols, rows = sq row in
          if ncols <> 1 then error "IN subquery must return exactly one column";
          let found = List.exists (fun r -> Value.equal r.(0) v) rows in
          Value.Bool (if negated then not found else found)
        end)
  | Ast.Between { subject; negated; lo; hi } ->
    let cs = recur subject and clo = recur lo and chi = recur hi in
    fun row ->
      let v = cs row and lo = clo row and hi = chi row in
      (match (Value.sql_compare v lo, Value.sql_compare v hi) with
      | Some c1, Some c2 ->
        let inside = c1 >= 0 && c2 <= 0 in
        Value.Bool (if negated then not inside else inside)
      | _ -> Value.Null)
  | Ast.Like { subject; negated; pattern } ->
    let cs = recur subject and cp = recur pattern in
    fun row ->
      (match Eval.like (cs row) (cp row) with
      | Value.Bool b -> Value.Bool (if negated then not b else b)
      | v -> v)
  | Ast.Is_null { subject; negated } ->
    let cs = recur subject in
    fun row ->
      let isnull = Value.is_null (cs row) in
      Value.Bool (if negated then not isnull else isnull)
  | Ast.Exists q ->
    let sq = subquery q in
    fun row ->
      let _, rows = sq row in
      Value.Bool (rows <> [])
  | Ast.Scalar_subquery q ->
    let sq = subquery q in
    fun row ->
      let ncols, rows = sq row in
      if ncols <> 1 then error "scalar subquery must return exactly one column";
      (match rows with
      | [] -> Value.Null
      | [ r ] -> r.(0)
      | _ -> error "scalar subquery returned more than one row")
  | Ast.Cast (a, ty) ->
    let ca = recur a in
    fun row -> Eval.cast (ca row) ty
