(* Render an AST back to SQL text. Binary expressions are fully parenthesised
   so the output reparses to a structurally identical AST (tested by the
   round-trip property). Every node is written into one buffer; the release
   store keys on this text, so its bytes must not change. *)

let needs_quoting name =
  name = ""
  || Token.is_keyword (String.uppercase_ascii name)
  || (not (Lexer.is_ident_start name.[0]))
  || String.exists (fun c -> not (Lexer.is_ident_char c)) name
  || name <> String.lowercase_ascii name

let add_ident buf name =
  if needs_quoting name then begin
    Buffer.add_char buf '"'; Buffer.add_string buf name; Buffer.add_char buf '"'
  end
  else Buffer.add_string buf name

let add_lit buf = function
  | Ast.Null -> Buffer.add_string buf "NULL"
  | Ast.Bool true -> Buffer.add_string buf "TRUE"
  | Ast.Bool false -> Buffer.add_string buf "FALSE"
  | Ast.Int i -> Buffer.add_string buf (string_of_int i)
  | Ast.Float f ->
    let s = Printf.sprintf "%.17g" f in
    Buffer.add_string buf s;
    if not (String.contains s '.' || String.contains s 'e' || String.contains s 'n') then
      Buffer.add_string buf ".0"
  | Ast.String s ->
    Buffer.add_char buf '\'';
    String.iter (fun c -> if c = '\'' then Buffer.add_string buf "''" else Buffer.add_char buf c) s;
    Buffer.add_char buf '\''

let binop_symbol = function
  | Ast.Add -> "+"
  | Ast.Sub -> "-"
  | Ast.Mul -> "*"
  | Ast.Div -> "/"
  | Ast.Mod -> "%"
  | Ast.Eq -> "="
  | Ast.Neq -> "<>"
  | Ast.Lt -> "<"
  | Ast.Le -> "<="
  | Ast.Gt -> ">"
  | Ast.Ge -> ">="
  | Ast.And -> "AND"
  | Ast.Or -> "OR"
  | Ast.Concat -> "||"

(* [x1 sep x2 sep ...] *)
let add_list buf sep add = function
  | [] -> ()
  | x :: rest ->
    add buf x;
    List.iter (fun x -> Buffer.add_string buf sep; add buf x) rest

let rec add_expr buf (e : Ast.expr) =
  let s = Buffer.add_string buf and sub = add_expr buf in
  let not_ negated = if negated then s "NOT " in
  match e with
  | Lit l -> add_lit buf l
  | Col { table; column } ->
    Option.iter (fun t -> add_ident buf t; s ".") table;
    add_ident buf column
  | Binop (op, a, b) -> s "("; sub a; s " "; s (binop_symbol op); s " "; sub b; s ")"
  | Unop (Not, a) -> s "(NOT "; sub a; s ")"
  | Unop (Neg, a) -> s "(- "; sub a; s ")"
  | Agg { func; distinct; arg } ->
    s (String.uppercase_ascii (Ast.agg_func_name func));
    s "(";
    (match arg with
    | Ast.Star -> s "*"
    | Ast.Arg a -> if distinct then s "DISTINCT "; sub a);
    s ")"
  | Func (name, args) -> add_ident buf name; s "("; add_list buf ", " add_expr args; s ")"
  | Case { operand; branches; else_ } ->
    s "CASE";
    Option.iter (fun o -> s " "; sub o) operand;
    List.iter (fun (c, v) -> s " WHEN "; sub c; s " THEN "; sub v) branches;
    Option.iter (fun e -> s " ELSE "; sub e) else_;
    s " END"
  | In { subject; negated; set } ->
    s "("; sub subject; s " "; not_ negated; s "IN (";
    (match set with
    | In_list es -> add_list buf ", " add_expr es
    | In_query q -> add_query buf q);
    s "))"
  | Between { subject; negated; lo; hi } ->
    s "("; sub subject; s " "; not_ negated; s "BETWEEN "; sub lo; s " AND "; sub hi; s ")"
  | Like { subject; negated; pattern } ->
    s "("; sub subject; s " "; not_ negated; s "LIKE "; sub pattern; s ")"
  | Is_null { subject; negated } -> s "("; sub subject; s " IS "; not_ negated; s "NULL)"
  | Exists q -> s "EXISTS ("; add_query buf q; s ")"
  | Scalar_subquery q -> s "("; add_query buf q; s ")"
  | Cast (a, ty) -> s "CAST("; sub a; s " AS "; s ty; s ")"

and add_projection buf = function
  | Ast.Proj_star -> Buffer.add_char buf '*'
  | Ast.Proj_table_star t -> add_ident buf t; Buffer.add_string buf ".*"
  | Ast.Proj_expr (e, alias) ->
    add_expr buf e;
    Option.iter (fun a -> Buffer.add_string buf " AS "; add_ident buf a) alias

and add_table_ref buf (r : Ast.table_ref) =
  let s = Buffer.add_string buf in
  match r with
  | Table { name; alias } ->
    (* schema-qualified names are stored with an embedded dot *)
    add_list buf "." add_ident (String.split_on_char '.' name);
    Option.iter (fun a -> s " AS "; add_ident buf a) alias
  | Derived { query = q; alias } -> s "("; add_query buf q; s ") AS "; add_ident buf alias
  | Join { kind; left; right; cond } -> (
    add_table_ref buf left;
    s (match cond with Natural -> " NATURAL " | On _ | Using _ | Cond_none -> " ");
    s (Ast.join_kind_name kind);
    s " ";
    (match right with
    | Join _ -> s "("; add_table_ref buf right; s ")"
    | Table _ | Derived _ -> add_table_ref buf right);
    match cond with
    | On e -> s " ON "; add_expr buf e
    | Using cols -> s " USING ("; add_list buf ", " add_ident cols; s ")"
    | Natural | Cond_none -> ())

and add_select buf (sel : Ast.select) =
  let s = Buffer.add_string buf in
  s "SELECT ";
  if sel.distinct then s "DISTINCT ";
  add_list buf ", " add_projection sel.projections;
  if sel.from <> [] then begin s " FROM "; add_list buf ", " add_table_ref sel.from end;
  Option.iter (fun e -> s " WHERE "; add_expr buf e) sel.where;
  if sel.group_by <> [] then begin s " GROUP BY "; add_list buf ", " add_expr sel.group_by end;
  Option.iter (fun e -> s " HAVING "; add_expr buf e) sel.having

and add_body buf (b : Ast.body) =
  let set_op name all left right =
    add_set_operand buf left;
    Buffer.add_string buf name;
    if all then Buffer.add_string buf "ALL ";
    add_set_operand buf right
  in
  match b with
  | Select sel -> add_select buf sel
  | Union { all; left; right } -> set_op " UNION " all left right
  | Except { all; left; right } -> set_op " EXCEPT " all left right
  | Intersect { all; left; right } -> set_op " INTERSECT " all left right

and add_set_operand buf (b : Ast.body) =
  match b with
  | Select sel -> add_select buf sel
  | _ -> Buffer.add_char buf '('; add_body buf b; Buffer.add_char buf ')'

and add_query buf (q : Ast.query) =
  let s = Buffer.add_string buf in
  let add_cte buf (c : Ast.cte) =
    add_ident buf c.cte_name;
    if c.cte_columns <> [] then begin s " ("; add_list buf ", " add_ident c.cte_columns; s ")" end;
    s " AS (";
    add_query buf c.cte_query;
    s ")"
  in
  let add_order buf (e, dir) =
    add_expr buf e;
    s (match dir with Ast.Asc -> " ASC" | Ast.Desc -> " DESC")
  in
  if q.ctes <> [] then begin s "WITH "; add_list buf ", " add_cte q.ctes; s " " end;
  add_body buf q.body;
  if q.order_by <> [] then begin s " ORDER BY "; add_list buf ", " add_order q.order_by end;
  Option.iter (fun n -> s " LIMIT "; s (string_of_int n)) q.limit;
  Option.iter (fun n -> s " OFFSET "; s (string_of_int n)) q.offset

let render add x =
  let buf = Buffer.create 128 in
  add buf x;
  Buffer.contents buf

let ident = render add_ident
let expr = render add_expr
let projection = render add_projection
let table_ref = render add_table_ref
let select = render add_select
let body = render add_body
let query = render add_query
let to_string = query
