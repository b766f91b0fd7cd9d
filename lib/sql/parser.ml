(* Recursive-descent parser for the SQL subset described in Ast. *)

exception Error of { message : string; line : int; col : int }

(* [depth] counts the levels open above the token being parsed: nested
   expressions, subqueries, derived and parenthesised tables, and every link
   of a left-deep chain (arithmetic, joins, set operations). [peak] is the
   deepest level reached so far, from which a chain measures how tall each
   operand it has just parsed is. *)
type p = { toks : Token.spanned array; mutable i : int; mutable depth : int; mutable peak : int }

let max_depth = 256

let create toks = { toks; i = 0; depth = 0; peak = 0 }

let peek p = p.toks.(p.i).Token.tok

let peek_at p n =
  let j = p.i + n in
  if j < Array.length p.toks then p.toks.(j).Token.tok else Token.EOF

let here p =
  let s = p.toks.(p.i) in
  (s.Token.line, s.Token.col)

let fail p fmt =
  let line, col = here p in
  Fmt.kstr (fun message -> raise (Error { message; line; col })) fmt

let advance p = if p.i < Array.length p.toks - 1 then p.i <- p.i + 1

let eat p tok =
  if peek p = tok then begin
    advance p;
    true
  end
  else false

let eat_kw p kw = eat p (Token.KW kw)

let expect p tok =
  if not (eat p tok) then
    fail p "expected %s but found %s" (Token.to_string tok) (Token.to_string (peek p))

let expect_kw p kw = expect p (Token.KW kw)

let expect_ident p =
  match peek p with
  | Token.IDENT s | Token.QIDENT s ->
    advance p;
    s
  | t -> fail p "expected an identifier but found %s" (Token.to_string t)

(* A name usable as an alias: identifiers only (keywords are reserved). *)
let try_alias p ~allow_bare =
  if eat_kw p "AS" then Some (expect_ident p)
  else if allow_bare then
    match peek p with
    | Token.IDENT s | Token.QIDENT s ->
      advance p;
      Some s
    | _ -> None
  else None

(* Hostile nesting must cost time linear in its length and never exhaust
   the stack, and every later pass (factoring, canonicalisation, planning,
   printing) recurses over the tree, so a statement deeper than [max_depth]
   is refused the moment the parser opens its first level too many. *)
let too_deep p = fail p "statement nests deeper than %d levels" max_depth

let enter p =
  let d = p.depth + 1 in
  if d > max_depth then too_deep p;
  p.depth <- d;
  if d > p.peak then p.peak <- d

let leave p = p.depth <- p.depth - 1

(* [chain_start p f] parses the first operand of a left-deep chain and
   returns it with its height in levels. *)
let chain_start p f =
  let saved = p.peak in
  p.peak <- p.depth;
  let x = f p in
  let h = p.peak - p.depth in
  if saved > p.peak then p.peak <- saved;
  (x, h)

(* [chain_link p h f] parses the next operand of a chain whose height so far
   is [!h]. The link's node sits above both the chain built so far and the
   new operand, so a chain of [n] links is [n] levels tall however its
   operands nest; each link is checked as it is read. *)
let chain_link p h f =
  let x, hx = chain_start p f in
  h := 1 + max !h hx;
  let top = p.depth + !h in
  if top > max_depth then too_deep p;
  if top > p.peak then p.peak <- top;
  x

let is_query_start p =
  match peek p with Token.KW ("SELECT" | "WITH") -> true | _ -> false

(* --- expressions ------------------------------------------------------- *)

let rec parse_expr p =
  enter p;
  let e = parse_or p in
  leave p;
  e

(* AND and OR chains nest to the right, one level per link *)
and parse_or p =
  let lhs = parse_and p in
  if eat_kw p "OR" then begin
    enter p;
    let rhs = parse_or p in
    leave p;
    Ast.Binop (Ast.Or, lhs, rhs)
  end
  else lhs

and parse_and p =
  let lhs = parse_not p in
  if eat_kw p "AND" then begin
    enter p;
    let rhs = parse_and p in
    leave p;
    Ast.Binop (Ast.And, lhs, rhs)
  end
  else lhs

and parse_not p =
  if eat_kw p "NOT" then begin
    enter p;
    let e = parse_not p in
    leave p;
    Ast.Unop (Ast.Not, e)
  end
  else parse_comparison p

and parse_comparison p =
  let lhs = parse_additive p in
  let binop op =
    advance p;
    Ast.Binop (op, lhs, parse_additive p)
  in
  match peek p with
  | Token.EQ -> binop Ast.Eq
  | Token.NEQ -> binop Ast.Neq
  | Token.LT -> binop Ast.Lt
  | Token.LE -> binop Ast.Le
  | Token.GT -> binop Ast.Gt
  | Token.GE -> binop Ast.Ge
  | Token.KW "IS" ->
    advance p;
    let negated = eat_kw p "NOT" in
    expect_kw p "NULL";
    Ast.Is_null { subject = lhs; negated }
  | Token.KW "IN" ->
    advance p;
    parse_in p ~negated:false lhs
  | Token.KW "BETWEEN" ->
    advance p;
    parse_between p ~negated:false lhs
  | Token.KW "LIKE" ->
    advance p;
    Ast.Like { subject = lhs; negated = false; pattern = parse_additive p }
  | Token.KW "NOT" -> (
    advance p;
    match peek p with
    | Token.KW "IN" ->
      advance p;
      parse_in p ~negated:true lhs
    | Token.KW "BETWEEN" ->
      advance p;
      parse_between p ~negated:true lhs
    | Token.KW "LIKE" ->
      advance p;
      Ast.Like { subject = lhs; negated = true; pattern = parse_additive p }
    | t -> fail p "expected IN, BETWEEN or LIKE after NOT, found %s" (Token.to_string t))
  | _ -> lhs

and parse_in p ~negated subject =
  expect p Token.LPAREN;
  if is_query_start p then begin
    let q = parse_query p in
    expect p Token.RPAREN;
    Ast.In { subject; negated; set = Ast.In_query q }
  end
  else begin
    let rec items acc =
      let e = parse_expr p in
      if eat p Token.COMMA then items (e :: acc) else List.rev (e :: acc)
    in
    let es = items [] in
    expect p Token.RPAREN;
    Ast.In { subject; negated; set = Ast.In_list es }
  end

and parse_between p ~negated subject =
  let lo = parse_additive p in
  expect_kw p "AND";
  let hi = parse_additive p in
  Ast.Between { subject; negated; lo; hi }

and parse_additive p =
  let first, h = chain_start p parse_multiplicative in
  let h = ref h in
  let rec go lhs =
    match peek p with
    | Token.PLUS ->
      advance p;
      go (Ast.Binop (Ast.Add, lhs, chain_link p h parse_multiplicative))
    | Token.MINUS ->
      advance p;
      go (Ast.Binop (Ast.Sub, lhs, chain_link p h parse_multiplicative))
    | Token.CONCAT_OP ->
      advance p;
      go (Ast.Binop (Ast.Concat, lhs, chain_link p h parse_multiplicative))
    | _ -> lhs
  in
  go first

and parse_multiplicative p =
  let first, h = chain_start p parse_unary in
  let h = ref h in
  let rec go lhs =
    match peek p with
    | Token.STAR ->
      advance p;
      go (Ast.Binop (Ast.Mul, lhs, chain_link p h parse_unary))
    | Token.SLASH ->
      advance p;
      go (Ast.Binop (Ast.Div, lhs, chain_link p h parse_unary))
    | Token.PERCENT ->
      advance p;
      go (Ast.Binop (Ast.Mod, lhs, chain_link p h parse_unary))
    | _ -> lhs
  in
  go first

and parse_unary p =
  match peek p with
  | (Token.MINUS | Token.PLUS) as sign ->
    advance p;
    enter p;
    let e = parse_unary p in
    leave p;
    if sign = Token.MINUS then Ast.Unop (Ast.Neg, e) else e
  | _ -> parse_primary p

and parse_primary p =
  match peek p with
  | Token.INT_LIT i ->
    advance p;
    Ast.Lit (Ast.Int i)
  | Token.FLOAT_LIT f ->
    advance p;
    Ast.Lit (Ast.Float f)
  | Token.STRING_LIT s ->
    advance p;
    Ast.Lit (Ast.String s)
  | Token.KW "NULL" ->
    advance p;
    Ast.Lit Ast.Null
  | Token.KW "TRUE" ->
    advance p;
    Ast.Lit (Ast.Bool true)
  | Token.KW "FALSE" ->
    advance p;
    Ast.Lit (Ast.Bool false)
  | Token.KW "CASE" -> parse_case p
  | Token.KW "CAST" -> parse_cast p
  | Token.KW "EXISTS" ->
    advance p;
    expect p Token.LPAREN;
    let q = parse_query p in
    expect p Token.RPAREN;
    Ast.Exists q
  | Token.LPAREN ->
    advance p;
    if is_query_start p then begin
      let q = parse_query p in
      expect p Token.RPAREN;
      Ast.Scalar_subquery q
    end
    else begin
      let e = parse_expr p in
      expect p Token.RPAREN;
      e
    end
  | Token.IDENT _ | Token.QIDENT _ -> parse_name_expr p
  | t -> fail p "expected an expression but found %s" (Token.to_string t)

and parse_case p =
  expect_kw p "CASE";
  let operand = if peek p = Token.KW "WHEN" then None else Some (parse_expr p) in
  let rec branches acc =
    if eat_kw p "WHEN" then begin
      let c = parse_expr p in
      expect_kw p "THEN";
      let v = parse_expr p in
      branches ((c, v) :: acc)
    end
    else List.rev acc
  in
  let branches = branches [] in
  if branches = [] then fail p "CASE requires at least one WHEN branch";
  let else_ = if eat_kw p "ELSE" then Some (parse_expr p) else None in
  expect_kw p "END";
  Ast.Case { operand; branches; else_ }

and parse_cast p =
  expect_kw p "CAST";
  expect p Token.LPAREN;
  let e = parse_expr p in
  expect_kw p "AS";
  let ty = parse_type_name p in
  expect p Token.RPAREN;
  Ast.Cast (e, ty)

and parse_type_name p =
  let base = expect_ident p in
  if eat p Token.LPAREN then begin
    let rec args acc =
      match peek p with
      | Token.INT_LIT i ->
        advance p;
        if eat p Token.COMMA then args (string_of_int i :: acc)
        else List.rev (string_of_int i :: acc)
      | t -> fail p "expected an integer in type arguments, found %s" (Token.to_string t)
    in
    let args = args [] in
    expect p Token.RPAREN;
    Fmt.str "%s(%s)" base (String.concat "," args)
  end
  else base

and parse_name_expr p =
  let name = expect_ident p in
  match peek p with
  | Token.LPAREN -> parse_call p name
  | Token.DOT ->
    advance p;
    let column = expect_ident p in
    Ast.Col { table = Some name; column }
  | _ -> Ast.Col { table = None; column = name }

and parse_call p name =
  expect p Token.LPAREN;
  match Ast.agg_func_of_name name with
  | Some func ->
    let distinct = eat_kw p "DISTINCT" in
    if eat p Token.STAR then begin
      expect p Token.RPAREN;
      if distinct then fail p "COUNT(DISTINCT *) is not valid SQL";
      Ast.Agg { func; distinct = false; arg = Ast.Star }
    end
    else begin
      let e = parse_expr p in
      expect p Token.RPAREN;
      Ast.Agg { func; distinct; arg = Ast.Arg e }
    end
  | None ->
    if eat p Token.RPAREN then Ast.Func (name, [])
    else begin
      let rec args acc =
        let e = parse_expr p in
        if eat p Token.COMMA then args (e :: acc) else List.rev (e :: acc)
      in
      let args = args [] in
      expect p Token.RPAREN;
      Ast.Func (name, args)
    end

(* --- table references --------------------------------------------------- *)

and parse_table_ref p =
  let first, h = chain_start p parse_table_primary in
  let h = ref h in
  let rec joins lhs =
    match peek p with
    | Token.KW "CROSS" ->
      advance p;
      expect_kw p "JOIN";
      let rhs = chain_link p h parse_table_primary in
      joins (Ast.Join { kind = Ast.Cross; left = lhs; right = rhs; cond = Ast.Cond_none })
    | Token.KW "NATURAL" ->
      advance p;
      let kind = parse_join_kind p in
      expect_kw p "JOIN";
      let rhs = chain_link p h parse_table_primary in
      joins (Ast.Join { kind; left = lhs; right = rhs; cond = Ast.Natural })
    | Token.KW ("JOIN" | "INNER" | "LEFT" | "RIGHT" | "FULL") ->
      let kind = parse_join_kind p in
      expect_kw p "JOIN";
      (* the ON condition sits beside the right operand, one link down *)
      let rhs, cond =
        chain_link p h (fun p ->
            let rhs = parse_table_primary p in
            let cond =
              if eat_kw p "ON" then Ast.On (parse_expr p)
              else if eat_kw p "USING" then begin
                expect p Token.LPAREN;
                let rec cols acc =
                  let c = expect_ident p in
                  if eat p Token.COMMA then cols (c :: acc) else List.rev (c :: acc)
                in
                let cols = cols [] in
                expect p Token.RPAREN;
                Ast.Using cols
              end
              else Ast.Cond_none
            in
            (rhs, cond))
      in
      joins (Ast.Join { kind; left = lhs; right = rhs; cond })
    | _ -> lhs
  in
  joins first

and parse_join_kind p =
  match peek p with
  | Token.KW "INNER" ->
    advance p;
    Ast.Inner
  | Token.KW "LEFT" ->
    advance p;
    ignore (eat_kw p "OUTER");
    Ast.Left
  | Token.KW "RIGHT" ->
    advance p;
    ignore (eat_kw p "OUTER");
    Ast.Right
  | Token.KW "FULL" ->
    advance p;
    ignore (eat_kw p "OUTER");
    Ast.Full
  | _ -> Ast.Inner

and parse_table_primary p =
  match peek p with
  | Token.LPAREN ->
    advance p;
    if is_query_start p then begin
      let q = parse_query p in
      expect p Token.RPAREN;
      let alias =
        match try_alias p ~allow_bare:true with Some a -> a | None -> "_subquery"
      in
      Ast.Derived { query = q; alias }
    end
    else begin
      enter p;
      let r = parse_table_ref p in
      leave p;
      expect p Token.RPAREN;
      r
    end
  | Token.IDENT _ | Token.QIDENT _ ->
    let name = expect_ident p in
    let name =
      (* schema-qualified table names: schema.table *)
      if peek p = Token.DOT then begin
        advance p;
        name ^ "." ^ expect_ident p
      end
      else name
    in
    let alias = try_alias p ~allow_bare:true in
    Ast.Table { name; alias }
  | t -> fail p "expected a table reference but found %s" (Token.to_string t)

(* --- select cores and set operations ------------------------------------ *)

and parse_projection p =
  match peek p with
  | Token.STAR ->
    advance p;
    Ast.Proj_star
  | (Token.IDENT t | Token.QIDENT t)
    when peek_at p 1 = Token.DOT && peek_at p 2 = Token.STAR ->
    advance p;
    advance p;
    advance p;
    Ast.Proj_table_star t
  | _ ->
    let e = parse_expr p in
    let alias = try_alias p ~allow_bare:true in
    Ast.Proj_expr (e, alias)

and parse_select p =
  expect_kw p "SELECT";
  let distinct = if eat_kw p "DISTINCT" then true else (ignore (eat_kw p "ALL"); false) in
  let rec projs acc =
    let pr = parse_projection p in
    if eat p Token.COMMA then projs (pr :: acc) else List.rev (pr :: acc)
  in
  let projections = projs [] in
  let from =
    if eat_kw p "FROM" then begin
      let rec refs acc =
        let r = parse_table_ref p in
        if eat p Token.COMMA then refs (r :: acc) else List.rev (r :: acc)
      in
      refs []
    end
    else []
  in
  let where = if eat_kw p "WHERE" then Some (parse_expr p) else None in
  let group_by =
    if eat_kw p "GROUP" then begin
      expect_kw p "BY";
      let rec exprs acc =
        let e = parse_expr p in
        if eat p Token.COMMA then exprs (e :: acc) else List.rev (e :: acc)
      in
      exprs []
    end
    else []
  in
  let having = if eat_kw p "HAVING" then Some (parse_expr p) else None in
  { Ast.distinct; projections; from; where; group_by; having }

and parse_body_core p =
  if peek p = Token.LPAREN then begin
    advance p;
    enter p;
    let b = parse_body p in
    leave p;
    expect p Token.RPAREN;
    b
  end
  else Ast.Select (parse_select p)

and parse_intersect p =
  let first, h = chain_start p parse_body_core in
  let h = ref h in
  let rec go lhs =
    if eat_kw p "INTERSECT" then begin
      let all = eat_kw p "ALL" in
      ignore (eat_kw p "DISTINCT");
      let rhs = chain_link p h parse_body_core in
      go (Ast.Intersect { all; left = lhs; right = rhs })
    end
    else lhs
  in
  go first

and parse_body p =
  let first, h = chain_start p parse_intersect in
  let h = ref h in
  let rec go lhs =
    match peek p with
    | Token.KW "UNION" ->
      advance p;
      let all = eat_kw p "ALL" in
      ignore (eat_kw p "DISTINCT");
      let rhs = chain_link p h parse_intersect in
      go (Ast.Union { all; left = lhs; right = rhs })
    | Token.KW ("EXCEPT" | "MINUS") ->
      advance p;
      let all = eat_kw p "ALL" in
      let rhs = chain_link p h parse_intersect in
      go (Ast.Except { all; left = lhs; right = rhs })
    | _ -> lhs
  in
  go first

(* --- full queries -------------------------------------------------------- *)

and parse_cte p =
  let cte_name = expect_ident p in
  let cte_columns =
    if peek p = Token.LPAREN then begin
      advance p;
      let rec cols acc =
        let c = expect_ident p in
        if eat p Token.COMMA then cols (c :: acc) else List.rev (c :: acc)
      in
      let cols = cols [] in
      expect p Token.RPAREN;
      cols
    end
    else []
  in
  expect_kw p "AS";
  expect p Token.LPAREN;
  let cte_query = parse_query p in
  expect p Token.RPAREN;
  { Ast.cte_name; cte_columns; cte_query }

and parse_query p =
  enter p;
  let ctes =
    if eat_kw p "WITH" then begin
      let rec go acc =
        let c = parse_cte p in
        if eat p Token.COMMA then go (c :: acc) else List.rev (c :: acc)
      in
      go []
    end
    else []
  in
  let body = parse_body p in
  let order_by =
    if eat_kw p "ORDER" then begin
      expect_kw p "BY";
      let rec items acc =
        let e = parse_expr p in
        let dir =
          if eat_kw p "DESC" then Ast.Desc
          else begin
            ignore (eat_kw p "ASC");
            Ast.Asc
          end
        in
        if eat p Token.COMMA then items ((e, dir) :: acc) else List.rev ((e, dir) :: acc)
      in
      items []
    end
    else []
  in
  let expect_int () =
    match peek p with
    | Token.INT_LIT i ->
      advance p;
      i
    | t -> fail p "expected an integer but found %s" (Token.to_string t)
  in
  let limit = if eat_kw p "LIMIT" then Some (expect_int ()) else None in
  let offset = if eat_kw p "OFFSET" then Some (expect_int ()) else None in
  leave p;
  { Ast.ctes; body; order_by; limit; offset }

(* --- entry points -------------------------------------------------------- *)

let parse_exn src =
  let toks =
    try Lexer.tokenize src
    with Lexer.Error { message; line; col } -> raise (Error { message; line; col })
  in
  let p = create toks in
  let q = parse_query p in
  (* servers receive statements as typed: [SELECT ...;], [SELECT ...;;] —
     swallow any run of trailing semicolons (whitespace and comments are
     already invisible to the lexer) *)
  while eat p Token.SEMI do
    ()
  done;
  (match peek p with
  | Token.EOF -> ()
  | t -> fail p "unexpected trailing input: %s" (Token.to_string t));
  q

let parse_statement_exn src =
  let toks =
    try Lexer.tokenize src
    with Lexer.Error { message; line; col } -> raise (Error { message; line; col })
  in
  let p = create toks in
  let explain = eat_kw p "EXPLAIN" in
  (* ANALYZE is not a reserved word (it stays a valid column or table name),
     so after EXPLAIN it is matched as an identifier, case-insensitively —
     the same way Postgres treats it *)
  let analyze =
    explain
    &&
    match peek p with
    | Token.IDENT id when String.uppercase_ascii id = "ANALYZE" ->
      p.i <- p.i + 1;
      true
    | _ -> false
  in
  let q = parse_query p in
  while eat p Token.SEMI do
    ()
  done;
  (match peek p with
  | Token.EOF -> ()
  | t -> fail p "unexpected trailing input: %s" (Token.to_string t));
  if analyze then Ast.Explain_analyze q else if explain then Ast.Explain q else Ast.Query q

let parse_statement src =
  match parse_statement_exn src with
  | s -> Ok s
  | exception Error { message; line; col } ->
    Error (Fmt.str "parse error at line %d, column %d: %s" line col message)

let parse src =
  match parse_exn src with
  | q -> Ok q
  | exception Error { message; line; col } ->
    Error (Fmt.str "parse error at line %d, column %d: %s" line col message)

let parse_expr_exn src =
  let toks =
    try Lexer.tokenize src
    with Lexer.Error { message; line; col } -> raise (Error { message; line; col })
  in
  let p = create toks in
  let e = parse_expr p in
  (match peek p with
  | Token.EOF -> ()
  | t -> fail p "unexpected trailing input: %s" (Token.to_string t));
  e
