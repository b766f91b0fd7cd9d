module Ast = Flex_sql.Ast
module Lexer = Flex_sql.Lexer
module Token = Flex_sql.Token
module Parser = Flex_sql.Parser
module Pretty = Flex_sql.Pretty
module Features = Flex_sql.Features

let parse_ok sql =
  match Parser.parse sql with
  | Ok q -> q
  | Error e -> Alcotest.failf "parse failed for %s: %s" sql e

let parse_err sql =
  match Parser.parse sql with
  | Ok _ -> Alcotest.failf "expected parse failure for %s" sql
  | Error _ -> ()

(* --- lexer ------------------------------------------------------------------ *)

let tokens sql = Array.to_list (Lexer.tokenize sql) |> List.map (fun s -> s.Token.tok)

let lexer_tests =
  [
    Alcotest.test_case "keywords are case-insensitive" `Quick (fun () ->
        match tokens "select SeLeCt SELECT" with
        | [ Token.KW "SELECT"; Token.KW "SELECT"; Token.KW "SELECT"; Token.EOF ] -> ()
        | _ -> Alcotest.fail "unexpected tokens");
    Alcotest.test_case "identifiers are lowercased" `Quick (fun () ->
        match tokens "TripCount" with
        | [ Token.IDENT "tripcount"; Token.EOF ] -> ()
        | _ -> Alcotest.fail "unexpected tokens");
    Alcotest.test_case "quoted identifiers keep case" `Quick (fun () ->
        match tokens "\"TripCount\" `Other`" with
        | [ Token.QIDENT "TripCount"; Token.QIDENT "Other"; Token.EOF ] -> ()
        | _ -> Alcotest.fail "unexpected tokens");
    Alcotest.test_case "string escapes" `Quick (fun () ->
        match tokens "'it''s'" with
        | [ Token.STRING_LIT "it's"; Token.EOF ] -> ()
        | _ -> Alcotest.fail "unexpected tokens");
    Alcotest.test_case "numbers" `Quick (fun () ->
        match tokens "42 3.5 1e3 2.5e-2" with
        | [ Token.INT_LIT 42; Token.FLOAT_LIT a; Token.FLOAT_LIT b; Token.FLOAT_LIT c; Token.EOF ]
          ->
          Alcotest.(check (float 1e-9)) "3.5" 3.5 a;
          Alcotest.(check (float 1e-9)) "1e3" 1000.0 b;
          Alcotest.(check (float 1e-9)) "2.5e-2" 0.025 c
        | _ -> Alcotest.fail "unexpected tokens");
    Alcotest.test_case "comments are skipped" `Quick (fun () ->
        match tokens "SELECT -- comment\n /* block\ncomment */ 1" with
        | [ Token.KW "SELECT"; Token.INT_LIT 1; Token.EOF ] -> ()
        | _ -> Alcotest.fail "unexpected tokens");
    Alcotest.test_case "operators" `Quick (fun () ->
        match tokens "<= >= <> != = || %" with
        | [ Token.LE; Token.GE; Token.NEQ; Token.NEQ; Token.EQ; Token.CONCAT_OP; Token.PERCENT; Token.EOF ]
          ->
          ()
        | _ -> Alcotest.fail "unexpected tokens");
    Alcotest.test_case "unterminated string errors with position" `Quick (fun () ->
        match Lexer.tokenize "SELECT 'oops" with
        | _ -> Alcotest.fail "expected lexer error"
        | exception Lexer.Error { line; col; _ } ->
          Alcotest.(check int) "line" 1 line;
          Alcotest.(check int) "col" 8 col);
  ]

(* --- parser ------------------------------------------------------------------ *)

let parser_tests =
  [
    Alcotest.test_case "simple count" `Quick (fun () ->
        let q = parse_ok "SELECT COUNT(*) FROM trips" in
        match q.Ast.body with
        | Ast.Select { projections = [ Ast.Proj_expr (Ast.Agg { func = Ast.Count; arg = Ast.Star; _ }, None) ]; from = [ Ast.Table { name = "trips"; alias = None } ]; _ } ->
          ()
        | _ -> Alcotest.fail "unexpected AST");
    Alcotest.test_case "operator precedence" `Quick (fun () ->
        let e = Parser.parse_expr_exn "1 + 2 * 3" in
        match e with
        | Ast.Binop (Ast.Add, Ast.Lit (Ast.Int 1), Ast.Binop (Ast.Mul, _, _)) -> ()
        | _ -> Alcotest.fail "precedence wrong");
    Alcotest.test_case "AND binds tighter than OR" `Quick (fun () ->
        match Parser.parse_expr_exn "a OR b AND c" with
        | Ast.Binop (Ast.Or, _, Ast.Binop (Ast.And, _, _)) -> ()
        | _ -> Alcotest.fail "precedence wrong");
    Alcotest.test_case "NOT IN" `Quick (fun () ->
        match Parser.parse_expr_exn "x NOT IN (1, 2)" with
        | Ast.In { negated = true; set = Ast.In_list [ _; _ ]; _ } -> ()
        | _ -> Alcotest.fail "unexpected AST");
    Alcotest.test_case "BETWEEN does not swallow AND" `Quick (fun () ->
        match Parser.parse_expr_exn "x BETWEEN 1 AND 2 AND y = 3" with
        | Ast.Binop (Ast.And, Ast.Between _, Ast.Binop (Ast.Eq, _, _)) -> ()
        | _ -> Alcotest.fail "unexpected AST");
    Alcotest.test_case "join chain is left-nested" `Quick (fun () ->
        let q = parse_ok "SELECT COUNT(*) FROM a JOIN b ON a.x = b.x JOIN c ON b.y = c.y" in
        match q.Ast.body with
        | Ast.Select { from = [ Ast.Join { left = Ast.Join { left = Ast.Table { name = "a"; _ }; _ }; right = Ast.Table { name = "c"; _ }; _ } ]; _ } ->
          ()
        | _ -> Alcotest.fail "unexpected AST");
    Alcotest.test_case "outer join variants" `Quick (fun () ->
        let q = parse_ok "SELECT 1 FROM a LEFT OUTER JOIN b ON a.x = b.x RIGHT JOIN c ON a.y = c.y FULL JOIN d ON a.z = d.z" in
        let kinds =
          List.map (fun (k, _, _, _) -> k) (Ast.joins_of_query q) |> List.sort compare
        in
        Alcotest.(check int) "three joins" 3 (List.length kinds);
        Alcotest.(check bool) "left present" true (List.mem Ast.Left kinds);
        Alcotest.(check bool) "right present" true (List.mem Ast.Right kinds);
        Alcotest.(check bool) "full present" true (List.mem Ast.Full kinds));
    Alcotest.test_case "cte with column list" `Quick (fun () ->
        let q = parse_ok "WITH t (a, b) AS (SELECT 1, 2) SELECT a FROM t" in
        match q.Ast.ctes with
        | [ { Ast.cte_name = "t"; cte_columns = [ "a"; "b" ]; _ } ] -> ()
        | _ -> Alcotest.fail "unexpected CTEs");
    Alcotest.test_case "order by limit offset" `Quick (fun () ->
        let q = parse_ok "SELECT a FROM t ORDER BY a DESC, b LIMIT 10 OFFSET 5" in
        Alcotest.(check int) "order keys" 2 (List.length q.Ast.order_by);
        Alcotest.(check (option int)) "limit" (Some 10) q.Ast.limit;
        Alcotest.(check (option int)) "offset" (Some 5) q.Ast.offset);
    Alcotest.test_case "count distinct" `Quick (fun () ->
        let q = parse_ok "SELECT COUNT(DISTINCT x) FROM t" in
        match q.Ast.body with
        | Ast.Select { projections = [ Ast.Proj_expr (Ast.Agg { distinct = true; _ }, _) ]; _ } ->
          ()
        | _ -> Alcotest.fail "unexpected AST");
    Alcotest.test_case "scalar subquery and exists" `Quick (fun () ->
        let q = parse_ok "SELECT 1 FROM t WHERE EXISTS (SELECT 1 FROM u) AND x = (SELECT MAX(y) FROM u)" in
        match q.Ast.body with
        | Ast.Select { where = Some w; _ } ->
          Alcotest.(check int) "two subqueries" 2 (List.length (Ast.expr_subqueries w))
        | _ -> Alcotest.fail "unexpected AST");
    Alcotest.test_case "set operation precedence" `Quick (fun () ->
        let q = parse_ok "SELECT a FROM t UNION SELECT b FROM u INTERSECT SELECT c FROM v" in
        match q.Ast.body with
        | Ast.Union { right = Ast.Intersect _; _ } -> ()
        | _ -> Alcotest.fail "INTERSECT should bind tighter");
    Alcotest.test_case "schema-qualified table names" `Quick (fun () ->
        let q = parse_ok "SELECT 1 FROM warehouse.trips" in
        match q.Ast.body with
        | Ast.Select { from = [ Ast.Table { name = "warehouse.trips"; _ } ]; _ } -> ()
        | _ -> Alcotest.fail "unexpected AST");
    Alcotest.test_case "errors carry positions" `Quick (fun () ->
        match Parser.parse "SELECT FROM" with
        | Error msg -> Alcotest.(check bool) "mentions line" true
                         (Astring.String.is_infix ~affix:"line 1" msg
                          || String.length msg > 0)
        | Ok _ -> Alcotest.fail "expected error");
    Alcotest.test_case "rejects garbage" `Quick (fun () ->
        parse_err "SELECT";
        parse_err "FROM t";
        parse_err "SELECT * FROM";
        parse_err "SELECT * FROM t WHERE";
        parse_err "SELECT * FROM t GROUP");
    Alcotest.test_case "trailing semicolon tolerated, trailing junk rejected" `Quick
      (fun () ->
        ignore (parse_ok "SELECT 1;");
        parse_err "SELECT 1; SELECT 2");
    Alcotest.test_case "trailing semicolons and whitespace round-trip" `Quick (fun () ->
        let q = parse_ok "SELECT COUNT(*) FROM t" in
        List.iter
          (fun sql -> Alcotest.(check bool) sql true (parse_ok sql = q))
          [
            "SELECT COUNT(*) FROM t;";
            "SELECT COUNT(*) FROM t ;; ";
            "  \n\tSELECT COUNT(*) FROM t\n;\n;\n";
            "SELECT COUNT(*) FROM t;\t; ;";
          ];
        parse_err ";";
        parse_err "SELECT 1;; SELECT 2");
  ]

(* --- pretty-printing round trip -------------------------------------------------- *)

(* Random AST generator: bounded-depth expressions and queries built from a
   small vocabulary; the property is parse(print(q)) = q. *)
module Gen = struct
  open QCheck.Gen

  let ident = oneofl [ "a"; "b"; "c"; "t"; "u"; "fare"; "city"; "status" ]

  let lit =
    oneof
      [
        return Ast.Null;
        map (fun b -> Ast.Bool b) bool;
        (* negative literals print as unary negation; keep literals >= 0 so
           the AST round-trip is exact *)
        map (fun i -> Ast.Int i) (int_range 0 1000);
        map (fun f -> Ast.Float f) (map (fun i -> float_of_int i /. 8.0) (int_range 0 1000));
        map (fun s -> Ast.String s) (oneofl [ "x"; "it's"; "2016-01-01"; "100%" ]);
      ]

  let col = map2 (fun t c -> { Ast.table = t; column = c }) (option ident) ident

  let rec expr depth =
    if depth = 0 then oneof [ map (fun l -> Ast.Lit l) lit; map (fun c -> Ast.Col c) col ]
    else
      let sub = expr (depth - 1) in
      frequency
        [
          (2, map (fun l -> Ast.Lit l) lit);
          (3, map (fun c -> Ast.Col c) col);
          ( 3,
            map3
              (fun op a b -> Ast.Binop (op, a, b))
              (oneofl
                 [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Div; Ast.Eq; Ast.Neq; Ast.Lt; Ast.Le;
                   Ast.Gt; Ast.Ge; Ast.And; Ast.Or; Ast.Concat ])
              sub sub );
          (1, map (fun a -> Ast.Unop (Ast.Not, a)) sub);
          (1, map (fun a -> Ast.Unop (Ast.Neg, a)) sub);
          ( 1,
            map2
              (fun distinct arg -> Ast.Agg { func = Ast.Count; distinct; arg = Ast.Arg arg })
              bool sub );
          ( 1,
            map2
              (fun name args -> Ast.Func (name, args))
              (oneofl [ "lower"; "upper"; "coalesce"; "abs" ])
              (list_size (int_range 1 2) sub) );
          ( 1,
            map3
              (fun subject negated (lo, hi) -> Ast.Between { subject; negated; lo; hi })
              sub bool (pair sub sub) );
          ( 1,
            map2
              (fun subject negated -> Ast.Is_null { subject; negated })
              sub bool );
          ( 1,
            map3
              (fun subject negated es ->
                Ast.In { subject; negated; set = Ast.In_list es })
              sub bool
              (list_size (int_range 1 3) sub) );
          ( 1,
            map2
              (fun branches else_ -> Ast.Case { operand = None; branches; else_ })
              (list_size (int_range 1 2) (pair sub sub))
              (option sub) );
        ]

  let projection =
    frequency
      [
        (1, return Ast.Proj_star);
        (1, map (fun t -> Ast.Proj_table_star t) ident);
        (4, map2 (fun e a -> Ast.Proj_expr (e, a)) (expr 2) (option ident));
      ]

  let rec table_ref depth =
    if depth = 0 then
      map2 (fun n a -> Ast.Table { name = n; alias = a }) ident (option ident)
    else
      frequency
        [
          (3, map2 (fun n a -> Ast.Table { name = n; alias = a }) ident (option ident));
          ( 2,
            map3
              (fun kind (l, r) cond -> Ast.Join { kind; left = l; right = r; cond })
              (oneofl [ Ast.Inner; Ast.Left; Ast.Right; Ast.Full ])
              (pair (table_ref (depth - 1)) (table_ref 0))
              (oneof
                 [
                   map (fun e -> Ast.On e) (expr 1);
                   map (fun cols -> Ast.Using cols) (list_size (int_range 1 2) ident);
                 ]) );
          ( 1,
            map2
              (fun q a -> Ast.Derived { query = q; alias = a })
              (query (depth - 1))
              ident );
        ]

  and select depth =
    let* distinct = bool in
    let* projections = list_size (int_range 1 3) projection in
    let* from = list_size (int_range 0 1) (table_ref depth) in
    let* where = option (expr 2) in
    let* group_by = list_size (int_range 0 2) (map (fun c -> Ast.Col c) col) in
    let* having = if group_by = [] then return None else option (expr 1) in
    return { Ast.distinct; projections; from; where; group_by; having }

  and body depth =
    if depth = 0 then map (fun s -> Ast.Select s) (select 0)
    else
      frequency
        [
          (5, map (fun s -> Ast.Select s) (select depth));
          ( 1,
            map3
              (fun all l r -> Ast.Union { all; left = l; right = r })
              bool (body (depth - 1)) (body 0) );
          ( 1,
            map3
              (fun all l r -> Ast.Intersect { all; left = l; right = r })
              bool (body (depth - 1)) (body 0) );
        ]

  and query depth =
    let* ctes =
      if depth = 0 then return []
      else
        list_size (int_range 0 1)
          (map2
             (fun name q -> { Ast.cte_name = name; cte_columns = []; cte_query = q })
             (oneofl [ "w1"; "w2" ])
             (query 0))
    in
    let* b = body depth in
    let* order_by =
      list_size (int_range 0 2) (pair (map (fun c -> Ast.Col c) col) (oneofl [ Ast.Asc; Ast.Desc ]))
    in
    let* limit = option (int_range 0 100) in
    let* offset = if limit = None then return None else option (int_range 0 10) in
    return { Ast.ctes; body = b; order_by; limit; offset }
end

let arb_query =
  QCheck.make ~print:Pretty.to_string (Gen.query 2)

let roundtrip_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"parse(print(q)) = q" ~count:500 arb_query (fun q ->
           let printed = Pretty.to_string q in
           match Parser.parse printed with
           | Ok q2 ->
             if q = q2 then true
             else
               QCheck.Test.fail_reportf "roundtrip mismatch:@.%s@.vs@.%s" printed
                 (Pretty.to_string q2)
           | Error e -> QCheck.Test.fail_reportf "reparse failed: %s@.%s" e printed));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"parse(print(q) ^ \" ;; \") = q" ~count:200 arb_query
         (fun q ->
           let printed = Pretty.to_string q ^ " ;;\n " in
           match Parser.parse printed with
           | Ok q2 -> q = q2
           | Error e -> QCheck.Test.fail_reportf "reparse failed: %s@.%s" e printed));
    Alcotest.test_case "pretty quotes reserved words" `Quick (fun () ->
        let q =
          Ast.query_of_select
            {
              Ast.empty_select with
              projections = [ Ast.Proj_expr (Ast.col "union", None) ];
              from = [ Ast.Table { name = "t"; alias = None } ];
            }
        in
        let printed = Pretty.to_string q in
        Alcotest.(check bool) "quoted" true
          (Astring.String.is_infix ~affix:"\"union\"" printed);
        match Parser.parse printed with
        | Ok q2 -> Alcotest.(check bool) "roundtrip" true (q = q2)
        | Error e -> Alcotest.fail e);
  ]

(* --- feature extraction -------------------------------------------------------------- *)

let features sql =
  match Features.analyze_sql sql with
  | Ok f -> f
  | Error e -> Alcotest.failf "feature analysis failed: %s" e

let features_tests =
  [
    Alcotest.test_case "join counting" `Quick (fun () ->
        let f = features "SELECT COUNT(*) FROM a JOIN b ON a.x = b.x LEFT JOIN c ON b.y = c.y" in
        Alcotest.(check int) "joins" 2 f.Features.join_count;
        Alcotest.(check bool) "equijoins only" true f.Features.equijoins_only);
    Alcotest.test_case "join condition classes" `Quick (fun () ->
        let f =
          features
            "SELECT COUNT(*) FROM a JOIN b ON a.x = b.x JOIN c ON a.y > c.y \
             JOIN d ON d.z = 3 JOIN e ON (a.x = 1 OR e.w = 2)"
        in
        let get cls = try List.assoc cls f.Features.join_conditions with Not_found -> 0 in
        Alcotest.(check int) "equijoin" 1 (get Features.Equijoin);
        Alcotest.(check int) "column cmp" 1 (get Features.Column_comparison);
        Alcotest.(check int) "literal cmp" 1 (get Features.Literal_comparison);
        Alcotest.(check int) "compound" 1 (get Features.Compound_expression));
    Alcotest.test_case "self join detection" `Quick (fun () ->
        let f = features "SELECT COUNT(*) FROM t a JOIN t b ON a.x = b.x" in
        Alcotest.(check bool) "self" true f.Features.has_self_join;
        let f2 = features "SELECT COUNT(*) FROM t a JOIN u b ON a.x = b.x" in
        Alcotest.(check bool) "not self" false f2.Features.has_self_join);
    Alcotest.test_case "statistical classification" `Quick (fun () ->
        Alcotest.(check bool) "count is statistical" true
          (features "SELECT COUNT(*) FROM t").Features.is_statistical;
        Alcotest.(check bool) "group keys allowed" true
          (features "SELECT city, COUNT(*) FROM t GROUP BY city").Features.is_statistical;
        Alcotest.(check bool) "raw is not" false
          (features "SELECT a, b FROM t").Features.is_statistical;
        Alcotest.(check bool) "star is not" false
          (features "SELECT * FROM t").Features.is_statistical);
    Alcotest.test_case "aggregates counted" `Quick (fun () ->
        let f = features "SELECT COUNT(*), SUM(x), AVG(y) FROM t" in
        Alcotest.(check int) "three aggregate kinds" 3 (List.length f.Features.aggregates));
    Alcotest.test_case "joins inside derived tables counted" `Quick (fun () ->
        let f =
          features "SELECT COUNT(*) FROM (SELECT a.x FROM a JOIN b ON a.x = b.x) s"
        in
        Alcotest.(check int) "join found" 1 f.Features.join_count);
  ]

let suites =
  [
    ("lexer", lexer_tests);
    ("parser", parser_tests);
    ("pretty-roundtrip", roundtrip_tests);
    ("features", features_tests);
  ]

(* --- kitchen-sink parse acceptance (appended) --------------------------------- *)

let kitchen_sink =
  [
    (* multi-line with comments everywhere *)
    "SELECT /* leading */ COUNT(*) -- trailing\nFROM trips -- another\nWHERE fare > 10";
    (* deeply nested derived tables *)
    "SELECT COUNT(*) FROM (SELECT * FROM (SELECT * FROM (SELECT id FROM t) a) b) c";
    (* quoted identifiers with reserved words and case *)
    "SELECT \"select\", \"Group\" FROM \"order\" WHERE \"select\" = 1";
    (* aggregate-heavy projection with aliases *)
    "SELECT COUNT(*) total, SUM(x) AS sx, AVG(y) avg_y, MIN(z) mn, MAX(z) mx FROM t GROUP BY g";
    (* case inside group by and order by *)
    "SELECT CASE WHEN x > 0 THEN 'p' ELSE 'n' END s, COUNT(*) FROM t GROUP BY \
     CASE WHEN x > 0 THEN 'p' ELSE 'n' END ORDER BY CASE WHEN x > 0 THEN 'p' ELSE 'n' END";
    (* chained CTEs referencing each other with column lists *)
    "WITH a (x) AS (SELECT 1), b (y) AS (SELECT x + 1 FROM a) SELECT y FROM b";
    (* join zoo *)
    "SELECT 1 FROM a JOIN b ON a.i = b.i LEFT JOIN c ON b.j = c.j RIGHT OUTER \
     JOIN d ON c.k = d.k FULL OUTER JOIN e ON d.l = e.l CROSS JOIN f NATURAL JOIN g";
    (* in/between/like soup with NOT variants *)
    "SELECT 1 FROM t WHERE a IN (1, 2) AND b NOT IN (SELECT c FROM u) AND d \
     BETWEEN 1 AND 9 AND e NOT BETWEEN 2 AND 3 AND f LIKE 'x%' AND g NOT LIKE '_y'";
    (* arithmetic precedence stress *)
    "SELECT -a + b * c - d / e % f || 'g' FROM t";
    (* exists / scalar subquery combination *)
    "SELECT 1 FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.a = t.a) AND t.b > \
     (SELECT AVG(b) FROM t)";
    (* union chains with parenthesised operands and final order *)
    "(SELECT a FROM t) UNION ALL (SELECT b FROM u) EXCEPT SELECT c FROM v ORDER BY 1 LIMIT 7";
    (* schema-qualified everything *)
    "SELECT COUNT(*) FROM warehouse.trips w JOIN warehouse.drivers d ON w.id = d.id";
    (* cast zoo *)
    "SELECT CAST(a AS int), CAST(b AS varchar(32)), CAST(c AS decimal(10,2)) FROM t";
    (* semicolon and whitespace tolerance *)
    "   SELECT 1   ;   ";
    (* using with multiple columns *)
    "SELECT COUNT(*) FROM a JOIN b USING (x, y, z)";
    (* distinct aggregates mixed with plain *)
    "SELECT COUNT(DISTINCT a), COUNT(a), SUM(DISTINCT b) FROM t";
    (* group by expression with having on aggregate *)
    "SELECT a % 7, COUNT(*) FROM t GROUP BY a % 7 HAVING COUNT(*) >= 2 AND SUM(b) < 100";
    (* string escapes *)
    "SELECT 'it''s', '100%', '_under_' FROM t";
    (* very long conjunction *)
    "SELECT COUNT(*) FROM t WHERE a = 1 AND b = 2 AND c = 3 AND d = 4 AND e = 5 \
     AND f = 6 AND g = 7 AND h = 8 AND i = 9 AND j = 10";
    (* offset without explicit order *)
    "SELECT a FROM t LIMIT 5 OFFSET 10";
  ]

let kitchen_sink_tests =
  [
    Alcotest.test_case "kitchen sink parses and round-trips" `Quick (fun () ->
        List.iter
          (fun sql ->
            match Parser.parse sql with
            | Error e -> Alcotest.failf "parse failed: %s\n  %s" e sql
            | Ok q -> (
              let printed = Pretty.to_string q in
              match Parser.parse printed with
              | Ok q2 when q = q2 -> ()
              | Ok _ -> Alcotest.failf "round-trip mismatch for %s" sql
              | Error e -> Alcotest.failf "reparse failed (%s): %s" e printed))
          kitchen_sink);
  ]

let suites = suites @ [ ("kitchen-sink", kitchen_sink_tests) ]

(* --- depth limit ------------------------------------------------------------ *)

let rep n s = String.concat "" (List.init n (fun _ -> s))

(* Each shape is a statement exactly [Parser.max_depth] levels deep and the
   same shape one level deeper. The last one nests a chain's first operand:
   the chain is two levels taller per parenthesis, which a count of open
   parentheses alone would miss. *)
let depth_shapes =
  let l = Parser.max_depth in
  let grow k f = (f k, f (k + 1)) in
  let nested_operand prefix = Fmt.str "SELECT %s%sx%s" prefix (rep 127 "(") (rep 127 ") + 1") in
  [
    ("parentheses", grow (l - 2) (fun k -> "SELECT " ^ rep k "(" ^ "1" ^ rep k ")"));
    ("NOT chain", grow (l - 2) (fun k -> "SELECT COUNT(*) FROM t WHERE " ^ rep k "NOT " ^ "x = 1"));
    ("OR chain", grow (l - 2) (fun k -> "SELECT COUNT(*) FROM t WHERE x = 0" ^ rep k " OR x = 1"));
    ("arithmetic chain", grow (l - 2) (fun k -> "SELECT x" ^ rep k " + 1" ^ " FROM t"));
    ("join chain", grow (l - 2) (fun k -> "SELECT COUNT(*) FROM t0" ^ rep k " JOIN t ON a = b"));
    ( "derived tables",
      grow (l - 1) (fun k -> "SELECT COUNT(*) FROM " ^ rep k "(SELECT * FROM " ^ "t" ^ rep k ") x")
    );
    ("UNION chain", grow (l - 2) (fun k -> "SELECT 1" ^ rep k " UNION SELECT 1"));
    ("chain over a nested operand", (nested_operand "", nested_operand "NOT "));
  ]

let depth_tests =
  [
    Alcotest.test_case "a statement at the depth limit parses, one level deeper is refused"
      `Quick (fun () ->
        List.iter
          (fun (shape, (at_limit, deeper)) ->
            (match Parser.parse at_limit with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "%s at the limit: %s" shape e);
            match Parser.parse deeper with
            | Ok _ -> Alcotest.failf "%s one level deeper parsed" shape
            | Error e ->
              if not (Astring.String.is_infix ~affix:"deeper than 256 levels" e) then
                Alcotest.failf "%s: %s" shape e)
          depth_shapes);
  ]

let suites = suites @ [ ("parser-depth", depth_tests) ]
