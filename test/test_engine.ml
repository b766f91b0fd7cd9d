module Value = Flex_engine.Value
module Table = Flex_engine.Table
module Database = Flex_engine.Database
module Executor = Flex_engine.Executor
module Metrics = Flex_engine.Metrics
module Csv = Flex_engine.Csv
module Eval = Flex_engine.Eval

let v_int i = Value.Int i
let v_str s = Value.String s
let v_float f = Value.Float f

(* Small fixture: people in cities with pets. *)
let fixture () =
  let cities =
    Table.create ~name:"cities" ~columns:[ "id"; "name" ]
      [
        [| v_int 1; v_str "sf" |];
        [| v_int 2; v_str "nyc" |];
        [| v_int 3; v_str "la" |];
      ]
  in
  let people =
    Table.create ~name:"people" ~columns:[ "id"; "name"; "city_id"; "age" ]
      [
        [| v_int 1; v_str "ada"; v_int 1; v_int 36 |];
        [| v_int 2; v_str "bob"; v_int 1; v_int 25 |];
        [| v_int 3; v_str "cyd"; v_int 2; v_int 40 |];
        [| v_int 4; v_str "dan"; v_int 2; Value.Null |];
        [| v_int 5; v_str "eve"; Value.Null; v_int 31 |];
      ]
  in
  let pets =
    Table.create ~name:"pets" ~columns:[ "owner_id"; "kind" ]
      [
        [| v_int 1; v_str "cat" |];
        [| v_int 1; v_str "dog" |];
        [| v_int 2; v_str "cat" |];
        [| v_int 9; v_str "fish" |];
      ]
  in
  Database.of_tables [ cities; people; pets ]

let run sql =
  match Executor.run_sql (fixture ()) sql with
  | Ok r -> r
  | Error e -> Alcotest.failf "query failed (%s): %s" sql e

let run_err sql =
  match Executor.run_sql (fixture ()) sql with
  | Ok _ -> Alcotest.failf "expected failure: %s" sql
  | Error _ -> ()

let scalar sql =
  match (run sql).rows with
  | [ [| v |] ] -> v
  | rows -> Alcotest.failf "expected one cell, got %d rows" (List.length rows)

let int_scalar sql =
  match Value.to_int (scalar sql) with
  | Some i -> i
  | None -> Alcotest.failf "expected integer result for %s" sql

let check_int sql expected =
  Alcotest.(check int) sql expected (int_scalar sql)

(* --- value semantics --------------------------------------------------------- *)

let value_tests =
  [
    Alcotest.test_case "ordering across types" `Quick (fun () ->
        Alcotest.(check bool) "null first" true (Value.compare Value.Null (v_int 0) < 0);
        Alcotest.(check bool) "int/float mix" true (Value.compare (v_int 2) (v_float 2.5) < 0);
        Alcotest.(check bool) "int = float" true (Value.equal (v_int 2) (v_float 2.0)));
    Alcotest.test_case "sql equality with null" `Quick (fun () ->
        Alcotest.(check bool) "null = x is unknown" true
          (Value.sql_equal Value.Null (v_int 1) = None));
    Alcotest.test_case "3-valued AND/OR" `Quick (fun () ->
        Alcotest.(check bool) "false AND null = false" true
          (Eval.and3 (Value.Bool false) Value.Null = Value.Bool false);
        Alcotest.(check bool) "true AND null = null" true
          (Eval.and3 (Value.Bool true) Value.Null = Value.Null);
        Alcotest.(check bool) "true OR null = true" true
          (Eval.or3 (Value.Bool true) Value.Null = Value.Bool true));
    Alcotest.test_case "like matching" `Quick (fun () ->
        let m p s = Eval.like (v_str s) (v_str p) = Value.Bool true in
        Alcotest.(check bool) "prefix" true (m "a%" "abc");
        Alcotest.(check bool) "suffix" true (m "%c" "abc");
        Alcotest.(check bool) "underscore" true (m "a_c" "abc");
        Alcotest.(check bool) "no match" false (m "a_c" "abcd");
        Alcotest.(check bool) "literal percent matches anywhere" true (m "%b%" "abc"));
  ]

(* --- selection, projection, expressions --------------------------------------- *)

let select_tests =
  [
    Alcotest.test_case "count star" `Quick (fun () -> check_int "SELECT COUNT(*) FROM people" 5);
    Alcotest.test_case "where filtering" `Quick (fun () ->
        check_int "SELECT COUNT(*) FROM people WHERE age > 30" 3;
        (* NULL age rows are dropped by the predicate *)
        check_int "SELECT COUNT(*) FROM people WHERE age <= 30" 1);
    Alcotest.test_case "projection names" `Quick (fun () ->
        let r = run "SELECT name AS person, age FROM people LIMIT 1" in
        Alcotest.(check (list string)) "columns" [ "person"; "age" ] r.columns);
    Alcotest.test_case "star expansion" `Quick (fun () ->
        let r = run "SELECT * FROM cities" in
        Alcotest.(check (list string)) "columns" [ "id"; "name" ] r.columns;
        Alcotest.(check int) "rows" 3 (List.length r.rows));
    Alcotest.test_case "arithmetic and functions" `Quick (fun () ->
        Alcotest.(check bool) "int division truncates" true
          (scalar "SELECT 7 / 2" = v_int 3);
        Alcotest.(check bool) "mixed division is float" true
          (scalar "SELECT 7.0 / 2" = v_float 3.5);
        Alcotest.(check bool) "upper" true (scalar "SELECT UPPER('abc')" = v_str "ABC");
        Alcotest.(check bool) "coalesce" true (scalar "SELECT COALESCE(NULL, 5)" = v_int 5);
        Alcotest.(check bool) "case" true
          (scalar "SELECT CASE WHEN 1 > 2 THEN 'a' ELSE 'b' END" = v_str "b"));
    Alcotest.test_case "distinct" `Quick (fun () ->
        check_int "SELECT COUNT(*) FROM (SELECT DISTINCT kind FROM pets) k" 3);
    Alcotest.test_case "in and between" `Quick (fun () ->
        check_int "SELECT COUNT(*) FROM people WHERE id IN (1, 3, 5)" 3;
        check_int "SELECT COUNT(*) FROM people WHERE age BETWEEN 25 AND 36" 3);
    Alcotest.test_case "is null" `Quick (fun () ->
        check_int "SELECT COUNT(*) FROM people WHERE age IS NULL" 1;
        check_int "SELECT COUNT(*) FROM people WHERE age IS NOT NULL" 4);
    Alcotest.test_case "order by and limit" `Quick (fun () ->
        let r = run "SELECT name FROM people ORDER BY age DESC LIMIT 2" in
        match r.rows with
        | [ [| a |]; [| b |] ] ->
          Alcotest.(check bool) "cyd first" true (a = v_str "cyd");
          Alcotest.(check bool) "ada second" true (b = v_str "ada")
        | _ -> Alcotest.fail "unexpected rows");
    Alcotest.test_case "order by null first ascending" `Quick (fun () ->
        let r = run "SELECT name FROM people ORDER BY age ASC LIMIT 1" in
        match r.rows with
        | [ [| v |] ] -> Alcotest.(check bool) "dan (null age)" true (v = v_str "dan")
        | _ -> Alcotest.fail "unexpected rows");
    Alcotest.test_case "offset" `Quick (fun () ->
        let r = run "SELECT id FROM people ORDER BY id LIMIT 2 OFFSET 2" in
        match r.rows with
        | [ [| a |]; [| b |] ] ->
          Alcotest.(check bool) "ids 3,4" true (a = v_int 3 && b = v_int 4)
        | _ -> Alcotest.fail "unexpected rows");
  ]

(* --- joins --------------------------------------------------------------------- *)

let join_tests =
  [
    Alcotest.test_case "inner equijoin" `Quick (fun () ->
        check_int
          "SELECT COUNT(*) FROM people p JOIN pets x ON p.id = x.owner_id" 3);
    Alcotest.test_case "left join preserves unmatched" `Quick (fun () ->
        check_int
          "SELECT COUNT(*) FROM people p LEFT JOIN pets x ON p.id = x.owner_id" 6;
        (* unmatched rows carry NULLs *)
        check_int
          "SELECT COUNT(*) FROM people p LEFT JOIN pets x ON p.id = x.owner_id \
           WHERE x.kind IS NULL"
          3);
    Alcotest.test_case "right join mirrors left" `Quick (fun () ->
        check_int
          "SELECT COUNT(*) FROM pets x RIGHT JOIN people p ON p.id = x.owner_id" 6);
    Alcotest.test_case "full join" `Quick (fun () ->
        check_int
          "SELECT COUNT(*) FROM people p FULL JOIN pets x ON p.id = x.owner_id" 7);
    Alcotest.test_case "cross join" `Quick (fun () ->
        check_int "SELECT COUNT(*) FROM cities CROSS JOIN pets" 12;
        check_int "SELECT COUNT(*) FROM cities, pets" 12);
    Alcotest.test_case "null keys never match" `Quick (fun () ->
        check_int
          "SELECT COUNT(*) FROM people p JOIN cities c ON p.city_id = c.id" 4);
    Alcotest.test_case "using and natural" `Quick (fun () ->
        check_int "SELECT COUNT(*) FROM people JOIN cities USING (id)" 3;
        (* natural join matches on every shared column: id AND name, which
           never agree across these tables *)
        check_int "SELECT COUNT(*) FROM people NATURAL JOIN cities" 0);
    Alcotest.test_case "self join" `Quick (fun () ->
        check_int
          "SELECT COUNT(*) FROM people a JOIN people b ON a.city_id = b.city_id" 8);
    Alcotest.test_case "join with residual predicate" `Quick (fun () ->
        check_int
          "SELECT COUNT(*) FROM people a JOIN people b ON a.city_id = b.city_id \
           AND a.id < b.id"
          2);
    Alcotest.test_case "non-equality join condition" `Quick (fun () ->
        check_int "SELECT COUNT(*) FROM cities a JOIN cities b ON a.id < b.id" 3);
    Alcotest.test_case "hash join equals nested loop" `Quick (fun () ->
        (* same condition expressed once hashable, once not *)
        let a =
          int_scalar
            "SELECT COUNT(*) FROM people p JOIN pets x ON p.id = x.owner_id"
        in
        let b =
          int_scalar
            "SELECT COUNT(*) FROM people p JOIN pets x ON p.id <= x.owner_id AND \
             p.id >= x.owner_id"
        in
        Alcotest.(check int) "equal counts" a b);
  ]

(* --- grouping and aggregates ------------------------------------------------------ *)

let group_tests =
  [
    Alcotest.test_case "group by with counts" `Quick (fun () ->
        let r = run "SELECT city_id, COUNT(*) AS n FROM people GROUP BY city_id ORDER BY n DESC" in
        Alcotest.(check int) "three groups" 3 (List.length r.rows));
    Alcotest.test_case "count ignores nulls, count star does not" `Quick (fun () ->
        check_int "SELECT COUNT(age) FROM people" 4;
        check_int "SELECT COUNT(*) FROM people" 5);
    Alcotest.test_case "count distinct" `Quick (fun () ->
        check_int "SELECT COUNT(DISTINCT kind) FROM pets" 3);
    Alcotest.test_case "sum avg min max" `Quick (fun () ->
        check_int "SELECT SUM(age) FROM people" 132;
        Alcotest.(check bool) "avg" true (scalar "SELECT AVG(age) FROM people" = v_float 33.0);
        check_int "SELECT MIN(age) FROM people" 25;
        check_int "SELECT MAX(age) FROM people" 40);
    Alcotest.test_case "median and stddev" `Quick (fun () ->
        Alcotest.(check bool) "median" true
          (scalar "SELECT MEDIAN(age) FROM people" = v_float 33.5);
        match scalar "SELECT STDDEV(age) FROM people" with
        | Value.Float f -> Alcotest.(check (float 0.01)) "stddev" (sqrt 42.0) f
        | _ -> Alcotest.fail "stddev not float");
    Alcotest.test_case "aggregates over empty input" `Quick (fun () ->
        check_int "SELECT COUNT(*) FROM people WHERE age > 100" 0;
        Alcotest.(check bool) "sum of empty is null" true
          (scalar "SELECT SUM(age) FROM people WHERE age > 100" = Value.Null));
    Alcotest.test_case "having filters groups" `Quick (fun () ->
        let r =
          run "SELECT city_id, COUNT(*) FROM people GROUP BY city_id HAVING COUNT(*) >= 2"
        in
        Alcotest.(check int) "two groups" 2 (List.length r.rows));
    Alcotest.test_case "group by expression" `Quick (fun () ->
        let r = run "SELECT age % 2, COUNT(*) FROM people WHERE age IS NOT NULL GROUP BY age % 2" in
        Alcotest.(check int) "parity groups" 2 (List.length r.rows));
    Alcotest.test_case "aggregate of expression" `Quick (fun () ->
        check_int "SELECT SUM(age * 2) FROM people" 264);
  ]

(* --- subqueries, CTEs, set ops ------------------------------------------------------ *)

let query_tests =
  [
    Alcotest.test_case "derived table" `Quick (fun () ->
        check_int
          "SELECT COUNT(*) FROM (SELECT id FROM people WHERE age > 30) old" 3);
    Alcotest.test_case "cte" `Quick (fun () ->
        check_int
          "WITH old AS (SELECT id FROM people WHERE age > 30) SELECT COUNT(*) FROM old"
          3);
    Alcotest.test_case "cte chaining" `Quick (fun () ->
        check_int
          "WITH a AS (SELECT id FROM people WHERE age > 30), b AS (SELECT id \
           FROM a WHERE id > 1) SELECT COUNT(*) FROM b"
          2);
    Alcotest.test_case "cte column rename" `Quick (fun () ->
        check_int
          "WITH t (pid) AS (SELECT id FROM people) SELECT COUNT(pid) FROM t" 5);
    Alcotest.test_case "in subquery" `Quick (fun () ->
        check_int
          "SELECT COUNT(*) FROM people WHERE id IN (SELECT owner_id FROM pets)" 2);
    Alcotest.test_case "exists" `Quick (fun () ->
        check_int "SELECT COUNT(*) FROM people WHERE EXISTS (SELECT 1 FROM pets)" 5);
    Alcotest.test_case "scalar subquery" `Quick (fun () ->
        check_int "SELECT COUNT(*) FROM people WHERE age > (SELECT AVG(age) FROM people)" 2);
    Alcotest.test_case "union distinct vs all" `Quick (fun () ->
        check_int
          "SELECT COUNT(*) FROM (SELECT kind FROM pets UNION SELECT kind FROM pets) u" 3;
        check_int
          "SELECT COUNT(*) FROM (SELECT kind FROM pets UNION ALL SELECT kind FROM pets) u"
          8);
    Alcotest.test_case "except and intersect" `Quick (fun () ->
        check_int
          "SELECT COUNT(*) FROM (SELECT id FROM people EXCEPT SELECT owner_id FROM pets) e"
          3;
        check_int
          "SELECT COUNT(*) FROM (SELECT id FROM people INTERSECT SELECT owner_id \
           FROM pets) i"
          2);
    Alcotest.test_case "grouped subquery as relation" `Quick (fun () ->
        check_int
          "SELECT COUNT(*) FROM (SELECT city_id, COUNT(*) AS n FROM people GROUP \
           BY city_id) g WHERE g.n >= 2"
          2);
    Alcotest.test_case "aggregate of grouped subquery" `Quick (fun () ->
        check_int
          "SELECT MAX(n) FROM (SELECT COUNT(*) AS n FROM people GROUP BY city_id) g" 2);
    Alcotest.test_case "errors" `Quick (fun () ->
        run_err "SELECT nosuch FROM people";
        run_err "SELECT * FROM nosuch";
        run_err "SELECT COUNT(*) FROM people WHERE age > (SELECT id FROM people)";
        run_err "SELECT a FROM people UNION SELECT a, b FROM pets");
  ]

(* --- metrics -------------------------------------------------------------------------- *)

let metrics_tests =
  [
    Alcotest.test_case "mf matches SQL oracle" `Quick (fun () ->
        let db = fixture () in
        let m = Metrics.compute db in
        (* most frequent city_id among people is 1 or 2, both appear twice *)
        Alcotest.(check (option int)) "people.city_id" (Some 2)
          (Metrics.mf m ~table:"people" ~column:"city_id");
        Alcotest.(check (option int)) "pets.owner_id" (Some 2)
          (Metrics.mf m ~table:"pets" ~column:"owner_id");
        Alcotest.(check (option int)) "unique ids" (Some 1)
          (Metrics.mf m ~table:"people" ~column:"id");
        (* cross-check against the paper's collection query *)
        let oracle =
          match
            Executor.run_sql db
              "SELECT COUNT(owner_id) AS c FROM pets GROUP BY owner_id ORDER BY c \
               DESC LIMIT 1"
          with
          | Ok { rows = [ [| v |] ]; _ } -> Value.to_int v
          | _ -> None
        in
        Alcotest.(check (option int)) "sql oracle agrees" oracle
          (Metrics.mf m ~table:"pets" ~column:"owner_id"));
    Alcotest.test_case "vr is max minus min" `Quick (fun () ->
        let m = Metrics.compute (fixture ()) in
        Alcotest.(check (option (float 1e-9))) "age range" (Some 15.0)
          (Metrics.vr m ~table:"people" ~column:"age");
        Alcotest.(check (option (float 1e-9))) "no numeric values" None
          (Metrics.vr m ~table:"people" ~column:"name"));
    Alcotest.test_case "public registry" `Quick (fun () ->
        let m = Metrics.compute (fixture ()) in
        Alcotest.(check bool) "not public by default" false (Metrics.is_public m "cities");
        Metrics.set_public m "cities";
        Alcotest.(check bool) "now public" true (Metrics.is_public m "CITIES");
        Metrics.clear_public m "cities";
        Alcotest.(check bool) "cleared" false (Metrics.is_public m "cities"));
    Alcotest.test_case "serialisation roundtrip" `Quick (fun () ->
        let m = Metrics.compute (fixture ()) in
        Metrics.set_public m "cities";
        let m2 = Metrics.of_lines (Metrics.to_lines m) in
        Alcotest.(check (list string)) "same lines" (Metrics.to_lines m) (Metrics.to_lines m2);
        Alcotest.(check bool) "public preserved" true (Metrics.is_public m2 "cities"));
    Alcotest.test_case "row counts and totals" `Quick (fun () ->
        let m = Metrics.compute (fixture ()) in
        Alcotest.(check (option int)) "people rows" (Some 5) (Metrics.row_count m ~table:"people");
        Alcotest.(check int) "total" 12 (Metrics.total_rows m));
    Alcotest.test_case "column listing from metrics" `Quick (fun () ->
        let m = Metrics.compute (fixture ()) in
        Alcotest.(check (list string)) "people columns"
          [ "age"; "city_id"; "id"; "name" ]
          (Metrics.columns m ~table:"people"));
  ]

(* --- csv ---------------------------------------------------------------------------------- *)

let csv_tests =
  [
    Alcotest.test_case "roundtrip through a file" `Quick (fun () ->
        let path = Filename.temp_file "oflex" ".csv" in
        let r = run "SELECT id, name FROM cities ORDER BY id" in
        Csv.save_result r path;
        let t = Csv.load_table ~name:"cities2" path in
        Alcotest.(check int) "rows" 3 (Table.row_count t);
        Alcotest.(check bool) "value sniffed as int" true
          ((Table.rows t).(0).(0) = v_int 1);
        Sys.remove path);
    Alcotest.test_case "quoted fields" `Quick (fun () ->
        let path = Filename.temp_file "oflex" ".csv" in
        let oc = open_out path in
        output_string oc "a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n";
        close_out oc;
        let t = Csv.load_table ~name:"q" path in
        Alcotest.(check bool) "comma preserved" true ((Table.rows t).(0).(0) = v_str "x,y");
        Alcotest.(check bool) "escaped quotes" true
          ((Table.rows t).(0).(1) = v_str "he said \"hi\"");
        Sys.remove path);
    Alcotest.test_case "empty cell is NULL" `Quick (fun () ->
        let path = Filename.temp_file "oflex" ".csv" in
        let oc = open_out path in
        output_string oc "a,b\n1,\n";
        close_out oc;
        let t = Csv.load_table ~name:"n" path in
        Alcotest.(check bool) "null" true (Value.is_null (Table.rows t).(0).(1));
        Sys.remove path);
  ]

let suites =
  [
    ("value", value_tests);
    ("executor-select", select_tests);
    ("executor-join", join_tests);
    ("executor-group", group_tests);
    ("executor-query", query_tests);
    ("metrics", metrics_tests);
    ("csv", csv_tests);
  ]

(* --- correlated subqueries (appended) --------------------------------------- *)

let correlated_tests =
  [
    Alcotest.test_case "correlated EXISTS" `Quick (fun () ->
        (* people who own at least one pet *)
        check_int
          "SELECT COUNT(*) FROM people p WHERE EXISTS (SELECT 1 FROM pets x \
           WHERE x.owner_id = p.id)"
          2);
    Alcotest.test_case "correlated NOT EXISTS" `Quick (fun () ->
        check_int
          "SELECT COUNT(*) FROM people p WHERE NOT EXISTS (SELECT 1 FROM pets x \
           WHERE x.owner_id = p.id)"
          3);
    Alcotest.test_case "correlated scalar subquery" `Quick (fun () ->
        (* per-person pet count used as a filter *)
        check_int
          "SELECT COUNT(*) FROM people p WHERE (SELECT COUNT(*) FROM pets x \
           WHERE x.owner_id = p.id) >= 2"
          1);
    Alcotest.test_case "correlated IN" `Quick (fun () ->
        check_int
          "SELECT COUNT(*) FROM people p WHERE 'cat' IN (SELECT kind FROM pets x \
           WHERE x.owner_id = p.id)"
          2);
    Alcotest.test_case "inner scope shadows outer" `Quick (fun () ->
        (* the inner p refers to the subquery's own people alias *)
        check_int
          "SELECT COUNT(*) FROM people p WHERE p.id = (SELECT MIN(q.id) FROM \
           people q)"
          1);
    Alcotest.test_case "unknown columns still error" `Quick (fun () ->
        run_err "SELECT COUNT(*) FROM people p WHERE EXISTS (SELECT nosuch FROM pets)");
  ]

let suites = suites @ [ ("executor-correlated", correlated_tests) ]

(* --- plan / EXPLAIN (appended) ------------------------------------------------ *)

module Plan = Flex_engine.Plan

let explain sql =
  match Plan.explain_sql sql with
  | Ok s -> s
  | Error e -> Alcotest.failf "explain failed: %s" e

let contains s sub = Astring.String.is_infix ~affix:sub s

let plan_tests =
  [
    Alcotest.test_case "equijoins plan as hash joins" `Quick (fun () ->
        let s = explain "SELECT COUNT(*) FROM people p JOIN pets x ON p.id = x.owner_id" in
        Alcotest.(check bool) "hash" true (contains s "hash on p.id = x.owner_id");
        Alcotest.(check bool) "aggregate" true (contains s "Aggregate [COUNT(*)]"));
    Alcotest.test_case "non-equality conditions plan as nested loops" `Quick (fun () ->
        let s = explain "SELECT 1 FROM cities a JOIN cities b ON a.id < b.id" in
        Alcotest.(check bool) "nested" true (contains s "nested loop"));
    Alcotest.test_case "residual conjuncts are counted" `Quick (fun () ->
        let s =
          explain
            "SELECT 1 FROM people p JOIN pets x ON p.id = x.owner_id AND p.age > 30"
        in
        Alcotest.(check bool) "residual" true (contains s "+1 residual"));
    Alcotest.test_case "sort, slice and ctes appear" `Quick (fun () ->
        let s =
          explain
            "WITH w AS (SELECT id FROM people) SELECT id FROM w ORDER BY id DESC LIMIT 3"
        in
        Alcotest.(check bool) "cte" true (contains s "CTE w:");
        Alcotest.(check bool) "sort" true (contains s "Sort [id DESC]");
        Alcotest.(check bool) "slice" true (contains s "Slice LIMIT 3"));
    Alcotest.test_case "set operations" `Quick (fun () ->
        let s = explain "SELECT id FROM people UNION ALL SELECT owner_id FROM pets" in
        Alcotest.(check bool) "union all" true (contains s "UNION ALL"));
    Alcotest.test_case "group by and having" `Quick (fun () ->
        let s =
          explain
            "SELECT city_id, COUNT(*) FROM people GROUP BY city_id HAVING COUNT(*) > 1"
        in
        Alcotest.(check bool) "group" true (contains s "GROUP BY city_id");
        Alcotest.(check bool) "having" true (contains s "HAVING"));
  ]

let suites = suites @ [ ("plan", plan_tests) ]

(* --- scalar function coverage (appended) --------------------------------------- *)

let function_tests =
  [
    Alcotest.test_case "string functions" `Quick (fun () ->
        Alcotest.(check bool) "length" true (scalar "SELECT LENGTH('hello')" = v_int 5);
        Alcotest.(check bool) "trim" true (scalar "SELECT TRIM('  x  ')" = v_str "x");
        Alcotest.(check bool) "substr 2-arg" true (scalar "SELECT SUBSTR('hello', 2)" = v_str "ello");
        Alcotest.(check bool) "substr 3-arg" true (scalar "SELECT SUBSTR('hello', 2, 3)" = v_str "ell");
        Alcotest.(check bool) "substr past end" true (scalar "SELECT SUBSTR('hi', 9)" = v_str "");
        Alcotest.(check bool) "concat fn" true
          (scalar "SELECT CONCAT('a', 'b', 'c')" = v_str "abc"));
    Alcotest.test_case "date extraction" `Quick (fun () ->
        Alcotest.(check bool) "year" true (scalar "SELECT YEAR('2016-03-14')" = v_int 2016);
        Alcotest.(check bool) "month" true (scalar "SELECT MONTH('2016-03-14')" = v_int 3);
        Alcotest.(check bool) "year of garbage" true
          (Value.is_null (scalar "SELECT YEAR('xyzw-aa')")));
    Alcotest.test_case "numeric functions" `Quick (fun () ->
        Alcotest.(check bool) "round to digits" true
          (scalar "SELECT ROUND(3.14159, 2)" = v_float 3.14);
        Alcotest.(check bool) "floor" true (scalar "SELECT FLOOR(3.9)" = v_int 3);
        Alcotest.(check bool) "ceil" true (scalar "SELECT CEIL(3.1)" = v_int 4);
        Alcotest.(check bool) "sqrt" true (scalar "SELECT SQRT(16.0)" = v_float 4.0);
        Alcotest.(check bool) "sqrt of negative is null" true
          (Value.is_null (scalar "SELECT SQRT(-1.0)"));
        Alcotest.(check bool) "greatest" true (scalar "SELECT GREATEST(1, 5, 3)" = v_int 5);
        Alcotest.(check bool) "least" true (scalar "SELECT LEAST(1, 5, 3)" = v_int 1));
    Alcotest.test_case "null propagation in functions" `Quick (fun () ->
        Alcotest.(check bool) "lower null" true (Value.is_null (scalar "SELECT LOWER(NULL)"));
        Alcotest.(check bool) "abs null" true (Value.is_null (scalar "SELECT ABS(NULL)"));
        Alcotest.(check bool) "nullif equal" true (Value.is_null (scalar "SELECT NULLIF(3, 3)"));
        Alcotest.(check bool) "nullif differs" true (scalar "SELECT NULLIF(3, 4)" = v_int 3));
    Alcotest.test_case "casts" `Quick (fun () ->
        Alcotest.(check bool) "string to int" true (scalar "SELECT CAST('42' AS int)" = v_int 42);
        Alcotest.(check bool) "junk to int is null" true
          (Value.is_null (scalar "SELECT CAST('junk' AS int)"));
        Alcotest.(check bool) "int to varchar" true
          (scalar "SELECT CAST(7 AS varchar(10))" = v_str "7");
        Alcotest.(check bool) "string to bool" true
          (scalar "SELECT CAST('true' AS boolean)" = Value.Bool true);
        Alcotest.(check bool) "float to int truncates" true
          (scalar "SELECT CAST(3.7 AS int)" = v_int 3));
    Alcotest.test_case "unknown function errors" `Quick (fun () ->
        run_err "SELECT FROBNICATE(1) FROM people");
  ]

let suites = suites @ [ ("eval-functions", function_tests) ]

(* --- differential tests: compiled executor vs reference interpreter ------- *)

module Reference = Flex_engine.Reference
module Uber = Flex_workload.Uber
module Qgen = Flex_workload.Qgen
module Rng = Flex_dp.Rng

(* Exact cell equality: structural, except NaN = NaN so float aggregates
   cannot produce spurious diffs. *)
let cell_equal (a : Value.t) (b : Value.t) =
  match (a, b) with
  | Value.Float x, Value.Float y -> x = y || (Float.is_nan x && Float.is_nan y)
  | _ -> a = b

let row_to_string row =
  Array.to_list row |> List.map Value.to_string |> String.concat ", "

(* Both pipelines must agree on columns, row values AND row order (or both
   must fail). *)
let check_same db sql =
  match (Executor.run_sql db sql, Reference.run_sql db sql) with
  | Error _, Error _ -> ()
  | Ok _, Error e -> Alcotest.failf "compiled ok, reference failed (%s): %s" sql e
  | Error e, Ok _ -> Alcotest.failf "compiled failed, reference ok (%s): %s" sql e
  | Ok a, Ok b ->
    Alcotest.(check (list string)) (sql ^ ": columns") b.Reference.columns a.Executor.columns;
    if List.length a.Executor.rows <> List.length b.Reference.rows then
      Alcotest.failf "row count differs (%s): compiled %d, reference %d" sql
        (List.length a.Executor.rows)
        (List.length b.Reference.rows);
    List.iteri
      (fun i (ra, rb) ->
        let same =
          Array.length ra = Array.length rb
          && (let ok = ref true in
              Array.iteri (fun j va -> if not (cell_equal va rb.(j)) then ok := false) ra;
              !ok)
        in
        if not same then
          Alcotest.failf "row %d differs (%s): compiled [%s], reference [%s]" i sql
            (row_to_string ra) (row_to_string rb))
      (List.combine a.Executor.rows b.Reference.rows)

(* Hand-written queries over the fixture hitting the edge cases the generated
   workload rarely produces. *)
let edge_case_queries =
  [
    (* multi-key hash joins, including NULL key columns (never match) *)
    "SELECT p.name, q.name FROM people p JOIN people q \
     ON p.city_id = q.city_id AND p.age = q.age";
    "SELECT p.name, q.name FROM people p LEFT JOIN people q \
     ON p.city_id = q.city_id AND p.age = q.age ORDER BY p.id, q.id";
    "SELECT p.name, c.name FROM people p JOIN cities c ON p.city_id = c.id";
    (* RIGHT / FULL outer joins, unmatched sides on both ends *)
    "SELECT p.name, t.kind FROM people p RIGHT JOIN pets t ON p.id = t.owner_id";
    "SELECT p.name, t.kind FROM people p FULL JOIN pets t ON p.id = t.owner_id";
    "SELECT c.name, p.name FROM cities c FULL JOIN people p ON c.id = p.city_id \
     ORDER BY c.id, p.id";
    (* non-equality join condition: nested loop path *)
    "SELECT p.name, q.name FROM people p JOIN people q ON p.age < q.age";
    (* DISTINCT and set operations, with and without ALL *)
    "SELECT DISTINCT city_id FROM people";
    "SELECT city_id FROM people UNION SELECT id FROM cities";
    "SELECT city_id FROM people UNION ALL SELECT id FROM cities";
    "SELECT id FROM cities EXCEPT SELECT city_id FROM people";
    "SELECT city_id FROM people EXCEPT ALL SELECT id FROM cities";
    "SELECT city_id FROM people INTERSECT SELECT id FROM cities";
    "SELECT city_id FROM people INTERSECT ALL SELECT city_id FROM people";
    (* ORDER BY on unprojected source keys, positional, DESC, ties *)
    "SELECT name FROM people ORDER BY age DESC, id";
    "SELECT name FROM people ORDER BY city_id, name";
    "SELECT name, age FROM people ORDER BY 2 DESC";
    "SELECT city_id, COUNT(*) FROM people GROUP BY city_id ORDER BY COUNT(*) DESC, city_id";
    (* grouping edge cases *)
    "SELECT COUNT(*) FROM people WHERE age > 100";
    "SELECT AVG(age) FROM people WHERE FALSE";
    "SELECT city_id, COUNT(DISTINCT age), SUM(age) FROM people GROUP BY city_id \
     HAVING COUNT(*) > 1";
    (* correlated subqueries *)
    "SELECT name FROM people p WHERE EXISTS \
     (SELECT 1 FROM pets t WHERE t.owner_id = p.id)";
    "SELECT name, (SELECT COUNT(*) FROM pets t WHERE t.owner_id = p.id) FROM people p";
    "SELECT name FROM people p WHERE age > \
     (SELECT AVG(age) FROM people q WHERE q.city_id = p.city_id)";
    (* subqueries planned once per compiled expression: a second level of
       correlation reaching past its parent to the outermost row, a
       correlated subquery over a CTE the outer query binds, and a scalar
       subquery inside a CTE body *)
    "SELECT name FROM people p WHERE EXISTS \
     (SELECT 1 FROM pets t WHERE t.owner_id = p.id AND EXISTS \
     (SELECT 1 FROM people q WHERE q.city_id = p.city_id AND q.id <> p.id \
     AND t.kind = 'dog'))";
    "WITH owned AS (SELECT owner_id, kind FROM pets) \
     SELECT name, (SELECT COUNT(*) FROM owned o WHERE o.owner_id = p.id) FROM people p";
    "WITH sized AS (SELECT c.id, (SELECT COUNT(*) FROM people p WHERE p.city_id = c.id) AS n \
     FROM cities c) SELECT id, n FROM sized ORDER BY n DESC, id";
    (* LIMIT / OFFSET *)
    "SELECT name FROM people ORDER BY id LIMIT 2 OFFSET 1";
    "SELECT name FROM people ORDER BY id LIMIT 0";
  ]

let differential_tests =
  [
    Alcotest.test_case "edge cases agree with reference" `Quick (fun () ->
        let db = fixture () in
        List.iter (check_same db) edge_case_queries);
    Alcotest.test_case "generated workload agrees with reference" `Quick (fun () ->
        let rng = Rng.create ~seed:7 () in
        let db, _metrics = Uber.generate ~sizes:Uber.small_sizes rng in
        let queries =
          Qgen.generate rng ~count:50 ~n_cities:12 ~n_drivers:120 ~n_users:200
        in
        List.iter
          (fun (q : Qgen.t) ->
            check_same db q.sql;
            check_same db q.population_sql)
          queries);
  ]

let suites = suites @ [ ("executor-differential", differential_tests) ]

(* --- columnar 3-way differential: reference = row-compiled = columnar ----- *)

module Columnar = Flex_engine.Columnar

let with_columnar on f =
  let prev = !Columnar.enabled in
  Columnar.enabled := on;
  Fun.protect ~finally:(fun () -> Columnar.enabled := prev) f

(* The columnar engine must be indistinguishable from the row pipeline:
   reference agrees with both, and the two compiled paths agree with each
   other cell-for-cell (same values, same row order, same error/ok split).
   Anything short of that would make DP releases depend on the engine
   toggle. *)
let check_row_columnar_agree sql row col =
  match (row, col) with
  | Error _, Error _ -> ()
  | Ok _, Error e -> Alcotest.failf "columnar failed, row ok (%s): %s" sql e
  | Error e, Ok _ -> Alcotest.failf "row failed, columnar ok (%s): %s" sql e
  | Ok a, Ok b ->
    Alcotest.(check (list string)) (sql ^ ": columns") a.Executor.columns b.Executor.columns;
    if List.length a.Executor.rows <> List.length b.Executor.rows then
      Alcotest.failf "row count differs (%s): row %d, columnar %d" sql
        (List.length a.Executor.rows)
        (List.length b.Executor.rows);
    List.iteri
      (fun i (ra, rb) ->
        let same =
          Array.length ra = Array.length rb
          && (let ok = ref true in
              Array.iteri (fun j va -> if not (cell_equal va rb.(j)) then ok := false) ra;
              !ok)
        in
        if not same then
          Alcotest.failf "row %d differs (%s): row [%s], columnar [%s]" i sql
            (row_to_string ra) (row_to_string rb))
      (List.combine a.Executor.rows b.Executor.rows)

let check_columnar_3way db sql =
  with_columnar false (fun () -> check_same db sql);
  with_columnar true (fun () -> check_same db sql);
  let row = with_columnar false (fun () -> Executor.run_sql db sql) in
  let col = with_columnar true (fun () -> Executor.run_sql db sql) in
  check_row_columnar_agree sql row col

(* Trap fixture for the typed kernels: NULL-heavy key and measure columns
   (the measures include NaN and both infinities), a mixed Int/Float column (boxed in the chunk), a
   dictionary column with NULLs, negative and repeated join keys. *)
let null_mixed_fixture () =
  let n = 40 in
  let facts =
    Table.create ~name:"facts" ~columns:[ "id"; "k"; "grp"; "m"; "mix"; "tag" ]
      (List.init n (fun i ->
           [|
             v_int i;
             (if i mod 3 = 0 then Value.Null else v_int (i mod 5));
             (if i mod 7 = 0 then Value.Null else v_int ((i mod 4) - 2));
             (if i mod 4 = 0 then Value.Null
              else if i = 13 then v_float Float.nan
              else if i = 21 then v_float infinity
              else if i = 22 then v_float neg_infinity
              else v_float (float_of_int i /. 4.0));
             (if i mod 2 = 0 then v_int i else v_float (float_of_int i +. 0.5));
             (match i mod 5 with
             | 0 -> Value.Null
             | 1 -> v_str "red"
             | 2 -> v_str "green"
             | 3 -> v_str "blue"
             | _ -> v_str "red");
           |]))
  in
  let dims =
    Table.create ~name:"dims" ~columns:[ "k"; "label" ]
      [
        [| v_int 0; v_str "zero" |];
        [| v_int 1; v_str "one" |];
        [| v_int 2; v_str "two" |];
        [| v_int 2; v_str "two-again" |];
        [| Value.Null; v_str "null-key" |];
        [| v_int 4; v_str "four" |];
      ]
  in
  Database.of_tables [ facts; dims ]

let null_mixed_queries =
  [
    "SELECT * FROM facts";
    "SELECT id, m FROM facts WHERE k = 2";
    "SELECT id FROM facts WHERE m > 3.0 AND tag = 'red'";
    (* NULL join keys never match; duplicate build keys fan out *)
    "SELECT f.id, d.label FROM facts f JOIN dims d ON f.k = d.k";
    "SELECT f.id, d.label FROM facts f JOIN dims d ON f.k = d.k WHERE d.label = 'two'";
    (* grouping by NULL-heavy, negative-ranged and dictionary keys *)
    "SELECT k, COUNT(*) FROM facts GROUP BY k";
    "SELECT grp, COUNT(*), SUM(m), MIN(m), MAX(m) FROM facts GROUP BY grp";
    "SELECT tag, COUNT(*), AVG(m) FROM facts GROUP BY tag HAVING COUNT(*) > 2";
    "SELECT tag, COUNT(m) FROM facts GROUP BY tag";
    (* aggregates over the mixed Int/Float column (boxed in the chunk) *)
    "SELECT SUM(mix), MIN(mix), MAX(mix), AVG(mix) FROM facts";
    "SELECT k, SUM(mix) FROM facts GROUP BY k";
    (* aggregate over an empty group set and an all-NULL slice *)
    "SELECT SUM(m) FROM facts WHERE id < 0";
    "SELECT AVG(m) FROM facts WHERE k IS NULL AND m IS NULL";
    (* top-K over a NULL-heavy float key, ties broken by id *)
    "SELECT id, m FROM facts ORDER BY m DESC, id LIMIT 7";
    "SELECT id FROM facts ORDER BY k, id LIMIT 10 OFFSET 3";
    "SELECT tag, m FROM facts ORDER BY tag, m LIMIT 12";
    (* string ranges over the NULL-bearing dictionary column: literals below,
       inside and above the dictionary, and one absent from it *)
    "SELECT id FROM facts WHERE tag >= 'blue' AND tag < 'red'";
    "SELECT id FROM facts WHERE tag >= 'a' AND tag <= 'green'";
    "SELECT id FROM facts WHERE tag > 'zzz'";
    "SELECT id FROM facts WHERE tag = 'purple'";
    "SELECT id, tag FROM facts WHERE tag <> 'red'";
    (* several tests on one string column *)
    "SELECT id FROM facts WHERE tag = 'green' AND tag < 'red'";
    "SELECT id FROM facts WHERE tag = 'red' AND tag < 'green'";
    "SELECT id FROM facts WHERE tag = 'red' AND tag <> 'red'";
    "SELECT id FROM facts WHERE tag = 'red' AND tag = 'blue'";
    "SELECT id FROM facts WHERE tag = 'red' AND tag = 'red'";
    "SELECT id, tag FROM facts WHERE tag <> 'red' AND tag <> 'blue'";
    "SELECT id, tag FROM facts WHERE tag <> 'purple' AND tag >= 'green'";
    (* int bounds: max_int, and a window with a hole *)
    "SELECT id FROM facts WHERE k > 4611686018427387903";
    "SELECT id, k FROM facts WHERE k >= 1 AND k <= 3 AND k <> 2";
    "SELECT id FROM facts WHERE k <> 2";
    "SELECT id, k FROM facts WHERE k < 2";
    (* closure kernels that every row passes *)
    "SELECT id FROM facts WHERE id IS NOT NULL";
    "SELECT id FROM facts WHERE id <> -1";
    (* int-vs-float and NaN comparisons *)
    "SELECT id FROM facts WHERE k > 1.5";
    "SELECT id, m FROM facts WHERE m >= 3";
    "SELECT id, m FROM facts WHERE m < 2";
    "SELECT id, m FROM facts WHERE m > 0.75 AND m <= 2.5";
    "SELECT id, m FROM facts WHERE m >= 0.75 AND m < 2.25";
    "SELECT id FROM facts WHERE m <> 0.5";
    "SELECT id, m FROM facts WHERE m > 1e999";
    "SELECT id, m FROM facts WHERE m >= 1e999";
    "SELECT id, m FROM facts WHERE m < -1e999";
    (* string ranges on both sides of a join *)
    "SELECT f.id, d.label FROM facts f JOIN dims d ON f.k = d.k \
     WHERE f.tag >= 'green' AND d.label < 'two'";
  ]

let columnar_differential_tests =
  [
    Alcotest.test_case "edge cases agree 3-way with columnar" `Quick (fun () ->
        let db = fixture () in
        List.iter (check_columnar_3way db) edge_case_queries);
    Alcotest.test_case "generated workload agrees 3-way with columnar" `Quick (fun () ->
        let rng = Rng.create ~seed:11 () in
        let db, _metrics = Uber.generate ~sizes:Uber.small_sizes rng in
        let queries =
          Qgen.generate rng ~count:40 ~n_cities:12 ~n_drivers:120 ~n_users:200
        in
        List.iter
          (fun (q : Qgen.t) ->
            check_columnar_3way db q.sql;
            check_columnar_3way db q.population_sql)
          queries);
    Alcotest.test_case "NULL-heavy and mixed-type traps agree 3-way" `Quick (fun () ->
        let db = null_mixed_fixture () in
        List.iter (check_columnar_3way db) null_mixed_queries);
  ]

let suites = suites @ [ ("columnar-differential", columnar_differential_tests) ]

(* --- columnar vs row on executed plans ------------------------------------ *)

module Ast = Flex_sql.Ast
module Optimizer = Flex_engine.Optimizer
module Aggregate = Flex_engine.Aggregate

(* The service executes optimizer plans, whose hash joins may build on the
   left input ([build=left]); the unoptimized [Plan.of_query] plans above
   never do. Columnar must match the row engine on those plans as well: same
   cells, same row order, same ok/error split. *)
let run_plan_result ?pool db plan =
  match Executor.run_plan ?pool db plan with
  | r -> Ok r
  | exception (Executor.Error e | Eval.Error e | Aggregate.Error e) -> Error e

(* [?pool] runs the columnar side on the pool; the row side stays sequential. *)
let check_plan_agrees ?pool db sql plan =
  let label = Fmt.str "%s [%s]" sql (Plan.to_string plan) in
  let row = with_columnar false (fun () -> run_plan_result db plan) in
  let col = with_columnar true (fun () -> run_plan_result ?pool db plan) in
  check_row_columnar_agree label row col

(* [of_query] with [build_left] set on inner joins; [flip depth] picks them
   by depth along the left spine (0 = the outermost join). *)
let force_build_left ?(flip = fun _ -> true) (q : Ast.query) : Plan.t =
  let rec rel depth (r : Plan.rel) =
    match r with
    | Plan.Join j ->
      Plan.Join
        {
          j with
          build_left = j.kind = Ast.Inner && flip depth;
          left = rel (depth + 1) j.left;
          right = rel 0 j.right;
        }
    | Plan.Filter f -> Plan.Filter { f with input = rel depth f.input }
    | Plan.Scan _ | Plan.Derived _ -> r
  in
  let rec body = function
    | Plan.Plan_select sp -> Plan.Plan_select { sp with source = Option.map (rel 0) sp.source }
    | Plan.Plan_set s -> Plan.Plan_set { s with left = body s.left; right = body s.right }
  in
  let p = Plan.of_query q in
  { p with body = body p.body }

(* The trap fixture plus [legs]: floats whose sum depends on addition order,
   on keys that fan out against [dims]' duplicate key 2. *)
let build_left_fixture () =
  let db = null_mixed_fixture () in
  Database.add db
    (Table.create ~name:"legs" ~columns:[ "id"; "k"; "amount" ]
       (List.init 24 (fun i ->
            [|
              v_int i;
              (if i mod 7 = 3 then Value.Null else v_int (i mod 5));
              v_float ((if i mod 4 = 0 then 1e15 else 1.0) /. float_of_int (i + 3));
            |])));
  db

let build_left_traps =
  [
    (* unordered multi-row projections: row order is the join's own *)
    "SELECT f.id, d.label FROM facts f JOIN dims d ON f.k = d.k";
    "SELECT d.label, f.id, f.tag FROM dims d JOIN facts f ON d.k = f.k";
    (* float SUM/AVG accumulate in the join's row order *)
    "SELECT SUM(l.amount), AVG(l.amount) FROM legs l JOIN dims d ON l.k = d.k";
    "SELECT l.k, SUM(l.amount), AVG(l.amount) FROM legs l JOIN dims d ON l.k = d.k GROUP BY l.k";
    (* GROUP BY emits groups in first-appearance order *)
    "SELECT d.label, COUNT(*) FROM facts f JOIN dims d ON f.k = d.k GROUP BY d.label";
    "SELECT f.tag, COUNT(*), SUM(f.m) FROM dims d JOIN facts f ON d.k = f.k GROUP BY f.tag";
    (* ORDER BY ... LIMIT breaks ties by join row order *)
    "SELECT f.id, d.label FROM facts f JOIN dims d ON f.k = d.k ORDER BY d.k LIMIT 5";
    "SELECT d.label, l.id FROM legs l JOIN dims d ON l.k = d.k ORDER BY d.label DESC LIMIT 4 \
     OFFSET 2";
    (* Float, boxed Int/Float and string keys, NULLs on both sides *)
    "SELECT f.id, g.id FROM facts f JOIN facts g ON f.m = g.m";
    "SELECT f.id, d.label FROM facts f JOIN dims d ON f.mix = d.k";
    "SELECT f.id, g.id FROM facts f JOIN facts g ON f.tag = g.tag WHERE f.id < 12";
    "SELECT l.id, f.id FROM legs l JOIN facts f ON l.amount = f.m";
  ]

let build_left_chains =
  [
    "SELECT f.id, d.label, l.id FROM facts f JOIN dims d ON f.k = d.k JOIN legs l ON d.k = l.k";
    "SELECT l.k, SUM(l.amount) FROM facts f JOIN dims d ON f.k = d.k JOIN legs l \
     ON d.k = l.k WHERE f.id < 20 GROUP BY l.k";
  ]

(* [sql]'s plan with [pred] filtering its source. *)
let filter_source pred sql =
  let p = Plan.of_query (Flex_sql.Parser.parse_exn sql) in
  match p.Plan.body with
  | Plan.Plan_select sp ->
    let filter r = Plan.Filter { pred; input = r } in
    { p with body = Plan.Plan_select { sp with source = Option.map filter sp.source } }
  | Plan.Plan_set _ -> p

(* [plan] agrees with the row engine and runs on the columnar engine. *)
let check_columnar_plan db sql plan =
  let before = Executor.columnar_fallbacks () in
  check_plan_agrees db sql plan;
  Alcotest.(check int) "ran columnar" before (Executor.columnar_fallbacks ())

let columnar_plan_tests =
  [
    Alcotest.test_case "edge cases agree on optimizer plans" `Quick (fun () ->
        let db = fixture () in
        let metrics = Metrics.compute db in
        List.iter
          (fun sql ->
            let q = Flex_sql.Parser.parse_exn sql in
            check_plan_agrees db sql (Optimizer.plan ~metrics q);
            check_plan_agrees db sql (force_build_left q))
          edge_case_queries);
    Alcotest.test_case "generated plans all run columnar and agree" `Quick (fun () ->
        let rng = Rng.create ~seed:11 () in
        let db, metrics = Uber.generate ~sizes:Uber.small_sizes rng in
        let queries = Qgen.generate rng ~count:40 ~n_cities:12 ~n_drivers:120 ~n_users:200 in
        let plans =
          List.concat_map
            (fun (q : Qgen.t) ->
              List.map
                (fun sql -> (sql, Optimizer.plan ~metrics (Flex_sql.Parser.parse_exn sql)))
                [ q.sql; q.population_sql ])
            queries
        in
        Alcotest.(check bool) "the corpus has build-left plans" true
          (List.exists
             (fun (_, p) -> Astring.String.is_infix ~affix:"build=left" (Plan.to_string p))
             plans);
        let before = Executor.columnar_fallbacks () in
        List.iter (fun (sql, plan) -> check_plan_agrees db sql plan) plans;
        Alcotest.(check int) "no plan fell back to the row engine" before
          (Executor.columnar_fallbacks ()));
    Alcotest.test_case "traps agree with every inner join built left" `Quick (fun () ->
        let db = build_left_fixture () in
        List.iter
          (fun sql ->
            let q = Flex_sql.Parser.parse_exn sql in
            check_plan_agrees db sql (force_build_left q))
          (null_mixed_queries @ build_left_traps @ build_left_chains));
    Alcotest.test_case "a group narrower than its column's dictionary" `Quick (fun () ->
        (* a scan filter leaves 2 rows (tags NULL and 'red') for the WHERE
           group, whose column has 3 dictionary entries *)
        let db = null_mixed_fixture () in
        let narrow =
          Ast.Binop (Ast.Lt, Ast.Col { table = Some "f"; column = "id" }, Ast.Lit (Ast.Int 2))
        in
        List.iter
          (fun where ->
            let sql = "SELECT f.id, f.tag FROM facts f WHERE " ^ where in
            check_columnar_plan db sql (filter_source narrow sql))
          [ "f.tag < 'zzz'"; "f.tag <> 'red'"; "f.tag <> 'purple'"; "f.tag = 'red'" ]);
    Alcotest.test_case "infinite float literals reach the range kernels" `Quick (fun () ->
        (* SQL spells -inf only as a negation, which is no literal *)
        let db = null_mixed_fixture () in
        let sql = "SELECT id, m FROM facts" in
        List.iter
          (fun (op, f) ->
            let pred = Ast.Binop (op, Ast.Col { table = None; column = "m" }, Ast.Lit (Ast.Float f)) in
            check_columnar_plan db sql (filter_source pred sql))
          [
            (Ast.Lt, neg_infinity);
            (Ast.Le, neg_infinity);
            (Ast.Eq, neg_infinity);
            (Ast.Gt, neg_infinity);
            (Ast.Gt, infinity);
            (Ast.Ge, infinity);
            (Ast.Lt, infinity);
          ]);
    Alcotest.test_case "three-table chains flipped at either step" `Quick (fun () ->
        let db = build_left_fixture () in
        List.iter
          (fun sql ->
            let q = Flex_sql.Parser.parse_exn sql in
            List.iter
              (fun flip -> check_plan_agrees db sql (force_build_left ~flip q))
              [ (fun d -> d = 0); (fun d -> d = 1) ])
          build_left_chains);
  ]

let suites = suites @ [ ("columnar-plan-differential", columnar_plan_tests) ]

(* --- join counts by key: reference = row = columnar, never a fallback ------ *)

(* Two tables whose join keys hold every trap of the count path: NULLs on
   both sides, Int keys meeting equal Floats, strings (dictionary-coded, and
   boxed beside ints), keys below zero, keys sparse past the dense range,
   keys at and past 2^53, duplicates on both sides, and group columns with
   NULLs. *)
let join_count_fixture () =
  let two_53 = 9007199254740992 in
  let table name n =
    Table.create ~name ~columns:[ "id"; "k"; "kf"; "ks"; "kmix"; "kneg"; "ksparse"; "kbig"; "g" ]
      (List.init n (fun i ->
           [|
             v_int i;
             (if i mod 6 = 0 then Value.Null else v_int (i mod 4));
             (if i mod 5 = 0 then Value.Null else v_float (float_of_int (i mod 3)));
             (match i mod 4 with 0 -> Value.Null | 1 -> v_str "x" | 2 -> v_str "y" | _ -> v_str "z");
             (match i mod 3 with 0 -> v_int (i mod 4) | 1 -> v_float (float_of_int (i mod 4)) | _ -> v_str "x");
             v_int ((i mod 5) - 3);
             v_int ((i mod 4) * -100_000);
             (if i mod 3 = 0 then v_int (two_53 + (i mod 2)) else v_int (i mod 4));
             (if i mod 7 = 0 then Value.Null else v_str (if i mod 2 = 0 then "even" else "odd"));
           |]))
  in
  Database.of_tables [ table "a" 30; table "b" 19 ]

(* Counts the path answers by key: ungrouped, or grouped by one side. *)
let join_count_queries =
  let on = [ "k = b.k"; "k = b.kf"; "kf = b.k"; "kmix = b.k"; "k = b.kmix"; "ks = b.ks";
             "ks = b.kmix"; "kmix = b.ks"; "kneg = b.kneg"; "ksparse = b.ksparse"; "kbig = b.kbig";
             "kbig = b.kf"; "kf = b.kbig"; "k = b.kneg" ] in
  List.concat_map
    (fun c ->
      let from = "FROM a JOIN b ON a." ^ c in
      [
        "SELECT COUNT(*) " ^ from;
        "SELECT a.g, COUNT(*) " ^ from ^ " GROUP BY a.g";
        "SELECT b.g, COUNT(*) " ^ from ^ " GROUP BY b.g";
      ])
    on
  @ [
      (* an empty filtered side, either way round *)
      "SELECT COUNT(*) FROM a JOIN b ON a.k = b.k WHERE b.id > 100";
      "SELECT COUNT(*) FROM a JOIN b ON a.k = b.k WHERE a.id < 0";
      "SELECT a.g, COUNT(*) FROM a JOIN b ON a.k = b.k WHERE a.id < 0 GROUP BY a.g";
      "SELECT b.g, COUNT(*) FROM a JOIN b ON a.ks = b.ks WHERE b.ks = 'w' GROUP BY b.g";
      (* filters on both sides, several keys, HAVING and arithmetic over the count *)
      "SELECT a.g, a.ks, COUNT(*), COUNT(*) * 2 FROM a JOIN b ON a.k = b.k \
       WHERE a.id > 3 AND b.id < 15 GROUP BY a.g, a.ks HAVING COUNT(*) > 2";
      "SELECT b.ks, b.g, COUNT(*) FROM a JOIN b ON a.kf = b.k WHERE b.g <> 'odd' \
       GROUP BY b.ks, b.g";
      "SELECT b.k, COUNT(*) FROM a JOIN b ON a.kmix = b.k GROUP BY b.k";
      (* groups with no aggregate, and HAVING over a group column *)
      "SELECT b.g FROM a JOIN b ON a.k = b.k GROUP BY b.g";
      "SELECT a.ks, COUNT(*) FROM a JOIN b ON a.kf = b.kf GROUP BY a.ks HAVING a.ks <> 'y'";
      "SELECT a.id, COUNT(*) FROM a JOIN b ON a.k = b.k GROUP BY a.id";
      "SELECT COUNT(*) FROM a JOIN b ON a.k = b.k HAVING COUNT(*) > 1000";
      (* a column outside GROUP BY reads the group's first join row *)
      "SELECT b.g, b.id, COUNT(*) FROM a JOIN b ON a.k = b.k GROUP BY b.g";
      "SELECT a.ks, COUNT(*) FROM a JOIN b ON a.ks = b.ks";
      (* a self-join, m:n on every key *)
      "SELECT x.g, COUNT(*) FROM a x JOIN a y ON x.k = y.k WHERE y.id > 4 GROUP BY x.g";
    ]

(* Shapes that keep today's join, still on the columnar engine. *)
let join_count_others =
  [
    "SELECT COUNT(b.k) FROM a JOIN b ON a.k = b.k";
    "SELECT a.g, b.g, COUNT(*) FROM a JOIN b ON a.k = b.k GROUP BY a.g, b.g";
    "SELECT a.g, SUM(b.kf) FROM a JOIN b ON a.k = b.k GROUP BY a.g";
    "SELECT COUNT(*) FROM a JOIN b ON a.k = b.k JOIN a c ON b.ks = c.ks";
  ]

(* A residual predicate across both tables: the row engine runs it, as it
   did before counting by key. *)
let join_count_residuals =
  [
    "SELECT COUNT(*) FROM a JOIN b ON a.k = b.k AND a.id < b.id";
    "SELECT a.g, COUNT(*) FROM a JOIN b ON a.k = b.k WHERE a.id + b.id > 10 GROUP BY a.g";
  ]

(* [sql] agrees 3-way as written, and row = columnar on its optimizer plan
   and with every inner join built left. *)
let check_join_count db metrics sql =
  check_columnar_3way db sql;
  let q = Flex_sql.Parser.parse_exn sql in
  check_plan_agrees db sql (Optimizer.plan ~metrics q);
  check_plan_agrees db sql (force_build_left q)

let columnar_count_tests =
  let db = lazy (join_count_fixture ()) in
  let columnar name queries =
    Alcotest.test_case name `Quick (fun () ->
        let db = Lazy.force db in
        let metrics = Metrics.compute db in
        List.iter
          (fun sql ->
            let before = Executor.columnar_fallbacks () in
            check_join_count db metrics sql;
            Alcotest.(check int) (sql ^ ": no fallback") before (Executor.columnar_fallbacks ()))
          queries)
  in
  [
    columnar "key traps agree 3-way in both build orientations" join_count_queries;
    columnar "other shapes keep the join and agree" join_count_others;
    Alcotest.test_case "residual predicates keep the row join and agree" `Quick (fun () ->
        let db = Lazy.force db in
        List.iter (check_join_count db (Metrics.compute db)) join_count_residuals);
    Alcotest.test_case "generated join counts and their cores agree" `Quick (fun () ->
        let rng = Rng.create ~seed:12 () in
        let db, metrics = Uber.generate ~sizes:Uber.small_sizes rng in
        let queries = Qgen.generate rng ~count:120 ~n_cities:12 ~n_drivers:120 ~n_users:200 in
        let joins = List.filter (fun (q : Qgen.t) -> q.has_join) queries in
        Alcotest.(check bool) "the corpus has joins" true (List.length joins > 30);
        let before = Executor.columnar_fallbacks () in
        List.iter
          (fun (q : Qgen.t) ->
            let core =
              match Flex_sql.Factor.factor (Flex_sql.Parser.parse_exn q.sql) with
              | Some f -> Flex_sql.Pretty.to_string f.Flex_sql.Factor.core
              | None -> q.sql
            in
            List.iter (check_join_count db metrics) [ q.sql; core ])
          joins;
        Alcotest.(check int) "no fallback" before (Executor.columnar_fallbacks ()));
  ]

let suites = suites @ [ ("columnar-join-count", columnar_count_tests) ]

(* --- explicit expectations for the new join/set-op edge cases ------------- *)

let edge_expectation_tests =
  [
    Alcotest.test_case "multi-key join skips NULL keys" `Quick (fun () ->
        (* dan (NULL age) and eve (NULL city_id) must not self-match *)
        let r =
          run
            "SELECT p.name FROM people p JOIN people q \
             ON p.city_id = q.city_id AND p.age = q.age ORDER BY p.id"
        in
        Alcotest.(check (list string)) "only non-NULL keys join"
          [ "ada"; "bob"; "cyd" ]
          (List.map (fun row -> Value.to_string row.(0)) r.rows));
    Alcotest.test_case "right join keeps unmatched right rows" `Quick (fun () ->
        let r =
          run "SELECT p.name, t.kind FROM people p RIGHT JOIN pets t ON p.id = t.owner_id"
        in
        Alcotest.(check int) "rows" 4 (List.length r.rows);
        let unmatched =
          List.filter (fun row -> Value.is_null row.(0)) r.rows
        in
        Alcotest.(check int) "fish owner missing" 1 (List.length unmatched));
    Alcotest.test_case "full join keeps both unmatched sides" `Quick (fun () ->
        let r =
          run "SELECT c.name, p.name FROM cities c FULL JOIN people p ON c.id = p.city_id"
        in
        (* 4 matched pairs; la has no people; eve has no city *)
        Alcotest.(check int) "rows" 6 (List.length r.rows);
        Alcotest.(check bool) "la unmatched" true
          (List.exists
             (fun row -> row.(0) = v_str "la" && Value.is_null row.(1))
             r.rows);
        Alcotest.(check bool) "eve unmatched" true
          (List.exists
             (fun row -> Value.is_null row.(0) && row.(1) = v_str "eve")
             r.rows));
    Alcotest.test_case "cross join with equality keys filters rows" `Quick (fun () ->
        (* regression: a Cross join carrying equality keys must apply them as
           filters, not drop every row *)
        let open Flex_sql.Ast in
        let col t c = Col { table = Some t; column = c } in
        let q =
          {
            ctes = [];
            body =
              Select
                {
                  distinct = false;
                  projections = [ Proj_expr (col "p" "name", None) ];
                  from =
                    [
                      Join
                        {
                          kind = Cross;
                          left = Table { name = "people"; alias = Some "p" };
                          right = Table { name = "cities"; alias = Some "c" };
                          cond = On (Binop (Eq, col "p" "city_id", col "c" "id"));
                        };
                    ];
                  where = None;
                  group_by = [];
                  having = None;
                };
            order_by = [ (col "p" "name", Asc) ];
            limit = None;
            offset = None;
          }
        in
        let r = Executor.run (fixture ()) q in
        Alcotest.(check (list string)) "equality keys act as filter"
          [ "ada"; "bob"; "cyd"; "dan" ]
          (List.map (fun row -> Value.to_string row.(0)) r.rows));
    Alcotest.test_case "distinct and set ops dedupe consistently" `Quick (fun () ->
        let r = run "SELECT DISTINCT kind FROM pets ORDER BY kind" in
        Alcotest.(check (list string)) "distinct" [ "cat"; "dog"; "fish" ]
          (List.map (fun row -> Value.to_string row.(0)) r.rows);
        let r =
          run "SELECT city_id FROM people INTERSECT SELECT id FROM cities"
        in
        Alcotest.(check int) "intersect" 2 (List.length r.rows));
    Alcotest.test_case "order by unprojected key" `Quick (fun () ->
        let r = run "SELECT name FROM people ORDER BY age DESC, id" in
        Alcotest.(check (list string)) "columns hidden again" [ "name" ] r.columns;
        Alcotest.(check (list string)) "order from hidden key"
          [ "cyd"; "ada"; "eve"; "bob"; "dan" ]
          (List.map (fun row -> Value.to_string row.(0)) r.rows));
    Alcotest.test_case "large limit is stack-safe" `Quick (fun () ->
        (* regression: take was not tail-recursive *)
        let rows = List.init 400_000 (fun i -> [| v_int i |]) in
        let t = Table.create ~name:"big" ~columns:[ "n" ] rows in
        let db = Database.of_tables [ t ] in
        match Executor.run_sql db "SELECT n FROM big LIMIT 399999" with
        | Ok r -> Alcotest.(check int) "rows" 399_999 (List.length r.rows)
        | Error e -> Alcotest.failf "limit query failed: %s" e);
  ]

let suites = suites @ [ ("executor-edge-cases", edge_expectation_tests) ]

(* --- row vectors and aggregates of the sequential row pipeline (appended) -- *)

module Vec = Flex_engine.Row_vec

let row_vec_tests =
  [
    Alcotest.test_case "map/filter preserve order and content" `Quick (fun () ->
        let l = List.init 100 Fun.id in
        let v = Vec.of_list l in
        Alcotest.(check (list int)) "map" (List.map (fun i -> 2 * i) l)
          (Vec.to_list (Vec.map (fun i -> 2 * i) v));
        Alcotest.(check (list int)) "filter"
          (List.filter (fun i -> i mod 3 = 0) l)
          (Vec.to_list (Vec.filter (fun i -> i mod 3 = 0) v));
        Alcotest.(check (list int)) "filter to nothing" []
          (Vec.to_list (Vec.filter (fun _ -> false) v));
        Alcotest.(check (list int)) "input untouched" l (Vec.to_list v));
    Alcotest.test_case "concatenation and slices keep order" `Quick (fun () ->
        Alcotest.(check (list int)) "of_arrays in array order" (List.init 7 Fun.id)
          (Vec.to_list (Vec.of_arrays [| [| 0; 1; 2 |]; [||]; [| 3 |]; [| 4; 5; 6 |] |]));
        let src = Array.init 20 Fun.id in
        let v = Vec.of_array src in
        src.(0) <- 99;
        Alcotest.(check int) "of_array copies" 0 (Vec.get v 0);
        Alcotest.(check (list int)) "slice" [ 10; 11; 12 ]
          (Vec.to_list (Vec.slice v ~offset:10 ~limit:(Some 3)));
        Alcotest.(check (list int)) "limit past the end" [ 18; 19 ]
          (Vec.to_list (Vec.slice v ~offset:18 ~limit:(Some 5)));
        Alcotest.(check (list int)) "offset past the end" []
          (Vec.to_list (Vec.slice v ~offset:200 ~limit:None)));
  ]

let aggregate_tests =
  let ints lo hi = List.init (hi - lo + 1) (fun i -> Value.Int (lo + i)) in
  let agg ?(distinct = false) ?(star = false) func vals =
    Aggregate.compute func ~distinct ~star ~nrows:(List.length vals) vals
  in
  [
    Alcotest.test_case "NULLs are skipped, empty groups are NULL or 0" `Quick (fun () ->
        let all = ints 1 100 @ [ Value.Null ] in
        let check name expected got = Alcotest.(check bool) name true (got = expected) in
        check "COUNT" (Value.Int 100) (agg Ast.Count all);
        check "COUNT(*)" (Value.Int 101) (agg ~star:true Ast.Count all);
        check "SUM" (Value.Int 5050) (agg Ast.Sum all);
        check "MIN" (Value.Int 1) (agg Ast.Min all);
        check "MAX" (Value.Int 100) (agg Ast.Max all);
        check "COUNT DISTINCT" (Value.Int 2)
          (agg ~distinct:true Ast.Count [ Value.Int 1; Value.Int 1; Value.Int 2; Value.Null ]);
        check "SUM with a float" (Value.Float 6.5) (agg Ast.Sum (ints 1 3 @ [ Value.Float 0.5 ]));
        check "empty COUNT is 0" (Value.Int 0) (agg Ast.Count []);
        check "all-NULL COUNT is 0" (Value.Int 0) (agg Ast.Count [ Value.Null ]);
        List.iter
          (fun f -> check ("empty " ^ Ast.agg_func_name f ^ " is NULL") Value.Null (agg f []))
          [ Ast.Sum; Ast.Avg; Ast.Min; Ast.Max; Ast.Median; Ast.Stddev ]);
    Alcotest.test_case "streaming compute matches the list compute" `Quick (fun () ->
        let inputs =
          [
            [];
            [ Value.Null ];
            ints 1 10 @ [ Value.Null; Value.Int 3 ];
            [ Value.Float 1.5; Value.Int 2; Value.Null; Value.Float 1.5 ];
            [ Value.String "a"; Value.Int 1 ];
          ]
        in
        let outcome f = match f () with v -> Ok v | exception Aggregate.Error _ -> Error () in
        List.iter
          (fun func ->
            List.iter
              (fun (distinct, star) ->
                List.iteri
                  (fun i vals ->
                    let nrows = List.length vals in
                    let listed =
                      outcome (fun () -> Aggregate.compute func ~distinct ~star ~nrows vals)
                    in
                    let streamed =
                      outcome (fun () ->
                          Aggregate.compute_iter func ~distinct ~star ~nrows
                            ~iter:(fun f -> List.iter f vals))
                    in
                    Alcotest.(check bool)
                      (Fmt.str "%s distinct=%b star=%b input %d" (Ast.agg_func_name func)
                         distinct star i)
                      true (listed = streamed))
                  inputs)
              (if func = Ast.Count then [ (false, false); (true, false); (false, true) ]
               else [ (false, false); (true, false) ]))
          [ Ast.Count; Ast.Sum; Ast.Avg; Ast.Min; Ast.Max; Ast.Median; Ast.Stddev ]);
  ]

let suites = suites @ [ ("row-vec", row_vec_tests); ("aggregate-compute", aggregate_tests) ]

(* --- key equality: Row_table alone decides whether two values are one key -- *)

module Tpch = Flex_workload.Tpch
module Flex = Flex_core.Flex

(* Values that two equalities could tell apart: one number in two spellings,
   NaNs of either sign, both zeros, look-alikes of other types, NULL, and the
   bottom int beside the float equal to it. *)
let trap_values =
  [
    v_int 1; v_float 1.0; v_float Float.nan; v_float (Float.neg Float.nan); v_float (-0.0);
    v_float 0.0; v_int 0; v_str "1"; Value.Bool true; Value.Null; v_int min_int;
    v_float (-0x1p62);
  ]

(* [t.x] holds the traps, [t.n] their numeric ones; [u.y] holds the same SQL
   values in reverse order, so its first spellings differ from [t]'s. *)
let trap_fixture () =
  let numeric v = match v with Value.Int _ | Value.Float _ -> v | _ -> Value.Null in
  Database.of_tables
    [
      Table.create ~name:"t" ~columns:[ "id"; "x"; "n" ]
        (List.mapi (fun i v -> [| v_int i; v; numeric v |]) trap_values);
      Table.create ~name:"u" ~columns:[ "id"; "y" ]
        (List.mapi (fun i v -> [| v_int i; v |]) (List.rev trap_values));
    ]

let trap_queries =
  [
    "SELECT x, COUNT(*) FROM t GROUP BY x";
    "SELECT DISTINCT x FROM t";
    "SELECT COUNT(DISTINCT x) FROM t";
    "SELECT COUNT(DISTINCT n), SUM(DISTINCT n), AVG(DISTINCT n) FROM t";
    "SELECT SUM(DISTINCT n), AVG(DISTINCT n) FROM t WHERE id < 2 OR id > 3";
    "SELECT x FROM t UNION SELECT y FROM u";
    "SELECT x FROM t WHERE id < 7 EXCEPT SELECT y FROM u WHERE id < 6";
    "SELECT x FROM t EXCEPT ALL SELECT y FROM u WHERE id < 8";
    "SELECT x FROM t INTERSECT SELECT y FROM u WHERE id >= 6";
    "SELECT x FROM t INTERSECT ALL SELECT y FROM u WHERE id >= 7";
    "SELECT COUNT(*) FROM t a JOIN t b ON a.x = b.x";
    "SELECT COUNT(*) FROM t JOIN u ON t.x = u.y";
    "SELECT t.x, COUNT(*) FROM t JOIN u ON t.x = u.y GROUP BY t.x";
  ]

(* The largest count of [SELECT COUNT(c) FROM table GROUP BY c], as the
   engine runs it. *)
let engine_mf db table column =
  let sql = Fmt.str "SELECT COUNT(%s) FROM %s GROUP BY %s" column table column in
  List.fold_left
    (fun acc row -> max acc (Option.value ~default:0 (Value.to_int row.(0))))
    0 (Executor.run_sql_exn db sql).rows

let check_mf_is_group_by db =
  List.iter
    (fun name ->
      let table = Database.find db name in
      Array.iter
        (fun c ->
          Alcotest.(check int) (Fmt.str "mf(%s.%s)" name c) (engine_mf db name c)
            (Metrics.compute_mf table c))
        (Table.columns table))
    (Database.table_names db)

(* Pairs that [Value.equal] often holds across: the second value is mostly
   another spelling of the first. *)
let arb_value_pair =
  let open QCheck.Gen in
  let p53 = 1 lsl 53 in
  let num =
    oneof
      [
        oneofl [ min_int; min_int + 1; max_int; max_int - 1 ];
        map2 ( + ) (oneofl [ p53; -p53 ]) (int_range (-1) 1);
        small_signed_int;
      ]
  in
  let value =
    frequency
      [
        (4, map v_int num);
        (4, map (fun i -> v_float (float_of_int i)) num);
        (1, oneofl [ v_float (-0.0); v_float Float.nan; v_float (Float.neg Float.nan); v_float 0.5 ]);
        (1, oneofl [ v_str "1"; v_str ""; Value.Bool true; Value.Bool false; Value.Null ]);
      ]
  in
  let respell v =
    match v with
    | Value.Int i -> return (v_float (float_of_int i))
    | Value.Float f when Float.is_integer f && f >= -0x1p62 && f < 0x1p62 ->
      oneofl [ v_int (int_of_float f); v_float f ]
    | Value.Float f when Float.is_nan f -> oneofl [ v_float Float.nan; v_float (Float.neg f) ]
    | v -> return v
  in
  QCheck.make
    ~print:(fun (a, b) ->
      let show = function Value.Float f -> Fmt.str "Float %h" f | v -> Value.to_string v in
      Fmt.str "(%s, %s)" (show a) (show b))
    (value >>= fun a -> frequency [ (3, respell a); (1, value) ] >|= fun b -> (a, b))

let key_equality_tests =
  let db = lazy (trap_fixture ()) in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"Value.equal a b implies Value.hash a = Value.hash b" ~count:2000
         arb_value_pair (fun (a, b) -> (not (Value.equal a b)) || Value.hash a = Value.hash b));
    Alcotest.test_case "the trap column agrees 3-way" `Quick (fun () ->
        List.iter (check_columnar_3way (Lazy.force db)) trap_queries);
    Alcotest.test_case "every engine merges the spellings of a key" `Quick (fun () ->
        let db = Lazy.force db in
        let rows sql = List.length (Executor.run_sql_exn db sql).rows in
        let count sql =
          match (Executor.run_sql_exn db sql).rows with
          | [ [| Value.Int n |] ] -> n
          | _ -> Alcotest.failf "expected one count: %s" sql
        in
        List.iter
          (fun on ->
            with_columnar on (fun () ->
                (* {1, 1.0}, {NaN, -NaN}, {-0.0, 0.0, 0}, '1', true, NULL, {min_int, -2^62} *)
                Alcotest.(check int) "groups" 7 (rows "SELECT x, COUNT(*) FROM t GROUP BY x");
                Alcotest.(check int) "DISTINCT" 7 (rows "SELECT DISTINCT x FROM t");
                Alcotest.(check int) "COUNT(DISTINCT)" 6 (count "SELECT COUNT(DISTINCT x) FROM t");
                Alcotest.(check int) "self-join" 23
                  (count "SELECT COUNT(*) FROM t a JOIN t b ON a.x = b.x");
                Alcotest.(check int) "join" 23 (count "SELECT COUNT(*) FROM t JOIN u ON t.x = u.y")))
          [ false; true ]);
    Alcotest.test_case "COUNT(DISTINCT) and SUM(DISTINCT) read SELECT DISTINCT" `Quick
      (fun () ->
        let db = Lazy.force db in
        let same name a b =
          List.iter
            (fun on ->
              with_columnar on (fun () ->
                  check_row_columnar_agree name (Executor.run_sql db a) (Executor.run_sql db b)))
            [ false; true ];
          check_row_columnar_agree name
            (Result.map (fun r -> { Executor.columns = r.Reference.columns; rows = r.rows })
               (Reference.run_sql db a))
            (Executor.run_sql db b)
        in
        List.iter
          (fun (c, where) ->
            same (c ^ where)
              (Fmt.str "SELECT COUNT(DISTINCT %s) AS v FROM t%s" c where)
              (Fmt.str "SELECT COUNT(%s) AS v FROM (SELECT DISTINCT %s FROM t%s) s" c c where))
          [ ("x", ""); ("n", ""); ("n", " WHERE id < 2 OR id > 3") ];
        same "SUM DISTINCT"
          "SELECT SUM(DISTINCT n) AS v FROM t WHERE id < 2 OR id > 3"
          "SELECT SUM(n) AS v FROM (SELECT DISTINCT n FROM t WHERE id < 2 OR id > 3) s");
    Alcotest.test_case "mf is the engine's GROUP BY count: the trap column" `Quick (fun () ->
        let db = Lazy.force db in
        Alcotest.(check int) "mf(t.x)" 3 (Metrics.compute_mf (Database.find db "t") "x");
        check_mf_is_group_by db);
    Alcotest.test_case "mf is the engine's GROUP BY count: Uber and TPC-H" `Quick (fun () ->
        check_mf_is_group_by (fst (Uber.generate ~sizes:Uber.small_sizes (Rng.create ~seed:7 ())));
        check_mf_is_group_by (fst (Tpch.generate ~scale:0.002 (Rng.create ~seed:3 ()))));
    Alcotest.test_case "a public histogram pads one bin per key" `Quick (fun () ->
        let keys name vs = Table.create ~name ~columns:[ "k" ] (List.map (fun v -> [| v |]) vs) in
        let db =
          Database.of_tables
            [
              keys "t" [ v_int 1; v_int 1; v_int 2 ];
              keys "p" [ v_int 1; v_float 1.0; v_int 2; v_int 3 ];
            ]
        in
        let metrics = Metrics.compute db in
        Metrics.set_public metrics "p";
        let options = Flex.options ~epsilon:1.0 ~delta:1e-6 () in
        match
          Flex.run_sql ~rng:(Rng.create ~seed:1 ()) ~options ~db ~metrics
            "SELECT p.k, COUNT(*) FROM t JOIN p ON t.k = p.k GROUP BY p.k"
        with
        | Error r -> Alcotest.failf "rejected: %s" (Flex_core.Errors.to_string r)
        | Ok release ->
          Alcotest.(check bool) "bins enumerated" true release.bins_enumerated;
          Alcotest.(check (list string)) "one bin per key" [ "1"; "2"; "3" ]
            (List.map (fun row -> Value.to_string row.(0)) release.noisy.rows));
  ]

let suites = suites @ [ ("key-equality", key_equality_tests) ]
