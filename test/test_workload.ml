module Value = Flex_engine.Value
module Table = Flex_engine.Table
module Database = Flex_engine.Database
module Metrics = Flex_engine.Metrics
module Executor = Flex_engine.Executor
module Rng = Flex_dp.Rng
module Flex = Flex_core.Flex
module Errors = Flex_core.Errors
module W = Flex_workload

let uber_ctx =
  lazy
    (let rng = Rng.create ~seed:7 () in
     let db, metrics = W.Uber.generate ~sizes:W.Uber.small_sizes rng in
     (db, metrics))

let uber_tests =
  [
    Alcotest.test_case "schema and sizes" `Quick (fun () ->
        let db, _ = Lazy.force uber_ctx in
        List.iter
          (fun t -> Alcotest.(check bool) t true (Database.mem db t))
          [ "trips"; "drivers"; "users"; "cities"; "analytics"; "user_tags" ];
        Alcotest.(check int) "trips" W.Uber.small_sizes.W.Uber.trips
          (Table.row_count (Database.find db "trips")));
    Alcotest.test_case "cities marked public" `Quick (fun () ->
        let _, metrics = Lazy.force uber_ctx in
        Alcotest.(check bool) "public" true (Metrics.is_public metrics "cities");
        Alcotest.(check bool) "trips private" false (Metrics.is_public metrics "trips"));
    Alcotest.test_case "referential integrity" `Quick (fun () ->
        let db, _ = Lazy.force uber_ctx in
        let orphan =
          Executor.run_sql db
            "SELECT COUNT(*) FROM trips t LEFT JOIN drivers d ON t.driver_id = \
             d.id WHERE d.id IS NULL"
        in
        match orphan with
        | Ok { rows = [ [| Value.Int 0 |] ]; _ } -> ()
        | Ok { rows = [ [| v |] ]; _ } ->
          Alcotest.failf "%s orphan trips" (Value.to_string v)
        | _ -> Alcotest.fail "query failed");
    Alcotest.test_case "zipf keys give skewed mf" `Quick (fun () ->
        let _, metrics = Lazy.force uber_ctx in
        let mf = Option.get (Metrics.mf metrics ~table:"trips" ~column:"driver_id") in
        (* far above the uniform expectation trips/drivers = 12.5 *)
        Alcotest.(check bool) "skew" true (mf > 40));
    Alcotest.test_case "analytics agrees with trips rollup" `Quick (fun () ->
        let db, _ = Lazy.force uber_ctx in
        match
          Executor.run_sql db
            "SELECT SUM(completed_trips) FROM analytics"
        with
        | Ok { rows = [ [| total |] ]; _ } -> (
          match
            Executor.run_sql db
              "SELECT COUNT(*) FROM trips WHERE status = 'completed'"
          with
          | Ok { rows = [ [| expected |] ]; _ } ->
            Alcotest.(check bool) "rollup consistent" true (Value.equal total expected)
          | _ -> Alcotest.fail "trips query failed")
        | _ -> Alcotest.fail "analytics query failed");
  ]

let qgen_tests =
  [
    Alcotest.test_case "generated queries parse and execute" `Quick (fun () ->
        let db, _ = Lazy.force uber_ctx in
        let rng = Rng.create ~seed:12 () in
        let queries =
          W.Qgen.generate rng ~count:60 ~n_cities:12 ~n_drivers:120 ~n_users:200
        in
        List.iter
          (fun (q : W.Qgen.t) ->
            (match Flex_sql.Parser.parse q.W.Qgen.sql with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "parse failed: %s (%s)" e q.W.Qgen.sql);
            match Executor.run_sql db q.W.Qgen.sql with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "execution failed: %s (%s)" e q.W.Qgen.sql)
          queries);
    Alcotest.test_case "population queries return counts" `Quick (fun () ->
        let db, _ = Lazy.force uber_ctx in
        let rng = Rng.create ~seed:13 () in
        let queries = W.Qgen.generate rng ~count:20 ~n_cities:12 ~n_drivers:120 ~n_users:200 in
        List.iter
          (fun (q : W.Qgen.t) ->
            let p = W.Experiments.population_of db q.W.Qgen.population_sql in
            Alcotest.(check bool) "non-negative" true (p >= 0))
          queries);
    Alcotest.test_case "most generated queries are FLEX-supported" `Quick (fun () ->
        let db, metrics = Lazy.force uber_ctx in
        let rng = Rng.create ~seed:14 () in
        let queries = W.Qgen.generate rng ~count:50 ~n_cities:12 ~n_drivers:120 ~n_users:200 in
        let options = Flex.options ~epsilon:1.0 ~delta:1e-8 () in
        let ok =
          List.length
            (List.filter
               (fun (q : W.Qgen.t) ->
                 Result.is_ok
                   (Flex.run_sql ~rng ~options ~db ~metrics q.W.Qgen.sql))
               queries)
        in
        Alcotest.(check bool) "all supported" true (ok = 50));
  ]

let corpus_tests =
  [
    Alcotest.test_case "corpus statistics approximate the paper's marginals" `Quick
      (fun () ->
        let rng = Rng.create ~seed:21 () in
        let corpus = W.Corpus.generate rng 3000 in
        let s = W.Corpus.stats corpus in
        Alcotest.(check int) "total" 3000 s.W.Corpus.total;
        Alcotest.(check int) "no parse failures" 0 s.W.Corpus.parse_failures;
        let pct n = 100.0 *. float_of_int n /. 3000.0 in
        let join_pct = pct s.W.Corpus.join_queries in
        Alcotest.(check bool) "join share ~62%" true (join_pct > 56.0 && join_pct < 68.0);
        let stat_pct = pct s.W.Corpus.statistical_queries in
        Alcotest.(check bool) "statistical ~34%" true (stat_pct > 28.0 && stat_pct < 40.0);
        (* Vertica dominates backends *)
        (match s.W.Corpus.backends with
        | (top, _) :: _ -> Alcotest.(check string) "top backend" "Vertica" top
        | [] -> Alcotest.fail "no backends");
        (* equijoins dominate join conditions *)
        match s.W.Corpus.join_conditions with
        | (top, _) :: _ -> Alcotest.(check string) "top condition" "equijoin" top
        | [] -> Alcotest.fail "no join conditions");
    Alcotest.test_case "every corpus query parses under the depth limit" `Quick (fun () ->
        let parses what sql =
          match Flex_sql.Parser.parse sql with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "%s query does not parse (%s): %s" what e sql
        in
        let sizes = W.Uber.default_sizes in
        List.iter
          (fun (q : W.Qgen.t) ->
            parses "Qgen" q.sql;
            parses "Qgen" q.population_sql)
          (W.Qgen.generate (Rng.create ~seed:11 ()) ~count:120 ~n_cities:sizes.cities
             ~n_drivers:sizes.drivers ~n_users:sizes.users);
        List.iter
          (fun (q : W.Tpch.query) ->
            parses "TPC-H" q.sql;
            parses "TPC-H" (W.Tpch.population_sql q.name))
          W.Tpch.queries;
        List.iter (fun (p : W.Representative.program) -> parses "5.5" p.sql) W.Representative.programs;
        List.iter
          (fun (q : W.Corpus.qdesc) -> parses "section 2" q.sql)
          (W.Corpus.generate (Rng.create ~seed:1 ()) 20000));
    Alcotest.test_case "corpus generation is deterministic" `Quick (fun () ->
        let c1 = W.Corpus.generate (Rng.create ~seed:5 ()) 50 in
        let c2 = W.Corpus.generate (Rng.create ~seed:5 ()) 50 in
        Alcotest.(check bool) "equal" true (c1 = c2));
  ]

let tpch_tests =
  [
    Alcotest.test_case "tables have spec-shaped cardinalities" `Quick (fun () ->
        let rng = Rng.create ~seed:31 () in
        let db, metrics = W.Tpch.generate ~scale:0.002 rng in
        Alcotest.(check int) "regions" 5 (Table.row_count (Database.find db "region"));
        Alcotest.(check int) "nations" 25 (Table.row_count (Database.find db "nation"));
        Alcotest.(check bool) "lineitem largest" true
          (Table.row_count (Database.find db "lineitem")
          > Table.row_count (Database.find db "orders"));
        List.iter
          (fun t -> Alcotest.(check bool) t true (Metrics.is_public metrics t))
          [ "region"; "nation"; "part" ];
        List.iter
          (fun t -> Alcotest.(check bool) t false (Metrics.is_public metrics t))
          [ "customer"; "orders"; "lineitem"; "supplier"; "partsupp" ]);
    Alcotest.test_case "all five queries execute" `Quick (fun () ->
        let rng = Rng.create ~seed:32 () in
        let db, _ = W.Tpch.generate ~scale:0.002 rng in
        List.iter
          (fun (q : W.Tpch.query) ->
            match Executor.run_sql db q.W.Tpch.sql with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "%s failed: %s" q.W.Tpch.name e)
          W.Tpch.queries);
    Alcotest.test_case "all five queries pass the FLEX analysis" `Quick (fun () ->
        let rng = Rng.create ~seed:33 () in
        let db, metrics = W.Tpch.generate ~scale:0.002 rng in
        let options = Flex.options ~epsilon:0.1 ~delta:1e-8 () in
        List.iter
          (fun (q : W.Tpch.query) ->
            match Flex.run_sql ~rng ~options ~db ~metrics q.W.Tpch.sql with
            | Ok _ -> ()
            | Error r ->
              Alcotest.failf "%s rejected: %s" q.W.Tpch.name (Errors.to_string r))
          W.Tpch.queries);
  ]

let graph_tests =
  [
    Alcotest.test_case "max frequency pinned to 65" `Quick (fun () ->
        let rng = Rng.create ~seed:41 () in
        let _, metrics = W.Graph.generate rng in
        Alcotest.(check (option int)) "source" (Some 65)
          (Metrics.mf metrics ~table:"edges" ~column:"source");
        Alcotest.(check (option int)) "dest" (Some 65)
          (Metrics.mf metrics ~table:"edges" ~column:"dest"));
    Alcotest.test_case "triangle query runs end to end" `Quick (fun () ->
        let rng = Rng.create ~seed:42 () in
        let db, metrics = W.Graph.generate ~nodes:100 ~extra_edges:300 rng in
        let options = Flex.options ~epsilon:0.7 ~delta:1e-8 () in
        match Flex.run_sql ~rng ~options ~db ~metrics W.Graph.triangle_sql with
        | Ok release ->
          Alcotest.(check int) "one bound" 1 (List.length release.Flex.column_releases)
        | Error r -> Alcotest.failf "rejected: %s" (Errors.to_string r));
  ]

let experiments_tests =
  [
    Alcotest.test_case "workload driver produces measurements" `Quick (fun () ->
        let db, metrics = Lazy.force uber_ctx in
        let rng = Rng.create ~seed:51 () in
        let queries = W.Qgen.generate rng ~count:15 ~n_cities:12 ~n_drivers:120 ~n_users:200 in
        let options = Flex.options ~epsilon:0.1 ~delta:1e-8 () in
        let outcome =
          W.Experiments.run_workload ~runs:2 ~rng ~options ~db ~metrics queries
        in
        Alcotest.(check int) "all measured" 15
          (List.length outcome.W.Experiments.measurements
          + List.length outcome.W.Experiments.rejected);
        List.iter
          (fun (m : W.Experiments.measurement) ->
            Alcotest.(check bool) "error non-negative" true (m.W.Experiments.median_error >= 0.0))
          outcome.W.Experiments.measurements);
    Alcotest.test_case "error bins sum to 100%" `Quick (fun () ->
        let bins = W.Experiments.error_bins [ 0.5; 3.0; 7.0; 15.0; 50.0; 500.0 ] in
        let total = List.fold_left (fun acc (_, p) -> acc +. p) 0.0 bins in
        Alcotest.(check (float 1e-6)) "total" 100.0 total;
        List.iter
          (fun (_, p) -> Alcotest.(check (float 1e-6)) "uniform" (100.0 /. 6.0) p)
          bins);
    Alcotest.test_case "population buckets" `Quick (fun () ->
        let buckets = W.Experiments.population_buckets [ 5; 150; 5000; 50_000 ] in
        List.iter (fun (_, n) -> Alcotest.(check int) "one each" 1 n) buckets);
    Alcotest.test_case "representative programs: SQL and wPINQ agree on truth" `Quick
      (fun () ->
        let db, _ = Lazy.force uber_ctx in
        let rng = Rng.create ~seed:52 () in
        List.iter
          (fun (p : W.Representative.program) ->
            (* the wPINQ total weight at huge epsilon should approximate the
               SQL truth for the non-rescaled scalar programs *)
            match Executor.run_sql db p.W.Representative.sql with
            | Ok _ ->
              let results = p.W.Representative.wpinq db rng ~epsilon:1000.0 in
              Alcotest.(check bool)
                (p.W.Representative.name ^ " produced output")
                true (results <> [])
            | Error e -> Alcotest.failf "%s failed: %s" p.W.Representative.name e)
          W.Representative.programs);
    Alcotest.test_case "comparison driver runs" `Quick (fun () ->
        let db, metrics = Lazy.force uber_ctx in
        let rng = Rng.create ~seed:53 () in
        let options = Flex.options ~epsilon:0.1 ~delta:1e-8 () in
        let rows = W.Experiments.run_comparison ~runs:2 ~rng ~options ~db ~metrics () in
        Alcotest.(check int) "six programs" 6 (List.length rows));
    Alcotest.test_case "tpch driver runs" `Quick (fun () ->
        let rng = Rng.create ~seed:54 () in
        let db, metrics = W.Tpch.generate ~scale:0.002 rng in
        let options = Flex.options ~epsilon:0.1 ~delta:1e-8 () in
        let ok, bad = W.Experiments.run_tpch ~runs:1 ~rng ~options ~db ~metrics () in
        Alcotest.(check int) "five measured" 5 (List.length ok);
        Alcotest.(check int) "none rejected" 0 (List.length bad));
  ]

let suites =
  [
    ("workload-uber", uber_tests);
    ("workload-qgen", qgen_tests);
    ("workload-corpus", corpus_tests);
    ("workload-tpch", tpch_tests);
    ("workload-graph", graph_tests);
    ("workload-experiments", experiments_tests);
  ]

(* --- datagen helpers (appended) ------------------------------------------------ *)

let datagen_tests =
  [
    Alcotest.test_case "day_of_2016 covers the leap year" `Quick (fun () ->
        Alcotest.(check string) "day 0" "2016-01-01" (W.Datagen.day_of_2016 0);
        Alcotest.(check string) "leap day" "2016-02-29" (W.Datagen.day_of_2016 59);
        Alcotest.(check string) "march 1" "2016-03-01" (W.Datagen.day_of_2016 60);
        Alcotest.(check string) "last day" "2016-12-31" (W.Datagen.day_of_2016 365));
    Alcotest.test_case "dates are monotone in the day index" `Quick (fun () ->
        let prev = ref "" in
        for d = 0 to 365 do
          let s = W.Datagen.day_of_2016 d in
          Alcotest.(check bool) "increasing" true (s > !prev);
          prev := s
        done);
    Alcotest.test_case "random_date_range stays in range" `Quick (fun () ->
        let rng = Rng.create ~seed:1 () in
        for _ = 1 to 500 do
          let s = W.Datagen.random_date_range rng ~from_day:100 ~to_day:120 in
          Alcotest.(check bool) s true
            (s >= W.Datagen.day_of_2016 100 && s <= W.Datagen.day_of_2016 120)
        done);
  ]

let suites = suites @ [ ("workload-datagen", datagen_tests) ]
