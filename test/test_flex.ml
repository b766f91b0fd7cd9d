module Value = Flex_engine.Value
module Metrics = Flex_engine.Metrics
module Rng = Flex_dp.Rng
module Budget = Flex_dp.Budget
module Flex = Flex_core.Flex
module Elastic = Flex_core.Elastic
module Errors = Flex_core.Errors
module Histogram = Flex_core.Histogram

let setup () =
  let rng = Rng.create ~seed:2024 () in
  let db, metrics =
    Flex_workload.Uber.generate ~sizes:Flex_workload.Uber.small_sizes rng
  in
  (rng, db, metrics)

let opts ?(epsilon = 1.0) () =
  Flex.options ~epsilon ~delta:1e-8 ()

let run ?budget ?(epsilon = 1.0) (rng, db, metrics) sql =
  Flex.run_sql ?budget ~rng ~options:(opts ~epsilon ()) ~db ~metrics sql

let run_ok ?budget ?epsilon ctx sql =
  match run ?budget ?epsilon ctx sql with
  | Ok r -> r
  | Error r -> Alcotest.failf "FLEX rejected %s: %s" sql (Errors.to_string r)

let mechanism_tests =
  [
    Alcotest.test_case "noisy scalar count is perturbed but centred" `Quick (fun () ->
        let ctx = setup () in
        let release = run_ok ctx "SELECT COUNT(*) FROM trips" in
        let truth =
          match release.Flex.true_result.rows with
          | [ [| v |] ] -> Option.get (Value.to_float v)
          | _ -> Alcotest.fail "scalar expected"
        in
        let noisy =
          match release.Flex.noisy.rows with
          | [ [| v |] ] -> Option.get (Value.to_float v)
          | _ -> Alcotest.fail "scalar expected"
        in
        let scale = (List.hd release.Flex.column_releases).Flex.noise_scale in
        Alcotest.(check bool) "within 20 scales" true
          (Float.abs (noisy -. truth) < 20.0 *. scale));
    Alcotest.test_case "determinism under a fixed seed" `Quick (fun () ->
        let _, db, metrics = setup () in
        let sql = "SELECT COUNT(*) FROM trips WHERE status = 'completed'" in
        let one () =
          let rng = Rng.create ~seed:99 () in
          match Flex.run_sql ~rng ~options:(opts ()) ~db ~metrics sql with
          | Ok r -> r.Flex.noisy.rows
          | Error _ -> Alcotest.fail "rejected"
        in
        Alcotest.(check bool) "same noise" true (one () = one ()));
    Alcotest.test_case "release is bit-identical with columnar on or off" `Quick (fun () ->
        (* the DP pipeline must be invariant under the execution engine: an
           exact COUNT plus a fixed RNG stream gives the same noisy release
           whether the row or the columnar engine computed the truth — on
           the unoptimized plan of the query as written and on the
           optimizer plans the server executes *)
        let _, db, metrics = setup () in
        let with_columnar on f =
          let prev = !Flex_engine.Columnar.enabled in
          Flex_engine.Columnar.enabled := on;
          Fun.protect
            ~finally:(fun () -> Flex_engine.Columnar.enabled := prev)
            f
        in
        let same_release sql =
          List.iter
            (fun optimize ->
              let one on =
                with_columnar on (fun () ->
                    let rng = Rng.create ~seed:77 () in
                    match Flex.run_sql ~optimize ~rng ~options:(opts ()) ~db ~metrics sql with
                    | Ok r -> (r.Flex.true_result.rows, r.Flex.noisy.rows)
                    | Error _ -> Alcotest.failf "rejected: %s" sql)
              in
              let what = Fmt.str "%s (optimize %b)" sql optimize in
              let t_row, n_row = one false and t_col, n_col = one true in
              Alcotest.(check bool) (what ^ ": same truth") true (t_row = t_col);
              Alcotest.(check bool) (what ^ ": same release") true (n_row = n_col))
            [ false; true ]
        in
        List.iter same_release
          [
            "SELECT COUNT(*) FROM trips WHERE status = 'completed'";
            "SELECT t.status, COUNT(*) FROM trips t GROUP BY t.status";
            "SELECT c.name, COUNT(*) FROM trips t JOIN cities c ON t.city_id = c.id \
             GROUP BY c.name";
            (* join counts by key: grouped on either side, and m:n *)
            "SELECT d.vehicle, COUNT(*) FROM trips t JOIN drivers d ON t.driver_id = d.id \
             WHERE t.status = 'completed' GROUP BY d.vehicle";
            "SELECT t.status, COUNT(*) FROM trips t JOIN trips t2 ON t.rider_id = t2.rider_id \
             WHERE t2.status = 'cancelled' GROUP BY t.status";
            "SELECT COUNT(*) FROM users u JOIN user_tags g ON u.id = g.user_id \
             WHERE g.tag = 'vip'";
          ];
        (* plans that hash their left input: the generated m:n self-join, the
           section 5.5 drivers x analytics program, and a float SUM whose
           accumulation order is the join's row order *)
        let p3 =
          List.find
            (fun (p : Flex_workload.Representative.program) -> p.name = "P3")
            Flex_workload.Representative.programs
        in
        List.iter
          (fun sql ->
            let plan =
              Flex_engine.Optimizer.plan ~metrics (Flex_sql.Parser.parse_exn sql)
            in
            Alcotest.(check bool) (sql ^ ": plan builds left") true
              (Astring.String.is_infix ~affix:"build=left" (Flex_engine.Plan.to_string plan));
            same_release sql)
          [
            "SELECT COUNT(*) FROM trips t JOIN trips t2 ON t.rider_id = t2.rider_id \
             WHERE t.status = 'completed' AND t2.status = 'cancelled' \
             AND t.requested_at >= '2016-03-01' AND t.requested_at < '2016-03-08'";
            p3.sql;
            "SELECT d.status, SUM(t.fare) FROM drivers d JOIN trips t ON d.id = t.driver_id \
             WHERE d.vehicle = 'motorbike' GROUP BY d.status";
          ]);
    Alcotest.test_case "group keys pass through unperturbed" `Quick (fun () ->
        let ctx = setup () in
        let release = run_ok ctx "SELECT t.status, COUNT(*) FROM trips t GROUP BY t.status" in
        List.iter
          (fun row ->
            match row.(0) with
            | Value.String _ -> ()
            | v -> Alcotest.failf "key cell was perturbed: %s" (Value.to_string v))
          release.Flex.noisy.rows);
    Alcotest.test_case "larger epsilon means less noise on average" `Quick (fun () ->
        let _, db, metrics = setup () in
        let sql = "SELECT COUNT(*) FROM trips t JOIN drivers d ON t.driver_id = d.id" in
        let avg_err epsilon =
          let rng = Rng.create ~seed:5 () in
          let total = ref 0.0 in
          for _ = 1 to 30 do
            match
              Flex.run_sql ~rng ~options:(opts ~epsilon ()) ~db ~metrics sql
            with
            | Ok r -> (
              match Flex.median_relative_error r with
              | Some e when Float.is_finite e -> total := !total +. e
              | _ -> ())
            | Error _ -> Alcotest.fail "rejected"
          done;
          !total /. 30.0
        in
        Alcotest.(check bool) "eps=10 beats eps=0.1" true (avg_err 10.0 < avg_err 0.1));
    Alcotest.test_case "budget is charged per aggregate column" `Quick (fun () ->
        let ctx = setup () in
        let budget = Budget.create ~epsilon:10.0 ~delta:1.0 in
        ignore (run_ok ~budget ctx "SELECT COUNT(*) FROM trips");
        let e1, _ = Budget.spent_basic budget in
        Alcotest.(check (float 1e-9)) "one column" 1.0 e1;
        ignore
          (run_ok ~budget ctx
             "SELECT COUNT(*), COUNT(DISTINCT driver_id) FROM trips");
        let e2, _ = Budget.spent_basic budget in
        Alcotest.(check (float 1e-9)) "two more columns" 3.0 e2);
    Alcotest.test_case "exhausted budget refuses queries" `Quick (fun () ->
        let ctx = setup () in
        let budget = Budget.create ~epsilon:1.5 ~delta:1.0 in
        ignore (run_ok ~budget ctx "SELECT COUNT(*) FROM trips");
        match run ~budget ctx "SELECT COUNT(*) FROM trips" with
        | exception Budget.Exhausted _ -> ()
        | Ok _ -> Alcotest.fail "expected exhaustion"
        | Error r -> Alcotest.failf "wrong error: %s" (Errors.to_string r));
    Alcotest.test_case "rejections propagate with classification" `Quick (fun () ->
        let ctx = setup () in
        (match run ctx "SELECT id FROM trips" with
        | Error (Errors.Unsupported Errors.Raw_data_query) -> ()
        | _ -> Alcotest.fail "raw query must be rejected");
        match run ctx "SELECT COUNT(*) FROM trips t JOIN drivers d ON t.fare > d.rating" with
        | Error (Errors.Unsupported (Errors.Non_equijoin _)) -> ()
        | _ -> Alcotest.fail "non-equijoin must be rejected");
    Alcotest.test_case "delta_for_size follows n^(-ln n)" `Quick (fun () ->
        let n = 1000 in
        Alcotest.(check (float 1e-12))
          "formula"
          (Float.pow 1000.0 (-.log 1000.0))
          (Flex.delta_for_size n));
    Alcotest.test_case "analyze_only returns smooth bounds without a database" `Quick
      (fun () ->
        let _, _, metrics = setup () in
        match
          Flex.analyze_only ~options:(opts ())
            ~metrics "SELECT COUNT(*) FROM trips t JOIN drivers d ON t.driver_id = d.id"
        with
        | Ok (_, [ (name, _, smooth) ]) ->
          Alcotest.(check string) "column" "count" name;
          Alcotest.(check bool) "positive bound" true (smooth.Flex_dp.Smooth.smooth_bound >= 1.0)
        | Ok _ -> Alcotest.fail "expected one bound"
        | Error r -> Alcotest.failf "rejected: %s" (Errors.to_string r));
    Alcotest.test_case "round_counts releases integers" `Quick (fun () ->
        let rng, db, metrics = setup () in
        let options = Flex.options ~epsilon:1.0 ~delta:1e-8 ~round_counts:true () in
        match Flex.run_sql ~rng ~options ~db ~metrics "SELECT COUNT(*) FROM trips" with
        | Ok r -> (
          match r.Flex.noisy.rows with
          | [ [| Value.Int _ |] ] -> ()
          | _ -> Alcotest.fail "expected integer release")
        | Error _ -> Alcotest.fail "rejected");
  ]

let histogram_tests =
  [
    Alcotest.test_case "public bins are enumerated with noisy zeros" `Quick (fun () ->
        let ctx = setup () in
        let release =
          run_ok ctx
            "SELECT c.name, COUNT(*) FROM trips t JOIN cities c ON t.city_id = \
             c.id WHERE t.requested_at = '2016-03-14' GROUP BY c.name"
        in
        Alcotest.(check bool) "enumerated" true release.Flex.bins_enumerated;
        (* all cities present in the noisy output *)
        let _, db, _ = ctx in
        let n_cities =
          Flex_engine.Table.row_count (Flex_engine.Database.find db "cities")
        in
        Alcotest.(check int) "one row per city" n_cities
          (List.length release.Flex.noisy.rows));
    Alcotest.test_case "protected bins are not enumerated" `Quick (fun () ->
        let ctx = setup () in
        let release =
          run_ok ctx "SELECT t.driver_id, COUNT(*) FROM trips t GROUP BY t.driver_id"
        in
        Alcotest.(check bool) "not enumerated" false release.Flex.bins_enumerated);
    Alcotest.test_case "enumeration can be disabled" `Quick (fun () ->
        let rng, db, metrics = setup () in
        let options = Flex.options ~epsilon:1.0 ~delta:1e-8 ~enumerate_bins:false () in
        match
          Flex.run_sql ~rng ~options ~db ~metrics
            "SELECT c.name, COUNT(*) FROM trips t JOIN cities c ON t.city_id = \
             c.id GROUP BY c.name"
        with
        | Ok r -> Alcotest.(check bool) "off" false r.Flex.bins_enumerated
        | Error _ -> Alcotest.fail "rejected");
    Alcotest.test_case "median error aligns enumerated bins with truth" `Quick (fun () ->
        let ctx = setup () in
        let release =
          run_ok ~epsilon:100.0 ctx
            "SELECT c.name, COUNT(*) FROM trips t JOIN cities c ON t.city_id = \
             c.id GROUP BY c.name"
        in
        match Flex.median_relative_error release with
        | Some e -> Alcotest.(check bool) "small at huge epsilon" true (e < 5.0)
        | None -> Alcotest.fail "no error computed");
  ]

let public_opt_tests =
  [
    Alcotest.test_case "optimisation lowers the smooth bound" `Quick (fun () ->
        let _, _, metrics = setup () in
        let sql =
          "SELECT COUNT(*) FROM trips t JOIN cities c ON t.city_id = c.id"
        in
        let bound ~public_optimization =
          let options =
            Flex.options ~epsilon:0.1 ~delta:1e-8 ~public_optimization ()
          in
          match Flex.analyze_only ~options ~metrics sql with
          | Ok (_, [ (_, _, smooth) ]) -> smooth.Flex_dp.Smooth.smooth_bound
          | _ -> Alcotest.fail "analysis failed"
        in
        let with_opt = bound ~public_optimization:true in
        let without = bound ~public_optimization:false in
        Alcotest.(check bool) "strictly better" true (with_opt < without);
        Alcotest.(check (float 1e-9)) "optimised bound is 1" 1.0 with_opt);
  ]

let suites =
  [
    ("flex-mechanism", mechanism_tests);
    ("flex-histogram", histogram_tests);
    ("flex-public-opt", public_opt_tests);
  ]

(* --- Cauchy-noise mechanism (appended) -------------------------------------- *)

let cauchy_suite =
  [
    Alcotest.test_case "cauchy mode runs and uses 6S/eps scales" `Quick (fun () ->
        let rng, db, metrics = setup () in
        let options = Flex.options ~epsilon:1.0 ~delta:1e-8 ~noise:`Cauchy () in
        match Flex.run_sql ~rng ~options ~db ~metrics "SELECT COUNT(*) FROM trips" with
        | Ok r ->
          let c = List.hd r.Flex.column_releases in
          (* stability of a plain count is constant 1, so S = 1, scale = 6 *)
          Alcotest.(check (float 1e-9)) "scale" 6.0 c.Flex.noise_scale;
          Alcotest.(check (float 1e-9)) "beta" (1.0 /. 6.0)
            c.Flex.smooth.Flex_dp.Smooth.beta
        | Error e -> Alcotest.failf "rejected: %s" (Errors.to_string e));
    Alcotest.test_case "cauchy beta differs from laplace beta" `Quick (fun () ->
        let _, _, metrics = setup () in
        let bound noise =
          let options = Flex.options ~epsilon:0.1 ~delta:1e-8 ~noise () in
          match
            Flex.analyze_only ~options ~metrics
              "SELECT COUNT(*) FROM trips t JOIN drivers d ON t.driver_id = d.id"
          with
          | Ok (_, (_, _, smooth) :: _) -> smooth.Flex_dp.Smooth.beta
          | _ -> Alcotest.fail "analysis failed"
        in
        Alcotest.(check bool) "betas differ" true (bound `Cauchy <> bound `Laplace));
  ]

let suites = suites @ [ ("flex-cauchy", cauchy_suite) ]

(* --- confidence intervals (appended) ----------------------------------------- *)

let ci_suite =
  [
    Alcotest.test_case "laplace CI width matches the analytic formula" `Quick (fun () ->
        let rng, db, metrics = setup () in
        let options = opts () in
        match Flex.run_sql ~rng ~options ~db ~metrics "SELECT COUNT(*) FROM trips" with
        | Ok r -> (
          match Flex.confidence_intervals ~alpha:0.05 ~options r with
          | [ ("count", width) ] ->
            let scale = (List.hd r.Flex.column_releases).Flex.noise_scale in
            Alcotest.(check (float 1e-9)) "-b ln alpha" (-.scale *. log 0.05) width
          | _ -> Alcotest.fail "expected one interval")
        | Error _ -> Alcotest.fail "rejected");
    Alcotest.test_case "cauchy CIs are wider than laplace" `Quick (fun () ->
        let _, db, metrics = setup () in
        let width noise =
          let rng = Rng.create ~seed:1 () in
          let options = Flex.options ~epsilon:1.0 ~delta:1e-8 ~noise () in
          match
            Flex.run_sql ~rng ~options ~db ~metrics "SELECT COUNT(*) FROM trips"
          with
          | Ok r -> snd (List.hd (Flex.confidence_intervals ~options r))
          | Error _ -> Alcotest.fail "rejected"
        in
        Alcotest.(check bool) "cauchy wider" true (width `Cauchy > width `Laplace));
  ]

let suites = suites @ [ ("flex-confidence", ci_suite) ]

(* --- propose-test-release integration (appended) ------------------------------ *)

let ptr_suite =
  [
    Alcotest.test_case "generous proposal releases with low noise" `Quick (fun () ->
        let rng, db, metrics = setup () in
        let options = opts () in
        (* no-join count: ES is constant 1, any proposal > 1 passes *)
        match
          Flex.run_ptr ~rng ~options ~db ~metrics ~proposed_sensitivity:5.0
            "SELECT COUNT(*) FROM trips"
        with
        | Ok { outcome = Flex_dp.Ptr.Released v; true_value; _ } ->
          Alcotest.(check bool) "close to truth" true (Float.abs (v -. true_value) < 200.0)
        | Ok { outcome = Flex_dp.Ptr.Refused; _ } -> Alcotest.fail "unexpected refusal"
        | Error r -> Alcotest.failf "rejected: %s" (Errors.to_string r));
    Alcotest.test_case "undershooting proposal refuses" `Quick (fun () ->
        let rng, db, metrics = setup () in
        let options = opts () in
        (* join query: ES(0) = mf >> 1, so proposing 1 must refuse *)
        match
          Flex.run_ptr ~rng ~options ~db ~metrics ~proposed_sensitivity:1.0
            "SELECT COUNT(*) FROM trips t JOIN drivers d ON t.driver_id = d.id"
        with
        | Ok { outcome = Flex_dp.Ptr.Refused; distance_bound; _ } ->
          Alcotest.(check int) "distance bound 0" 0 distance_bound
        | Ok { outcome = Flex_dp.Ptr.Released _; _ } -> Alcotest.fail "must refuse"
        | Error r -> Alcotest.failf "rejected: %s" (Errors.to_string r));
    Alcotest.test_case "histograms are not eligible" `Quick (fun () ->
        let rng, db, metrics = setup () in
        let options = opts () in
        match
          Flex.run_ptr ~rng ~options ~db ~metrics ~proposed_sensitivity:5.0
            "SELECT status, COUNT(*) FROM trips GROUP BY status"
        with
        | Error (Errors.Analysis_error _) -> ()
        | _ -> Alcotest.fail "expected analysis error");
  ]

let suites = suites @ [ ("flex-ptr", ptr_suite) ]

(* --- report rendering (appended) ----------------------------------------------- *)

let contains s sub = Astring.String.is_infix ~affix:sub s

let report_suite =
  [
    Alcotest.test_case "release report carries the key facts" `Quick (fun () ->
        let rng, db, metrics = setup () in
        let options = opts () in
        let sql =
          "SELECT c.name, COUNT(*) FROM trips t JOIN cities c ON t.city_id = c.id \
           GROUP BY c.name"
        in
        match Flex.run_sql ~rng ~options ~db ~metrics sql with
        | Error _ -> Alcotest.fail "rejected"
        | Ok release ->
          let report = Flex_core.Report.of_release ~sql ~options release in
          List.iter
            (fun needle ->
              Alcotest.(check bool) needle true (contains report needle))
            [
              "Differentially private release"; "epsilon = 1"; "histogram";
              "COUNT"; "Expected accuracy"; "95%"; "bins enumerated";
            ]);
    Alcotest.test_case "rejection report gives a hint" `Quick (fun () ->
        let report =
          Flex_core.Report.of_rejection ~sql:"SELECT id FROM trips"
            (Flex_core.Errors.Unsupported Flex_core.Errors.Raw_data_query)
        in
        Alcotest.(check bool) "hint" true (contains report "hint");
        Alcotest.(check bool) "mentions aggregates" true (contains report "COUNT"));
  ]

let suites = suites @ [ ("flex-report", report_suite) ]
