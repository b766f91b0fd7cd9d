module Value = Flex_engine.Value
module Table = Flex_engine.Table
module Database = Flex_engine.Database
module Metrics = Flex_engine.Metrics
module Executor = Flex_engine.Executor
module Sens = Flex_dp.Sens
module Elastic = Flex_core.Elastic
module Errors = Flex_core.Errors

(* Empirical validation of Theorem 1: elastic sensitivity at distance k upper
   bounds the true local sensitivity at distance k, brute-forced over every
   neighbouring database. Databases are tiny (so neighbour enumeration is
   exhaustive) and metrics are computed from the true database, exactly as
   FLEX would. *)

(* Domains: table a(k, v) and b(k, w); keys in 1..3, payloads in 1..2. The
   spelled domain writes keys 1 and 2 both as ints and as floats, which SQL
   [=] (and so every join) treats as one key. *)
let key_domain = [ Value.Int 1; Value.Int 2; Value.Int 3 ]

let spelled_key_domain =
  [ Value.Int 1; Value.Float 1.0; Value.Int 2; Value.Float 2.0; Value.Int 3 ]

let payload_domain = [ 1; 2 ]

let tuples_of keys =
  List.concat_map (fun k -> List.map (fun v -> [| k; Value.Int v |]) payload_domain) keys

let db_of (a_rows, b_rows) =
  Database.of_tables
    [
      Table.create ~name:"a" ~columns:[ "k"; "v" ] a_rows;
      Table.create ~name:"b" ~columns:[ "k"; "w" ] b_rows;
    ]

(* All databases at distance exactly <= 1 from db (replace one row of one
   table by any domain tuple). *)
let neighbors ?(keys = key_domain) (a_rows, b_rows) =
  let tuples = tuples_of keys in
  let replace rows i r = List.mapi (fun j row -> if j = i then r else row) rows in
  let of_table rows rebuild =
    List.concat
      (List.mapi (fun i _ -> List.map (fun r -> rebuild (replace rows i r)) tuples) rows)
  in
  of_table a_rows (fun a -> (a, b_rows)) @ of_table b_rows (fun b -> (a_rows, b))

let count db sql =
  match Executor.run_sql db sql with
  | Ok { rows = [ [| v |] ]; _ } -> Option.value ~default:0 (Value.to_int v)
  | Ok _ -> Alcotest.failf "expected scalar result for %s" sql
  | Error e -> Alcotest.failf "execution failed (%s): %s" sql e

(* Histogram as a fixed-bin vector over the payload domain. *)
let histogram_vector db sql key_values =
  match Executor.run_sql db sql with
  | Error e -> Alcotest.failf "execution failed (%s): %s" sql e
  | Ok { rows; _ } ->
    List.map
      (fun key ->
        let matching =
          List.find_opt (fun row -> Value.equal row.(0) (Value.Int key)) rows
        in
        match matching with
        | Some row -> Option.value ~default:0 (Value.to_int row.(1))
        | None -> 0)
      key_values

let local_sensitivity ?keys rows sql =
  let x = count (db_of rows) sql in
  List.fold_left
    (fun acc rows' -> max acc (abs (count (db_of rows') sql - x)))
    0 (neighbors ?keys rows)

(* A^(k) at distance 1: max local sensitivity over all neighbours. *)
let local_sensitivity_at_1 ?keys rows sql =
  List.fold_left
    (fun acc rows' -> max acc (local_sensitivity ?keys rows' sql))
    (local_sensitivity ?keys rows sql)
    (neighbors ?keys rows)

let elastic_at rows sql k =
  let db = db_of rows in
  let metrics = Metrics.compute db in
  let cat = Elastic.catalog_of_metrics metrics in
  match Elastic.analyze_sql cat sql with
  | Error r -> Alcotest.failf "analysis rejected (%s): %s" sql (Errors.to_string r)
  | Ok a -> (
    match Elastic.aggregate_columns a with
    | (_, _, s) :: _ -> Sens.eval s k
    | [] -> Alcotest.fail "no aggregate column")

(* --- generators ----------------------------------------------------------------- *)

let rows_gen ?(keys = key_domain) n =
  QCheck.Gen.(
    list_size (int_range 1 n)
      (map2 (fun k v -> [| k; Value.Int v |]) (oneofl keys) (oneofl payload_domain)))

(* Keys print with their spelling: [1] and [1.0] differ in a counterexample. *)
let arb_dbs_of ?keys n =
  QCheck.make
    ~print:(fun (a, b) ->
      let show_key = function Value.Float f -> Fmt.str "%.1f" f | v -> Value.to_string v in
      let show rows =
        String.concat ";"
          (List.map (fun r -> Fmt.str "(%s,%s)" (show_key r.(0)) (Value.to_string r.(1))) rows)
      in
      Fmt.str "a=[%s] b=[%s]" (show a) (show b))
    QCheck.Gen.(pair (rows_gen ?keys n) (rows_gen ?keys n))

let arb_dbs = arb_dbs_of 4

let queries =
  [
    "SELECT COUNT(*) FROM a";
    "SELECT COUNT(*) FROM a WHERE v = 1";
    "SELECT COUNT(*) FROM a JOIN b ON a.k = b.k";
    "SELECT COUNT(*) FROM a JOIN b ON a.k = b.k WHERE a.v = 1 AND b.w = 2";
    "SELECT COUNT(*) FROM a x JOIN a y ON x.k = y.k";
    "SELECT COUNT(*) FROM a x JOIN a y ON x.k = y.k JOIN b ON y.k = b.k";
    "SELECT COUNT(*) FROM a LEFT JOIN b ON a.k = b.k";
    "SELECT COUNT(DISTINCT v) FROM a";
    "SELECT COUNT(*) FROM (SELECT k FROM a WHERE v = 2) s JOIN b ON s.k = b.k";
  ]

(* [~spelled] draws keys from [spelled_key_domain] instead of [key_domain]. *)
let domain ~spelled =
  if spelled then (spelled_key_domain, " (keys in two spellings)") else (key_domain, "")

let soundness_test ?(spelled = false) sql =
  let keys, label = domain ~spelled in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:(Fmt.str "ES(0) >= LS%s: %s" label sql)
       ~count:25 (arb_dbs_of ~keys 4)
       (fun rows ->
         let ls = local_sensitivity ~keys rows sql in
         let es = elastic_at rows sql 0 in
         if float_of_int ls <= es +. 1e-9 then true
         else QCheck.Test.fail_reportf "LS=%d > ES(0)=%g" ls es))

let soundness_at_1_test ?(spelled = false) sql =
  let keys, label = domain ~spelled in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:(Fmt.str "ES(1) >= A^(1)%s: %s" label sql)
       ~count:6 (arb_dbs_of ~keys 3)
       (fun rows ->
         let a1 = local_sensitivity_at_1 ~keys rows sql in
         let es = elastic_at rows sql 1 in
         if float_of_int a1 <= es +. 1e-9 then true
         else QCheck.Test.fail_reportf "A1=%d > ES(1)=%g" a1 es))

(* Theorem 1 over keys with two spellings: mf must count [1] and [1.0] as the
   one key the join matches them as, or ES(0) undercounts the join's fan-out. *)
let join_queries =
  [
    "SELECT COUNT(*) FROM a JOIN b ON a.k = b.k";
    "SELECT COUNT(*) FROM a JOIN b ON a.k = b.k WHERE a.v = 1 AND b.w = 2";
    "SELECT COUNT(*) FROM a x JOIN a y ON x.k = y.k";
    "SELECT COUNT(*) FROM a x JOIN a y ON x.k = y.k JOIN b ON y.k = b.k";
  ]

let spelled_key_tests =
  List.map (soundness_test ~spelled:true) join_queries
  @ [
      soundness_at_1_test ~spelled:true "SELECT COUNT(*) FROM a JOIN b ON a.k = b.k";
      Alcotest.test_case "b's key 1 in two spellings is one key of fan-out 2" `Quick (fun () ->
          let sql = "SELECT COUNT(*) FROM a JOIN b ON a.k = b.k" in
          let one = Value.Int 1 in
          let rows = ([ [| one; one |] ], [ [| one; one |]; [| Value.Float 1.0; one |] ]) in
          let ls = local_sensitivity ~keys:spelled_key_domain rows sql in
          Alcotest.(check int) "LS" 2 ls;
          Alcotest.(check (float 1e-9)) "ES(0)" 2.0 (elastic_at rows sql 0));
    ]

let histogram_soundness =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"histogram: L1 change <= cell sensitivity bound" ~count:25
       arb_dbs
       (fun rows ->
         let sql = "SELECT v, COUNT(*) FROM a GROUP BY v" in
         let vec db = histogram_vector db sql payload_domain in
         let x = vec (db_of rows) in
         let es = elastic_at rows sql 0 in
         List.for_all
           (fun rows' ->
             let y = vec (db_of rows') in
             let l1 =
               List.fold_left2 (fun acc a b -> acc + abs (a - b)) 0 x y
             in
             float_of_int l1 <= es +. 1e-9)
           (neighbors rows)))

let monotonicity =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"ES is non-decreasing in k" ~count:25 arb_dbs (fun rows ->
         List.for_all
           (fun sql ->
             let e k = elastic_at rows sql k in
             e 0 <= e 1 && e 1 <= e 2 && e 2 <= e 10)
           queries))

let suites =
  [
    ( "soundness",
      List.map soundness_test queries
      @ [
          soundness_at_1_test "SELECT COUNT(*) FROM a JOIN b ON a.k = b.k";
          soundness_at_1_test "SELECT COUNT(*) FROM a x JOIN a y ON x.k = y.k";
          histogram_soundness;
          monotonicity;
        ]
      @ spelled_key_tests );
  ]

(* --- beta-smoothness across neighbours (appended) ----------------------------
   Theorem 2 relies on S being a beta-smooth upper bound: S(x) <= e^beta S(y)
   for neighbouring x, y. Our S is computed from the metrics of the actual
   database, so we check the property empirically: recompute the bound from
   each neighbour's metrics and compare. *)

let smooth_bound_of rows sql ~beta =
  let db = db_of rows in
  let metrics = Metrics.compute db in
  let cat = Elastic.catalog_of_metrics metrics in
  match Elastic.analyze_sql cat sql with
  | Error r -> Alcotest.failf "rejected (%s): %s" sql (Errors.to_string r)
  | Ok a -> (
    match Elastic.aggregate_columns a with
    | (_, _, s) :: _ ->
      (Flex_dp.Smooth.of_sens ~beta s).Flex_dp.Smooth.smooth_bound
    | [] -> Alcotest.fail "no aggregate column")

let beta_smoothness_test sql =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:(Fmt.str "S is beta-smooth: %s" sql)
       ~count:10
       (QCheck.make QCheck.Gen.(pair (rows_gen 3) (rows_gen 3)))
       (fun rows ->
         let beta = 0.05 in
         let sx = smooth_bound_of rows sql ~beta in
         List.for_all
           (fun rows' ->
             let sy = smooth_bound_of rows' sql ~beta in
             sx <= (exp beta *. sy) +. 1e-9 && sy <= (exp beta *. sx) +. 1e-9)
           (neighbors rows)))

let () =
  ignore beta_smoothness_test

let smoothness_suite =
  [
    beta_smoothness_test "SELECT COUNT(*) FROM a JOIN b ON a.k = b.k";
    beta_smoothness_test "SELECT COUNT(*) FROM a x JOIN a y ON x.k = y.k";
  ]

let suites = suites @ [ ("beta-smoothness", smoothness_suite) ]

(* --- cross joins under bounded DP (appended) ----------------------------------
   The optional cross-join extension bounds the fan-out by the other side's
   constant cardinality; under bounded DP (tuple replacement) that bound is
   valid at every distance. Checked against the brute-force oracle. *)

let elastic_cross rows sql k =
  let db = db_of rows in
  let metrics = Metrics.compute db in
  let cat = Elastic.catalog_of_metrics ~cross_joins:true metrics in
  match Elastic.analyze_sql cat sql with
  | Error r -> Alcotest.failf "analysis rejected (%s): %s" sql (Errors.to_string r)
  | Ok a -> (
    match Elastic.aggregate_columns a with
    | (_, _, s) :: _ -> Sens.eval s k
    | [] -> Alcotest.fail "no aggregate column")

let cross_queries =
  [
    "SELECT COUNT(*) FROM a CROSS JOIN b";
    "SELECT COUNT(*) FROM a, b";
    "SELECT COUNT(*) FROM a x CROSS JOIN a y";
    "SELECT COUNT(*) FROM a CROSS JOIN b WHERE a.v = b.w";
  ]

let cross_soundness sql =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:(Fmt.str "cross join ES(0) >= LS: %s" sql)
       ~count:20 arb_dbs
       (fun rows ->
         let ls = local_sensitivity rows sql in
         let es = elastic_cross rows sql 0 in
         if float_of_int ls <= es +. 1e-9 then true
         else QCheck.Test.fail_reportf "LS=%d > ES(0)=%g" ls es))

let cross_suite =
  List.map cross_soundness cross_queries
  @ [
      Alcotest.test_case "cross joins rejected by default" `Quick (fun () ->
          let db = db_of ([ [| Value.Int 1; Value.Int 1 |] ], [ [| Value.Int 1; Value.Int 1 |] ]) in
          let cat = Elastic.catalog_of_metrics (Metrics.compute db) in
          match Elastic.analyze_sql cat "SELECT COUNT(*) FROM a CROSS JOIN b" with
          | Error (Errors.Unsupported Errors.Cross_join) -> ()
          | _ -> Alcotest.fail "expected Cross_join rejection");
      Alcotest.test_case "cross join stability is the other side's cardinality" `Quick
        (fun () ->
          let rows =
            ( List.init 3 (fun i -> [| Value.Int (i + 1); Value.Int 1 |]),
              List.init 4 (fun i -> [| Value.Int (i + 1); Value.Int 1 |]) )
          in
          (* non-self cross join: max(|a| * S(b), |b| * S(a)) = max(3, 4) = 4 *)
          Alcotest.(check (float 1e-9)) "stability" 4.0
            (elastic_cross rows "SELECT COUNT(*) FROM a CROSS JOIN b" 0);
          Alcotest.(check (float 1e-9)) "constant in k" 4.0
            (elastic_cross rows "SELECT COUNT(*) FROM a CROSS JOIN b" 50));
      Alcotest.test_case "cross join above an equijoin is still rejected" `Quick
        (fun () ->
          let db =
            db_of
              ( [ [| Value.Int 1; Value.Int 1 |] ],
                [ [| Value.Int 1; Value.Int 1 |] ] )
          in
          let cat = Elastic.catalog_of_metrics ~cross_joins:true (Metrics.compute db) in
          (* the equijoin's row bound is data-dependent, so no constant
             cardinality exists for the outer cross join *)
          match
            Elastic.analyze_sql cat
              "SELECT COUNT(*) FROM (SELECT a.k AS k FROM a JOIN b ON a.k = b.k) j \
               CROSS JOIN b"
          with
          | Error (Errors.Unsupported Errors.Cross_join) -> ()
          | Ok _ -> Alcotest.fail "expected rejection"
          | Error r -> Alcotest.failf "wrong rejection: %s" (Errors.to_string r));
    ]

let suites = suites @ [ ("cross-joins", cross_suite) ]
