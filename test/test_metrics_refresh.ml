(* Refreshing the metrics after an update ({!Metrics.recompute_table}): the
   paper collects mf/vr offline and keeps them current with database
   triggers; here a changed table is swapped into the database and its
   metrics are recomputed, which must leave exactly what a full
   {!Metrics.compute} of the new database would give. *)

module Value = Flex_engine.Value
module Table = Flex_engine.Table
module Database = Flex_engine.Database
module Metrics = Flex_engine.Metrics
module Rng = Flex_dp.Rng
module Sens = Flex_dp.Sens
module Uber = Flex_workload.Uber

let v i = Value.Int i

(* Replace table [name] of [db] with [rows] and refresh its metrics. *)
let update db metrics ~name ~columns rows =
  Database.add db (Table.create ~name ~columns rows);
  Metrics.recompute_table metrics db name

let single_column rows = Database.of_tables [ Table.create ~name:"t" ~columns:[ "k" ] rows ]

let same_as_full db metrics =
  Alcotest.(check (list string)) "refresh = full recomputation"
    (List.sort compare (Metrics.to_lines (Metrics.compute db)))
    (List.sort compare (Metrics.to_lines metrics))

let tests =
  [
    Alcotest.test_case "bootstrap matches batch computation" `Quick (fun () ->
        let rng = Rng.create ~seed:3 () in
        let db, batch = Uber.generate ~sizes:Uber.small_sizes rng in
        let before = List.sort compare (Metrics.to_lines batch) in
        List.iter
          (fun name ->
            let t = Database.find db name in
            Array.iter
              (fun column ->
                Alcotest.(check (option int))
                  (Fmt.str "%s.%s mf" name column)
                  (Some (Metrics.compute_mf t column))
                  (Metrics.mf batch ~table:name ~column);
                Alcotest.(check (option (float 1e-9)))
                  (Fmt.str "%s.%s vr" name column)
                  (Metrics.compute_vr t column)
                  (Metrics.vr batch ~table:name ~column))
              (Table.columns t);
            Metrics.recompute_table batch db name)
          (Database.table_names db);
        (* refreshing unchanged tables keeps every line, the public
           registry and the primary keys included *)
        Alcotest.(check (list string)) "refresh of unchanged tables is a no-op" before
          (List.sort compare (Metrics.to_lines batch)));
    Alcotest.test_case "insert raises mf, delete lowers it" `Quick (fun () ->
        let db = single_column [] in
        let m = Metrics.compute db in
        let set rows = update db m ~name:"t" ~columns:[ "k" ] rows in
        Alcotest.(check (option int)) "empty" (Some 0) (Metrics.mf m ~table:"t" ~column:"k");
        set [ [| v 1 |]; [| v 1 |]; [| v 2 |] ];
        Alcotest.(check (option int)) "mf 2" (Some 2) (Metrics.mf m ~table:"t" ~column:"k");
        Alcotest.(check (option int)) "rows 3" (Some 3) (Metrics.row_count m ~table:"t");
        set [ [| v 1 |]; [| v 2 |] ];
        Alcotest.(check (option int)) "mf back to 1" (Some 1)
          (Metrics.mf m ~table:"t" ~column:"k");
        set [];
        Alcotest.(check (option int)) "empty again" (Some 0) (Metrics.mf m ~table:"t" ~column:"k");
        Alcotest.(check (option int)) "rows 0" (Some 0) (Metrics.row_count m ~table:"t"));
    Alcotest.test_case "vr tracks extremes through deletes" `Quick (fun () ->
        let rows l = List.map (fun i -> [| v i |]) l in
        let db = single_column (rows [ 5; 1; 9; 3 ]) in
        let m = Metrics.compute db in
        Alcotest.(check (option (float 1e-9))) "range 8" (Some 8.0)
          (Metrics.vr m ~table:"t" ~column:"k");
        update db m ~name:"t" ~columns:[ "k" ] (rows [ 5; 1; 3 ]);
        Alcotest.(check (option (float 1e-9))) "range 4" (Some 4.0)
          (Metrics.vr m ~table:"t" ~column:"k");
        (* the last numeric value goes: the stale range must go with it *)
        update db m ~name:"t" ~columns:[ "k" ] [ [| Value.String "x" |] ];
        Alcotest.(check (option (float 1e-9))) "no numeric values" None
          (Metrics.vr m ~table:"t" ~column:"k");
        same_as_full db m);
    Alcotest.test_case "update is delete plus insert" `Quick (fun () ->
        let db = single_column [ [| v 1 |]; [| v 1 |] ] in
        let m = Metrics.compute db in
        let updated = Table.with_row (Database.find db "t") 1 [| v 2 |] in
        Database.add db updated;
        Metrics.recompute_table m db "t";
        Alcotest.(check (option int)) "mf 1" (Some 1) (Metrics.mf m ~table:"t" ~column:"k");
        Alcotest.(check (option int)) "rows stable" (Some 2) (Metrics.row_count m ~table:"t");
        (* the same end state reached by a delete and then an insert *)
        let db' = single_column [ [| v 1 |]; [| v 1 |] ] in
        let m' = Metrics.compute db' in
        update db' m' ~name:"t" ~columns:[ "k" ] [ [| v 1 |] ];
        update db' m' ~name:"t" ~columns:[ "k" ] [ [| v 1 |]; [| v 2 |] ];
        Alcotest.(check (list string)) "same metrics"
          (List.sort compare (Metrics.to_lines m'))
          (List.sort compare (Metrics.to_lines m)));
    Alcotest.test_case "null values are not counted in mf" `Quick (fun () ->
        let db = single_column [ [| Value.Null |]; [| Value.Null |] ] in
        let m = Metrics.compute db in
        Alcotest.(check (option int)) "mf 0" (Some 0) (Metrics.mf m ~table:"t" ~column:"k");
        Alcotest.(check (option int)) "rows 2" (Some 2) (Metrics.row_count m ~table:"t");
        update db m ~name:"t" ~columns:[ "k" ] [ [| Value.Null |]; [| v 4 |]; [| Value.Null |] ];
        Alcotest.(check (option int)) "mf 1" (Some 1) (Metrics.mf m ~table:"t" ~column:"k");
        Alcotest.(check (option (float 1e-9))) "one value, range 0" (Some 0.0)
          (Metrics.vr m ~table:"t" ~column:"k"));
    Alcotest.test_case "random trace stays consistent with recomputation" `Quick
      (fun () ->
        let rng = Rng.create ~seed:11 () in
        let columns = [ "k"; "x" ] in
        let other = Table.create ~name:"u" ~columns:[ "y" ] [ [| v 7 |]; [| v 7 |] ] in
        let db = Database.of_tables [ Table.create ~name:"t" ~columns:columns []; other ] in
        let m = Metrics.compute db in
        let alive = ref [] in
        for step = 1 to 300 do
          if !alive <> [] && Rng.bernoulli rng 0.4 then begin
            let i = Rng.int rng (List.length !alive) in
            alive := List.filteri (fun j _ -> j <> i) !alive
          end
          else begin
            let x = if Rng.bernoulli rng 0.1 then Value.Null else v (Rng.int rng 50) in
            alive := [| v (Rng.int rng 5); x |] :: !alive
          end;
          update db m ~name:"t" ~columns (List.rev !alive);
          if step mod 50 = 0 then same_as_full db m
        done;
        Alcotest.(check (option int)) "untouched table keeps its mf" (Some 2)
          (Metrics.mf m ~table:"u" ~column:"y"));
    Alcotest.test_case "refreshed metrics feed the analysis" `Quick (fun () ->
        let rng = Rng.create ~seed:5 () in
        let db, metrics = Uber.generate ~sizes:Uber.small_sizes rng in
        let sql = "SELECT COUNT(*) FROM trips t JOIN drivers d ON t.driver_id = d.id" in
        let stability_at_0 () =
          match Flex_core.Elastic.analyze_sql (Flex_core.Elastic.catalog_of_metrics metrics) sql with
          | Ok a -> Sens.eval a.Flex_core.Elastic.stability 0
          | Error r -> Alcotest.failf "rejected: %s" (Flex_core.Errors.to_string r)
        in
        let s0 = stability_at_0 () in
        (* one driver takes 500 more trips: mf(trips.driver_id) must grow *)
        let trips = Database.find db "trips" in
        let first = (Table.rows trips).(0) in
        let extra = List.init 500 (fun _ -> Array.copy first) in
        let mf0 = Option.get (Metrics.mf metrics ~table:"trips" ~column:"driver_id") in
        update db metrics ~name:"trips"
          ~columns:(Array.to_list (Table.columns trips))
          (Array.to_list (Table.rows trips) @ extra);
        let mf1 = Option.get (Metrics.mf metrics ~table:"trips" ~column:"driver_id") in
        Alcotest.(check bool) "mf grew" true (mf1 > mf0);
        Alcotest.(check int) "mf of the new table" (Metrics.compute_mf (Database.find db "trips") "driver_id") mf1;
        Alcotest.(check bool) "publics preserved" true (Metrics.is_public metrics "cities");
        Alcotest.(check bool) "primary keys preserved" true
          (Metrics.is_primary_key metrics ~table:"trips" ~column:"id");
        Alcotest.(check bool) "the analysis sees the new mf" true (stability_at_0 () > s0));
  ]

let suites = [ ("metrics-refresh", tests) ]
