module Value = Flex_engine.Value
module Table = Flex_engine.Table
module Rng = Flex_dp.Rng
module Wpinq = Flex_baselines.Wpinq
module Pinq = Flex_baselines.Pinq
module Restricted = Flex_baselines.Restricted
module Global_sens = Flex_baselines.Global_sens
module Elastic = Flex_core.Elastic

let v_int i = Value.Int i

let table name rows =
  Table.create ~name ~columns:[ "k"; "v" ]
    (List.map (fun (k, v) -> [| v_int k; v_int v |]) rows)

let key0 (r : Value.t array) = r.(0)

(* --- wPINQ ------------------------------------------------------------------- *)

let wpinq_tests =
  [
    Alcotest.test_case "initial weights are 1" `Quick (fun () ->
        let ds = Wpinq.of_table (table "t" [ (1, 1); (2, 1) ]) in
        Alcotest.(check (float 1e-9)) "total" 2.0 (Wpinq.total_weight ds));
    Alcotest.test_case "join rescales weights to a/(|A|+|B|) pattern" `Quick (fun () ->
        (* key 1: 2 left rows, 1 right row -> each pair weight 1/(2+1) *)
        let l = Wpinq.of_table (table "l" [ (1, 1); (1, 2) ]) in
        let r = Wpinq.of_table (table "r" [ (1, 9) ]) in
        let j =
          Wpinq.join ~key_left:key0 ~key_right:key0 ~combine:(fun a _ -> a) l r
        in
        Alcotest.(check int) "two pairs" 2 (Wpinq.size j);
        Alcotest.(check (float 1e-9)) "total weight" (2.0 /. 3.0) (Wpinq.total_weight j));
    Alcotest.test_case "join weight never exceeds either side's contribution" `Quick
      (fun () ->
        (* the rescaled join is 1-stable: adding one row changes total weight <= 1 *)
        let rng = Rng.create ~seed:4 () in
        for _ = 1 to 50 do
          let mk n =
            List.init n (fun _ -> (1 + Rng.int rng 3, 1 + Rng.int rng 2))
          in
          let lrows = mk (1 + Rng.int rng 5) and rrows = mk (1 + Rng.int rng 5) in
          let total l r =
            Wpinq.total_weight
              (Wpinq.join ~key_left:key0 ~key_right:key0
                 ~combine:(fun a _ -> a)
                 (Wpinq.of_table (table "l" l))
                 (Wpinq.of_table (table "r" r)))
          in
          let base = total lrows rrows in
          let extra = (1 + Rng.int rng 3, 1) in
          let grown = total (extra :: lrows) rrows in
          if Float.abs (grown -. base) > 1.0 +. 1e-9 then
            Alcotest.failf "instability: %f -> %f" base grown
        done);
    Alcotest.test_case "noisy count concentrates around total weight" `Quick (fun () ->
        let rng = Rng.create ~seed:8 () in
        let ds = Wpinq.of_table (table "t" (List.init 100 (fun i -> (i, 1)))) in
        let avg = ref 0.0 in
        for _ = 1 to 200 do
          avg := !avg +. Wpinq.noisy_count rng ~epsilon:1.0 ds
        done;
        Alcotest.(check bool) "mean near 100" true (Float.abs ((!avg /. 200.0) -. 100.0) < 2.0));
    Alcotest.test_case "public join keeps weights" `Quick (fun () ->
        let l = Wpinq.of_table (table "l" [ (1, 1); (2, 2) ]) in
        let public = [ [| v_int 1; v_int 10 |]; [| v_int 2; v_int 20 |] ] in
        let j =
          Wpinq.join_public ~key_left:key0 ~key_right:key0
            ~combine:(fun a _ -> a)
            l public
        in
        Alcotest.(check (float 1e-9)) "unchanged" 2.0 (Wpinq.total_weight j));
    Alcotest.test_case "histograms sum to the dataset weight" `Quick (fun () ->
        let ds = Wpinq.of_table (table "t" [ (1, 1); (1, 2); (2, 1) ]) in
        let truth = Wpinq.true_histogram ~key:key0 ds in
        let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 truth in
        Alcotest.(check (float 1e-9)) "mass preserved" 3.0 total);
  ]

(* --- PINQ ---------------------------------------------------------------------- *)

let pinq_tests =
  [
    Alcotest.test_case "restricted join counts matched keys" `Quick (fun () ->
        let l = Pinq.of_table (table "l" [ (1, 1); (1, 2); (2, 1) ]) in
        let r = Pinq.of_table (table "r" [ (1, 9); (3, 9) ]) in
        let groups = Pinq.join_groups ~key_left:key0 ~key_right:key0 l r in
        Alcotest.(check int) "one matched key" 1 (List.length groups));
    Alcotest.test_case "one-to-one joins are counted exactly (modulo noise)" `Quick
      (fun () ->
        let rng = Rng.create ~seed:3 () in
        let l = Pinq.of_table (table "l" (List.init 50 (fun i -> (i, 1)))) in
        let r = Pinq.of_table (table "r" (List.init 50 (fun i -> (i, 2)))) in
        let avg = ref 0.0 in
        for _ = 1 to 100 do
          avg :=
            !avg +. Pinq.noisy_matched_key_count rng ~epsilon:1.0 ~key_left:key0 ~key_right:key0 l r
        done;
        Alcotest.(check bool) "mean near 50" true (Float.abs ((!avg /. 100.0) -. 50.0) < 3.0));
    Alcotest.test_case "one-to-many joins undercount joined rows" `Quick (fun () ->
        (* 3 left rows share key 1; true joined-row count is 3, PINQ sees 1 key *)
        let l = Pinq.of_table (table "l" [ (1, 1); (1, 2); (1, 3) ]) in
        let r = Pinq.of_table (table "r" [ (1, 9) ]) in
        let groups = Pinq.join_groups ~key_left:key0 ~key_right:key0 l r in
        Alcotest.(check int) "keys not rows" 1 (List.length groups));
  ]

(* --- restricted sensitivity ------------------------------------------------------ *)

let restricted_catalog =
  (* trips.driver_id bounded by 50; ids unique; cities public *)
  {
    Elastic.columns =
      (fun t ->
        match t with
        | "trips" -> Some [ "id"; "driver_id"; "city_id" ]
        | "drivers" -> Some [ "id" ]
        | "cities" -> Some [ "id" ]
        | _ -> None);
    mf =
      (fun { Elastic.table; column } ->
        match (table, column) with
        | "trips", "id" -> Some 1
        | "trips", "driver_id" -> Some 50
        | "trips", "city_id" -> Some 500
        | "drivers", "id" -> Some 1
        | "cities", "id" -> Some 1
        | _ -> None);
    vr = (fun _ -> None);
    is_public = (fun t -> t = "cities");
    is_unique = (fun _ -> false);
    table_rows = (fun _ -> Some 1000);
    cross_joins = false;
    total_rows = 1000;
  }

let parse sql =
  match Flex_sql.Parser.parse sql with
  | Ok q -> q
  | Error e -> Alcotest.fail e

let restricted_tests =
  [
    Alcotest.test_case "no join has sensitivity 1" `Quick (fun () ->
        match Restricted.global_sensitivity restricted_catalog (parse "SELECT COUNT(*) FROM trips") with
        | Ok gs -> Alcotest.(check (float 1e-9)) "gs" 1.0 gs
        | Error e -> Alcotest.failf "%a" Restricted.pp_error e);
    Alcotest.test_case "one-to-many join bounded by the key bound" `Quick (fun () ->
        match
          Restricted.global_sensitivity restricted_catalog
            (parse "SELECT COUNT(*) FROM trips t JOIN drivers d ON t.driver_id = d.id")
        with
        | Ok gs -> Alcotest.(check (float 1e-9)) "gs" 50.0 gs
        | Error e -> Alcotest.failf "%a" Restricted.pp_error e);
    Alcotest.test_case "many-to-many join rejected" `Quick (fun () ->
        match
          Restricted.global_sensitivity restricted_catalog
            (parse "SELECT COUNT(*) FROM trips a JOIN trips b ON a.driver_id = b.driver_id")
        with
        | Error Restricted.Many_to_many_join -> ()
        | Ok gs -> Alcotest.failf "expected rejection, got %f" gs
        | Error e -> Alcotest.failf "wrong error: %a" Restricted.pp_error e);
    Alcotest.test_case "histogram doubles" `Quick (fun () ->
        match
          Restricted.global_sensitivity restricted_catalog
            (parse "SELECT city_id, COUNT(*) FROM trips GROUP BY city_id")
        with
        | Ok gs -> Alcotest.(check (float 1e-9)) "gs" 2.0 gs
        | Error e -> Alcotest.failf "%a" Restricted.pp_error e);
    Alcotest.test_case "non-counting query rejected" `Quick (fun () ->
        match
          Restricted.global_sensitivity restricted_catalog (parse "SELECT SUM(id) FROM trips")
        with
        | Error Restricted.Not_a_counting_query -> ()
        | _ -> Alcotest.fail "expected rejection");
  ]

(* --- global sensitivity ------------------------------------------------------------ *)

let global_tests =
  [
    Alcotest.test_case "count without join" `Quick (fun () ->
        match Global_sens.global_sensitivity (parse "SELECT COUNT(*) FROM t") with
        | Ok gs -> Alcotest.(check (float 1e-9)) "gs" 1.0 gs
        | Error _ -> Alcotest.fail "unexpected rejection");
    Alcotest.test_case "join is unbounded" `Quick (fun () ->
        match
          Global_sens.global_sensitivity
            (parse "SELECT COUNT(*) FROM a JOIN b ON a.x = b.x")
        with
        | Error Global_sens.Join_unbounded -> ()
        | _ -> Alcotest.fail "expected rejection");
    Alcotest.test_case "table 1 capability matrix" `Quick (fun () ->
        (* the qualitative content of the paper's Table 1, checked by probes:
           restricted supports 1-1 and 1-n but not n-n; elastic supports all *)
        let one_to_many =
          parse "SELECT COUNT(*) FROM trips t JOIN drivers d ON t.driver_id = d.id"
        in
        let many_to_many =
          parse "SELECT COUNT(*) FROM trips a JOIN trips b ON a.driver_id = b.driver_id"
        in
        Alcotest.(check bool) "restricted 1-n" true
          (Result.is_ok (Restricted.global_sensitivity restricted_catalog one_to_many));
        Alcotest.(check bool) "restricted n-n" false
          (Result.is_ok (Restricted.global_sensitivity restricted_catalog many_to_many));
        Alcotest.(check bool) "elastic n-n" true
          (Result.is_ok (Elastic.analyze restricted_catalog many_to_many));
        Alcotest.(check bool) "global join" false
          (Result.is_ok (Global_sens.global_sensitivity one_to_many)));
  ]

let suites =
  [
    ("wpinq", wpinq_tests);
    ("pinq", pinq_tests);
    ("restricted-sensitivity", restricted_tests);
    ("global-sensitivity", global_tests);
  ]

(* --- exponential mechanism (appended) ----------------------------------------- *)

module Exp_mech = Flex_dp.Exp_mech

let exp_mech_tests =
  [
    Alcotest.test_case "prefers high scores" `Quick (fun () ->
        let rng = Rng.create ~seed:9 () in
        let candidates = [| "low"; "mid"; "high" |] in
        let score = function "low" -> 0.0 | "mid" -> 5.0 | _ -> 10.0 in
        let wins = ref 0 in
        for _ = 1 to 300 do
          if Exp_mech.select rng ~epsilon:2.0 ~sensitivity:1.0 ~score candidates = "high"
          then incr wins
        done;
        Alcotest.(check bool) "high dominates" true (!wins > 250));
    Alcotest.test_case "distribution sums to one and is monotone in score" `Quick
      (fun () ->
        let candidates = [| 1.0; 2.0; 3.0 |] in
        let d =
          Exp_mech.distribution ~epsilon:1.0 ~sensitivity:1.0 ~score:Fun.id candidates
        in
        let total = Array.fold_left ( +. ) 0.0 d in
        Alcotest.(check (float 1e-9)) "sums to 1" 1.0 total;
        Alcotest.(check bool) "monotone" true (d.(0) < d.(1) && d.(1) < d.(2)));
    Alcotest.test_case "uniform at tiny epsilon" `Quick (fun () ->
        let d =
          Exp_mech.distribution ~epsilon:1e-9 ~sensitivity:1.0 ~score:Fun.id
            [| 0.0; 100.0 |]
        in
        Alcotest.(check (float 1e-6)) "near uniform" 0.5 d.(0));
  ]

let suites = suites @ [ ("exp-mech", exp_mech_tests) ]
