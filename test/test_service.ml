module Json = Flex_service.Json
module Wire = Flex_service.Wire
module Cache = Flex_service.Cache
module Audit = Flex_service.Audit
module Server = Flex_service.Server
module Reactor = Flex_service.Reactor
module Release_store = Flex_service.Release_store
module Ledger = Flex_dp.Ledger
module Budget = Flex_dp.Budget
module Rng = Flex_dp.Rng
module Canon = Flex_sql.Canon
module Parser = Flex_sql.Parser
module Pretty = Flex_sql.Pretty
module Metrics = Flex_engine.Metrics

(* --- JSON ---------------------------------------------------------------------- *)

(* Finite numbers only: non-finite floats deliberately encode as null. The
   int/8 trick keeps every generated float exactly representable. *)
let json_gen =
  QCheck.Gen.(
    sized_size (int_range 0 3)
      (fix (fun self n ->
           let scalar =
             oneof
               [
                 return Json.Null;
                 map (fun b -> Json.Bool b) bool;
                 map (fun i -> Json.Num (float_of_int i /. 8.0)) (int_range (-80000) 80000);
                 map (fun s -> Json.Str s) (string_size (int_range 0 12));
               ]
           in
           if n = 0 then scalar
           else
             frequency
               [
                 (2, scalar);
                 (1, map (fun l -> Json.List l) (list_size (int_range 0 4) (self (n - 1))));
                 ( 1,
                   map
                     (fun l -> Json.Obj l)
                     (list_size (int_range 0 4)
                        (pair (string_size (int_range 0 6)) (self (n - 1)))) );
               ])))

let arb_json = QCheck.make ~print:Json.to_string json_gen

let json_tests =
  [
    Alcotest.test_case "escapes and unicode decode" `Quick (fun () ->
        let v = Json.Obj [ ("a b", Json.Str "x\"y\\z\n\t\x01") ] in
        Alcotest.(check bool) "round trip" true (Json.of_string (Json.to_string v) = Ok v);
        Alcotest.(check bool) "single line" true
          (not (String.contains (Json.to_string v) '\n'));
        Alcotest.(check bool) "\\u0041" true (Json.of_string {|"A"|} = Ok (Json.Str "A"));
        (* surrogate pair: U+1F600 as UTF-8 *)
        Alcotest.(check bool) "surrogate pair" true
          (Json.of_string {|"😀"|} = Ok (Json.Str "\xf0\x9f\x98\x80")));
    Alcotest.test_case "non-finite numbers encode as null" `Quick (fun () ->
        Alcotest.(check string) "nan" "null" (Json.to_string (Json.Num Float.nan));
        Alcotest.(check string) "inf" "null" (Json.to_string (Json.Num Float.infinity)));
    Alcotest.test_case "malformed input is a typed error" `Quick (fun () ->
        List.iter
          (fun s ->
            match Json.of_string s with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "expected parse failure for %s" s)
          [ "{"; "[1,"; "tru"; "\"unterminated"; "{\"a\" 1}"; "1 2"; "" ]);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"of_string (to_string j) = j" ~count:500 arb_json (fun j ->
           match Json.of_string (Json.to_string j) with
           | Ok j2 ->
             if j = j2 then true
             else
               QCheck.Test.fail_reportf "mismatch: %s vs %s" (Json.to_string j)
                 (Json.to_string j2)
           | Error e -> QCheck.Test.fail_reportf "reparse failed: %s" e));
  ]

(* --- wire protocol ------------------------------------------------------------- *)

let gen_name = QCheck.Gen.oneofl [ "alice"; "bob"; "carol-7"; "x y"; "q\"uote" ]

let gen_sql =
  QCheck.Gen.oneofl
    [ "SELECT COUNT(*) FROM trips"; ""; "nonsense ; drop"; "SELECT 'it''s'" ]

let gen_pos_float = QCheck.Gen.(map (fun i -> float_of_int i /. 64.0) (int_range 1 64000))
let gen_opt_float = QCheck.Gen.option gen_pos_float

let gen_request =
  QCheck.Gen.(
    oneof
      [
        map3
          (fun analyst epsilon delta -> Wire.Hello { analyst; epsilon; delta })
          gen_name gen_opt_float gen_opt_float;
        map3
          (fun sql epsilon delta -> Wire.Query { sql; epsilon; delta; id = None })
          gen_sql gen_opt_float gen_opt_float;
        map (fun sql -> Wire.Analyze { sql }) gen_sql;
        map (fun sql -> Wire.Explain { sql }) gen_sql;
        return Wire.Budget_info;
        return Wire.Stats;
        return Wire.Quit;
      ])

let gen_scales =
  QCheck.Gen.(list_size (int_range 0 3) (pair gen_name gen_pos_float))

let gen_response =
  QCheck.Gen.(
    oneof
      [
        (let* columns = list_size (int_range 0 3) gen_name in
         let* rows = list_size (int_range 0 3) (list_size (int_range 0 3) json_gen) in
         let* e = gen_pos_float and* d = gen_pos_float in
         let* re = gen_pos_float and* rd = gen_pos_float in
         let* cache_hit = bool and* bins_enumerated = bool in
         let* cached = bool and* derived = bool in
         let* noise_scales = gen_scales in
         return
           (Wire.Result
              {
                columns;
                rows;
                epsilon_spent = e;
                delta_spent = d;
                remaining_epsilon = re;
                remaining_delta = rd;
                cache_hit;
                cached;
                derived;
                bins_enumerated;
                noise_scales;
              }));
        (let* cache_hit = bool and* is_histogram = bool in
         let* joins = int_range 0 5 in
         let* columns =
           list_size (int_range 0 3)
             (let* column = gen_name and* sensitivity = gen_name in
              let* smooth_bound = gen_pos_float and* noise_scale = gen_pos_float in
              return { Wire.column; sensitivity; smooth_bound; noise_scale })
         in
         return (Wire.Analysis { cache_hit; is_histogram; joins; columns }));
        map2
          (fun logical optimized -> Wire.Plan_report { logical; optimized })
          gen_name gen_name;
        map2
          (fun bucket reason -> Wire.Rejected { bucket; reason })
          (oneofl [ "parse"; "unsupported"; "other"; "admission" ])
          gen_name;
        (let* analyst = gen_name in
         let* requested_epsilon = gen_pos_float and* requested_delta = gen_pos_float in
         let* remaining_epsilon = gen_pos_float and* remaining_delta = gen_pos_float in
         return
           (Wire.Refused
              {
                analyst;
                requested_epsilon;
                requested_delta;
                remaining_epsilon;
                remaining_delta;
              }));
        (let* analyst = gen_name in
         let* epsilon_limit = gen_pos_float and* delta_limit = gen_pos_float in
         let* epsilon_spent = gen_pos_float and* delta_spent = gen_pos_float in
         let* remaining_epsilon = gen_pos_float and* remaining_delta = gen_pos_float in
         let* queries = int_range 0 100 in
         return
           (Wire.Budget_report
              {
                analyst;
                epsilon_limit;
                delta_limit;
                epsilon_spent;
                delta_spent;
                remaining_epsilon;
                remaining_delta;
                queries;
              }));
        (let* queries = int_range 0 100 and* granted = int_range 0 100 in
         let* rejected = int_range 0 100 and* refused = int_range 0 100 in
         let* cache_hits = int_range 0 100 and* cache_misses = int_range 0 100 in
         let* cache_entries = int_range 0 100 and* analysts = int_range 0 100 in
         let* release_hits = int_range 0 100 and* release_misses = int_range 0 100 in
         let* release_derived = int_range 0 100 in
         let* release_evictions = int_range 0 100 in
         let* release_entries = int_range 0 100 in
         let* release_hit_rate = gen_pos_float in
         let* uptime_seconds = gen_pos_float and* qps = gen_pos_float in
         let* metrics =
           oneofl
             [
               Wire.Json.Null;
               Wire.Json.Obj [ ("families", Wire.Json.List []) ];
               Wire.Json.Obj
                 [
                   ( "families",
                     Wire.Json.List
                       [
                         Wire.Json.Obj
                           [ ("name", Wire.Json.Str "flex_queries_total") ];
                       ] );
                 ];
             ]
         in
         return
           (Wire.Stats_report
              {
                queries;
                granted;
                rejected;
                refused;
                cache_hits;
                cache_misses;
                cache_entries;
                release_hits;
                release_misses;
                release_derived;
                release_evictions;
                release_entries;
                release_hit_rate;
                analysts;
                uptime_seconds;
                qps;
                metrics;
              }));
        map (fun plan -> Wire.Analyzed_report { plan }) gen_name;
        map (fun m -> Wire.Error_msg m) gen_name;
        return Wire.Bye;
      ])

let wire_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"request wire round-trip" ~count:500
         (QCheck.make
            ~print:(fun r -> Wire.request_to_line r)
            gen_request)
         (fun r -> Wire.request_of_line (Wire.request_to_line r) = Ok r));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"response wire round-trip" ~count:500
         (QCheck.make
            ~print:(fun r -> Wire.response_to_line r)
            gen_response)
         (fun r -> Wire.response_of_line (Wire.response_to_line r) = Ok r));
    Alcotest.test_case "unknown ops are typed errors" `Quick (fun () ->
        List.iter
          (fun line ->
            match Wire.request_of_line line with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "expected decode failure for %s" line)
          [ {|{"op":"drop"}|}; {|{"op":"query"}|}; {|[1]|}; "not json"; {|{"op":7}|} ]);
  ]

(* --- canonicalization ---------------------------------------------------------- *)

let canon_key sql = Canon.cache_key (Parser.parse_exn sql)

let canon_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"canonicalize is idempotent" ~count:500 Test_sql.arb_query
         (fun q ->
           let c = Canon.canonicalize q in
           let cc = Canon.canonicalize c in
           if c = cc then true
           else
             QCheck.Test.fail_reportf "not idempotent:@.%s@.vs@.%s" (Pretty.to_string c)
               (Pretty.to_string cc)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"canonical SQL reparses to the same canonical AST" ~count:300
         Test_sql.arb_query (fun q ->
           let c = Canon.canonicalize q in
           match Parser.parse (Pretty.to_string c) with
           | Ok q2 -> Canon.canonicalize q2 = c
           | Error e ->
             QCheck.Test.fail_reportf "canonical form unparseable: %s@.%s" e
               (Pretty.to_string c)));
    Alcotest.test_case "alias renamings collide" `Quick (fun () ->
        List.iter
          (fun (a, b) ->
            Alcotest.(check string) (a ^ " ~ " ^ b) (canon_key a) (canon_key b))
          [
            ( "SELECT t.status, COUNT(*) FROM trips t GROUP BY t.status",
              "SELECT x.status, COUNT(*) FROM trips x GROUP BY x.status" );
            ( "SELECT trips.status, COUNT(*) FROM trips GROUP BY trips.status",
              "SELECT z.status, COUNT(*) FROM trips z GROUP BY z.status" );
            ( "SELECT COUNT(*) FROM trips a JOIN drivers b ON a.driver_id = b.id",
              "SELECT COUNT(*) FROM trips d JOIN drivers e ON d.driver_id = e.id" );
            ( "WITH w AS (SELECT * FROM trips) SELECT COUNT(*) FROM w",
              "WITH v AS (SELECT * FROM trips) SELECT COUNT(*) FROM v" );
            ( "SELECT COUNT(*) FROM trips t WHERE t.fare > 10 ORDER BY t.fare",
              "SELECT COUNT(*) FROM trips u WHERE u.fare > 10 ORDER BY u.fare" );
          ]);
    Alcotest.test_case "semantic differences do not collide" `Quick (fun () ->
        List.iter
          (fun (a, b) ->
            if canon_key a = canon_key b then
              Alcotest.failf "keys collide for %s vs %s" a b)
          [
            ("SELECT COUNT(*) FROM trips", "SELECT COUNT(*) FROM drivers");
            ( "SELECT COUNT(*) FROM trips WHERE fare > 10",
              "SELECT COUNT(*) FROM trips WHERE fare > 11" );
            ("SELECT COUNT(*) FROM trips", "SELECT SUM(fare) FROM trips");
            ( "SELECT COUNT(*) FROM trips t JOIN drivers d ON t.driver_id = d.id",
              "SELECT COUNT(*) FROM drivers t JOIN trips d ON t.driver_id = d.id" );
          ]);
  ]

(* --- ledger -------------------------------------------------------------------- *)

let temp_journal () = Filename.temp_file "flex-ledger" ".journal"

let summary_list (l : Ledger.t) =
  List.map
    (fun (s : Ledger.summary) ->
      (s.analyst, s.epsilon_limit, s.delta_limit, s.epsilon_spent, s.delta_spent, s.spend_count))
    (Ledger.summaries l)

let ledger_tests =
  [
    Alcotest.test_case "register, spend, typed refusal" `Quick (fun () ->
        let l = Ledger.in_memory () in
        Alcotest.(check bool) "register" true
          (Ledger.register l ~analyst:"a" ~epsilon:1.0 ~delta:1e-4 = Ok ());
        Alcotest.(check bool) "re-register same limits" true
          (Ledger.register l ~analyst:"a" ~epsilon:1.0 ~delta:1e-4 = Ok ());
        (match Ledger.register l ~analyst:"a" ~epsilon:2.0 ~delta:1e-4 with
        | Error (Ledger.Already_registered r) ->
          Alcotest.(check (float 0.0)) "existing limit" 1.0 r.epsilon
        | _ -> Alcotest.fail "expected Already_registered");
        (match Ledger.register l ~analyst:"bad" ~epsilon:0.0 ~delta:1e-4 with
        | Error (Ledger.Invalid_limits _) -> ()
        | _ -> Alcotest.fail "expected Invalid_limits");
        Alcotest.(check bool) "spend" true
          (Ledger.spend l ~analyst:"a" ~epsilon:0.75 ~delta:0.0 ~label:"q" = Ok (0.25, 1e-4));
        (match Ledger.spend l ~analyst:"a" ~epsilon:0.5 ~delta:0.0 ~label:"q" with
        | Error (Ledger.Exhausted e) ->
          Alcotest.(check (float 0.0)) "remaining carried" 0.25 e.remaining_epsilon;
          Alcotest.(check (float 0.0)) "requested carried" 0.5 e.requested_epsilon
        | _ -> Alcotest.fail "expected Exhausted");
        (* the refusal changed nothing *)
        Alcotest.(check bool) "state unchanged" true
          (Ledger.remaining l ~analyst:"a" = Some (0.25, 1e-4));
        (match Ledger.spend l ~analyst:"ghost" ~epsilon:0.1 ~delta:0.0 ~label:"q" with
        | Error (Ledger.Unknown_analyst _) -> ()
        | _ -> Alcotest.fail "expected Unknown_analyst"));
    Alcotest.test_case "journal replay restores exact state" `Quick (fun () ->
        let path = temp_journal () in
        let l = Ledger.open_ path in
        ignore (Ledger.register l ~analyst:"a" ~epsilon:1.0 ~delta:1e-4);
        ignore (Ledger.register l ~analyst:"b" ~epsilon:0.30000000000000004 ~delta:1e-9);
        ignore (Ledger.spend l ~analyst:"a" ~epsilon:0.1 ~delta:1e-8 ~label:"q1");
        ignore (Ledger.spend l ~analyst:"a" ~epsilon:0.2 ~delta:1e-8 ~label:"q2");
        ignore (Ledger.spend l ~analyst:"b" ~epsilon:0.1 ~delta:0.0 ~label:"q3");
        let before = summary_list l in
        Ledger.close l;
        let l2 = Ledger.open_ path in
        (* bit-identical, not approximately equal: replay folds the same
           additions in the same order *)
        Alcotest.(check bool) "summaries identical" true (summary_list l2 = before);
        Ledger.close l2;
        Sys.remove path);
    Alcotest.test_case "torn final line is tolerated, interior corruption is not" `Quick
      (fun () ->
        let path = temp_journal () in
        let l = Ledger.open_ path in
        ignore (Ledger.register l ~analyst:"a" ~epsilon:1.0 ~delta:1e-4);
        ignore (Ledger.spend l ~analyst:"a" ~epsilon:0.25 ~delta:0.0 ~label:"q");
        Ledger.close l;
        let crash_after tail =
          let oc = open_out_gen [ Open_append ] 0o644 path in
          output_string oc tail;
          close_out oc
        in
        let spent () =
          let l = Ledger.open_ path in
          let s = Ledger.spent l ~analyst:"a" in
          Ledger.close l;
          s
        in
        let restart_and_spend epsilon =
          let l = Ledger.open_ path in
          ignore (Ledger.spend l ~analyst:"a" ~epsilon ~delta:0.0 ~label:"q");
          Ledger.close l
        in
        (* a crash mid-append: a partial record, no trailing newline *)
        crash_after "spend\ta\t0.2";
        Alcotest.(check bool) "torn tail dropped" true (spent () = Some (0.25, 0.0));
        (* the restarted ledger's next spend must survive the next restart,
           not merge into the torn line *)
        restart_and_spend 0.125;
        Alcotest.(check bool) "spend after a torn tail kept" true
          (spent () = Some (0.375, 0.0));
        (* a crash between a complete record and its newline: replay counts
           the record, and the next spend lands on a line of its own *)
        crash_after "spend\ta\t0.5\t0\tq";
        Alcotest.(check bool) "complete final record counted" true
          (spent () = Some (0.875, 0.0));
        restart_and_spend 0.125;
        Alcotest.(check bool) "spend after an unterminated record kept" true
          (spent () = Some (1.0, 0.0));
        (* a malformed line with records after it is corruption *)
        crash_after "spend\ta\tbogus\nspend\ta\t0\t0\tq\n";
        (match Ledger.open_ path with
        | exception Invalid_argument _ -> ()
        | l ->
          Ledger.close l;
          Alcotest.fail "interior corruption accepted");
        Sys.remove path);
    Alcotest.test_case "spent totals are the journal-order fold, live and replayed" `Quick
      (fun () ->
        (* costs that are not powers of two, so summation order shows in the
           last bits *)
        let costs =
          List.concat
            (List.init 25 (fun _ ->
                 [ (0.1, 1e-9); (0.7, 3e-10); (1e-3, 7e-11); (0.3, 2e-9) ]))
        in
        let fold = List.fold_left ( +. ) 0.0 in
        let sums costs = (fold (List.map fst costs), fold (List.map snd costs)) in
        let expected = sums costs in
        Alcotest.(check bool) "the costs are order-sensitive" true
          (fst expected <> fst (sums (List.rev costs))
          && snd expected <> snd (sums (List.rev costs)));
        let path = temp_journal () in
        let l = Ledger.open_ path in
        ignore (Ledger.register l ~analyst:"a" ~epsilon:100.0 ~delta:1e-4);
        List.iter
          (fun (epsilon, delta) ->
            match Ledger.spend l ~analyst:"a" ~epsilon ~delta ~label:"q" with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "spend refused: %s" (Ledger.error_to_string e))
          costs;
        Alcotest.(check bool) "live" true (Ledger.spent l ~analyst:"a" = Some expected);
        Ledger.close l;
        let l2 = Ledger.open_ path in
        Alcotest.(check bool) "reopened" true (Ledger.spent l2 ~analyst:"a" = Some expected);
        Ledger.close l2;
        (match Ledger.summaries_of_file path with
        | [ s ] ->
          Alcotest.(check bool) "offline replay" true
            ((s.epsilon_spent, s.delta_spent) = expected);
          Alcotest.(check int) "offline count" (List.length costs) s.spend_count
        | _ -> Alcotest.fail "one analyst expected");
        Sys.remove path);
    Alcotest.test_case "spends counts granted spends, live and replayed" `Quick (fun () ->
        let path = temp_journal () in
        let l = Ledger.open_ path in
        ignore (Ledger.register l ~analyst:"a" ~epsilon:1.0 ~delta:1e-4);
        ignore (Ledger.register l ~analyst:"b" ~epsilon:1.0 ~delta:1e-4);
        let granted =
          List.filter
            (fun epsilon ->
              Result.is_ok (Ledger.spend l ~analyst:"a" ~epsilon ~delta:0.0 ~label:"q"))
            [ 0.25; 0.5; 0.5; 0.125; 0.25; 0.125 ]
        in
        Alcotest.(check int) "grants" 4 (List.length granted);
        Alcotest.(check int) "live" 4 (Ledger.spends l ~analyst:"a");
        Alcotest.(check int) "no spends" 0 (Ledger.spends l ~analyst:"b");
        Alcotest.(check int) "unknown analyst" 0 (Ledger.spends l ~analyst:"ghost");
        Ledger.close l;
        let l2 = Ledger.open_ path in
        Alcotest.(check int) "reopened" 4 (Ledger.spends l2 ~analyst:"a");
        Alcotest.(check bool) "summary agrees" true
          (match Ledger.summary l2 ~analyst:"a" with
          | Some s -> s.spend_count = 4 && s.epsilon_spent = 1.0 && s.remaining_epsilon = 0.0
          | None -> false);
        Ledger.close l2;
        Sys.remove path);
    Alcotest.test_case "check_spend decides like spend and changes nothing" `Quick
      (fun () ->
        let path = temp_journal () in
        let l = Ledger.open_ path in
        ignore (Ledger.register l ~analyst:"a" ~epsilon:1.0 ~delta:1e-4);
        ignore (Ledger.spend l ~analyst:"a" ~epsilon:0.75 ~delta:0.0 ~label:"q");
        let before = summary_list l and bytes = (Unix.stat path).st_size in
        Alcotest.(check bool) "affordable" true
          (Ledger.check_spend l ~analyst:"a" ~epsilon:0.25 ~delta:0.0 = Ok ());
        let check = Ledger.check_spend l ~analyst:"a" ~epsilon:0.5 ~delta:0.0 in
        let spend = Ledger.spend l ~analyst:"a" ~epsilon:0.5 ~delta:0.0 ~label:"q" in
        (match (check, spend) with
        | Error (Ledger.Exhausted _ as c), Error (Ledger.Exhausted _ as s) ->
          Alcotest.(check bool) "same refusal" true (c = s)
        | _ -> Alcotest.fail "expected Exhausted from both");
        (match Ledger.check_spend l ~analyst:"ghost" ~epsilon:0.1 ~delta:0.0 with
        | Error (Ledger.Unknown_analyst _) -> ()
        | _ -> Alcotest.fail "expected Unknown_analyst");
        Alcotest.(check bool) "state unchanged" true (summary_list l = before);
        Alcotest.(check int) "nothing journaled" bytes (Unix.stat path).st_size;
        Ledger.close l;
        Sys.remove path);
    Alcotest.test_case "concurrent spends conserve the budget exactly" `Quick (fun () ->
        let l = Ledger.in_memory () in
        ignore (Ledger.register l ~analyst:"team" ~epsilon:8.0 ~delta:1e-4);
        let d = Float.ldexp 1.0 (-30) in
        let granted = Atomic.make 0 in
        let spend_loop () =
          for _ = 1 to 50 do
            match Ledger.spend l ~analyst:"team" ~epsilon:0.25 ~delta:d ~label:"q" with
            | Ok _ -> Atomic.incr granted
            | Error (Ledger.Exhausted _) -> ()
            | Error e -> Alcotest.failf "unexpected: %s" (Ledger.error_to_string e)
          done
        in
        let threads = List.init 4 (fun _ -> Thread.create spend_loop ()) in
        List.iter Thread.join threads;
        (* 8.0 / 0.25 = 32 grants; powers of two make the additions exact in
           any interleaving *)
        Alcotest.(check int) "grants" 32 (Atomic.get granted);
        Alcotest.(check bool) "spent exactly the limit" true
          (Ledger.spent l ~analyst:"team" = Some (8.0, 32.0 *. d));
        Alcotest.(check bool) "epsilon exhausted" true
          (match Ledger.remaining l ~analyst:"team" with
          | Some (e, _) -> e = 0.0
          | None -> false));
  ]

(* --- server (handle level) ----------------------------------------------------- *)

let fixture =
  lazy (Flex_workload.Uber.generate ~sizes:Flex_workload.Uber.small_sizes (Rng.create ~seed:7 ()))

let make_server ?config ?ledger () =
  let db, metrics = Lazy.force fixture in
  let ledger = match ledger with Some l -> l | None -> Ledger.in_memory () in
  let server = Server.create ?config ~db ~metrics ~ledger ~rng:(Rng.create ~seed:11 ()) () in
  (server, ledger)

let hello server session analyst =
  match Server.handle server session (Wire.Hello { analyst; epsilon = None; delta = None }) with
  | Wire.Budget_report _ -> ()
  | other -> Alcotest.failf "hello failed: %s" (Wire.response_to_line other)

let query ?epsilon ?delta server session sql =
  Server.handle server session (Wire.Query { sql; epsilon; delta; id = None })

let server_tests =
  [
    Alcotest.test_case "query without hello is an error" `Quick (fun () ->
        let server, _ = make_server () in
        match query server (Server.session server) "SELECT COUNT(*) FROM trips" with
        | Wire.Error_msg _ -> ()
        | other -> Alcotest.failf "expected error, got %s" (Wire.response_to_line other));
    Alcotest.test_case "granted query releases noisy rows and charges the ledger" `Quick
      (fun () ->
        let server, ledger = make_server () in
        let session = Server.session server in
        hello server session "alice";
        match query ~epsilon:0.5 server session "SELECT COUNT(*) FROM trips;" with
        | Wire.Result r ->
          Alcotest.(check (list string)) "columns" [ "count" ] r.columns;
          Alcotest.(check int) "one row" 1 (List.length r.rows);
          Alcotest.(check (float 0.0)) "spent" 0.5 r.epsilon_spent;
          Alcotest.(check (float 0.0)) "remaining" 9.5 r.remaining_epsilon;
          Alcotest.(check bool) "cold cache" false r.cache_hit;
          Alcotest.(check bool) "noise scale reported" true (r.noise_scales <> []);
          Alcotest.(check bool) "ledger agrees" true
            (Ledger.spent ledger ~analyst:"alice" = Some (0.5, 1e-8))
        | other -> Alcotest.failf "expected result, got %s" (Wire.response_to_line other));
    Alcotest.test_case "alias-renamed repeat is an analysis cache hit" `Quick (fun () ->
        let server, _ = make_server () in
        let session = Server.session server in
        hello server session "alice";
        (match query server session "SELECT t.status, COUNT(*) FROM trips t GROUP BY t.status" with
        | Wire.Result r -> Alcotest.(check bool) "first is a miss" false r.cache_hit
        | other -> Alcotest.failf "expected result, got %s" (Wire.response_to_line other));
        (match query server session "SELECT u.status, COUNT(*) FROM trips u GROUP BY u.status" with
        | Wire.Result r -> Alcotest.(check bool) "renamed repeat hits" true r.cache_hit
        | other -> Alcotest.failf "expected result, got %s" (Wire.response_to_line other));
        Alcotest.(check int) "one cache entry" 1 (Cache.length (Server.cache server)));
    Alcotest.test_case "section 3.7.1 rejections carry their bucket" `Quick (fun () ->
        let server, ledger = make_server () in
        let session = Server.session server in
        hello server session "alice";
        (match query server session "SELECT id FROM trips" with
        | Wire.Rejected r -> Alcotest.(check string) "bucket" "unsupported" r.bucket
        | other -> Alcotest.failf "expected rejection, got %s" (Wire.response_to_line other));
        (match query server session "SELEKT nope" with
        | Wire.Rejected r -> Alcotest.(check string) "bucket" "parse" r.bucket
        | other -> Alcotest.failf "expected rejection, got %s" (Wire.response_to_line other));
        (match query ~epsilon:50.0 server session "SELECT COUNT(*) FROM trips" with
        | Wire.Rejected r -> Alcotest.(check string) "bucket" "admission" r.bucket
        | other -> Alcotest.failf "expected rejection, got %s" (Wire.response_to_line other));
        (match query ~epsilon:Float.nan server session "SELECT COUNT(*) FROM trips" with
        | Wire.Rejected r -> Alcotest.(check string) "bucket" "admission" r.bucket
        | other -> Alcotest.failf "expected rejection, got %s" (Wire.response_to_line other));
        (* none of those touched the budget *)
        Alcotest.(check bool) "nothing spent" true
          (Ledger.spent ledger ~analyst:"alice" = Some (0.0, 0.0));
        let c = Server.counters server in
        Alcotest.(check int) "rejected counted" 4 c.rejected);
    Alcotest.test_case "over-budget requests get a typed refusal, never an answer" `Quick
      (fun () ->
        (* replay off: the repeat must reach the ledger to be refused, not be
           served for free from the release store *)
        let config =
          { Server.default_config with analyst_epsilon = 0.25; release_cache = false }
        in
        let server, _ = make_server ~config () in
        let session = Server.session server in
        hello server session "bob";
        (match query ~epsilon:0.25 server session "SELECT COUNT(*) FROM trips" with
        | Wire.Result _ -> ()
        | other -> Alcotest.failf "expected result, got %s" (Wire.response_to_line other));
        (match query ~epsilon:0.25 server session "SELECT COUNT(*) FROM trips" with
        | Wire.Refused r ->
          Alcotest.(check string) "analyst" "bob" r.analyst;
          Alcotest.(check (float 0.0)) "requested" 0.25 r.requested_epsilon;
          Alcotest.(check (float 0.0)) "remaining" 0.0 r.remaining_epsilon
        | other -> Alcotest.failf "expected refusal, got %s" (Wire.response_to_line other));
        let c = Server.counters server in
        Alcotest.(check int) "granted" 1 c.granted;
        Alcotest.(check int) "refused" 1 c.refused);
    Alcotest.test_case "analyze is free and budget_info reflects the ledger" `Quick (fun () ->
        let server, ledger = make_server () in
        let session = Server.session server in
        hello server session "carol";
        (match Server.handle server session (Wire.Analyze { sql = "SELECT COUNT(*) FROM trips" }) with
        | Wire.Analysis a ->
          Alcotest.(check int) "one column" 1 (List.length a.columns);
          Alcotest.(check bool) "scalar query" false a.is_histogram
        | other -> Alcotest.failf "expected analysis, got %s" (Wire.response_to_line other));
        Alcotest.(check bool) "analyze spent nothing" true
          (Ledger.spent ledger ~analyst:"carol" = Some (0.0, 0.0));
        match Server.handle server session Wire.Budget_info with
        | Wire.Budget_report r ->
          Alcotest.(check string) "analyst" "carol" r.analyst;
          Alcotest.(check (float 0.0)) "limit" 10.0 r.epsilon_limit;
          Alcotest.(check int) "queries" 0 r.queries
        | other -> Alcotest.failf "expected budget report, got %s" (Wire.response_to_line other));
    Alcotest.test_case "audit log records outcomes and stage timings" `Quick (fun () ->
        let buf = Buffer.create 256 in
        let db, metrics = Lazy.force fixture in
        let server =
          Server.create ~audit:(Audit.to_buffer buf) ~db ~metrics
            ~ledger:(Ledger.in_memory ()) ~rng:(Rng.create ~seed:3 ()) ()
        in
        let session = Server.session server in
        hello server session "dana";
        ignore (query server session "SELECT COUNT(*) FROM trips");
        ignore (query server session "SELECT id FROM trips");
        let lines =
          String.split_on_char '\n' (Buffer.contents buf)
          |> List.filter (fun l -> l <> "")
          |> List.map Json.of_string_exn
        in
        Alcotest.(check int) "two events" 2 (List.length lines);
        let granted = List.nth lines 0 and rejected = List.nth lines 1 in
        Alcotest.(check (option string)) "granted outcome" (Some "granted")
          (Option.bind (Json.mem "outcome" granted) Json.to_str);
        Alcotest.(check bool) "positive analysis time" true
          (match Option.bind (Json.mem "analysis_ns" granted) Json.to_num with
          | Some ns -> ns > 0.0
          | None -> false);
        Alcotest.(check (option string)) "rejected bucket" (Some "unsupported")
          (Option.bind (Json.mem "bucket" rejected) Json.to_str);
        Alcotest.(check (option string)) "no result values in the log" None
          (Option.bind (Json.mem "rows" granted) Json.to_str));
    Alcotest.test_case "budget reports stay consistent under concurrent spenders" `Quick
      (fun () ->
        let server, ledger = make_server () in
        let session = Server.session server in
        (match
           Server.handle server session
             (Wire.Hello { analyst = "team"; epsilon = Some 512.0; delta = Some 1e-4 })
         with
        | Wire.Budget_report _ -> ()
        | other -> Alcotest.failf "hello: %s" (Wire.response_to_line other));
        (* powers of two: every total below is exact whatever the interleaving *)
        let eps = 0.125 and d = Float.ldexp 1.0 (-30) in
        let spenders_done = Atomic.make 0 in
        (* set once the main thread has taken a report; each spender waits
           for it halfway through, so at least one report always lands while
           spends are still in flight, however the domains are scheduled *)
        let reported = Atomic.make false in
        let spender () =
          for i = 1 to 2048 do
            if i = 1025 then
              while not (Atomic.get reported) do
                Domain.cpu_relax ()
              done;
            ignore (Ledger.spend ledger ~analyst:"team" ~epsilon:eps ~delta:d ~label:"q")
          done;
          Atomic.incr spenders_done
        in
        let domains = List.init 2 (fun _ -> Domain.spawn spender) in
        let reports = ref 0 in
        let check () =
          let response = Server.handle server session Wire.Budget_info in
          Atomic.set reported true;
          match response with
          | Wire.Budget_report r ->
            incr reports;
            if r.epsilon_spent +. r.remaining_epsilon <> r.epsilon_limit then
              Alcotest.failf "spent %h + remaining %h <> limit %h" r.epsilon_spent
                r.remaining_epsilon r.epsilon_limit;
            if float_of_int r.queries *. eps <> r.epsilon_spent then
              Alcotest.failf "%d queries but epsilon spent %h" r.queries r.epsilon_spent;
            if float_of_int r.queries *. d <> r.delta_spent then
              Alcotest.failf "%d queries but delta spent %h" r.queries r.delta_spent
          | other -> Alcotest.failf "budget: %s" (Wire.response_to_line other)
        in
        while Atomic.get spenders_done < 2 do
          check ()
        done;
        List.iter Domain.join domains;
        check ();
        Alcotest.(check bool) "reports made" true (!reports > 1);
        Alcotest.(check int) "every spend granted" 4096 (Ledger.spends ledger ~analyst:"team"));
  ]

(* --- early refusal -------------------------------------------------------------- *)

(* An analyst whose whole budget (eps 0.0625) is below one default-epsilon
   query (0.1), beside a paying analyst, on one server. *)
let broke_server ?config () =
  let buf = Buffer.create 256 in
  let db, metrics = Lazy.force fixture in
  let ledger = Ledger.in_memory () in
  let server =
    Server.create ~audit:(Audit.to_buffer buf) ?config ~db ~metrics ~ledger
      ~rng:(Rng.create ~seed:11 ()) ()
  in
  let broke = Server.session server and payer = Server.session server in
  (match
     Server.handle server broke
       (Wire.Hello { analyst = "broke"; epsilon = Some 0.0625; delta = None })
   with
  | Wire.Budget_report _ -> ()
  | other -> Alcotest.failf "hello: %s" (Wire.response_to_line other));
  hello server payer "payer";
  (server, ledger, buf, broke, payer)

let expect_refused what = function
  | Wire.Refused r ->
    Alcotest.(check string) (what ^ ": analyst") "broke" r.analyst;
    Alcotest.(check (float 0.0)) (what ^ ": remaining") 0.0625 r.remaining_epsilon
  | other -> Alcotest.failf "%s: expected refusal, got %s" what (Wire.response_to_line other)

let early_refusal_tests =
  [
    Alcotest.test_case "an unaffordable query is refused before execution" `Quick
      (fun () ->
        let server, ledger, buf, broke, _ = broke_server () in
        let before = Ledger.summary ledger ~analyst:"broke" in
        expect_refused "query" (query server broke "SELECT COUNT(*) FROM trips");
        Alcotest.(check bool) "ledger unchanged" true
          (Ledger.summary ledger ~analyst:"broke" = before);
        (match Option.map Flex_obs.Flight.snapshot (Server.flights server) with
        | Some [ { outcome = "refused"; trace = Some v; _ } ] ->
          let names = List.map (fun (c : Flex_obs.Span.view) -> c.name) v.children in
          Alcotest.(check bool) "analysed" true (List.mem "cache" names);
          Alcotest.(check bool) "no execute span" false (List.mem "execute" names);
          Alcotest.(check bool) "no charge span" false (List.mem "charge" names)
        | _ -> Alcotest.fail "expected one refused flight with a trace");
        (match
           String.split_on_char '\n' (Buffer.contents buf)
           |> List.filter (fun l -> l <> "")
           |> List.map Json.of_string_exn
         with
        | [ e ] ->
          Alcotest.(check (option string)) "audit outcome" (Some "refused")
            (Option.bind (Json.mem "outcome" e) Json.to_str);
          Alcotest.(check (option (float 0.0))) "audit epsilon" (Some 0.0)
            (Option.bind (Json.mem "epsilon" e) Json.to_num);
          Alcotest.(check (option (float 0.0))) "no execution time" (Some 0.0)
            (Option.bind (Json.mem "execution_ns" e) Json.to_num)
        | events -> Alcotest.failf "expected one audit event, got %d" (List.length events));
        let c = Server.counters server in
        Alcotest.(check int) "refused" 1 c.refused;
        Alcotest.(check int) "granted" 0 c.granted);
    Alcotest.test_case "a refused analyst still gets replays and derivations" `Quick
      (fun () ->
        let server, ledger, _, broke, payer = broke_server () in
        let core = "SELECT t.status, COUNT(*) FROM trips t GROUP BY t.status" in
        (match query server payer core with
        | Wire.Result r -> Alcotest.(check bool) "payer is charged" true (r.epsilon_spent > 0.0)
        | other -> Alcotest.failf "payer: %s" (Wire.response_to_line other));
        List.iter
          (fun (sql, derived) ->
            match query server broke sql with
            | Wire.Result r ->
              Alcotest.(check bool) "from the store" true r.cached;
              Alcotest.(check bool) "derived" derived r.derived;
              Alcotest.(check (float 0.0)) "zero epsilon" 0.0 r.epsilon_spent
            | other -> Alcotest.failf "%s: %s" sql (Wire.response_to_line other))
          [
            ("SELECT u.status, COUNT(*) FROM trips u GROUP BY u.status", false);
            (core ^ " ORDER BY 2 DESC LIMIT 2", true);
          ];
        expect_refused "new core" (query server broke "SELECT COUNT(*) FROM drivers");
        Alcotest.(check bool) "nothing spent" true
          (Ledger.spent ledger ~analyst:"broke" = Some (0.0, 0.0)));
    Alcotest.test_case "a query that would fail in execution is refused, not rejected"
      `Quick (fun () ->
        let server, _, _, broke, payer = broke_server () in
        let sql = "SELECT COUNT(*) FROM trips WHERE status + 1 > 2" in
        (match query server payer sql with
        | Wire.Rejected r -> Alcotest.(check string) "payer: execution fails" "other" r.bucket
        | other -> Alcotest.failf "payer: expected rejection, got %s" (Wire.response_to_line other));
        expect_refused "broke" (query server broke sql));
    Alcotest.test_case "sessions racing at the limit get exactly the affordable grants"
      `Quick (fun () ->
        let server, ledger = make_server () in
        let setup = Server.session server in
        (match
           Server.handle server setup
             (Wire.Hello { analyst = "team"; epsilon = Some 1.0; delta = None })
         with
        | Wire.Budget_report _ -> ()
        | other -> Alcotest.failf "hello: %s" (Wire.response_to_line other));
        (* 0.25 spent up front leaves six 0.125 queries; two sessions ask
           for six each, all distinct, so none replays another *)
        ignore (Ledger.spend ledger ~analyst:"team" ~epsilon:0.25 ~delta:0.0 ~label:"setup");
        let granted = Atomic.make 0 and refused = Atomic.make 0 in
        let client k () =
          let session = Server.session server in
          hello server session "team";
          for i = 1 to 6 do
            let sql = Printf.sprintf "SELECT COUNT(*) FROM trips WHERE fare > %d" ((10 * i) + k) in
            match query ~epsilon:0.125 server session sql with
            | Wire.Result r when r.epsilon_spent = 0.125 -> Atomic.incr granted
            | Wire.Refused _ -> Atomic.incr refused
            | other -> Alcotest.failf "query: %s" (Wire.response_to_line other)
          done
        in
        let threads = List.init 2 (fun k -> Thread.create (client k) ()) in
        List.iter Thread.join threads;
        Alcotest.(check int) "grants" 6 (Atomic.get granted);
        Alcotest.(check int) "refusals" 6 (Atomic.get refused);
        Alcotest.(check bool) "ledger total exact" true
          (Ledger.spent ledger ~analyst:"team"
           = Some (1.0, List.fold_left ( +. ) 0.0 (List.init 6 (fun _ -> 1e-8))));
        Alcotest.(check int) "journaled spends" 7 (Ledger.spends ledger ~analyst:"team"));
  ]

(* --- every request concludes exactly once ---------------------------------------- *)

(* Point every descriptor this process holds on [path] at /dev/full, so the
   journal's next flush fails with ENOSPC as on a full disk. The channel
   keeps its unflushable bytes: its owner must never be closed afterwards. *)
let fill_disk_under path =
  let target = Unix.realpath path in
  let fds =
    Sys.readdir "/proc/self/fd" |> Array.to_list
    |> List.filter (fun n ->
           match Unix.readlink ("/proc/self/fd/" ^ n) with
           | link -> link = target
           | exception Unix.Unix_error _ -> false)
  in
  if fds = [] then Alcotest.failf "no descriptor open on %s" path;
  let full = Unix.openfile "/dev/full" [ Unix.O_WRONLY ] 0 in
  List.iter
    (fun n ->
      (* a Unix.file_descr is the descriptor number itself on Unix *)
      Unix.dup2 full (Obj.magic (int_of_string n : int) : Unix.file_descr))
    fds;
  Unix.close full

let audit_events buf =
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter (fun l -> l <> "")
  |> List.map Json.of_string_exn

let str_field name j = Option.bind (Json.mem name j) Json.to_str

(* The outcome a query-op reply reports, named like its audit outcome;
   "rate_limit" is the [rejected] outcome that also moves [rate_limited]. *)
let outcome_of_reply = function
  | Wire.Result r when r.derived -> "derived"
  | Wire.Result r when r.cached -> "replayed"
  | Wire.Result _ -> "granted"
  | Wire.Rejected { bucket = "rate_limit"; _ } -> "rate_limit"
  | Wire.Rejected _ -> "rejected"
  | Wire.Refused _ -> "refused"
  | Wire.Error_msg _ -> "failed"
  | other -> Alcotest.failf "not a query outcome: %s" (Wire.response_to_line other)

let outcome_counters (c : Server.counters) =
  [
    ("granted", c.granted);
    ("replayed", c.replayed);
    ("derived", c.derived);
    ("rejected", c.rejected);
    ("rate_limited", c.rate_limited);
    ("refused", c.refused);
    ("failed", c.failed);
  ]

(* One analyst with a budget of 1.0 on a server with journaled ledger and
   release store, an 8-query burst rate limit and EXPLAIN ANALYZE on. *)
type probe = {
  server : Server.t;
  session : Server.session;
  ledger : Ledger.t;
  audit : Buffer.t;
  ledger_path : string;
  releases_path : string;
}

let probe_server ~telemetry =
  let db, metrics = Lazy.force fixture in
  let ledger_path = temp_journal () in
  let releases_path = Filename.temp_file "flex-releases" ".journal" in
  let ledger = Ledger.open_ ledger_path in
  let store = Release_store.open_ ~fingerprint:(Metrics.fingerprint metrics) releases_path in
  let audit = Buffer.create 4096 in
  let config =
    {
      Server.default_config with
      telemetry;
      explain_estimates = true;
      default_epsilon = 0.25;
      rate_limit_qps = Some 8.0;
    }
  in
  let server =
    Server.create ~audit:(Audit.to_buffer audit) ~config ~release_store:store ~db ~metrics
      ~ledger ~rng:(Rng.create ~seed:13 ()) ()
  in
  let session = Server.session server in
  (match
     Server.handle server session
       (Wire.Hello { analyst = "probe"; epsilon = Some 1.0; delta = None })
   with
  | Wire.Budget_report _ -> ()
  | other -> Alcotest.failf "hello: %s" (Wire.response_to_line other));
  { server; session; ledger; audit; ledger_path; releases_path }

let flights_recorded p =
  Option.fold ~none:0 ~some:Flex_obs.Flight.recorded (Server.flights p.server)

(* Run one request and return its reply and the audit events it added,
   after checking what must hold after every request: the registry's
   flex_*_total families equal [Server.counters], and the analyst's audit
   epsilon sums to the ledger's spend bit for bit. *)
let books p what request =
  let audit_before = List.length (audit_events p.audit) in
  let reply = request () in
  let events = audit_events p.audit in
  let c = Server.counters p.server in
  Option.iter
    (fun reg ->
      let total name =
        match
          List.find_opt
            (fun (f : Flex_obs.Registry.family) -> f.name = name)
            (Flex_obs.Registry.snapshot reg)
        with
        | Some { samples = [ { value = Flex_obs.Registry.Sample v; _ } ]; _ } -> int_of_float v
        | _ -> Alcotest.failf "no single-sample family %s" name
      in
      List.iter
        (fun (name, value) -> Alcotest.(check int) (what ^ ": " ^ name) value (total name))
        [
          ("flex_queries_total", c.queries);
          ("flex_granted_total", c.granted);
          ("flex_replayed_total", c.replayed);
          ("flex_release_derived_total", c.derived);
          ("flex_rejected_total", c.rejected);
          ("flex_rate_limited_total", c.rate_limited);
          ("flex_refused_total", c.refused);
          ("flex_failed_total", c.failed);
        ])
    (Server.registry p.server);
  let audited =
    List.fold_left
      (fun acc e ->
        match (str_field "analyst" e, Option.bind (Json.mem "epsilon" e) Json.to_num) with
        | Some "probe", Some eps -> acc +. eps
        | _ -> acc)
      0.0 events
  in
  let spent = Option.fold ~none:Float.nan ~some:fst (Ledger.spent p.ledger ~analyst:"probe") in
  if audited <> spent then
    Alcotest.failf "%s: audit epsilon %h <> ledger spend %h" what audited spent;
  (reply, List.filteri (fun i _ -> i >= audit_before) events)

(* A query-op request that must conclude once: its reply is one of
   [expect], it added one audit event with that outcome and (with
   telemetry) one flight record, and [queries] plus exactly the matching
   outcome counter moved by one. Returns the reply's outcome. *)
let concludes p what expect request =
  let before = Server.counters p.server and flights = flights_recorded p in
  let reply, events = books p what request in
  let outcome = outcome_of_reply reply in
  if not (List.mem outcome expect) then
    Alcotest.failf "%s: got %s: %s" what outcome (Wire.response_to_line reply);
  let after = Server.counters p.server in
  Alcotest.(check int) (what ^ ": queries") (before.queries + 1) after.queries;
  let moved = if outcome = "rate_limit" then [ "rejected"; "rate_limited" ] else [ outcome ] in
  List.iter2
    (fun (name, b) (_, a) ->
      Alcotest.(check int) (what ^ ": " ^ name) (if List.mem name moved then b + 1 else b) a)
    (outcome_counters before) (outcome_counters after);
  (match events with
  | [ e ] ->
    Alcotest.(check (option string)) (what ^ ": audit outcome")
      (Some (if outcome = "rate_limit" then "rejected" else outcome))
      (str_field "outcome" e)
  | es -> Alcotest.failf "%s: %d audit events, expected 1" what (List.length es));
  if Option.is_some (Server.flights p.server) then
    Alcotest.(check int) (what ^ ": flight records") (flights + 1) (flights_recorded p);
  (outcome, events)

(* A request answered by the explain op's code: no counter moves, no
   flight record, [audited] audit events (EXPLAIN ANALYZE's data access). *)
let explains p what ~audited request =
  let before = Server.counters p.server and flights = flights_recorded p in
  let reply, events = books p what request in
  Alcotest.(check bool) (what ^ ": no counter moved") true (before = Server.counters p.server);
  Alcotest.(check int) (what ^ ": audit events") audited (List.length events);
  Alcotest.(check int) (what ^ ": flight records") flights (flights_recorded p);
  reply

(* EXPLAIN ANALYZE renders wall-clock times; everything else must match. *)
let mask_timings = function
  | Wire.Analyzed_report { plan } ->
    String.split_on_char '\n' plan
    |> List.map (fun line ->
           match Astring.String.find_sub ~rev:true ~sub:", " line with
           | Some i when Astring.String.is_suffix ~affix:"ms)" line ->
             String.sub line 0 i ^ ", _ms)"
           | _ -> line)
    |> String.concat "\n"
  | other -> Wire.response_to_line other

let every_request_concludes_once ~telemetry () =
  let p = probe_server ~telemetry in
  let q ?epsilon sql () = query ?epsilon p.server p.session sql in
  let once what expect request = ignore (concludes p what [ expect ] request) in
  let core = "SELECT t.status, COUNT(*) FROM trips t GROUP BY t.status" in
  once "granted" "granted" (q core);
  once "replayed" "replayed" (q "SELECT u.status, COUNT(*) FROM trips u GROUP BY u.status");
  once "derived" "derived" (q (core ^ " ORDER BY 2 DESC LIMIT 2"));
  once "parse error" "rejected" (q "SELEKT nope");
  once "over the cap" "rejected" (q ~epsilon:50.0 "SELECT COUNT(*) FROM trips");
  (* 1.0 is more than the 0.75 left: refused from the query's shape *)
  once "unaffordable" "refused" (q ~epsilon:1.0 "SELECT COUNT(*) FROM drivers");
  (match Option.map Flex_obs.Flight.snapshot (Server.flights p.server) with
  | Some ({ outcome = "refused"; trace = Some v; _ } :: _) ->
    Alcotest.(check bool) "refused before execution" false
      (List.exists (fun (c : Flex_obs.Span.view) -> c.name = "execute") v.children)
  | Some _ -> Alcotest.fail "expected the refusal's flight record, with its trace"
  | None -> ());
  (* EXPLAIN through the query op is the explain op's answer, not a query *)
  List.iter
    (fun (sql, audited) ->
      let via_query = explains p sql ~audited (q sql) in
      let via_explain =
        explains p sql ~audited (fun () ->
            Server.handle p.server p.session (Wire.Explain { sql }))
      in
      Alcotest.(check string) (sql ^ ": explain op's reply") (mask_timings via_explain)
        (mask_timings via_query))
    [ ("EXPLAIN " ^ core, 0); ("EXPLAIN ANALYZE " ^ core, 1) ];
  (* replay until the token bucket runs dry *)
  let rec until_limited n =
    if n = 0 then Alcotest.fail "the rate limit never engaged";
    match concludes p "replay burst" [ "replayed"; "rate_limit" ] (q core) with
    | "rate_limit", _ -> ()
    | _ -> until_limited (n - 1)
  in
  until_limited 1000;
  Unix.sleepf 0.3 (* two tokens back *);
  (* the release journal fails after the charge: the charge stands and is
     audited on the failure *)
  fill_disk_under p.releases_path;
  let granted = (Server.counters p.server).granted in
  (match concludes p "release journal full" [ "failed" ] (q "SELECT COUNT(*) FROM trips") with
  | _, [ e ] ->
    Alcotest.(check (option (float 0.0))) "failure carries the charge" (Some 0.25)
      (Option.bind (Json.mem "epsilon" e) Json.to_num)
  | _ -> Alcotest.fail "one audit event expected");
  Alcotest.(check int) "no grant counted" granted (Server.counters p.server).granted;
  (* the ledger journal fails: nothing is charged, nothing is released *)
  fill_disk_under p.ledger_path;
  let spent = Ledger.spent p.ledger ~analyst:"probe" in
  (match concludes p "ledger journal full" [ "failed" ] (q "SELECT COUNT(*) FROM cities") with
  | _, [ e ] ->
    Alcotest.(check (option (float 0.0))) "failure charged nothing" (Some 0.0)
      (Option.bind (Json.mem "epsilon" e) Json.to_num)
  | _ -> Alcotest.fail "one audit event expected");
  Alcotest.(check bool) "ledger unchanged" true (Ledger.spent p.ledger ~analyst:"probe" = spent);
  (* the ledger and store now hold unflushable bytes: never close them *)
  Sys.remove p.ledger_path;
  Sys.remove p.releases_path

let conclude_tests =
  [
    Alcotest.test_case "every request concludes exactly once" `Quick
      (every_request_concludes_once ~telemetry:true);
    Alcotest.test_case "every request concludes exactly once, telemetry off" `Quick
      (every_request_concludes_once ~telemetry:false);
  ]

(* --- TCP smoke test ------------------------------------------------------------ *)

let connect port =
  Unix.open_connection (Unix.ADDR_INET (Unix.inet_addr_loopback, port))

let roundtrip (ic, oc) req =
  output_string oc (Wire.request_to_line req);
  output_char oc '\n';
  flush oc;
  Wire.response_of_line (input_line ic) |> Result.get_ok

let tcp_tests =
  [
    Alcotest.test_case "concurrent sessions conserve the budget exactly across restart"
      `Slow
      (fun () ->
        let path = temp_journal () in
        let db, metrics = Lazy.force fixture in
        let n_threads = 4 and n_queries = 10 in
        (* 40 requests of eps 0.25 against a budget of 6.0: exactly 24 grants
           in every interleaving, and power-of-two costs make the journal sum
           exact *)
        let serve_round () =
          let ledger = Ledger.open_ path in
          ignore (Ledger.register ledger ~analyst:"team" ~epsilon:6.0 ~delta:1e-4);
          let server =
            (* replay off: this test is about charged repeats racing the
               ledger; the zero-budget replay path has its own conservation
               tests in test_release_store.ml *)
            Server.create
              ~config:{ Server.default_config with release_cache = false }
              ~db ~metrics ~ledger ~rng:(Rng.create ~seed:5 ()) ()
          in
          let reactor = Reactor.listen server in
          ignore (Reactor.start reactor);
          let granted = Atomic.make 0 and refused = Atomic.make 0 in
          let client () =
            let conn = connect (Reactor.port reactor) in
            (match roundtrip conn (Wire.Hello { analyst = "team"; epsilon = None; delta = None }) with
            | Wire.Budget_report _ -> ()
            | other -> Alcotest.failf "hello: %s" (Wire.response_to_line other));
            for _ = 1 to n_queries do
              match
                roundtrip conn
                  (Wire.Query
                     { sql = "SELECT COUNT(*) FROM trips"; epsilon = Some 0.25; delta = None; id = None })
              with
              | Wire.Result _ -> Atomic.incr granted
              | Wire.Refused _ -> Atomic.incr refused
              | other -> Alcotest.failf "query: %s" (Wire.response_to_line other)
            done;
            match roundtrip conn Wire.Quit with
            | Wire.Bye -> ()
            | other -> Alcotest.failf "quit: %s" (Wire.response_to_line other)
          in
          let threads = List.init n_threads (fun _ -> Thread.create client ()) in
          List.iter Thread.join threads;
          Reactor.stop reactor;
          let spent = Ledger.spent ledger ~analyst:"team" in
          Ledger.close ledger;
          (Atomic.get granted, Atomic.get refused, spent)
        in
        let granted, refused, spent = serve_round () in
        Alcotest.(check int) "all requests answered" (n_threads * n_queries)
          (granted + refused);
        Alcotest.(check int) "exactly 24 grants" 24 granted;
        (* epsilon costs are powers of two, so the concurrent sum is exact in
           any interleaving; delta's sum is whatever the journal says, checked
           bit-for-bit across the restart below *)
        Alcotest.(check bool) "spend equals the granted sum exactly" true
          (match spent with Some (e, _) -> e = 0.25 *. float_of_int granted | None -> false);
        (* the journal agrees bit for bit *)
        (match Ledger.summaries_of_file path with
        | [ s ] ->
          Alcotest.(check bool) "journal total" true (s.epsilon_spent = 6.0);
          Alcotest.(check int) "journal grants" granted s.spend_count
        | _ -> Alcotest.fail "one analyst expected");
        (* a restarted server resumes the exhausted budget: every request is
           refused, none granted *)
        let granted2, refused2, spent2 = serve_round () in
        Alcotest.(check int) "no grants after restart" 0 granted2;
        Alcotest.(check int) "all refused after restart" (n_threads * n_queries) refused2;
        Alcotest.(check bool) "remaining unchanged" true
          (spent2 = spent);
        Sys.remove path);
  ]

let suites =
  [
    ("service-json", json_tests);
    ("service-wire", wire_tests);
    ("service-canon", canon_tests);
    ("service-ledger", ledger_tests);
    ("service-server", server_tests);
    ("service-early-refusal", early_refusal_tests);
    ("service-conclude", conclude_tests);
    ("service-tcp", tcp_tests);
  ]
