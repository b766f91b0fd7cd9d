(* The telemetry subsystem's obligations:

   1. Registry: correct values under concurrent domain updates, faithful
      Prometheus/JSON rendering, label escaping, callback isolation.
   2. Clock/spans: monotonized timestamps (no negative durations, ever),
      span trees in creation order, idempotent finish.
   3. EXPLAIN ANALYZE: the traced root cardinality agrees with the
      reference interpreter; actual row counts are gated exactly like
      EXPLAIN's estimates (default off through the service).
   4. Privacy: DP releases are bit-identical with telemetry on and off,
      and the metrics surface never carries private-table cardinalities.
   5. Audit: one valid JSON object per line whatever the SQL contains,
      stage timings non-negative with total >= each stage, and [count]
      counts every logged event. *)

module Registry = Flex_obs.Registry
module Clock = Flex_obs.Clock
module Span = Flex_obs.Span
module Database = Flex_engine.Database
module Metrics = Flex_engine.Metrics
module Executor = Flex_engine.Executor
module Reference = Flex_engine.Reference
module Plan = Flex_engine.Plan
module Optimizer = Flex_engine.Optimizer
module Task_pool = Flex_engine.Task_pool
module Parallel = Flex_engine.Parallel
module Rng = Flex_dp.Rng
module Ledger = Flex_dp.Ledger
module Uber = Flex_workload.Uber
module Qgen = Flex_workload.Qgen
module Wire = Flex_service.Wire
module Json = Flex_service.Json
module Server = Flex_service.Server
module Audit = Flex_service.Audit
module Stats_http = Flex_service.Stats_http
module Statements = Flex_obs.Statements
module Flight = Flex_obs.Flight

(* --- registry ------------------------------------------------------------------- *)

let registry_tests =
  [
    Alcotest.test_case "counter adds, ignores negatives" `Quick (fun () ->
        let reg = Registry.create () in
        let c = Registry.counter reg "t_total" in
        Registry.Counter.incr c;
        Registry.Counter.inc c 2.5;
        Registry.Counter.inc c (-10.0);
        Alcotest.(check (float 1e-9)) "value" 3.5 (Registry.Counter.value c));
    Alcotest.test_case "gauge sets and adds" `Quick (fun () ->
        let reg = Registry.create () in
        let g = Registry.gauge reg "t_gauge" in
        Registry.Gauge.set g 7.0;
        Registry.Gauge.add g (-2.0);
        Alcotest.(check (float 1e-9)) "value" 5.0 (Registry.Gauge.value g));
    Alcotest.test_case "histogram buckets cumulate" `Quick (fun () ->
        let reg = Registry.create () in
        let h = Registry.histogram reg ~buckets:[| 1.0; 2.0; 4.0 |] "t_hist" in
        List.iter (Registry.Histogram.observe h) [ 0.5; 1.5; 3.0; 100.0 ];
        Alcotest.(check int) "count" 4 (Registry.Histogram.count h);
        Alcotest.(check (float 1e-9)) "sum" 105.0 (Registry.Histogram.sum h);
        match Registry.snapshot reg with
        | [ { Registry.samples = [ { value = Registry.Hist s; _ } ]; _ } ] ->
          Alcotest.(check (array (float 0.))) "upper" [| 1.0; 2.0; 4.0 |] s.upper;
          Alcotest.(check (array int)) "cumulative" [| 1; 2; 3 |] s.cumulative;
          Alcotest.(check int) "inf count" 4 s.count
        | _ -> Alcotest.fail "unexpected snapshot shape");
    Alcotest.test_case "updates from 4 domains are not lost" `Quick (fun () ->
        let reg = Registry.create () in
        let c = Registry.counter reg "t_total" in
        let h = Registry.histogram reg "t_hist" in
        let per_domain = 10_000 in
        let work () =
          for _ = 1 to per_domain do
            Registry.Counter.incr c;
            Registry.Histogram.observe h 1e-3
          done
        in
        let domains = List.init 4 (fun _ -> Domain.spawn work) in
        List.iter Domain.join domains;
        Alcotest.(check (float 0.)) "counter" (float_of_int (4 * per_domain))
          (Registry.Counter.value c);
        Alcotest.(check int) "histogram count" (4 * per_domain) (Registry.Histogram.count h));
    Alcotest.test_case "same name + labels = one family; kind clash rejected" `Quick
      (fun () ->
        let reg = Registry.create () in
        let a = Registry.counter reg ~labels:[ ("k", "a") ] "t_total" in
        let b = Registry.counter reg ~labels:[ ("k", "b") ] "t_total" in
        Registry.Counter.incr a;
        Registry.Counter.inc b 2.0;
        (match Registry.snapshot reg with
        | [ { Registry.name = "t_total"; kind = "counter"; samples; _ } ] ->
          Alcotest.(check int) "two series" 2 (List.length samples)
        | _ -> Alcotest.fail "expected one family with two samples");
        match Registry.gauge reg "t_total" with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "kind clash should raise");
    Alcotest.test_case "collect callbacks sampled at scrape; exceptions drop" `Quick
      (fun () ->
        let reg = Registry.create () in
        let n = ref 0 in
        Registry.collect reg ~kind:`Gauge "t_live" (fun () ->
            [ ([], float_of_int !n) ]);
        Registry.collect reg ~kind:`Gauge "t_boom" (fun () -> failwith "boom");
        n := 5;
        let text = Registry.to_prometheus reg in
        Alcotest.(check bool) "live value" true
          (Astring.String.is_infix ~affix:"t_live 5" text);
        Alcotest.(check bool) "type line survives" true
          (Astring.String.is_infix ~affix:"# TYPE t_boom gauge" text);
        (* sample lines start with the family name at column 0; the failing
           callback must contribute none *)
        Alcotest.(check bool) "no sample from the failing callback" false
          (String.split_on_char '\n' text
          |> List.exists (fun l -> Astring.String.is_prefix ~affix:"t_boom" l)));
    Alcotest.test_case "prometheus rendering and label escaping" `Quick (fun () ->
        let reg = Registry.create () in
        let c = Registry.counter reg ~help:"a\nb" ~labels:[ ("q", "x\"y\\z\n") ] "t_total" in
        Registry.Counter.inc c 3.0;
        let text = Registry.to_prometheus reg in
        Alcotest.(check bool) "help escaped" true
          (Astring.String.is_infix ~affix:"# HELP t_total a\\nb" text);
        Alcotest.(check bool) "type" true
          (Astring.String.is_infix ~affix:"# TYPE t_total counter" text);
        Alcotest.(check bool) "label escaped" true
          (Astring.String.is_infix ~affix:{|t_total{q="x\"y\\z\n"} 3|} text));
    Alcotest.test_case "JSON export parses and round-trips names" `Quick (fun () ->
        let reg = Registry.create () in
        let c = Registry.counter reg ~labels:[ ("sql", "a\"b\nc") ] "t_total" in
        Registry.Counter.incr c;
        let h = Registry.histogram reg ~buckets:[| 1.0 |] "t_hist" in
        Registry.Histogram.observe h 0.5;
        match Json.of_string (Registry.to_json reg) with
        | Error e -> Alcotest.failf "registry JSON does not parse: %s" e
        | Ok j -> (
          match Json.mem "families" j with
          | Some (Json.List fams) ->
            let names =
              List.filter_map
                (fun f -> Option.bind (Json.mem "name" f) Json.to_str)
                fams
            in
            Alcotest.(check (list string)) "families" [ "t_total"; "t_hist" ] names
          | _ -> Alcotest.fail "missing families array"));
  ]

(* --- clock and spans ------------------------------------------------------------ *)

let clock_span_tests =
  [
    Alcotest.test_case "now_ns never decreases; elapsed_ns clamps at 0" `Quick (fun () ->
        let prev = ref (Clock.now_ns ()) in
        for _ = 1 to 1000 do
          let t = Clock.now_ns () in
          if t < !prev then Alcotest.fail "clock went backwards";
          prev := t
        done;
        (* a t0 in the future (e.g. another domain published a later
           watermark between reads) must clamp, not go negative *)
        Alcotest.(check (float 0.)) "clamped" 0.0
          (Clock.elapsed_ns (Clock.now_ns () +. 1e12)));
    Alcotest.test_case "span tree: creation order, durations, find" `Quick (fun () ->
        let root = Span.root "query" in
        Span.timed (Some root) "parse" (fun _ -> ());
        Span.timed (Some root) "execute" (fun sp ->
            Span.timed sp "run" (fun _ -> Unix.sleepf 0.002));
        let open_child = Span.enter root "open" in
        ignore open_child;
        Span.finish root;
        let v = Span.view root in
        Alcotest.(check (list string)) "children in creation order"
          [ "parse"; "execute"; "open" ]
          (List.map (fun (c : Span.view) -> c.name) v.children);
        Alcotest.(check bool) "nested timing" true
          (Span.duration_of v [ "execute"; "run" ] >= 2e6 *. 0.5);
        Alcotest.(check bool) "parent >= child" true
          (Span.duration_of v [ "execute" ] >= Span.duration_of v [ "execute"; "run" ]);
        Alcotest.(check (float 0.)) "unfinished child reads 0" 0.0
          (Span.duration_of v [ "open" ]);
        Alcotest.(check (float 0.)) "absent path reads 0" 0.0
          (Span.duration_of v [ "nope" ]);
        Alcotest.(check bool) "total >= 0" true (Span.duration_of v [] >= 0.0));
    Alcotest.test_case "finish is idempotent (first call wins)" `Quick (fun () ->
        let root = Span.root "q" in
        let c = Span.enter root "c" in
        Span.finish c;
        let d1 = Span.duration_of (Span.view root) [ "c" ] in
        Unix.sleepf 0.002;
        Span.finish c;
        let d2 = Span.duration_of (Span.view root) [ "c" ] in
        Alcotest.(check (float 0.)) "unchanged" d1 d2);
    Alcotest.test_case "timed None is a passthrough; raises propagate" `Quick (fun () ->
        Alcotest.(check int) "value" 42
          (Span.timed None "x" (fun sp ->
               Alcotest.(check bool) "no span" true (sp = None);
               42));
        let root = Span.root "q" in
        (match Span.timed (Some root) "boom" (fun _ -> failwith "boom") with
        | exception Failure _ -> ()
        | _ -> Alcotest.fail "exception swallowed");
        Span.finish root;
        (* the failing span was still finished on the way out *)
        Alcotest.(check bool) "failed span closed" true
          (match Span.find (Span.view root) [ "boom" ] with
          | Some c -> c.duration_ns >= 0.0
          | None -> false));
    Alcotest.test_case "span JSON parses" `Quick (fun () ->
        let root = Span.root "query" in
        Span.timed (Some root) "parse" (fun _ -> ());
        Span.finish root;
        match Json.of_string (Span.to_json (Span.view root)) with
        | Ok j ->
          Alcotest.(check (option string)) "name" (Some "query")
            (Option.bind (Json.mem "name" j) Json.to_str)
        | Error e -> Alcotest.failf "span JSON does not parse: %s" e);
  ]

(* --- audit ---------------------------------------------------------------------- *)

let base_event sql : Audit.event =
  {
    analyst = "a";
    sql;
    request_id = None;
    outcome = Audit.Granted;
    epsilon = 0.1;
    delta = 1e-8;
    max_noise_scale = 1.0;
    cache_hit = false;
    parse_ns = 1.0;
    analysis_ns = 2.0;
    smooth_ns = 3.0;
    execution_ns = 4.0;
    perturbation_ns = 5.0;
    total_ns = 100.0;
  }

let audit_tests =
  [
    Alcotest.test_case "count counts every logged event" `Quick (fun () ->
        let a = Audit.to_buffer (Buffer.create 64) in
        Alcotest.(check int) "empty" 0 (Audit.count a);
        Audit.log a (base_event "SELECT 1");
        Audit.log a (base_event "SELECT 2");
        Alcotest.(check int) "count" 2 (Audit.count a));
    Alcotest.test_case "one valid JSON object per line, any SQL" `Quick (fun () ->
        let buf = Buffer.create 256 in
        let a = Audit.to_buffer buf in
        let sqls =
          [
            "SELECT COUNT(*)\nFROM trips\n\tWHERE fare > 10";
            {|SELECT "quoted", 'single' FROM t -- comment|};
            "SELECT '\xc3\xa9t\xc3\xa9 \xe2\x88\x91 \xf0\x9f\x9a\x97' FROM voil\xc3\xa0";
            "SELECT '\x01\x02 control \x1f chars'";
          ]
        in
        List.iter (fun sql -> Audit.log a (base_event sql)) sqls;
        let lines =
          String.split_on_char '\n' (Buffer.contents buf)
          |> List.filter (fun l -> String.trim l <> "")
        in
        Alcotest.(check int) "one line per event" (List.length sqls) (List.length lines);
        List.iter2
          (fun sql line ->
            match Json.of_string line with
            | Error e -> Alcotest.failf "audit line does not parse (%s): %s" e line
            | Ok j ->
              Alcotest.(check (option string)) "sql round-trips" (Some sql)
                (Option.bind (Json.mem "sql" j) Json.to_str);
              Alcotest.(check (option (float 0.))) "total_ns present" (Some 100.0)
                (Option.bind (Json.mem "total_ns" j) Json.to_num))
          sqls lines);
  ]

(* --- engine: EXPLAIN ANALYZE ----------------------------------------------------- *)

let engine_fixture = lazy (Uber.generate ~sizes:Uber.small_sizes (Rng.create ~seed:7 ()))

let analyze_queries =
  [
    "SELECT COUNT(*) FROM trips";
    "SELECT COUNT(*) FROM trips WHERE fare > 20";
    "SELECT t.city_id, COUNT(*) FROM trips t GROUP BY t.city_id";
    "SELECT COUNT(*) FROM trips t JOIN drivers d ON t.driver_id = d.id \
     WHERE d.city_id = 1";
    "SELECT d.status, COUNT(*) AS n FROM trips t JOIN drivers d ON t.driver_id = d.id \
     GROUP BY d.status ORDER BY n DESC LIMIT 3";
  ]

(* rows=<whatever> -> rows=#, so gated/ungated renderings can be compared
   field-by-field with only the gated tokens neutralized *)
let neutralize_rows s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if !i + 5 <= n && String.sub s !i 5 = "rows=" then begin
      Buffer.add_string b "rows=#";
      i := !i + 5;
      while !i < n && s.[!i] <> ',' && s.[!i] <> ')' do
        incr i
      done
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

let explain_analyze_tests =
  [
    Alcotest.test_case "root actual rows agree with the reference interpreter" `Quick
      (fun () ->
        let db, metrics = Lazy.force engine_fixture in
        List.iter
          (fun sql ->
            let q = Flex_sql.Parser.parse_exn sql in
            let plan = Optimizer.plan ~metrics q in
            let result, trace = Executor.run_plan_analyzed db plan in
            let reference =
              match Reference.run_sql db sql with
              | Ok r -> List.length r.Reference.rows
              | Error e -> Alcotest.failf "reference rejected %s: %s" sql e
            in
            Alcotest.(check (option int))
              (sql ^ ": traced root cardinality") (Some reference)
              (Plan.Analyze.result_rows trace);
            Alcotest.(check int)
              (sql ^ ": result cardinality") reference
              (List.length result.Executor.rows))
          analyze_queries);
    Alcotest.test_case "every operator line carries an actual-stats suffix" `Quick
      (fun () ->
        let db, metrics = Lazy.force engine_fixture in
        let sql = List.nth analyze_queries 4 in
        let plan, _ =
          Executor.explain_analyze ~metrics ~show_rows:true db
            (Flex_sql.Parser.parse_exn sql)
        in
        let lines =
          String.split_on_char '\n' plan |> List.filter (fun l -> String.trim l <> "")
        in
        List.iter
          (fun line ->
            if not (Astring.String.is_infix ~affix:"(actual" line) then
              Alcotest.failf "operator line without stats: %S in\n%s" line plan)
          lines);
    Alcotest.test_case "gating hides row counts and nothing else" `Quick (fun () ->
        let db, metrics = Lazy.force engine_fixture in
        let q = Flex_sql.Parser.parse_exn (List.nth analyze_queries 3) in
        let plan = Optimizer.plan ~metrics q in
        let _, trace = Executor.run_plan_analyzed db plan in
        (* one trace rendered twice: timings identical, only rows may differ *)
        let shown = Plan.render_analyzed ~show_rows:true ~trace plan in
        let gated = Plan.render_analyzed ~show_rows:false ~trace plan in
        Alcotest.(check bool) "ungated has digit row counts" true
          (Astring.String.is_infix ~affix:"rows=" shown
          && not (Astring.String.is_infix ~affix:"rows=?" shown));
        Alcotest.(check bool) "gated masks every count" true
          (Astring.String.is_infix ~affix:"rows=?" gated);
        Alcotest.(check string) "identical once rows are neutralized"
          (neutralize_rows shown) (neutralize_rows gated));
  ]

(* --- engine: pool and parallel counters ------------------------------------------ *)

let pool_counter_tests =
  [
    Alcotest.test_case "task pool stats count jobs and claimed chunks" `Quick (fun () ->
        let pool = Task_pool.create ~domains:2 in
        Fun.protect
          ~finally:(fun () -> Task_pool.shutdown pool)
          (fun () ->
            let b = Task_pool.stats pool in
            Task_pool.run pool ~chunks:8 (fun _ -> ());
            let a = Task_pool.stats pool in
            Alcotest.(check bool) "a job ran" true (a.Task_pool.jobs > b.Task_pool.jobs);
            let claimed =
              a.Task_pool.caller_chunks + a.Task_pool.worker_chunks
              - (b.Task_pool.caller_chunks + b.Task_pool.worker_chunks)
            in
            Alcotest.(check int) "all chunks claimed exactly once" 8 claimed));
    Alcotest.test_case "parallel vs sequential dispatches are counted" `Quick (fun () ->
        let db, _ = Lazy.force engine_fixture in
        let p0, s0 = Parallel.ops_counts () in
        (match Executor.run_sql db "SELECT COUNT(*) FROM trips WHERE fare > 0" with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "query failed: %s" e);
        let p1, s1 = Parallel.ops_counts () in
        Alcotest.(check bool) "some dispatch was counted" true (p1 + s1 > p0 + s0);
        Alcotest.(check bool) "counters never decrease" true (p1 >= p0 && s1 >= s0));
  ]

(* --- service -------------------------------------------------------------------- *)

let make_server ?audit ?config () =
  let db, metrics = Lazy.force engine_fixture in
  Server.create ?audit ?config ~db ~metrics ~ledger:(Ledger.in_memory ())
    ~rng:(Rng.create ~seed:11 ()) ()

let hello server session analyst =
  match
    Server.handle server session (Wire.Hello { analyst; epsilon = None; delta = None })
  with
  | Wire.Budget_report _ -> ()
  | other -> Alcotest.failf "hello failed: %s" (Wire.response_to_line other)

let query server session sql =
  Server.handle server session (Wire.Query { sql; epsilon = None; delta = None; id = None })

let remaining server session =
  match Server.handle server session Wire.Budget_info with
  | Wire.Budget_report b -> (b.remaining_epsilon, b.remaining_delta)
  | other -> Alcotest.failf "budget failed: %s" (Wire.response_to_line other)

let count_query = "SELECT COUNT(*) FROM trips"

let analyze_sql =
  "EXPLAIN ANALYZE SELECT COUNT(*) FROM trips t JOIN drivers d \
   ON t.driver_id = d.id WHERE d.city_id = 1"

let service_tests =
  [
    Alcotest.test_case "EXPLAIN ANALYZE needs hello and the opt-in, never executes by default"
      `Quick (fun () ->
        let buf = Buffer.create 256 in
        let server = make_server ~audit:(Audit.to_buffer buf) () in
        let session = Server.session server in
        (* anonymous sessions can't trigger execution — through either op *)
        (match query server session analyze_sql with
        | Wire.Error_msg m ->
          Alcotest.(check bool) "asks for hello" true
            (Astring.String.is_infix ~affix:"hello" m)
        | other -> Alcotest.failf "unexpected: %s" (Wire.response_to_line other));
        (match Server.handle server session (Wire.Explain { sql = analyze_sql }) with
        | Wire.Error_msg m ->
          Alcotest.(check bool) "explain op asks for hello too" true
            (Astring.String.is_infix ~affix:"hello" m)
        | other -> Alcotest.failf "explain op: %s" (Wire.response_to_line other));
        hello server session "a";
        (* authenticated but no explain_estimates: rejected without running
           the query — timings are a side channel, not just the row counts *)
        (match query server session analyze_sql with
        | Wire.Rejected { bucket; reason } ->
          Alcotest.(check string) "admission bucket" "admission" bucket;
          Alcotest.(check bool) "names the opt-in" true
            (Astring.String.is_infix ~affix:"explain_estimates" reason)
        | other -> Alcotest.failf "unexpected: %s" (Wire.response_to_line other));
        (match Server.handle server session (Wire.Explain { sql = analyze_sql }) with
        | Wire.Rejected { bucket; _ } ->
          Alcotest.(check string) "explain op gated too" "admission" bucket
        | other -> Alcotest.failf "explain op: %s" (Wire.response_to_line other));
        (* both authenticated attempts left an audit trail *)
        let lines =
          List.filter
            (fun l -> String.trim l <> "")
            (String.split_on_char '\n' (Buffer.contents buf))
        in
        Alcotest.(check int) "attempts audited" 2 (List.length lines);
        List.iter
          (fun line ->
            match Json.of_string line with
            | Error e -> Alcotest.failf "audit line does not parse: %s" e
            | Ok j ->
              Alcotest.(check (option string)) "rejected outcome" (Some "rejected")
                (Option.bind (Json.mem "outcome" j) Json.to_str))
          lines);
    Alcotest.test_case "explain_estimates opts in to EXPLAIN ANALYZE (uncharged, audited)"
      `Quick (fun () ->
        let buf = Buffer.create 256 in
        let audit = Audit.to_buffer buf in
        let config = { Server.default_config with explain_estimates = true } in
        let server = make_server ~audit ~config () in
        let session = Server.session server in
        hello server session "a";
        let before = remaining server session in
        (match query server session analyze_sql with
        | Wire.Analyzed_report { plan } ->
          Alcotest.(check bool) "counts shown" true
            (Astring.String.is_infix ~affix:"rows=" plan);
          Alcotest.(check bool) "nothing masked" false
            (Astring.String.is_infix ~affix:"rows=?" plan);
          Alcotest.(check bool) "timings rendered" true
            (Astring.String.is_infix ~affix:"(actual" plan
            && Astring.String.is_infix ~affix:"ms)" plan)
        | other -> Alcotest.failf "unexpected: %s" (Wire.response_to_line other));
        Alcotest.(check bool) "budget untouched" true (before = remaining server session);
        (* the explain wire op serves the ANALYZE form under the same opt-in *)
        (match Server.handle server session (Wire.Explain { sql = analyze_sql }) with
        | Wire.Analyzed_report _ -> ()
        | other -> Alcotest.failf "explain op: %s" (Wire.response_to_line other));
        (* each data access leaves an audit event naming the analyst *)
        let line = List.hd (String.split_on_char '\n' (Buffer.contents buf)) in
        match Json.of_string line with
        | Error e -> Alcotest.failf "audit line does not parse: %s" e
        | Ok j ->
          Alcotest.(check (option string)) "analyzed outcome" (Some "analyzed")
            (Option.bind (Json.mem "outcome" j) Json.to_str);
          Alcotest.(check (option string)) "analyst recorded" (Some "a")
            (Option.bind (Json.mem "analyst" j) Json.to_str);
          Alcotest.(check int) "both accesses audited" 2 (Audit.count audit));
    Alcotest.test_case "stats report: uptime, qps, cache, registry families" `Quick
      (fun () ->
        (* replay off: the repeat must reach the analysis cache and be granted
           (not replayed) for the counters below to read 2/2 *)
        let server =
          make_server ~config:{ Server.default_config with release_cache = false } ()
        in
        let session = Server.session server in
        hello server session "a";
        (match query server session count_query with
        | Wire.Result _ -> ()
        | other -> Alcotest.failf "query failed: %s" (Wire.response_to_line other));
        (match query server session count_query with
        | Wire.Result r -> Alcotest.(check bool) "second query hits cache" true r.cache_hit
        | other -> Alcotest.failf "query failed: %s" (Wire.response_to_line other));
        match Server.handle server session Wire.Stats with
        | Wire.Stats_report s ->
          Alcotest.(check int) "queries" 2 s.queries;
          Alcotest.(check int) "granted" 2 s.granted;
          Alcotest.(check bool) "cache hit counted" true (s.cache_hits >= 1);
          Alcotest.(check bool) "uptime positive" true (s.uptime_seconds > 0.0);
          Alcotest.(check bool) "qps positive" true (s.qps > 0.0);
          let fams =
            match Json.mem "families" s.metrics with
            | Some (Json.List fams) ->
              List.filter_map
                (fun f -> Option.bind (Json.mem "name" f) Json.to_str)
                fams
            | _ -> Alcotest.fail "stats carry no registry snapshot"
          in
          Alcotest.(check bool) "query counter family present" true
            (List.mem "flex_queries_total" fams);
          Alcotest.(check bool) "stage histogram family present" true
            (List.mem "flex_stage_seconds" fams);
          (* the metrics surface carries operational series only: everything
             is flex_-namespaced and nothing names a table cardinality *)
          List.iter
            (fun name ->
              if not (Astring.String.is_prefix ~affix:"flex_" name) then
                Alcotest.failf "non-operational family: %s" name;
              if
                Astring.String.is_infix ~affix:"row" name
                || Astring.String.is_infix ~affix:"table" name
              then Alcotest.failf "family smells like private data: %s" name)
            fams
        | other -> Alcotest.failf "unexpected: %s" (Wire.response_to_line other));
    Alcotest.test_case "wire stats omit per-analyst budget series" `Quick (fun () ->
        let server = make_server () in
        let s1 = Server.session server in
        hello server s1 "alice";
        (* stats needs no hello: an anonymous client must not learn which
           analysts exist or what they have spent *)
        (match Server.handle server (Server.session server) Wire.Stats with
        | Wire.Stats_report s ->
          let rendered = Json.to_string s.metrics in
          Alcotest.(check bool) "no per-analyst budget families" false
            (Astring.String.is_infix ~affix:"flex_analyst_remaining" rendered);
          Alcotest.(check bool) "no analyst names" false
            (Astring.String.is_infix ~affix:"alice" rendered);
          Alcotest.(check bool) "operational families still present" true
            (Astring.String.is_infix ~affix:"flex_queries_total" rendered)
        | other -> Alcotest.failf "unexpected: %s" (Wire.response_to_line other));
        (* the loopback-only operator scrape keeps the budget gauges *)
        match Server.registry server with
        | None -> Alcotest.fail "registry expected"
        | Some reg ->
          Alcotest.(check bool) "scrape keeps analyst gauges" true
            (Astring.String.is_infix
               ~affix:{|flex_analyst_remaining_epsilon{analyst="alice"}|}
               (Registry.to_prometheus reg)));
    Alcotest.test_case "stats decode tolerates older servers" `Quick (fun () ->
        let line =
          {|{"status":"stats","queries":1,"granted":1,"rejected":0,"refused":0,"cache_hits":0,"cache_misses":1,"cache_entries":1,"analysts":1}|}
        in
        match Wire.response_of_line line with
        | Ok (Wire.Stats_report s) ->
          Alcotest.(check (float 0.)) "uptime defaults" 0.0 s.uptime_seconds;
          Alcotest.(check (float 0.)) "qps defaults" 0.0 s.qps;
          Alcotest.(check bool) "metrics default to Null" true (s.metrics = Json.Null)
        | Ok other -> Alcotest.failf "wrong constructor: %s" (Wire.response_to_line other)
        | Error e -> Alcotest.failf "decode failed: %s" e);
    Alcotest.test_case "audit stage timings: non-negative, total covers stages" `Quick
      (fun () ->
        let buf = Buffer.create 256 in
        let server = make_server ~audit:(Audit.to_buffer buf) () in
        let session = Server.session server in
        hello server session "a";
        (match query server session count_query with
        | Wire.Result _ -> ()
        | other -> Alcotest.failf "query failed: %s" (Wire.response_to_line other));
        let line = List.hd (String.split_on_char '\n' (Buffer.contents buf)) in
        match Json.of_string line with
        | Error e -> Alcotest.failf "audit line does not parse: %s" e
        | Ok j ->
          let ns field =
            match Option.bind (Json.mem field j) Json.to_num with
            | Some v -> v
            | None -> Alcotest.failf "missing %s" field
          in
          let stages =
            [ "parse_ns"; "analysis_ns"; "smooth_ns"; "execution_ns"; "perturbation_ns" ]
          in
          List.iter
            (fun f ->
              if ns f < 0.0 then Alcotest.failf "%s is negative: %g" f (ns f))
            stages;
          let total = ns "total_ns" in
          Alcotest.(check bool) "total positive" true (total > 0.0);
          List.iter
            (fun f ->
              if total < ns f then
                Alcotest.failf "total_ns %g < %s %g" total f (ns f))
            stages);
    Alcotest.test_case "telemetry off: no registry, zero timings, same responses"
      `Quick (fun () ->
        let off = { Server.default_config with telemetry = false } in
        let buf = Buffer.create 256 in
        let server_off = make_server ~audit:(Audit.to_buffer buf) ~config:off () in
        let server_on = make_server () in
        Alcotest.(check bool) "no registry when off" true
          (Server.registry server_off = None);
        Alcotest.(check bool) "registry when on" true
          (Server.registry server_on <> None);
        let drive server =
          let session = Server.session server in
          hello server session "a";
          List.map
            (fun sql -> query server session sql)
            [
              count_query;
              "SELECT t.city_id, COUNT(*) FROM trips t GROUP BY t.city_id";
              "SELECT COUNT(*) FROM trips WHERE fare > 20";
            ]
        in
        let on = drive server_on and off_resp = drive server_off in
        (* the DP fingerprint: same seeds, telemetry toggled, responses
           bit-identical — telemetry never touches the RNG or results *)
        List.iter2
          (fun a b ->
            if a <> b then
              Alcotest.failf "release differs with telemetry off:\n%s\n%s"
                (Wire.response_to_line a) (Wire.response_to_line b))
          on off_resp;
        (match Server.handle server_off (Server.session server_off) Wire.Stats with
        | Wire.Stats_report s ->
          Alcotest.(check bool) "metrics Null when off" true (s.metrics = Json.Null)
        | other -> Alcotest.failf "unexpected: %s" (Wire.response_to_line other));
        match Json.of_string (List.hd (String.split_on_char '\n' (Buffer.contents buf))) with
        | Ok j ->
          Alcotest.(check (option (float 0.))) "stage timing zero when off" (Some 0.0)
            (Option.bind (Json.mem "total_ns" j) Json.to_num)
        | Error e -> Alcotest.failf "audit line does not parse: %s" e);
    Alcotest.test_case "engine fallbacks: none on generated queries, one per outer join" `Quick
      (fun () ->
        let config = { Server.default_config with analyst_epsilon = 1000.0 } in
        let server = make_server ~config () in
        let session = Server.session server in
        hello server session "a";
        let fallbacks () =
          match
            List.find_opt
              (fun (f : Registry.family) -> f.name = "flex_engine_fallback_total")
              (Registry.snapshot (Option.get (Server.registry server)))
          with
          | Some { samples = [ { labels = []; value = Registry.Sample v } ]; _ } -> int_of_float v
          | _ -> Alcotest.fail "flex_engine_fallback_total: expected one unlabelled sample"
        in
        let answered sql =
          match query server session sql with
          | Wire.Result _ -> ()
          | other -> Alcotest.failf "%s: %s" sql (Wire.response_to_line other)
        in
        let before = fallbacks () in
        List.iter
          (fun (q : Qgen.t) -> answered q.sql)
          (Qgen.generate (Rng.create ~seed:11 ()) ~count:40 ~n_cities:12 ~n_drivers:120
             ~n_users:200);
        Alcotest.(check int) "the generated corpus runs columnar" before (fallbacks ());
        answered "SELECT COUNT(*) FROM trips t LEFT JOIN drivers d ON t.driver_id = d.id";
        Alcotest.(check int) "a LEFT JOIN falls back once" (before + 1) (fallbacks ()));
  ]

(* --- stats HTTP endpoint --------------------------------------------------------- *)

let http_get port path =
  let ic, oc =
    Unix.open_connection (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
  in
  output_string oc ("GET " ^ path ^ " HTTP/1.1\r\nHost: localhost\r\n\r\n");
  flush oc;
  let buf = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  (try Unix.shutdown_connection ic with _ -> ());
  close_in_noerr ic;
  Buffer.contents buf

let body_of response =
  match Astring.String.cut ~sep:"\r\n\r\n" response with
  | Some (_, body) -> body
  | None -> Alcotest.failf "no header/body split in %S" response

let stats_http_tests =
  [
    Alcotest.test_case "metrics, metrics.json and healthz over HTTP" `Quick (fun () ->
        let reg = Registry.create () in
        let c = Registry.counter reg ~labels:[ ("k", "v") ] "flex_demo_total" in
        Registry.Counter.inc c 3.0;
        let http = Stats_http.listen reg in
        ignore (Stats_http.start http);
        Fun.protect
          ~finally:(fun () -> Stats_http.stop http)
          (fun () ->
            let port = Stats_http.port http in
            let metrics = http_get port "/metrics" in
            Alcotest.(check bool) "200" true
              (Astring.String.is_infix ~affix:"200 OK" metrics);
            Alcotest.(check bool) "prometheus body" true
              (Astring.String.is_infix ~affix:{|flex_demo_total{k="v"} 3|} metrics);
            let js = http_get port "/metrics.json" in
            (match Json.of_string (body_of js) with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "/metrics.json does not parse: %s" e);
            Alcotest.(check string) "healthz" "ok" (body_of (http_get port "/healthz"));
            Alcotest.(check bool) "unknown path is 404" true
              (Astring.String.is_infix ~affix:"404" (http_get port "/nope"))));
    Alcotest.test_case "stop does not hang on an idle client" `Quick (fun () ->
        let http = Stats_http.listen (Registry.create ()) in
        ignore (Stats_http.start http);
        (* connect but send nothing: the handler blocks reading the request
           line, and stop must shut its fd down rather than wait forever *)
        let ic, oc =
          Unix.open_connection
            (Unix.ADDR_INET (Unix.inet_addr_loopback, Stats_http.port http))
        in
        Thread.delay 0.05;
        Stats_http.stop http;
        ignore oc;
        close_in_noerr ic);
    Alcotest.test_case "/statements and /flights serve JSON when supplied" `Quick
      (fun () ->
        let st = Statements.create () in
        Statements.record st ~now_ns:1.0 ~key:"SELECT COUNT(*) FROM trips"
          ~outcome:`Granted ~total_ns:100.0 ();
        let fl = Flight.create () in
        Flight.record fl ~ts_ns:1.0 ~analyst:"alice" ~sql:"SELECT COUNT(*) FROM trips"
          ~outcome:"granted" ~duration_ns:100.0 ();
        let http = Stats_http.listen ~statements:st ~flights:fl (Registry.create ()) in
        ignore (Stats_http.start http);
        Fun.protect
          ~finally:(fun () -> Stats_http.stop http)
          (fun () ->
            let port = Stats_http.port http in
            (match Json.of_string (body_of (http_get port "/statements")) with
            | Ok j ->
              Alcotest.(check (option int)) "tracked" (Some 1)
                (Option.bind (Json.mem "tracked" j) Json.to_int)
            | Error e -> Alcotest.failf "/statements does not parse: %s" e);
            match Json.of_string (body_of (http_get port "/flights")) with
            | Ok j ->
              Alcotest.(check (option int)) "recorded" (Some 1)
                (Option.bind (Json.mem "recorded" j) Json.to_int)
            | Error e -> Alcotest.failf "/flights does not parse: %s" e));
    Alcotest.test_case "/statements and /flights are 404 when not supplied" `Quick
      (fun () ->
        let http = Stats_http.listen (Registry.create ()) in
        ignore (Stats_http.start http);
        Fun.protect
          ~finally:(fun () -> Stats_http.stop http)
          (fun () ->
            let port = Stats_http.port http in
            Alcotest.(check bool) "statements 404" true
              (Astring.String.is_infix ~affix:"404" (http_get port "/statements"));
            Alcotest.(check bool) "flights 404" true
              (Astring.String.is_infix ~affix:"404" (http_get port "/flights"))));
  ]

(* --- audit rotation under concurrency -------------------------------------------- *)

let audit_rotation_tests =
  [
    Alcotest.test_case "rotation never tears a line under concurrent writers" `Quick
      (fun () ->
        let path = Filename.temp_file "flex_audit" ".log" in
        let threads = 8 and per = 50 in
        let audit = Audit.to_file ~max_bytes:4096 path in
        let event i =
          {
            Audit.analyst = Printf.sprintf "writer-%d" i;
            sql = "SELECT COUNT(*) FROM trips WHERE fare > 20";
            request_id = Some (Printf.sprintf "r-%d" i);
            outcome = Audit.Granted;
            epsilon = 0.1;
            delta = 1e-6;
            max_noise_scale = 10.0;
            cache_hit = false;
            parse_ns = 1.0;
            analysis_ns = 2.0;
            smooth_ns = 3.0;
            execution_ns = 4.0;
            perturbation_ns = 5.0;
            total_ns = 20.0;
          }
        in
        let ts =
          List.init threads (fun t ->
              Thread.create
                (fun () ->
                  for i = 1 to per do
                    Audit.log audit (event ((t * per) + i))
                  done)
                ())
        in
        List.iter Thread.join ts;
        Alcotest.(check int) "every event counted" (threads * per) (Audit.count audit);
        Audit.close audit;
        let lines_of p =
          if not (Sys.file_exists p) then []
          else begin
            let ic = open_in p in
            let n = in_channel_length ic in
            let s = really_input_string ic n in
            close_in ic;
            List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' s)
          end
        in
        let current = lines_of path and rotated = lines_of (path ^ ".1") in
        Alcotest.(check bool) "rotation happened" true (rotated <> []);
        List.iteri
          (fun i line ->
            match Json.of_string line with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "torn line %d: %s (%s)" i e line)
          (current @ rotated);
        (* the live generation respects the byte limit *)
        Alcotest.(check bool) "live file within limit" true
          (List.fold_left (fun acc l -> acc + String.length l + 1) 0 current <= 4096);
        Sys.remove path;
        if Sys.file_exists (path ^ ".1") then Sys.remove (path ^ ".1"));
  ]

(* --- quantile estimation --------------------------------------------------------- *)

let quantile_tests =
  [
    Alcotest.test_case "linear interpolation within the rank's bucket" `Quick (fun () ->
        let upper = [| 1.0; 2.0; 4.0 |] and cumulative = [| 2; 3; 4 |] in
        let q p = Registry.estimate_quantile ~upper ~cumulative ~count:4 p in
        Alcotest.(check (option (float 1e-9))) "p50" (Some 1.0) (q 0.5);
        Alcotest.(check (option (float 1e-9))) "p75" (Some 2.0) (q 0.75);
        Alcotest.(check (option (float 1e-9))) "p100" (Some 4.0) (q 1.0));
    Alcotest.test_case "first bucket interpolates from zero" `Quick (fun () ->
        match
          Registry.estimate_quantile ~upper:[| 8.0 |] ~cumulative:[| 4 |] ~count:4 0.5
        with
        | Some v -> Alcotest.(check (float 1e-9)) "half the first bucket" 4.0 v
        | None -> Alcotest.fail "expected an estimate");
    Alcotest.test_case "rank past the last finite bound clamps" `Quick (fun () ->
        (* 2 of 3 observations overflowed every finite bucket *)
        match
          Registry.estimate_quantile ~upper:[| 1.0; 2.0 |] ~cumulative:[| 1; 1 |]
            ~count:3 0.9
        with
        | Some v -> Alcotest.(check (float 1e-9)) "clamped to last bound" 2.0 v
        | None -> Alcotest.fail "expected an estimate");
    Alcotest.test_case "empty histogram has no quantiles" `Quick (fun () ->
        Alcotest.(check (option (float 0.))) "none" None
          (Registry.estimate_quantile ~upper:[| 1.0 |] ~cumulative:[| 0 |] ~count:0 0.5));
    Alcotest.test_case "registry JSON carries p50/p95/p99 once observed" `Quick (fun () ->
        let reg = Registry.create () in
        let h = Registry.histogram reg "t_seconds" in
        let before = Registry.to_json reg in
        Alcotest.(check bool) "no quantiles while empty" false
          (Astring.String.is_infix ~affix:"quantiles" before);
        for _ = 1 to 100 do
          Registry.Histogram.observe h 1e-3
        done;
        let after = Registry.to_json reg in
        Alcotest.(check bool) "quantiles after observations" true
          (Astring.String.is_infix ~affix:{|"quantiles"|} after
          && Astring.String.is_infix ~affix:{|"p50"|} after
          && Astring.String.is_infix ~affix:{|"p99"|} after));
  ]

(* --- statement statistics -------------------------------------------------------- *)

let statement_tests =
  [
    Alcotest.test_case "accumulates calls, outcomes, rows, budget, extrema" `Quick
      (fun () ->
        let st = Statements.create ~capacity:8 () in
        Statements.record st ~now_ns:1.0 ~key:"K" ~outcome:`Granted
          ~stages:[ ("execute", 100.0); ("perturb", 10.0) ]
          ~rows:3 ~epsilon:0.5 ~delta:1e-6 ~total_ns:200.0 ();
        Statements.record st ~now_ns:2.0 ~key:"K" ~outcome:`Replayed
          ~stages:[ ("execute", 50.0) ]
          ~rows:3 ~total_ns:100.0 ();
        match Statements.snapshot st with
        | [ v ] ->
          Alcotest.(check string) "key" "K" v.Statements.key;
          Alcotest.(check int) "calls" 2 v.calls;
          Alcotest.(check int) "granted" 1 v.granted;
          Alcotest.(check int) "replayed" 1 v.replayed;
          Alcotest.(check int) "rows" 6 v.rows;
          Alcotest.(check (float 1e-9)) "epsilon" 0.5 v.epsilon;
          Alcotest.(check (float 1e-9)) "delta" 1e-6 v.delta;
          Alcotest.(check int) "total count" 2 v.total.count;
          Alcotest.(check (float 1e-9)) "total sum" 300.0 v.total.sum_ns;
          Alcotest.(check (float 1e-9)) "total min" 100.0 v.total.min_ns;
          Alcotest.(check (float 1e-9)) "total max" 200.0 v.total.max_ns;
          let execute = List.find (fun s -> s.Statements.stage = "execute") v.stages in
          Alcotest.(check int) "execute count" 2 execute.count;
          Alcotest.(check (float 1e-9)) "execute sum" 150.0 execute.sum_ns;
          Alcotest.(check (float 1e-9)) "execute min" 50.0 execute.min_ns;
          Alcotest.(check (float 1e-9)) "execute max" 100.0 execute.max_ns;
          let perturb = List.find (fun s -> s.Statements.stage = "perturb") v.stages in
          Alcotest.(check int) "perturb count" 1 perturb.count
        | vs -> Alcotest.failf "expected one row, got %d" (List.length vs));
    Alcotest.test_case "evicts the least-called shape at capacity" `Quick (fun () ->
        let st = Statements.create ~capacity:2 () in
        Statements.record st ~now_ns:1.0 ~key:"a" ~outcome:`Granted ~total_ns:10.0 ();
        Statements.record st ~now_ns:2.0 ~key:"a" ~outcome:`Granted ~total_ns:10.0 ();
        Statements.record st ~now_ns:3.0 ~key:"b" ~outcome:`Granted ~total_ns:10.0 ();
        Statements.record st ~now_ns:4.0 ~key:"c" ~outcome:`Granted ~total_ns:10.0 ();
        Alcotest.(check int) "still at capacity" 2 (Statements.size st);
        Alcotest.(check int) "one eviction" 1 (Statements.evictions st);
        let keys =
          List.map (fun v -> v.Statements.key) (Statements.snapshot st)
          |> List.sort compare
        in
        Alcotest.(check (list string)) "least-called b evicted" [ "a"; "c" ] keys);
    Alcotest.test_case "snapshot orders busiest shape first" `Quick (fun () ->
        let st = Statements.create () in
        Statements.record st ~now_ns:1.0 ~key:"cheap" ~outcome:`Granted ~total_ns:10.0 ();
        Statements.record st ~now_ns:2.0 ~key:"hot" ~outcome:`Granted ~total_ns:1e6 ();
        match Statements.snapshot st with
        | v :: _ -> Alcotest.(check string) "hot first" "hot" v.Statements.key
        | [] -> Alcotest.fail "empty snapshot");
    Alcotest.test_case "quantiles land in the observed bucket" `Quick (fun () ->
        let st = Statements.create () in
        for i = 1 to 100 do
          Statements.record st ~now_ns:(float_of_int i) ~key:"k" ~outcome:`Granted
            ~total_ns:1e6 () (* 1 ms *)
        done;
        match Statements.snapshot st with
        | [ v ] -> (
          match v.Statements.total.p50 with
          | Some p50 ->
            Alcotest.(check bool)
              (Printf.sprintf "p50 %.6fs brackets 1ms" p50)
              true
              (p50 > 0.4e-3 && p50 < 2.2e-3)
          | None -> Alcotest.fail "expected a p50")
        | _ -> Alcotest.fail "expected one row");
    Alcotest.test_case "to_json parses and reset clears" `Quick (fun () ->
        let st = Statements.create () in
        Statements.record st ~now_ns:1.0 ~key:{|SELECT COUNT(*) FROM "t"|}
          ~outcome:`Rejected ~total_ns:5.0 ();
        (match Json.of_string (Statements.to_json st) with
        | Error e -> Alcotest.failf "to_json does not parse: %s" e
        | Ok j ->
          Alcotest.(check (option int)) "tracked" (Some 1)
            (Option.bind (Json.mem "tracked" j) Json.to_int));
        Statements.reset st;
        Alcotest.(check int) "reset clears" 0 (Statements.size st));
    Alcotest.test_case "concurrent recorders agree on totals" `Quick (fun () ->
        let st = Statements.create () in
        let threads = 8 and per = 500 in
        let ts =
          List.init threads (fun t ->
              Thread.create
                (fun () ->
                  for i = 1 to per do
                    Statements.record st
                      ~now_ns:(float_of_int ((t * per) + i))
                      ~key:"shared" ~outcome:`Granted ~rows:1 ~epsilon:0.01
                      ~total_ns:100.0 ()
                  done)
                ())
        in
        List.iter Thread.join ts;
        match Statements.snapshot st with
        | [ v ] ->
          Alcotest.(check int) "calls" (threads * per) v.Statements.calls;
          Alcotest.(check int) "rows" (threads * per) v.rows;
          Alcotest.(check (float 1e-6)) "epsilon" (float_of_int (threads * per) *. 0.01)
            v.epsilon
        | vs -> Alcotest.failf "expected one row, got %d" (List.length vs));
  ]

(* --- flight recorder ------------------------------------------------------------- *)

let flight_tests =
  [
    Alcotest.test_case "ring wraps and snapshots newest-first" `Quick (fun () ->
        let fl = Flight.create ~capacity:8 () in
        for i = 0 to 19 do
          Flight.record fl ~ts_ns:(float_of_int i) ~analyst:"a"
            ~sql:(Printf.sprintf "q%d" i) ~outcome:"granted"
            ~duration_ns:(float_of_int i) ()
        done;
        Alcotest.(check int) "all writes counted" 20 (Flight.recorded fl);
        let snap = Flight.snapshot fl in
        Alcotest.(check int) "bounded by capacity" 8 (List.length snap);
        let seqs = List.map (fun r -> r.Flight.seq) snap in
        Alcotest.(check (list int)) "newest first, most recent retained"
          [ 19; 18; 17; 16; 15; 14; 13; 12 ] seqs);
    Alcotest.test_case "limit truncates the snapshot" `Quick (fun () ->
        let fl = Flight.create ~capacity:16 () in
        for i = 0 to 9 do
          Flight.record fl ~ts_ns:(float_of_int i) ~analyst:"a" ~sql:"q"
            ~outcome:"granted" ~duration_ns:1.0 ()
        done;
        Alcotest.(check int) "limit 3" 3 (List.length (Flight.snapshot ~limit:3 fl)));
    Alcotest.test_case "records keep id, key and span tree" `Quick (fun () ->
        let fl = Flight.create () in
        let root = Span.root "query" in
        Span.timed (Some root) "execute" (fun _ -> ());
        Span.finish root;
        Flight.record fl ~ts_ns:1.0 ~id:"req-9" ~analyst:"alice" ~sql:"SELECT 1"
          ~key:"CORE" ~outcome:"granted" ~epsilon:0.1 ~duration_ns:5.0
          ~trace:(Span.view root) ();
        (match Flight.snapshot fl with
        | [ r ] ->
          Alcotest.(check (option string)) "id" (Some "req-9") r.Flight.id;
          Alcotest.(check (option string)) "key" (Some "CORE") r.key;
          (match r.trace with
          | Some v ->
            Alcotest.(check bool) "trace has the execute child" true
              (List.exists (fun (c : Span.view) -> c.name = "execute") v.children)
          | None -> Alcotest.fail "expected a trace")
        | rs -> Alcotest.failf "expected one record, got %d" (List.length rs));
        match Json.of_string (Flight.to_json fl) with
        | Error e -> Alcotest.failf "to_json does not parse: %s" e
        | Ok j ->
          Alcotest.(check (option int)) "recorded" (Some 1)
            (Option.bind (Json.mem "recorded" j) Json.to_int));
    Alcotest.test_case "concurrent writers never lose a write" `Quick (fun () ->
        let fl = Flight.create ~capacity:64 () in
        let threads = 8 and per = 200 in
        let ts =
          List.init threads (fun t ->
              Thread.create
                (fun () ->
                  for i = 1 to per do
                    Flight.record fl
                      ~ts_ns:(float_of_int ((t * per) + i))
                      ~analyst:"a" ~sql:"q" ~outcome:"granted" ~duration_ns:1.0 ()
                  done)
                ())
        in
        List.iter Thread.join ts;
        Alcotest.(check int) "recorded counts every write" (threads * per)
          (Flight.recorded fl);
        let snap = Flight.snapshot fl in
        Alcotest.(check int) "retains exactly capacity" 64 (List.length snap);
        let sorted = List.sort (fun a b -> compare b.Flight.seq a.Flight.seq) snap in
        Alcotest.(check bool) "snapshot is newest-first" true (snap = sorted);
        match Json.of_string (Flight.to_json fl) with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "to_json does not parse: %s" e);
  ]

(* --- budget observatory + statement stats through the service -------------------- *)

let group_query = "SELECT t.city_id, COUNT(*) FROM trips t GROUP BY t.city_id"
let group_suffix_query = group_query ^ " ORDER BY 2 DESC LIMIT 3"

let observatory_tests =
  [
    Alcotest.test_case "suffix variants of one core share a statement row" `Quick
      (fun () ->
        let server = make_server () in
        let session = Server.session server in
        hello server session "alice";
        (match query server session group_query with
        | Wire.Result _ -> ()
        | other -> Alcotest.failf "cold query failed: %s" (Wire.response_to_line other));
        (match query server session group_suffix_query with
        | Wire.Result _ -> ()
        | other -> Alcotest.failf "suffix query failed: %s" (Wire.response_to_line other));
        let st =
          match Server.statements server with
          | Some st -> st
          | None -> Alcotest.fail "statement table expected when telemetry is on"
        in
        match Statements.snapshot st with
        | [ v ] ->
          Alcotest.(check int) "both calls on one row" 2 v.Statements.calls;
          Alcotest.(check int) "first was granted" 1 v.granted;
          Alcotest.(check int) "suffix variant was derived" 1 v.derived;
          Alcotest.(check bool) "stage list is populated" true (v.stages <> [])
        | vs ->
          Alcotest.failf "expected one statement row, got %d: %s" (List.length vs)
            (String.concat ", " (List.map (fun v -> v.Statements.key) vs)));
    Alcotest.test_case "flight recorder captures the request end-to-end" `Quick
      (fun () ->
        let server = make_server () in
        let session = Server.session server in
        hello server session "alice";
        (match
           Server.handle server session
             (Wire.Query
                { sql = count_query; epsilon = None; delta = None; id = Some "r-7" })
         with
        | Wire.Result _ -> ()
        | other -> Alcotest.failf "query failed: %s" (Wire.response_to_line other));
        let fl =
          match Server.flights server with
          | Some fl -> fl
          | None -> Alcotest.fail "flight recorder expected when telemetry is on"
        in
        match Flight.snapshot fl with
        | r :: _ ->
          Alcotest.(check string) "analyst" "alice" r.Flight.analyst;
          Alcotest.(check string) "sql" count_query r.sql;
          Alcotest.(check (option string)) "request id" (Some "r-7") r.id;
          Alcotest.(check string) "outcome" "granted" r.outcome;
          Alcotest.(check bool) "charged epsilon recorded" true (r.epsilon > 0.0);
          Alcotest.(check bool) "canonical key attached" true (r.key <> None);
          (match r.trace with
          | Some v ->
            let child n = List.exists (fun (c : Span.view) -> c.name = n) v.children in
            Alcotest.(check bool) "parse span present" true (child "parse");
            Alcotest.(check bool) "execute span present" true (child "execute")
          | None -> Alcotest.fail "expected a span tree")
        | [] -> Alcotest.fail "no flight recorded");
    Alcotest.test_case "rejected queries are recorded, without a key on parse errors"
      `Quick (fun () ->
        let server = make_server () in
        let session = Server.session server in
        hello server session "alice";
        (match query server session "SELEC nope" with
        | Wire.Rejected _ -> ()
        | other -> Alcotest.failf "expected a rejection: %s" (Wire.response_to_line other));
        match Option.map Flight.snapshot (Server.flights server) with
        | Some (r :: _) ->
          Alcotest.(check bool) "outcome is a rejection" true
            (Astring.String.is_prefix ~affix:"rejected" r.Flight.outcome);
          Alcotest.(check (option string)) "no canonical key" None r.key
        | _ -> Alcotest.fail "no flight recorded");
    Alcotest.test_case "burn-rate gauges on the scrape, never on the wire" `Quick
      (fun () ->
        let server = make_server () in
        let session = Server.session server in
        hello server session "alice";
        (match query server session count_query with
        | Wire.Result _ -> ()
        | other -> Alcotest.failf "query failed: %s" (Wire.response_to_line other));
        let reg =
          match Server.registry server with
          | Some reg -> reg
          | None -> Alcotest.fail "registry expected"
        in
        let scrape = Registry.to_prometheus reg in
        Alcotest.(check bool) "burn rate on the scrape" true
          (Astring.String.is_infix
             ~affix:{|flex_analyst_epsilon_burn_per_second{analyst="alice"}|} scrape);
        Alcotest.(check bool) "exhaustion forecast on the scrape" true
          (Astring.String.is_infix ~affix:"flex_analyst_epsilon_exhaustion_seconds"
             scrape);
        match Server.handle server session Wire.Stats with
        | Wire.Stats_report s ->
          let rendered = Json.to_string s.metrics in
          List.iter
            (fun leak ->
              Alcotest.(check bool)
                (Printf.sprintf "wire stats must not carry %S" leak)
                false
                (Astring.String.is_infix ~affix:leak rendered))
            [
              "burn_per_second";
              "exhaustion";
              "remaining_epsilon";
              "remaining_delta";
              "alice";
              "SELECT";
              "trips";
            ]
        | other -> Alcotest.failf "unexpected: %s" (Wire.response_to_line other));
    Alcotest.test_case "releases bit-identical with tiny and default recorders" `Quick
      (fun () ->
        (* recorder capacity (including constant eviction at capacity 1) must
           never touch the RNG or the released values *)
        let tiny =
          { Server.default_config with statement_capacity = 1; flight_capacity = 1 }
        in
        let drive config =
          let server = make_server ~config () in
          let session = Server.session server in
          hello server session "alice";
          List.map
            (fun sql -> query server session sql)
            [ count_query; group_query; group_suffix_query; count_query ]
        in
        List.iter2
          (fun a b ->
            if a <> b then
              Alcotest.failf "release differs with tiny recorders:\n%s\n%s"
                (Wire.response_to_line a) (Wire.response_to_line b))
          (drive Server.default_config) (drive tiny));
  ]

(* --- request id on the wire ------------------------------------------------------ *)

let wire_id_tests =
  [
    Alcotest.test_case "request id round-trips; absent id stays absent" `Quick (fun () ->
        let req =
          Wire.Query { sql = "SELECT 1"; epsilon = None; delta = None; id = Some "r-1" }
        in
        let line = Wire.request_to_line req in
        (match Wire.request_of_line line with
        | Ok req' ->
          Alcotest.(check (option string)) "id survives" (Some "r-1")
            (Wire.request_id req')
        | Error e -> Alcotest.failf "decode failed: %s" e);
        let bare =
          Wire.request_to_line
            (Wire.Query { sql = "SELECT 1"; epsilon = None; delta = None; id = None })
        in
        Alcotest.(check bool) "no id field when none given" false
          (Astring.String.is_infix ~affix:{|"id"|} bare));
    Alcotest.test_case "old-peer lines without an id decode to None" `Quick (fun () ->
        match Wire.request_of_line {|{"op":"query","sql":"SELECT 1"}|} with
        | Ok req -> Alcotest.(check (option string)) "defaults" None (Wire.request_id req)
        | Error e -> Alcotest.failf "decode failed: %s" e);
    Alcotest.test_case "response echo: appended id is extractable, old lines give None"
      `Quick (fun () ->
        let resp = Wire.Rejected { bucket = "parse"; reason = "nope" } in
        let echoed = Wire.response_to_line ~id:"r-2" resp in
        Alcotest.(check (option string)) "echoed" (Some "r-2")
          (Wire.response_id_of_line echoed);
        (match Wire.response_of_line echoed with
        | Ok (Wire.Rejected r) -> Alcotest.(check string) "bucket survives" "parse" r.bucket
        | Ok other -> Alcotest.failf "wrong constructor: %s" (Wire.response_to_line other)
        | Error e -> Alcotest.failf "old decoder rejects echoed line: %s" e);
        Alcotest.(check (option string)) "old-server line has no id" None
          (Wire.response_id_of_line (Wire.response_to_line resp)));
    Alcotest.test_case "audit event joins on the request id" `Quick (fun () ->
        let buf = Buffer.create 256 in
        let server = make_server ~audit:(Audit.to_buffer buf) () in
        let session = Server.session server in
        hello server session "alice";
        (match
           Server.handle server session
             (Wire.Query
                { sql = count_query; epsilon = None; delta = None; id = Some "r-3" })
         with
        | Wire.Result _ -> ()
        | other -> Alcotest.failf "query failed: %s" (Wire.response_to_line other));
        match Json.of_string (List.hd (String.split_on_char '\n' (Buffer.contents buf)))
        with
        | Ok j ->
          Alcotest.(check (option string)) "id in the audit line" (Some "r-3")
            (Option.bind (Json.mem "id" j) Json.to_str)
        | Error e -> Alcotest.failf "audit line does not parse: %s" e);
  ]

let suites =
  [
    ("obs-registry", registry_tests);
    ("obs-quantiles", quantile_tests);
    ("obs-clock-span", clock_span_tests);
    ("obs-audit", audit_tests);
    ("obs-explain-analyze", explain_analyze_tests);
    ("obs-pool-counters", pool_counter_tests);
    ("obs-statements", statement_tests);
    ("obs-flight", flight_tests);
    ("obs-observatory", observatory_tests);
    ("obs-wire-id", wire_id_tests);
    ("obs-service", service_tests);
    ("obs-stats-http", stats_http_tests);
    ("obs-audit-rotation", audit_rotation_tests);
  ]
