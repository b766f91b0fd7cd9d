(* The multicore execution layer: Task_pool semantics, the dispatch gates
   of {!Parallel.gather}, the 3-way differential oracle (reference
   interpreter = sequential run = run on a pool), bounded top-K ORDER BY
   ... LIMIT, domain-safe RNG streams, and exact budget conservation when
   the service executes on a shared pool. Only the columnar engine
   dispatches to the pool; the row pipeline is sequential, and a pinned
   test checks that row-only plans leave the pool untouched.

   Parallel paths are forced by dropping {!Parallel.threshold} and
   {!Parallel.morsel} to their floors, so even the tiny test fixtures split
   across domains; every helper restores the knobs and shuts its pool down,
   leaving no live domains behind the test binary. *)

module Value = Flex_engine.Value
module Table = Flex_engine.Table
module Database = Flex_engine.Database
module Executor = Flex_engine.Executor
module Task_pool = Flex_engine.Task_pool
module Parallel = Flex_engine.Parallel
module Rng = Flex_dp.Rng
module Laplace = Flex_dp.Laplace
module Ledger = Flex_dp.Ledger
module Uber = Flex_workload.Uber
module Qgen = Flex_workload.Qgen
module Server = Flex_service.Server
module Wire = Flex_service.Wire

let with_pool ?(domains = 2) f =
  let pool = Task_pool.create ~domains in
  Fun.protect ~finally:(fun () -> Task_pool.shutdown pool) (fun () -> f pool)

(* Push everything through the parallel kernels regardless of input size,
   pretending the host is wide enough that the cpu-count gate never trips
   (on narrow CI hosts the gate would otherwise send everything down the
   sequential path and the differential would test nothing). *)
let forced f =
  let t0 = !Parallel.threshold and m0 = !Parallel.morsel in
  let h0 = !Parallel.host_cpus in
  Parallel.threshold := 0;
  Parallel.morsel := 1;
  Parallel.host_cpus := 8;
  Fun.protect
    ~finally:(fun () ->
      Parallel.threshold := t0;
      Parallel.morsel := m0;
      Parallel.host_cpus := h0)
    f

(* --- Task_pool ----------------------------------------------------------- *)

let pool_tests =
  [
    Alcotest.test_case "every chunk runs exactly once" `Quick (fun () ->
        with_pool ~domains:3 (fun pool ->
            let n = 37 in
            let hits = Array.init n (fun _ -> Atomic.make 0) in
            Task_pool.run pool ~chunks:n (fun i -> Atomic.incr hits.(i));
            Array.iteri
              (fun i a -> Alcotest.(check int) (Fmt.str "chunk %d" i) 1 (Atomic.get a))
              hits;
            Task_pool.run pool ~chunks:0 (fun _ -> Alcotest.fail "no chunks to run");
            let one = ref 0 in
            Task_pool.run pool ~chunks:1 (fun i ->
                Alcotest.(check int) "index" 0 i;
                incr one);
            Alcotest.(check int) "single chunk" 1 !one));
    Alcotest.test_case "nested submission degrades to inline" `Quick (fun () ->
        with_pool (fun pool ->
            let total = Atomic.make 0 in
            Task_pool.run pool ~chunks:4 (fun _ ->
                Task_pool.run pool ~chunks:8 (fun _ -> Atomic.incr total));
            Alcotest.(check int) "all inner chunks" 32 (Atomic.get total)));
    Alcotest.test_case "concurrent submissions all complete" `Quick (fun () ->
        with_pool (fun pool ->
            let total = Atomic.make 0 in
            let worker () =
              for _ = 1 to 5 do
                Task_pool.run pool ~chunks:16 (fun _ -> Atomic.incr total)
              done
            in
            let ts = List.init 4 (fun _ -> Thread.create worker ()) in
            List.iter Thread.join ts;
            Alcotest.(check int) "all chunks of all jobs" (4 * 5 * 16) (Atomic.get total)));
    Alcotest.test_case "exception propagates and the pool survives" `Quick (fun () ->
        with_pool (fun pool ->
            let ran = Array.init 8 (fun _ -> Atomic.make false) in
            (match
               Task_pool.run pool ~chunks:8 (fun i ->
                   if i = 3 then failwith "boom" else Atomic.set ran.(i) true)
             with
            | () -> Alcotest.fail "expected the chunk failure to propagate"
            | exception Failure m -> Alcotest.(check string) "first failure" "boom" m);
            Array.iteri
              (fun i a ->
                if i <> 3 then
                  Alcotest.(check bool) (Fmt.str "chunk %d still ran" i) true (Atomic.get a))
              ran;
            let total = Atomic.make 0 in
            Task_pool.run pool ~chunks:8 (fun _ -> Atomic.incr total);
            Alcotest.(check int) "pool reusable after failure" 8 (Atomic.get total)));
    Alcotest.test_case "shutdown is idempotent and leaves the pool usable" `Quick (fun () ->
        let pool = Task_pool.create ~domains:3 in
        Alcotest.(check bool) "parallel while live" true (Task_pool.is_parallel pool);
        Task_pool.shutdown pool;
        Task_pool.shutdown pool;
        Alcotest.(check bool) "not parallel after shutdown" false (Task_pool.is_parallel pool);
        let total = ref 0 in
        Task_pool.run pool ~chunks:5 (fun _ -> incr total);
        Alcotest.(check int) "runs inline after shutdown" 5 !total);
    Alcotest.test_case "domain count is validated" `Quick (fun () ->
        (match Task_pool.create ~domains:0 with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "domains:0 accepted");
        match Task_pool.create ~domains:1000 with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "domains:1000 accepted");
  ]

(* --- dispatch gates ----------------------------------------------------------- *)

let op_tests =
  [
    Alcotest.test_case "below threshold runs sequentially" `Quick (fun () ->
        with_pool (fun pool ->
            (* default threshold 2048: a 10-row input must not split *)
            Alcotest.(check bool) "no gather" true
              (Parallel.gather (Some pool) 10 (fun _ _ -> ()) = None)));
    Alcotest.test_case "cpu-count gate caps dispatch at the host width" `Quick (fun () ->
        with_pool ~domains:4 (fun pool ->
            let h0 = !Parallel.host_cpus and t0 = !Parallel.threshold in
            Fun.protect
              ~finally:(fun () ->
                Parallel.host_cpus := h0;
                Parallel.threshold := t0)
              (fun () ->
                Parallel.threshold := 0;
                (* a 4-domain pool on a 1-cpu host: one effective worker,
                   so every kernel takes the sequential loop *)
                Parallel.host_cpus := 1;
                Alcotest.(check int) "capped width" 1
                  (Parallel.effective_domains (Some pool));
                Alcotest.(check bool) "no gather" true
                  (Parallel.gather (Some pool) 100_000 (fun _ _ -> ()) = None);
                (* the same pool on a wide host splits again *)
                Parallel.host_cpus := 8;
                Alcotest.(check int) "full width" 4
                  (Parallel.effective_domains (Some pool));
                (* a host wider than the pool is still bounded by the pool *)
                Parallel.host_cpus := 2;
                Alcotest.(check int) "min of pool and host" 2
                  (Parallel.effective_domains (Some pool)))));
  ]

(* --- 3-way differential: reference = sequential run = run on a pool ----- *)

let rows_equal ra rb =
  Array.length ra = Array.length rb
  &&
  let ok = ref true in
  Array.iteri (fun j va -> if not (Test_engine.cell_equal va rb.(j)) then ok := false) ra;
  !ok

(* A run on the pool must agree with the sequential one on columns, row
   values AND row order; on failing queries both must fail (the error texts
   may differ: the first failure to complete wins under parallel claiming). *)
let check_parallel_same pool db sql =
  match (Executor.run_sql db sql, Executor.run_sql ~pool db sql) with
  | Error _, Error _ -> ()
  | Ok _, Error e -> Alcotest.failf "parallel failed, sequential ok (%s): %s" sql e
  | Error e, Ok _ -> Alcotest.failf "sequential failed, parallel ok (%s): %s" sql e
  | Ok s, Ok p ->
    Alcotest.(check (list string)) (sql ^ ": columns") s.Executor.columns p.Executor.columns;
    if List.length s.rows <> List.length p.rows then
      Alcotest.failf "row count differs (%s): sequential %d, parallel %d" sql
        (List.length s.rows) (List.length p.rows);
    List.iteri
      (fun i (rs, rp) ->
        if not (rows_equal rs rp) then
          Alcotest.failf "row %d differs (%s): sequential [%s], parallel [%s]" i sql
            (Test_engine.row_to_string rs) (Test_engine.row_to_string rp))
      (List.combine s.rows p.rows)

let check_3way pool db sql =
  Test_engine.check_same db sql;
  check_parallel_same pool db sql

let differential_tests =
  [
    Alcotest.test_case "edge cases agree 3-way under forced parallelism" `Quick (fun () ->
        forced (fun () ->
            with_pool (fun pool ->
                let db = Test_engine.fixture () in
                List.iter (check_3way pool db) Test_engine.edge_case_queries)));
    Alcotest.test_case "generated workload agrees 3-way" `Quick (fun () ->
        forced (fun () ->
            with_pool (fun pool ->
                let rng = Rng.create ~seed:7 () in
                let db, _metrics = Uber.generate ~sizes:Uber.small_sizes rng in
                let queries =
                  Qgen.generate rng ~count:30 ~n_cities:12 ~n_drivers:120 ~n_users:200
                in
                List.iter
                  (fun (q : Qgen.t) ->
                    check_3way pool db q.sql;
                    check_3way pool db q.population_sql)
                  queries)));
    Alcotest.test_case "build-left plans on the pool agree with the row engine" `Quick
      (fun () ->
        forced (fun () ->
            with_pool (fun pool ->
                let db = Test_engine.build_left_fixture () in
                List.iter
                  (fun sql ->
                    Test_engine.check_plan_agrees ~pool db sql
                      (Test_engine.force_build_left (Flex_sql.Parser.parse_exn sql)))
                  (Test_engine.null_mixed_queries @ Test_engine.build_left_traps
                 @ Test_engine.build_left_chains))));
    (* Only the columnar engine dispatches to the pool: plans it declines
       run the sequential row pipeline, which leaves the parallel dispatch
       count where it was, while a columnar filter on the same forced pool
       still splits. *)
    Alcotest.test_case "row-only plans run sequentially on a pool" `Quick (fun () ->
        forced (fun () ->
            with_pool (fun pool ->
                let db = Test_engine.fixture () in
                let band = "CASE WHEN age > 30 THEN 'older' ELSE 'younger' END" in
                List.iter
                  (fun sql ->
                    let f0 = Executor.columnar_fallbacks () in
                    let p0 = fst (Parallel.ops_counts ()) in
                    check_parallel_same pool db sql;
                    if Executor.columnar_fallbacks () = f0 then
                      Alcotest.failf "the columnar engine ran %s" sql;
                    Alcotest.(check int) (sql ^ ": no pool dispatch") p0
                      (fst (Parallel.ops_counts ())))
                  [
                    "SELECT p.name, x.kind FROM people p LEFT JOIN pets x ON p.id = x.owner_id";
                    Fmt.str "SELECT %s AS band, COUNT(*) FROM people GROUP BY %s" band band;
                  ];
                let f0 = Executor.columnar_fallbacks () in
                let p0 = fst (Parallel.ops_counts ()) in
                check_parallel_same pool db "SELECT id, name FROM people WHERE age > 30";
                Alcotest.(check int) "columnar filter: no fallback" f0
                  (Executor.columnar_fallbacks ());
                Alcotest.(check bool) "columnar filter dispatches" true
                  (fst (Parallel.ops_counts ()) > p0))));
    (* The row pipeline's aggregates, over one group or many, with HAVING
       and projections over them, given a forced pool. *)
    Alcotest.test_case "row-only aggregates agree 3-way on a pool" `Quick (fun () ->
        forced (fun () ->
            with_pool (fun pool ->
                let db = Test_engine.fixture () in
                let band = "CASE WHEN age > 30 THEN 'older' ELSE 'younger' END" in
                List.iter
                  (fun sql ->
                    let f0 = Executor.columnar_fallbacks () in
                    check_3way pool db sql;
                    if Executor.columnar_fallbacks () = f0 then
                      Alcotest.failf "the columnar engine ran %s" sql)
                  [
                    "SELECT COUNT(*), COUNT(x.kind), COUNT(DISTINCT x.kind), SUM(p.age), \
                     MIN(p.age), MAX(p.age), AVG(p.age) FROM people p \
                     LEFT JOIN pets x ON p.id = x.owner_id";
                    Fmt.str
                      "SELECT %s AS band, COUNT(*) + 1, SUM(age) * 2 FROM people GROUP BY %s \
                       HAVING COUNT(*) > 1"
                      band band;
                    "SELECT p.city_id, COUNT(x.kind), MAX(x.kind) FROM people p \
                     LEFT JOIN pets x ON p.id = x.owner_id GROUP BY p.city_id \
                     HAVING SUM(p.age) > 30 ORDER BY p.city_id";
                  ])));
  ]

(* --- bounded top-K ORDER BY ... LIMIT ------------------------------------ *)

(* Heavy ties (k has 5 distinct values plus NULLs) so the size-k heap's
   index tiebreak is actually exercised, and stability without an explicit
   tiebreak column is observable. *)
let topk_fixture () =
  let rows =
    List.init 100 (fun i ->
        [|
          Value.Int i;
          (if i mod 7 = 0 then Value.Null else Value.Int (i mod 5));
          Value.Float (float_of_int (i mod 4) /. 2.0);
        |])
  in
  Database.of_tables [ Table.create ~name:"s" ~columns:[ "id"; "k"; "f" ] rows ]

let topk_queries =
  [
    "SELECT id, k FROM s ORDER BY k LIMIT 10";
    "SELECT id, k FROM s ORDER BY k DESC LIMIT 10";
    (* ties with no tiebreak column: selection must stay stable *)
    "SELECT id FROM s ORDER BY k LIMIT 25";
    "SELECT id, k FROM s ORDER BY k, id DESC LIMIT 10 OFFSET 5";
    "SELECT id, f, k FROM s ORDER BY f DESC, k LIMIT 13";
    (* LIMIT at or past the input size: the full-sort path *)
    "SELECT id FROM s ORDER BY k LIMIT 200";
    "SELECT id FROM s ORDER BY k LIMIT 0";
    "SELECT id FROM s ORDER BY k LIMIT 10 OFFSET 95";
    "SELECT id FROM s ORDER BY k LIMIT 10 OFFSET 200";
  ]

let topk_tests =
  [
    Alcotest.test_case "ties and NULL ordering agree 3-way" `Quick (fun () ->
        forced (fun () ->
            with_pool (fun pool ->
                let db = topk_fixture () in
                List.iter (check_3way pool db) topk_queries)));
  ]

(* --- domain-safe RNG streams ---------------------------------------------- *)

let stream_tests =
  [
    Alcotest.test_case "two domains draw two distinct split children" `Quick (fun () ->
        let draw rng = Array.init 512 (fun _ -> Laplace.sample rng ~scale:1.0) in
        let stream = Rng.Stream.create (Rng.create ~seed:123 ()) in
        (* both domains hold their generator before either draws, so the
           sampling loops genuinely overlap *)
        let ready = Atomic.make 0 in
        let work () =
          let rng = Rng.Stream.get stream in
          Atomic.incr ready;
          while Atomic.get ready < 2 do
            Domain.cpu_relax ()
          done;
          draw rng
        in
        let d1 = Domain.spawn work in
        let d2 = Domain.spawn work in
        let a = Domain.join d1 in
        let b = Domain.join d2 in
        (* the stream's children are the parent's split sequence, so each
           domain's draws must equal exactly one of the two children a
           sequential split of the same seed produces — any cross-domain
           interleaving or duplication would break the equality *)
        let p = Rng.create ~seed:123 () in
        let c1 = draw (Rng.split p) in
        let c2 = draw (Rng.split p) in
        Alcotest.(check bool) "each domain is one split child" true
          ((a = c1 && b = c2) || (a = c2 && b = c1));
        Alcotest.(check bool) "the domains' streams differ" true (a <> b));
    Alcotest.test_case "a domain keeps its generator across gets" `Quick (fun () ->
        let stream = Rng.Stream.create (Rng.create ~seed:9 ()) in
        Alcotest.(check bool) "same state" true
          (Rng.Stream.get stream == Rng.Stream.get stream));
  ]

(* --- exact budget conservation on a shared pool --------------------------- *)

let service_tests =
  [
    Alcotest.test_case "budget conservation is exact under multi-domain load" `Quick
      (fun () ->
        forced (fun () ->
            with_pool (fun pool ->
                let db, metrics = Uber.generate ~sizes:Uber.small_sizes (Rng.create ~seed:7 ()) in
                let ledger = Ledger.in_memory () in
                ignore (Ledger.register ledger ~analyst:"team" ~epsilon:6.0 ~delta:1e-4);
                let server =
                  (* replay off: every repeat must be charged for the exact
                     24-grant count to hold *)
                  Server.create
                    ~config:{ Server.default_config with release_cache = false }
                    ~pool ~db ~metrics ~ledger ~rng:(Rng.create ~seed:5 ()) ()
                in
                let granted = Atomic.make 0 and refused = Atomic.make 0 in
                let client () =
                  let session = Server.session server in
                  (match
                     Server.handle server session
                       (Wire.Hello { analyst = "team"; epsilon = None; delta = None })
                   with
                  | Wire.Budget_report _ -> ()
                  | other -> Alcotest.failf "hello: %s" (Wire.response_to_line other));
                  for _ = 1 to 10 do
                    match
                      Server.handle server session
                        (Wire.Query
                           {
                             sql = "SELECT COUNT(*) FROM trips";
                             epsilon = Some 0.25;
                             delta = None;
                             id = None;
                           })
                    with
                    | Wire.Result _ -> Atomic.incr granted
                    | Wire.Refused _ -> Atomic.incr refused
                    | other -> Alcotest.failf "query: %s" (Wire.response_to_line other)
                  done
                in
                let ts = List.init 4 (fun _ -> Thread.create client ()) in
                List.iter Thread.join ts;
                (* 40 requests of eps 0.25 against 6.0: exactly 24 grants in
                   every interleaving of sessions and pool scheduling *)
                Alcotest.(check int) "all answered" 40
                  (Atomic.get granted + Atomic.get refused);
                Alcotest.(check int) "exactly 24 grants" 24 (Atomic.get granted);
                Alcotest.(check bool) "ledger spent exactly the limit" true
                  (match Ledger.spent ledger ~analyst:"team" with
                  | Some (e, _) -> e = 6.0
                  | None -> false))));
  ]

let suites =
  [
    ("task-pool", pool_tests);
    ("parallel-ops", op_tests);
    ("parallel-differential", differential_tests);
    ("parallel-topk", topk_tests);
    ("rng-stream", stream_tests);
    ("parallel-service", service_tests);
  ]
