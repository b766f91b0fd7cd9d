(* Tracked observability benchmark: what telemetry costs.

     dune exec bench/obs_perf.exe                -- writes BENCH_obs.json
     dune exec bench/obs_perf.exe -- --out FILE  -- choose the output path
     dune exec bench/obs_perf.exe -- --smoke     -- tiny sizes, JSON sanity check

   Three layers:

   1. micro — ns/op of the hot instruments (counter incr, histogram observe,
      monotonized clock read, a root+child span round trip);
   2. engine — run_plan vs run_plan_analyzed on a join query (the per-operator
      trace records);
   3. service — the same warm query mix through Server.handle with telemetry
      on vs off: spans, stage histograms and counters on the full pipeline.

   The service overhead ratio is the tracked number: the full run fails if
   telemetry-on medians land more than 5% above telemetry-off, so an
   instrument creeping onto the hot path breaks the build, not production. *)

module Registry = Flex_obs.Registry
module Clock = Flex_obs.Clock
module Span = Flex_obs.Span
module Executor = Flex_engine.Executor
module Optimizer = Flex_engine.Optimizer
module Rng = Flex_dp.Rng
module Ledger = Flex_dp.Ledger
module W = Flex_workload
module Server = Flex_service.Server
module Wire = Flex_service.Wire
module Json = Flex_service.Json

let smoke = ref false
let out_path = ref "BENCH_obs.json"

let () =
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
      smoke := true;
      parse rest
    | "--out" :: path :: rest ->
      out_path := path;
      parse rest
    | arg :: rest ->
      Fmt.epr "warning: ignoring argument %s@." arg;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv))

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

(* ------------------------------------------------------------------ micro *)

(* median ns/op over [rounds] timed loops, after one warmup loop *)
let ns_per_op ~rounds ~iters f =
  let loop () =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      f ()
    done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters
  in
  ignore (loop ());
  median (List.init rounds (fun _ -> loop ()))

let bench_micro ~rounds ~iters =
  let reg = Registry.create () in
  let c = Registry.counter reg "bench_total" in
  let h = Registry.histogram reg "bench_seconds" in
  let counter = ns_per_op ~rounds ~iters (fun () -> Registry.Counter.incr c) in
  let histogram = ns_per_op ~rounds ~iters (fun () -> Registry.Histogram.observe h 1e-3) in
  let clock = ns_per_op ~rounds ~iters (fun () -> ignore (Clock.now_ns ())) in
  let span =
    ns_per_op ~rounds ~iters:(iters / 10) (fun () ->
        let r = Span.root "q" in
        Span.timed (Some r) "s" (fun _ -> ());
        Span.finish r)
  in
  let st = Flex_obs.Statements.create () in
  let statement =
    ns_per_op ~rounds ~iters:(iters / 10) (fun () ->
        Flex_obs.Statements.record st ~now_ns:1.0
          ~key:"SELECT COUNT(*) FROM trips WHERE status = ?" ~outcome:`Granted
          ~stages:[ ("execute", 1.2e5); ("perturb", 3.0e3) ]
          ~rows:1 ~epsilon:0.1 ~total_ns:2.5e5 ())
  in
  let fl = Flex_obs.Flight.create () in
  let flight =
    ns_per_op ~rounds ~iters:(iters / 10) (fun () ->
        Flex_obs.Flight.record fl ~ts_ns:1.0 ~analyst:"bench"
          ~sql:"SELECT COUNT(*) FROM trips WHERE status = 'completed'"
          ~key:"SELECT COUNT(*) FROM trips WHERE status = ?" ~outcome:"granted"
          ~epsilon:0.1 ~duration_ns:2.5e5 ())
  in
  (counter, histogram, clock, span, statement, flight)

(* ----------------------------------------------------------------- engine *)

let engine_sql =
  "SELECT COUNT(*) FROM trips t JOIN drivers d ON t.driver_id = d.id \
   WHERE d.rating > 3.0"

let bench_engine (db, metrics) ~rounds ~reps =
  let plan = Optimizer.plan ~metrics (Flex_sql.Parser.parse_exn engine_sql) in
  let run f =
    let loop () =
      let t0 = Unix.gettimeofday () in
      for _ = 1 to reps do
        f ()
      done;
      (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int reps
    in
    ignore (loop ());
    median (List.init rounds (fun _ -> loop ()))
  in
  let plain = run (fun () -> ignore (Executor.run_plan db plan)) in
  let analyzed = run (fun () -> ignore (Executor.run_plan_analyzed db plan)) in
  (plain, analyzed)

(* ---------------------------------------------------------------- service *)

let service_sqls =
  [
    "SELECT COUNT(*) FROM trips t WHERE t.status = 'completed'";
    "SELECT t.status, COUNT(*) FROM trips t GROUP BY t.status";
    "SELECT COUNT(*) FROM trips t JOIN drivers d ON t.driver_id = d.id \
     WHERE d.rating > 3.0";
  ]

let run_query server session sql =
  match Server.handle server session (Wire.Query { sql; epsilon = None; delta = None; id = None }) with
  | Wire.Result _ -> ()
  | other -> Fmt.failwith "query failed: %s" (Wire.response_to_line other)

(* median ns/query over [rounds] passes of the warm mix; the cache is primed
   (and the analysis memoized) before the clock starts, so the measured path
   is parse + cache hit + execute + charge + perturb — exactly the path the
   telemetry instruments. The off and on servers run interleaved, one round
   each in alternation — measuring all off rounds before all on rounds lets
   machine-speed drift between the two phases masquerade as telemetry
   overhead. *)
let bench_service (db, metrics) ~rounds ~reps =
  let make telemetry =
    let config =
      {
        Server.default_config with
        analyst_epsilon = 1e9;
        analyst_delta = 0.5;
        telemetry;
        (* replay off: this benchmark measures the charged pipeline the
           telemetry instruments, not the release store's fast path *)
        release_cache = false;
      }
    in
    let server =
      Server.create ~config ~db ~metrics ~ledger:(Ledger.in_memory ())
        ~rng:(Rng.create ~seed:42 ()) ()
    in
    let session = Server.session server in
    (match
       Server.handle server session
         (Wire.Hello { analyst = "bench"; epsilon = None; delta = None })
     with
    | Wire.Budget_report _ -> ()
    | other -> Fmt.failwith "hello failed: %s" (Wire.response_to_line other));
    List.iter (run_query server session) service_sqls;
    (server, session)
  in
  let queries = List.length service_sqls * reps in
  (* each timed loop starts on an empty minor heap, so neither side pays for
     a minor collection the previous loop's allocations left due — at smoke
     scale one such collection outweighs the telemetry being measured *)
  let loop (server, session) =
    Gc.minor ();
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      List.iter (run_query server session) service_sqls
    done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int queries
  in
  let off = make false and on = make true in
  ignore (loop off);
  ignore (loop on);
  let samples = List.init rounds (fun _ -> (loop off, loop on)) in
  (median (List.map fst samples), median (List.map snd samples))

(* ------------------------------------------------------------------- main *)

let () =
  let sizes = if !smoke then W.Uber.small_sizes else W.Uber.default_sizes in
  let rounds = if !smoke then 1 else 5 in
  let iters = if !smoke then 10_000 else 1_000_000 in
  (* the engine comparison needs more repetitions than the rest of the smoke
     suite: at smoke scale one GC slice dwarfs the per-operator trace cost,
     and the ratio is one of the gated regression metrics *)
  let engine_rounds = if !smoke then 5 else rounds in
  let engine_reps = if !smoke then 20 else 30 in
  let service_reps = if !smoke then 2 else 20 in
  let fixture = W.Uber.generate ~sizes (Rng.create ~seed:7 ()) in
  Fmt.pr "flex observability benchmark (medians of %d rounds)@." rounds;
  let counter, histogram, clock, span, statement, flight = bench_micro ~rounds ~iters in
  Fmt.pr
    "  micro: counter %.1f ns, histogram %.1f ns, clock %.1f ns, span %.1f ns, statement \
     %.1f ns, flight %.1f ns@."
    counter histogram clock span statement flight;
  let plain, analyzed = bench_engine fixture ~rounds:engine_rounds ~reps:engine_reps in
  let engine_ratio = analyzed /. plain in
  Fmt.pr "  engine: run_plan %.0f ns, run_plan_analyzed %.0f ns (x%.3f)@." plain analyzed
    engine_ratio;
  let off, on = bench_service fixture ~rounds ~reps:service_reps in
  let service_ratio = on /. off in
  Fmt.pr "  service: telemetry off %.0f ns/query, on %.0f ns/query (x%.3f)@." off on
    service_ratio;
  let json =
    Fmt.str
      "{\n\
      \  \"benchmark\": \"flex-obs\",\n\
      \  \"smoke\": %b,\n\
      \  \"micro_ns_per_op\": {\"counter_incr\": %.1f, \"histogram_observe\": %.1f, \
       \"clock_now\": %.1f, \"span_roundtrip\": %.1f, \"statement_record\": %.1f, \
       \"flight_record\": %.1f},\n\
      \  \"engine\": {\"run_plan_ns\": %.0f, \"run_plan_analyzed_ns\": %.0f, \
       \"overhead_ratio\": %.3f},\n\
      \  \"service\": {\"telemetry_off_ns_per_query\": %.0f, \
       \"telemetry_on_ns_per_query\": %.0f, \"overhead_ratio\": %.3f}\n\
       }\n"
      !smoke counter histogram clock span statement flight plain analyzed engine_ratio off
      on service_ratio
  in
  (match Json.of_string json with
  | Ok _ -> ()
  | Error e -> Fmt.failwith "generated JSON is malformed: %s" e);
  (* the tracked invariant: telemetry must stay within 5% of off. Smoke runs
     are too short to be stable, so only the full run enforces it. *)
  if (not !smoke) && service_ratio > 1.05 then
    Fmt.failwith "telemetry overhead above 5%%: on/off = %.3f" service_ratio;
  let oc = open_out !out_path in
  output_string oc json;
  close_out oc;
  Fmt.pr "wrote %s@." !out_path
