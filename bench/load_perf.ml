(* Tracked sustained-load benchmark: the event-driven front end under many
   concurrent analysts.

     dune exec bench/load_perf.exe                -- writes BENCH_load.json
     dune exec bench/load_perf.exe -- --out FILE  -- choose the output path
     dune exec bench/load_perf.exe -- --smoke     -- tiny sizes, gates only

   Three sections, all driven over real TCP by the closed-loop
   Load_driver (the same harness behind `flex_client bench`):

   - warm: hundreds of connections replaying primed release-store hits
     through the reactor, reporting p50/p99 latency and sustained q/s;
     gates a clean run (no errors, rejections or refusals).
   - derived: the dashboard workload where every answer is computed by
     post-processing a stored release (ORDER BY/LIMIT, HAVING, projection
     arithmetic over the same core); gates that every response came from
     the store at zero budget.
   - overload: a deliberately undersized worker queue (1 worker, 2 slots)
     flooded by closed-loop connections, with a small per-analyst budget
     so grants, refusals and overload sheds interleave. Gates exact
     budget conservation: with epsilon 0.25 (a power of two, so float
     addition is exact) the ledger total must equal 0.25 x grants to the
     last bit, no analyst may exceed the budget, and every request must
     be accounted for (ok + rejected + refused + errors = sent). *)

module Rng = Flex_dp.Rng
module Ledger = Flex_dp.Ledger
module W = Flex_workload
module Server = Flex_service.Server
module Reactor = Flex_service.Reactor
module Audit = Flex_service.Audit
module Wire = Flex_service.Wire
module Json = Flex_service.Json
module L = Flex_service.Load_driver

let smoke = ref false
let out_path = ref "BENCH_load.json"

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

(* --------------------------------------------------------------- workload *)

let shapes =
  [|
    "SELECT COUNT(*) FROM trips t WHERE t.status = 'completed'";
    "SELECT COUNT(*) FROM trips t JOIN drivers d ON t.driver_id = d.id \
     WHERE d.rating > 3.0";
    "SELECT t.status, COUNT(*) FROM trips t GROUP BY t.status";
    "SELECT c.name, COUNT(*) FROM trips t JOIN cities c ON t.city_id = c.id \
     GROUP BY c.name";
  |]

(* suffix variants over the same cores: answered by evaluating
   post-processing against the stored noisy rows, zero budget *)
let derived_shapes =
  [|
    "SELECT COUNT(*) * 2 FROM trips t WHERE t.status = 'completed'";
    "SELECT t.status, COUNT(*) FROM trips t GROUP BY t.status \
     ORDER BY 2 DESC LIMIT 2";
    "SELECT t.status, COUNT(*) FROM trips t GROUP BY t.status \
     HAVING COUNT(*) > -1000000";
    "SELECT c.name, COUNT(*) FROM trips t JOIN cities c ON t.city_id = c.id \
     GROUP BY c.name ORDER BY 2 DESC LIMIT 3";
  |]

let make_server ?(config = Server.default_config) ?ledger ~seed fixture =
  let db, metrics = fixture in
  let ledger = match ledger with Some l -> l | None -> Ledger.in_memory () in
  Server.create ~audit:(Audit.null ()) ~config ~db ~metrics ~ledger
    ~rng:(Rng.create ~seed ()) ()

let prime server =
  let session = Server.session server in
  (match
     Server.handle server session
       (Wire.Hello { analyst = "prime"; epsilon = None; delta = None })
   with
  | Wire.Budget_report _ -> ()
  | other -> Fmt.failwith "prime hello failed: %s" (Wire.response_to_line other));
  Array.iter
    (fun sql ->
      match Server.handle server session (Wire.Query { sql; epsilon = None; delta = None; id = None }) with
      | Wire.Result _ -> ()
      | other -> Fmt.failwith "prime query failed: %s" (Wire.response_to_line other))
    shapes

let rotate shapes ~conn ~seq = Wire.Query { sql = shapes.((conn + seq) mod Array.length shapes); epsilon = None; delta = None; id = None }

type section = { qps : float; p50_ms : float; p99_ms : float; outcome : L.outcome }

let section outcome =
  {
    qps = L.qps outcome;
    p50_ms = 1e3 *. L.percentile outcome 0.50;
    p99_ms = 1e3 *. L.percentile outcome 0.99;
    outcome;
  }

let check_clean name (o : L.outcome) =
  if o.errors > 0 || o.rejected > 0 || o.refused > 0 then
    Fmt.failwith "%s: expected a clean run, got %d errors, %d rejected, %d refused" name
      o.errors o.rejected o.refused

(* ------------------------------------------------------------ warm section *)

(* The server is primed first, so every query is a release-store replay
   and the measurement isolates the connection layer itself. *)
let warm_section ~connections ~requests fixture =
  let server = make_server ~seed:42 fixture in
  prime server;
  let config =
    { Reactor.default_config with workers = 4; max_pending = 2 * connections + 8 }
  in
  let r = Reactor.listen ~config server in
  ignore (Reactor.start r);
  let outcome =
    Fun.protect
      ~finally:(fun () -> Reactor.stop r)
      (fun () ->
        L.run ~port:(Reactor.port r) ~connections ~requests ~make_request:(rotate shapes) ())
  in
  check_clean "warm reactor" outcome;
  section outcome

(* --------------------------------------------------------- derived section *)

let derived_section ~connections ~requests fixture =
  let server = make_server ~seed:43 fixture in
  prime server;
  let config =
    { Reactor.default_config with workers = 4; max_pending = 2 * connections + 8 }
  in
  let r = Reactor.listen ~config server in
  ignore (Reactor.start r);
  let outcome =
    Fun.protect
      ~finally:(fun () -> Reactor.stop r)
      (fun () ->
        L.run ~port:(Reactor.port r) ~connections ~requests
          ~make_request:(rotate derived_shapes) ())
  in
  check_clean "derived" outcome;
  (* zero-budget gate: every query (hellos aside) was served from the store *)
  let queries = outcome.ok - connections (* one Budget_report per hello *) in
  if outcome.cached <> queries then
    Fmt.failwith "derived gate: %d of %d queries were charged instead of derived"
      (queries - outcome.cached) queries;
  section outcome

(* -------------------------------------------------------- overload section *)

type overload_report = {
  o : L.outcome;
  granted : int;
  shed_total : int;
  ledger_epsilon : float;
  analysts_over_budget : int;
}

let overload_section ~connections ~requests fixture =
  let budget = 1.0 (* 4 grants of 0.25 each, so refusals appear too *) in
  let config =
    {
      Server.default_config with
      default_epsilon = 0.25;
      analyst_epsilon = budget;
      release_cache = false (* every grant must charge: repeats are not free here *);
    }
  in
  let ledger = Ledger.in_memory () in
  let server = make_server ~config ~ledger ~seed:44 fixture in
  let rconfig =
    {
      Reactor.default_config with
      workers = 1;
      max_pending = 2 (* a queue this small sheds most of the closed-loop flood *);
    }
  in
  let r = Reactor.listen ~config:rconfig server in
  ignore (Reactor.start r);
  let outcome, stats =
    Fun.protect
      ~finally:(fun () -> Reactor.stop r)
      (fun () ->
        let o =
          L.run ~port:(Reactor.port r) ~connections ~requests
            ~hello:(fun i -> Some (Printf.sprintf "load-%d" i))
            ~make_request:(fun ~conn:_ ~seq:_ ->
              Wire.Query { sql = shapes.(0); epsilon = None; delta = None; id = None })
            ()
        in
        (o, Reactor.stats r))
  in
  let counters = Server.counters server in
  (* the server is quiescent after stop: the ledger total is now exact *)
  let spends =
    List.map
      (fun a -> match Ledger.spent ledger ~analyst:a with Some (e, _) -> e | None -> 0.0)
      (Ledger.analysts ledger)
  in
  let ledger_epsilon = List.fold_left ( +. ) 0.0 spends in
  let over = List.length (List.filter (fun e -> e > budget) spends) in
  (* conservation, exact: epsilon 0.25 is a power of two, so k x 0.25 sums
     with no rounding — any divergence here is a real double-charge or a
     charge that escaped the books *)
  if ledger_epsilon <> 0.25 *. float_of_int counters.granted then
    Fmt.failwith "overload gate: ledger holds %.6f epsilon but %d grants x 0.25 = %.6f"
      ledger_epsilon counters.granted
      (0.25 *. float_of_int counters.granted);
  if over > 0 then Fmt.failwith "overload gate: %d analysts exceeded the budget" over;
  if outcome.sent <> outcome.ok + outcome.rejected + outcome.refused + outcome.errors
  then
    Fmt.failwith "overload gate: %d sent but %d accounted" outcome.sent
      (outcome.ok + outcome.rejected + outcome.refused + outcome.errors);
  if (not !smoke) && outcome.overload = 0 then
    Fmt.failwith "overload gate: the flood produced no overload rejections";
  if stats.Reactor.shed_total + stats.Reactor.conn_refused_total < outcome.overload then
    Fmt.failwith "overload gate: reactor shed %d but clients saw %d overload rejections"
      stats.Reactor.shed_total outcome.overload;
  {
    o = outcome;
    granted = counters.granted;
    shed_total = stats.Reactor.shed_total;
    ledger_epsilon;
    analysts_over_budget = over;
  }

(* ------------------------------------------------------------------ main *)

let () =
  let sizes = if !smoke then W.Uber.small_sizes else W.Uber.default_sizes in
  let connections = if !smoke then 16 else 256 in
  let requests = if !smoke then 4 else 40 in
  let overload_conns = if !smoke then 8 else 64 in
  let overload_requests = if !smoke then 4 else 20 in
  let fixture = W.Uber.generate ~sizes (Rng.create ~seed:7 ()) in
  Fmt.pr "flex sustained-load benchmark (%d connections x %d requests, closed loop)@."
    connections requests;
  let reactor = warm_section ~connections ~requests fixture in
  Fmt.pr "  warm reactor:          %7.0f q/s  p50 %6.2f ms  p99 %6.2f ms@." reactor.qps
    reactor.p50_ms reactor.p99_ms;
  let derived = derived_section ~connections ~requests fixture in
  Fmt.pr "  derived (zero budget): %7.0f q/s  p50 %6.2f ms  p99 %6.2f ms@." derived.qps
    derived.p50_ms derived.p99_ms;
  let ov = overload_section ~connections:overload_conns ~requests:overload_requests fixture in
  Fmt.pr
    "  overload: %d sent -> %d granted, %d overload-shed, %d refused, %d auth errors; \
     ledger %.2f epsilon = 0.25 x %d exactly@."
    ov.o.L.sent ov.granted ov.o.L.overload ov.o.L.refused ov.o.L.errors ov.ledger_epsilon
    ov.granted;
  let b = Buffer.create 4096 in
  let add fmt = Fmt.kstr (Buffer.add_string b) fmt in
  add "{\n  \"benchmark\": \"flex-load\",\n";
  add "  \"smoke\": %b,\n  \"connections\": %d,\n  \"requests_per_conn\": %d,\n" !smoke
    connections requests;
  let add_section name s =
    add
      "  %S: {\"qps\": %.0f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, \"sent\": %d, \
       \"ok\": %d, \"cached\": %d},\n"
      name s.qps s.p50_ms s.p99_ms s.outcome.L.sent s.outcome.L.ok s.outcome.L.cached
  in
  add_section "warm_reactor" reactor;
  add_section "derived" derived;
  add
    "  \"overload\": {\"connections\": %d, \"sent\": %d, \"granted\": %d, \
     \"overload_rejections\": %d, \"refused\": %d, \"errors\": %d, \
     \"reactor_shed_total\": %d, \"ledger_epsilon\": %.2f, \
     \"analysts_over_budget\": %d, \"conservation_exact\": true}\n"
    overload_conns ov.o.L.sent ov.granted ov.o.L.overload ov.o.L.refused ov.o.L.errors
    ov.shed_total ov.ledger_epsilon ov.analysts_over_budget;
  add "}\n";
  let json = Buffer.contents b in
  (match Json.of_string json with
  | Ok _ -> ()
  | Error e -> Fmt.failwith "generated JSON is malformed: %s" e);
  let oc = open_out !out_path in
  output_string oc json;
  close_out oc;
  Fmt.pr "wrote %s@." !out_path
