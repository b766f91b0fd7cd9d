module Database = Flex_engine.Database
module Metrics = Flex_engine.Metrics
module Ledger = Flex_dp.Ledger
module Rng = Flex_dp.Rng
module Sens = Flex_dp.Sens
module Flex = Flex_core.Flex
module Errors = Flex_core.Errors
module Elastic = Flex_core.Elastic
module Parser = Flex_sql.Parser
module Canon = Flex_sql.Canon
module Registry = Flex_obs.Registry
module Span = Flex_obs.Span
module Clock = Flex_obs.Clock
module Statements = Flex_obs.Statements
module Flight = Flex_obs.Flight

type config = {
  default_epsilon : float;
  default_delta : float;
  analyst_epsilon : float;
  analyst_delta : float;
  max_epsilon_per_query : float;
  public_optimization : bool;
  unique_optimization : bool;
  cross_joins : bool;
  explain_estimates : bool;
      (* render ~N cardinality annotations in EXPLAIN responses and serve
         EXPLAIN ANALYZE at all; off by default because estimates are seeded
         from exact private-table row counts and ANALYZE executes the query
         (row counts AND per-operator timings reveal private cardinalities),
         which these uncharged operations would otherwise disclose *)
  telemetry : bool;
      (* metrics registry and per-query trace spans; releases are
         bit-identical either way (telemetry never touches the RNG) *)
  release_cache : bool;
      (* replay finalized noisy releases for identical (query, budget,
         epoch, mechanism) requests at zero additional budget — the DP
         post-processing freebie. Off, every repeat re-executes,
         re-perturbs, and is charged again. *)
  rate_limit_qps : float option;
      (* per-analyst token-bucket admission: each analyst may issue at most
         this many queries per second (with ~1 s of burst); a request over
         the limit gets Rejected {bucket="rate_limit"}, audit-logged, and is
         charged nothing. None = unlimited. *)
  statement_capacity : int;
      (* distinct query shapes tracked by the statement-statistics table
         (least-called evicted past this); only meaningful with telemetry *)
  flight_capacity : int;
      (* finished requests retained by the flight recorder; only meaningful
         with telemetry *)
}

let default_config =
  {
    default_epsilon = 0.1;
    default_delta = 1e-8;
    analyst_epsilon = 10.0;
    analyst_delta = 1e-4;
    max_epsilon_per_query = 1.0;
    public_optimization = true;
    unique_optimization = true;
    cross_joins = false;
    explain_estimates = false;
    telemetry = true;
    release_cache = true;
    rate_limit_qps = None;
    statement_capacity = 512;
    flight_capacity = 256;
  }

(* The request counters. The server owns one atomic cell per counter
   ([int Atomic.t counts]) whether telemetry is on or off; [counters],
   [stats_report] and the registry's flex_*_total families all read those
   same cells, and [conclude] is the only writer. *)
type 'a counts = {
  queries : 'a;
  granted : 'a;
  replayed : 'a;
  derived : 'a;
  rejected : 'a;
  rate_limited : 'a;
  refused : 'a;
  failed : 'a;
}

type counters = int counts

(* The registry family each cell is scraped as, in registration order. *)
let counter_families (c : _ counts) =
  [
    ("flex_queries_total", "Query requests seen", c.queries);
    ("flex_granted_total", "Queries granted a noisy release", c.granted);
    ("flex_replayed_total", "Queries served from the release store (zero budget)", c.replayed);
    ( "flex_release_derived_total",
      "Queries answered by post-processing a stored release (materialized-view \
       derivation, zero budget)",
      c.derived );
    ("flex_rejected_total", "Queries rejected (parse/unsupported/admission/other)", c.rejected);
    ( "flex_rate_limited_total",
      "Queries rejected by the per-analyst token-bucket rate limit",
      c.rate_limited );
    ("flex_refused_total", "Queries refused by the budget ledger", c.refused);
    ( "flex_failed_total",
      "Queries that failed after admission, audited with any charge they incurred",
      c.failed );
  ]

(* The write-side instruments. Scrape-time values register collect
   callbacks instead: the counter cells here, budgets, cache and pool in
   [register_collectors]. *)
type instruments = {
  m_latency : Registry.Histogram.t;
  m_stage : (string list * Registry.Histogram.t) list;
      (* span path in the query trace -> stage histogram *)
}

(* A query text's canonical form. A factored text keeps its factoring, whose
   core is all that runs on a miss and whose [core_sql] is the canonical
   key; only a text that does not factor keeps its parse tree. *)
type canonical =
  | Factored of Flex_sql.Factor.t
  | Whole of { canon : string; ast : Flex_sql.Ast.query }

(* An answer computed from one release: the stored (or just-minted) entry's
   rows, or the rows its text's post-processing suffix makes of them. *)
type answer = {
  how : [ `Granted | `Replayed | `Derived ];
  entry : Release_store.entry;  (* the release the answer was computed from *)
  columns : string list;
  rows : Flex_engine.Value.t array list;
}

(* A canon-memo entry. Beside the text's canonical form it keeps the last
   answer a store hit on the text served, with its reply line encoded, so
   the next hit on the same release splices in its own remaining budget and
   id instead of post-processing and encoding again. At most one answer per
   text: a hit on another release (a new epsilon, a new data epoch, a
   release paid again after an eviction) replaces it. *)
type memo = { canonical : canonical; last_hit : (answer * Wire.result_line) option Atomic.t }

type t = {
  config : config;
  (* the data epoch: [db], [metrics] and [fingerprint] are replaced together
     under [lock] by [refresh_data]; [handle_query] snapshots the triple once
     so a whole request sees one consistent epoch *)
  mutable db : Database.t;
  mutable metrics : Metrics.t;
  mutable fingerprint : string;
  ledger : Ledger.t;
  analysis_cache : (Elastic.analysis, Errors.reason) result Cache.t;
  (* raw SQL text -> its canonical form, looked up before parsing. It is a
     pure function of the text, so entries never go stale, and a repeated
     text skips both the parse and the core/suffix split: the derived fast
     path is memo + store probe + suffix evaluation, and a store hit on the
     same release as the text's last one is memo + store probe + splice. *)
  canon_memo : memo Cache.t;
  release_store : Release_store.t option;  (* Some iff [config.release_cache] *)
  limiter : Rate_limit.t option;  (* Some iff [config.rate_limit_qps] *)
  audit : Audit.t;
  rng : Rng.t;
  (* one shared domain pool for every session's query execution; queries are
     serialized onto it by the pool itself (a busy pool runs the submission
     inline), so concurrent sessions never block each other *)
  pool : Flex.Task_pool.t option;
  registry : Registry.t option;  (* Some iff [config.telemetry] *)
  instruments : instruments option;
  (* statement stats and the flight recorder key on canonical SQL and carry
     raw query text / analyst names: operator-only loopback surfaces, never
     the unauthenticated wire. Some iff [config.telemetry]. *)
  statements : Statements.t option;
  flights : Flight.t option;
  start_ns : float;
  lock : Mutex.t;  (* guards the data epoch and rng splitting *)
  counts : int Atomic.t counts;
}

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let make_instruments counts reg =
  List.iter
    (fun (name, help, cell) ->
      Registry.collect reg ~help ~kind:`Counter name (fun () ->
          [ ([], float_of_int (Atomic.get cell)) ]))
    (counter_families counts);
  let stage name =
    Registry.histogram reg ~help:"Query pipeline stage latency in seconds"
      ~labels:[ ("stage", name) ] "flex_stage_seconds"
  in
  {
    m_latency =
      Registry.histogram reg ~help:"End-to-end query latency in seconds" "flex_query_seconds";
    m_stage =
      [
        ([ "parse" ], stage "parse");
        ([ "cache" ], stage "analysis");
        ([ "smooth" ], stage "smooth");
        ([ "execute" ], stage "execute");
        ([ "perturb" ], stage "perturb");
        ([ "charge" ], stage "charge");
      ];
  }

let uptime_seconds t = Float.max 1e-9 ((Clock.now_ns () -. t.start_ns) /. 1e9)

(* Everything registered here is operational: request counts, budget
   accounting the analysts already see in their responses, cache and pool
   counters. No query results and no private-table row counts. *)
let register_collectors t reg =
  Registry.collect reg ~help:"Seconds since the server was created" ~kind:`Gauge
    "flex_uptime_seconds" (fun () -> [ ([], uptime_seconds t) ]);
  Registry.collect reg ~help:"Query requests per second since start" ~kind:`Gauge "flex_qps"
    (fun () -> [ ([], float_of_int (Atomic.get t.counts.queries) /. uptime_seconds t) ]);
  Registry.collect reg ~help:"Per-analyst remaining epsilon budget" ~kind:`Gauge
    "flex_analyst_remaining_epsilon" (fun () ->
      List.map
        (fun (s : Ledger.summary) ->
          ([ ("analyst", s.analyst) ], s.epsilon_limit -. s.epsilon_spent))
        (Ledger.summaries t.ledger));
  Registry.collect reg ~help:"Per-analyst remaining delta budget" ~kind:`Gauge
    "flex_analyst_remaining_delta" (fun () ->
      List.map
        (fun (s : Ledger.summary) ->
          ([ ("analyst", s.analyst) ], s.delta_limit -. s.delta_spent))
        (Ledger.summaries t.ledger));
  (* Budget observatory: burn rate and a naive linear exhaustion forecast,
     both derived at scrape time from ledger state — nothing is sampled on
     the query path. Like the remaining-budget series, they label analyst
     names, so they stay off the unauthenticated wire (see
     [wire_omitted_families]). *)
  Registry.collect reg ~help:"Per-analyst epsilon spent per second of uptime" ~kind:`Gauge
    "flex_analyst_epsilon_burn_per_second" (fun () ->
      let up = uptime_seconds t in
      List.map
        (fun (s : Ledger.summary) -> ([ ("analyst", s.analyst) ], s.epsilon_spent /. up))
        (Ledger.summaries t.ledger));
  Registry.collect reg
    ~help:
      "Naive linear forecast of seconds until the analyst's epsilon budget is exhausted \
       (-1 = no spend yet)"
    ~kind:`Gauge "flex_analyst_epsilon_exhaustion_seconds" (fun () ->
      let up = uptime_seconds t in
      List.map
        (fun (s : Ledger.summary) ->
          let rate = s.epsilon_spent /. up in
          let remaining = Float.max 0.0 (s.epsilon_limit -. s.epsilon_spent) in
          ([ ("analyst", s.analyst) ], if rate <= 0.0 then -1.0 else remaining /. rate))
        (Ledger.summaries t.ledger));
  Registry.collect reg ~help:"Registered analysts" ~kind:`Gauge "flex_analysts" (fun () ->
      [ ([], float_of_int (List.length (Ledger.analysts t.ledger))) ]);
  (match t.statements with
  | None -> ()
  | Some st ->
    Registry.collect reg ~help:"Distinct query shapes tracked by statement statistics"
      ~kind:`Gauge "flex_statements_tracked" (fun () ->
        [ ([], float_of_int (Statements.size st)) ]);
    Registry.collect reg ~help:"Statement-statistics entries evicted at capacity"
      ~kind:`Counter "flex_statements_evicted_total" (fun () ->
        [ ([], float_of_int (Statements.evictions st)) ]));
  (match t.flights with
  | None -> ()
  | Some fl ->
    Registry.collect reg ~help:"Requests written to the flight recorder" ~kind:`Counter
      "flex_flights_recorded_total" (fun () -> [ ([], float_of_int (Flight.recorded fl)) ]));
  Registry.collect reg ~help:"Analysis cache lookups" ~kind:`Counter "flex_cache_lookups_total"
    (fun () ->
      [
        ([ ("result", "hit") ], float_of_int (Cache.hits t.analysis_cache));
        ([ ("result", "miss") ], float_of_int (Cache.misses t.analysis_cache));
      ]);
  Registry.collect reg ~help:"Analysis cache entries" ~kind:`Gauge "flex_cache_entries"
    (fun () -> [ ([], float_of_int (Cache.length t.analysis_cache)) ]);
  (match t.release_store with
  | None -> ()
  | Some store ->
    Registry.collect reg ~help:"Release store lookups" ~kind:`Counter
      "flex_release_cache_lookups_total" (fun () ->
        let s = Release_store.stats store in
        [
          ([ ("result", "hit") ], float_of_int s.hits);
          ([ ("result", "miss") ], float_of_int s.misses);
        ]);
    Registry.collect reg ~help:"Release store entries" ~kind:`Gauge
      "flex_release_cache_entries" (fun () ->
        [ ([], float_of_int (Release_store.length store)) ]);
    Registry.collect reg ~help:"Release store entries dropped" ~kind:`Counter
      "flex_release_cache_evictions_total" (fun () ->
        let s = Release_store.stats store in
        [
          ([ ("reason", "capacity") ], float_of_int s.evictions);
          ([ ("reason", "stale_epoch") ], float_of_int s.stale_dropped);
        ]));
  Registry.collect reg ~help:"Audit events logged" ~kind:`Counter "flex_audit_events_total"
    (fun () -> [ ([], float_of_int (Audit.count t.audit)) ]);
  Registry.collect reg ~help:"Domains in the shared execution pool" ~kind:`Gauge
    "flex_pool_domains" (fun () ->
      [ ([], float_of_int (match t.pool with Some p -> Flex.Task_pool.domains p | None -> 0)) ]);
  Registry.collect reg
    ~help:"Pool chunks claimed, by who ran them (process-global)" ~kind:`Counter
    "flex_pool_chunks_total" (fun () ->
      match t.pool with
      | None -> []
      | Some p ->
        let s = Flex.Task_pool.stats p in
        [
          ([ ("by", "caller") ], float_of_int s.caller_chunks);
          ([ ("by", "worker") ], float_of_int s.worker_chunks);
        ]);
  Registry.collect reg ~help:"Pool jobs dispatched" ~kind:`Counter "flex_pool_jobs_total"
    (fun () ->
      match t.pool with
      | None -> []
      | Some p ->
        let s = Flex.Task_pool.stats p in
        [
          ([ ("mode", "parallel") ], float_of_int s.jobs);
          ([ ("mode", "inline") ], float_of_int s.inline_jobs);
        ]);
  Registry.collect reg
    ~help:"Columnar engine morsel dispatches, split across the pool or run sequentially \
           (process-global)"
    ~kind:`Counter "flex_engine_ops_total" (fun () ->
      let par, seq = Flex_engine.Parallel.ops_counts () in
      [
        ([ ("mode", "parallel") ], float_of_int par);
        ([ ("mode", "sequential") ], float_of_int seq);
      ]);
  Registry.collect reg
    ~help:"Select bodies the row engine ran because the columnar engine declined them \
           (process-global)"
    ~kind:`Counter "flex_engine_fallback_total" (fun () ->
      [ ([], float_of_int (Flex_engine.Executor.columnar_fallbacks ())) ])

let create ?(audit = Audit.null ()) ?(config = default_config) ?cache_capacity ?pool ?registry
    ?release_store ~db ~metrics ~ledger ~rng () =
  let registry =
    if config.telemetry then
      Some (match registry with Some r -> r | None -> Registry.create ())
    else None
  in
  let release_store =
    if config.release_cache then
      Some (match release_store with Some s -> s | None -> Release_store.create ())
    else None
  in
  let counts =
    {
      queries = Atomic.make 0;
      granted = Atomic.make 0;
      replayed = Atomic.make 0;
      derived = Atomic.make 0;
      rejected = Atomic.make 0;
      rate_limited = Atomic.make 0;
      refused = Atomic.make 0;
      failed = Atomic.make 0;
    }
  in
  let t =
    {
      config;
      db;
      metrics;
      fingerprint = Metrics.fingerprint metrics;
      ledger;
      analysis_cache = Cache.create ?capacity:cache_capacity ();
      canon_memo = Cache.create ?capacity:cache_capacity ();
      release_store;
      limiter =
        Option.map (fun qps -> Rate_limit.create ~qps ()) config.rate_limit_qps;
      audit;
      rng;
      pool;
      registry;
      instruments = Option.map (make_instruments counts) registry;
      statements =
        (if config.telemetry then
           Some (Statements.create ~capacity:config.statement_capacity ())
         else None);
      flights =
        (if config.telemetry then Some (Flight.create ~capacity:config.flight_capacity ())
         else None);
      start_ns = Clock.now_ns ();
      lock = Mutex.create ();
      counts;
    }
  in
  Option.iter (register_collectors t) registry;
  t

type session = { mutable analyst : string option; rng : Rng.t }

let session t = with_lock t (fun () -> { analyst = None; rng = Rng.split t.rng })

let bucket_string reason =
  match Errors.bucket_of reason with
  | Errors.Parse_bucket -> "parse"
  | Errors.Unsupported_bucket -> "unsupported"
  | Errors.Other_bucket -> "other"

let wire_rejection reason =
  Wire.Rejected { bucket = bucket_string reason; reason = Errors.to_string reason }

let base_event ?id ~analyst ~sql () : Audit.event =
  {
    analyst;
    sql;
    request_id = id;
    outcome = Audit.Failed;
    epsilon = 0.0;
    delta = 0.0;
    max_noise_scale = 0.0;
    cache_hit = false;
    parse_ns = 0.0;
    analysis_ns = 0.0;
    smooth_ns = 0.0;
    execution_ns = 0.0;
    perturbation_ns = 0.0;
    total_ns = 0.0;
  }

(* Close the query's root span and derive the audit stage timings plus the
   latency-histogram observations from one consistent view of the trace.
   With telemetry off ([root = None]) the event keeps its zeroed timings.
   The view is returned alongside so the flight recorder can retain the full
   span tree without re-snapshotting. *)
let finalize t root (base : Audit.event) : Audit.event * Span.view option =
  match root with
  | None -> (base, None)
  | Some r ->
    Span.finish r;
    let v = Span.view r in
    let d path = Span.duration_of v path in
    Option.iter
      (fun i ->
        Registry.Histogram.observe i.m_latency (d [] /. 1e9);
        List.iter
          (fun (path, h) ->
            if Option.is_some (Span.find v path) then
              Registry.Histogram.observe h (d path /. 1e9))
          i.m_stage)
      t.instruments;
    ( {
        base with
        parse_ns = d [ "parse" ];
        analysis_ns = d [ "cache" ];
        smooth_ns = d [ "smooth" ];
        execution_ns = d [ "execute" ];
        perturbation_ns = d [ "perturb" ];
        total_ns = d [];
      },
      Some v )

(* Fold one finished request into the flight recorder and (when its
   canonical core key is known) the statement-statistics table. Pure
   observation — no RNG, no ledger, no result bytes — so releases are
   bit-identical recorder on or off. [event] is the final audit event
   (outcome and timings settled); [view] the closed span tree, if any. *)
let record_obs t ?key ~rows ~flight_outcome ~statement_outcome (event : Audit.event)
    (view : Span.view option) =
  let now = Clock.now_ns () in
  Option.iter
    (fun fl ->
      Flight.record fl ~ts_ns:now ?id:event.request_id ~analyst:event.analyst
        ~sql:event.sql ?key ~outcome:flight_outcome ~epsilon:event.epsilon
        ~delta:event.delta ~duration_ns:event.total_ns ?trace:view ())
    t.flights;
  match (key, t.statements) with
  | Some key, Some st ->
    let stages =
      match view with
      | None -> []
      | Some v ->
        List.filter_map
          (fun (c : Span.view) ->
            if c.duration_ns > 0.0 then Some (c.name, c.duration_ns) else None)
          v.children
    in
    Statements.record st ~now_ns:now ~key ~outcome:statement_outcome ~stages ~rows
      ~epsilon:event.epsilon
      ~delta:event.delta ~total_ns:event.total_ns ()
  | _ -> ()

(* Admission of the request's privacy parameters: Flex.options would raise
   on out-of-range values, and the per-query cap keeps any single request
   from draining an analyst's budget in one bite. *)
let validate_privacy t ~epsilon ~delta =
  if (not (Float.is_finite epsilon)) || epsilon <= 0.0 then
    Error (Printf.sprintf "per-query epsilon must be positive and finite (got %g)" epsilon)
  else if (not (Float.is_finite delta)) || delta <= 0.0 || delta >= 1.0 then
    Error (Printf.sprintf "per-query delta must be in (0, 1) (got %g)" delta)
  else if epsilon > t.config.max_epsilon_per_query then
    Error
      (Printf.sprintf "per-query epsilon %g exceeds the service cap %g" epsilon
         t.config.max_epsilon_per_query)
  else Ok ()

let options_for t ~epsilon ~delta =
  Flex.options ~public_optimization:t.config.public_optimization
    ~unique_optimization:t.config.unique_optimization ~cross_joins:t.config.cross_joins ~epsilon
    ~delta ()

(* The epoch triple, snapshotted once per request so analysis, execution and
   perturbation all see the same data even if [refresh_data] races in. *)
let epoch t = with_lock t (fun () -> (t.db, t.metrics, t.fingerprint))

(* The analysis depends on options only through the catalog flags, never
   through epsilon/delta, so one cache entry serves every privacy level.
   The caller times canonicalization (the "canon" span); the lookup ("cache")
   contains the "analysis" child only on a miss. *)
let analyze_cached t ?span ~canon ~fingerprint ~metrics ~options ast =
  let flags =
    Printf.sprintf "pub=%b;uniq=%b;cross=%b" t.config.public_optimization
      t.config.unique_optimization t.config.cross_joins
  in
  let key = Cache.key ~sql_canonical:canon ~fingerprint ~flags in
  Span.timed span "cache" (fun cache_span ->
      Cache.find_or_compute t.analysis_cache ~key (fun () ->
          Flex.analyze_ast ?span:cache_span ~options ~metrics ast))

(* Everything that determines the mechanism instance beyond the query and
   the budget. Two requests whose flags differ run distinct mechanisms and
   must never share a stored release. *)
let release_flags (o : Flex.options) =
  Printf.sprintf "pub=%b;uniq=%b;cross=%b;bins=%b;round=%b;smooth=%s;noise=%s"
    o.public_optimization o.unique_optimization o.cross_joins o.enumerate_bins
    o.round_counts
    (match o.smoothing with `Smooth -> "smooth" | `Elastic_k0 -> "elastic_k0")
    (match o.noise with `Laplace -> "laplace" | `Cauchy -> "cauchy")

(* The canonical key of a query: its core's for a factored text. It keys the
   release store, the analysis cache and the statement table. *)
let canon_key = function Factored f -> f.core_sql | Whole { canon; _ } -> canon

(* The release-store key of a canonical query under [options] in the data
   epoch [fingerprint]: the one definition, shared by [run_query] and the
   reactor's probe in [answer_hit]. *)
let release_key ~fingerprint (options : Flex.options) canonical =
  Release_store.key ~sql_canonical:(canon_key canonical) ~fingerprint
    ~flags:(release_flags options) ~epsilon:options.epsilon ~delta:options.delta

let budget_report t analyst =
  match Ledger.summary t.ledger ~analyst with
  | Some s ->
    Wire.Budget_report
      {
        analyst;
        epsilon_limit = s.epsilon_limit;
        delta_limit = s.delta_limit;
        epsilon_spent = s.epsilon_spent;
        delta_spent = s.delta_spent;
        remaining_epsilon = s.remaining_epsilon;
        remaining_delta = s.remaining_delta;
        queries = s.spend_count;
      }
  | None -> Wire.Error_msg (Printf.sprintf "unknown analyst %S" analyst)

let handle_hello t session ~analyst ~epsilon ~delta =
  let eps = Option.value epsilon ~default:t.config.analyst_epsilon in
  let del = Option.value delta ~default:t.config.analyst_delta in
  let attach () =
    session.analyst <- Some analyst;
    budget_report t analyst
  in
  match Ledger.register t.ledger ~analyst ~epsilon:eps ~delta:del with
  | Ok () -> attach ()
  | Error (Ledger.Already_registered existing) -> (
    match (epsilon, delta) with
    | None, None -> attach () (* plain re-attach keeps the existing limits *)
    | _ ->
      Wire.Error_msg
        (Printf.sprintf "analyst %S already registered with budget (%g, %g)" analyst
           existing.epsilon existing.delta))
  | Error err -> Wire.Error_msg (Ledger.error_to_string err)

(* {2 The query pipeline}

   [handle_query] runs a [Query] request through stages: admit, canon memo
   (a text seen before skips the next two), parse, canonicalize, replay,
   analyse, pre-check, execute, charge, perturb and journal. Each stage
   either hands its result to the next or ends the request with an
   [outcome], and [conclude] alone turns that outcome into bookkeeping:
   [queries] plus exactly one outcome counter, the closed span tree, one
   audit event, one flight record and the wire reply. *)

type outcome =
  | Answered of answer
  | Rejected of { bucket : string; reason : string }
  | Refused of { requested : float * float; remaining : float * float }
  | Failed of string

(* One request in flight: what [conclude] needs besides the outcome. [key]
   is known once the query is canonicalized, [cache_hit] once it is
   analysed or replayed, and [charged] once the ledger has journaled its
   cost — the audit event carries exactly that charge, whatever the
   outcome, so the audit log's epsilon sums to the ledger's. [remaining] is
   the analyst's budget an answer reports. *)
type request = {
  base : Audit.event;
  root : Span.t option;
  mutable key : string option;
  mutable cache_hit : bool;
  mutable charged : float * float;
  mutable remaining : float * float;
}

let request ?id ?root ~analyst ~sql () =
  let base = base_event ?id ~analyst ~sql () in
  { base; root; key = None; cache_hit = false; charged = (0.0, 0.0); remaining = (0.0, 0.0) }

let rejected reason = Rejected { bucket = bucket_string reason; reason = Errors.to_string reason }
let failed exn = Failed ("internal error: " ^ Printexc.to_string exn)

(* The ledger said no, before execution or at the charge: an exhausted
   budget is a typed refusal carrying what is left, logged with zero spend
   and never accompanied by a noisy value. Any other ledger error fails
   the request. *)
let denied : Ledger.error -> outcome = function
  | Ledger.Exhausted e ->
    Refused
      {
        requested = (e.requested_epsilon, e.requested_delta);
        remaining = (e.remaining_epsilon, e.remaining_delta);
      }
  | err -> Failed (Ledger.error_to_string err)

let reply req = function
  | Answered a ->
    Wire.Result
      {
        columns = a.columns;
        rows = List.map (fun row -> List.map Wire.json_of_value (Array.to_list row)) a.rows;
        epsilon_spent = fst req.charged;
        delta_spent = snd req.charged;
        remaining_epsilon = fst req.remaining;
        remaining_delta = snd req.remaining;
        cache_hit = req.cache_hit;
        cached = a.how <> `Granted;
        derived = a.how = `Derived;
        bins_enumerated = a.entry.bins_enumerated;
        noise_scales = a.entry.noise_scales;
      }
  | Rejected { bucket; reason } -> Wire.Rejected { bucket; reason }
  | Refused { requested = requested_epsilon, requested_delta; remaining } ->
    Wire.Refused
      {
        analyst = req.base.analyst;
        requested_epsilon;
        requested_delta;
        remaining_epsilon = fst remaining;
        remaining_delta = snd remaining;
      }
  | Failed reason -> Wire.Error_msg reason

(* The bookkeeping of the one exit of every query-op request. Each outcome
   names the counter it moves and how the audit log, the flight recorder and
   the statement table call it. *)
let settle t req outcome =
  let c = t.counts in
  let counter, audited, flight_outcome, statement_outcome =
    match outcome with
    | Answered { how = `Granted; _ } -> (c.granted, Audit.Granted, "granted", `Granted)
    | Answered { how = `Replayed; _ } -> (c.replayed, Audit.Replayed, "replayed", `Replayed)
    | Answered { how = `Derived; _ } -> (c.derived, Audit.Derived, "derived", `Derived)
    | Rejected { bucket; _ } ->
      (c.rejected, Audit.Rejected bucket, "rejected:" ^ bucket, `Rejected)
    | Refused _ -> (c.refused, Audit.Refused, "refused", `Refused)
    | Failed _ -> (c.failed, Audit.Failed, "failed", `Failed)
  in
  Atomic.incr c.queries;
  Atomic.incr counter;
  (match outcome with
  | Rejected { bucket = "rate_limit"; _ } -> Atomic.incr c.rate_limited
  | _ -> ());
  let finalized, view = finalize t req.root { req.base with cache_hit = req.cache_hit } in
  let max_noise_scale, rows =
    match outcome with
    | Answered a ->
      ( List.fold_left (fun acc (_, s) -> Float.max acc s) 0.0 a.entry.noise_scales,
        List.length a.rows )
    | _ -> (0.0, 0)
  in
  let event =
    {
      finalized with
      outcome = audited;
      epsilon = fst req.charged;
      delta = snd req.charged;
      max_noise_scale;
    }
  in
  Audit.log t.audit event;
  record_obs t ?key:req.key ~rows ~flight_outcome ~statement_outcome event view

(* The one exit of every query-op request: its bookkeeping, then its reply. *)
let conclude t req outcome =
  settle t req outcome;
  reply req outcome

(* EXPLAIN ANALYZE: execute the plan and render per-operator row counts and
   timings. The execution itself is the disclosure: per-operator elapsed
   time scales with private row counts and predicate selectivities, so an
   uncharged op that anyone may call without limit would be a timing side
   channel (and a free resource sink — think cross joins) even with the
   rows=? masking. It therefore requires an authenticated session (hello)
   AND the [explain_estimates] opt-in that already declares table
   cardinalities public, and every execution is audit-logged; within that
   posture it stays uncharged, like EXPLAIN. *)
let analyzed_plan t session ~sql ast =
  match session.analyst with
  | None -> Wire.Error_msg "no analyst: send hello first"
  | Some analyst ->
    let reject reason = (Audit.Rejected (bucket_string reason), wire_rejection reason) in
    let outcome, response =
      if not t.config.explain_estimates then
        ( Audit.Rejected "admission",
          Wire.Rejected
            {
              bucket = "admission";
              reason =
                "EXPLAIN ANALYZE executes the query against the private database \
                 and is only served when the deployment opts in via \
                 explain_estimates (flex_serve --explain-estimates)";
            } )
      else
        match
          Flex_engine.Executor.explain_analyze ?pool:t.pool ~optimize:true ~metrics:t.metrics
            ~show_rows:true t.db ast
        with
        | plan, _ -> (Audit.Analyzed, Wire.Analyzed_report { plan })
        | exception Flex_engine.Executor.Error m ->
          reject (Errors.Analysis_error ("execution: " ^ m))
        | exception Flex_engine.Eval.Error m ->
          reject (Errors.Analysis_error ("evaluation: " ^ m))
        | exception Flex_engine.Aggregate.Error m ->
          reject (Errors.Analysis_error ("aggregation: " ^ m))
    in
    Audit.log t.audit { (base_event ~analyst ~sql ()) with outcome };
    response

(* EXPLAIN is free: it renders plan shapes without touching the database,
   so it is neither charged nor counted as a query. Because it is free, the
   ~N cardinality annotations — seeded from exact private-table row counts —
   are suppressed unless the deployment opts in via [explain_estimates]
   (i.e. declares table cardinalities public). An EXPLAIN ANALYZE prefix in
   the text routes to the executed-plan report, which additionally requires
   hello (it touches the private data). The query op hands its EXPLAIN
   statements here too. *)
let explain_statement t session ~sql = function
  | Flex_sql.Ast.Explain_analyze ast -> analyzed_plan t session ~sql ast
  | Flex_sql.Ast.Query ast | Flex_sql.Ast.Explain ast ->
    let logical, optimized =
      Flex_engine.Optimizer.explain ~metrics:t.metrics
        ~estimates:t.config.explain_estimates ast
    in
    Wire.Plan_report { logical; optimized }

let handle_explain t session ~sql =
  match Parser.parse_statement sql with
  | Error e -> wire_rejection (Errors.Parse_error e)
  | Ok stmt -> explain_statement t session ~sql stmt

(* A request's privacy parameters, the server's defaults filling in. *)
let privacy_level t ~epsilon ~delta =
  ( Option.value epsilon ~default:t.config.default_epsilon,
    Option.value delta ~default:t.config.default_delta )

(* Admission, ahead of everything else. The token bucket is a scheduling
   decision (no parse, no analysis, no ledger), so a runaway dashboard is
   turned away at the door instead of queueing work; operators tune
   --rate-limit from its audit events and flex_rate_limited_total. The
   privacy parameters come next: Flex.options would raise on out-of-range
   values, and the per-query cap keeps any single request from draining an
   analyst's budget in one bite. *)
let admit t ~analyst ~epsilon ~delta =
  match t.limiter with
  | Some rl when not (Rate_limit.allow rl ~key:analyst) ->
    Error
      (Rejected
         {
           bucket = "rate_limit";
           reason =
             Printf.sprintf
               "analyst %S exceeded the per-analyst rate limit (%g queries/s); retry later"
               analyst (Rate_limit.qps rl);
         })
  | _ ->
    validate_privacy t ~epsilon ~delta
    |> Result.map_error (fun reason -> Rejected { bucket = "admission"; reason })

(* A text seen before: its memoised canonical form, with no parse. The
   lookup is the request's canon stage. *)
let memoised t root ~sql =
  let start_ns = Clock.now_ns () in
  let hit = Cache.find t.canon_memo ~key:sql in
  if Option.is_some hit then
    Option.iter (fun r -> Span.finish (Span.enter ~start_ns r "canon")) root;
  Option.map (fun m -> m.canonical) hit

(* Factor into a releasable core + post-processing suffix, and memoise it on
   the text. The store is keyed on the core, so every HAVING/ORDER BY/LIMIT/
   projection variant of one dashboard collides onto a single paid release;
   without a store there is nothing to share the core through and the
   original whole-query path applies unchanged. *)
let canonicalize t req ~sql ast =
  Span.timed req.root "canon" (fun _ ->
      let fact =
        match t.release_store with None -> None | Some _ -> Flex_sql.Factor.factor ast
      in
      let c =
        match fact with
        | Some f -> Factored f
        | None -> Whole { canon = Canon.cache_key ast; ast }
      in
      Cache.add t.canon_memo ~key:sql { canonical = c; last_hit = Atomic.make None };
      c)

(* The analyst-visible answer for a stored (or just-minted) release:
   factored queries evaluate their suffix over the stored noisy rows
   (restoring output names, order and arithmetic); everything else is
   served verbatim. Suffix evaluation is deterministic, so a replay of the
   same entry always reproduces the same bytes. *)
let answer how fact (entry : Release_store.entry) =
  match (fact : Flex_sql.Factor.t option) with
  | None -> Answered { how; entry; columns = entry.columns; rows = entry.rows }
  | Some f -> (
    match Flex.post_process f.suffix ~columns:entry.columns entry.rows with
    | rs -> Answered { how; entry; columns = rs.columns; rows = rs.rows }
    | exception (Flex_engine.Eval.Error _ | Flex_engine.Compiled.Error _) ->
      rejected
        (Errors.Analysis_error
           (match how with
           | `Granted -> "post-processing suffix failed on the released core"
           | `Replayed | `Derived -> "post-processing suffix failed on the stored release")))

let factoring = function Factored f -> Some f | Whole _ -> None

(* A store hit reports the analyst's remaining budget, and charges nothing. *)
let note_hit t req ~analyst =
  req.cache_hit <- true;
  req.remaining <- Option.value ~default:(0.0, 0.0) (Ledger.remaining t.ledger ~analyst)

(* A store hit on [entry] from [analyst]: a derivation when the text's
   suffix does more than restate the core, a replay otherwise. *)
let hit t req ~analyst canonical entry =
  note_hit t req ~analyst;
  let fact = factoring canonical in
  let how =
    match fact with Some f when not (Flex_sql.Factor.trivial f) -> `Derived | _ -> `Replayed
  in
  answer how fact entry

(* Zero-budget answer: the core's bytes already left the server for this
   (core, budget, epoch, mechanism); replaying them — or evaluating a
   post-processing suffix over them — touches no database, RNG or ledger. *)
let replay t req ~analyst canonical release_key =
  match t.release_store with
  | None -> None
  | Some store ->
    Span.timed req.root "replay" (fun _ -> Release_store.find store release_key)
    |> Option.map (hit t req ~analyst canonical)

(* A canonical query to its outcome; each [let*] is a stage that either
   hands on its result or ends the request. *)
let run_query t session req ~analyst ~epsilon ~delta canonical =
  let ( let* ) r f = match r with Ok x -> f x | Error outcome -> outcome in
  let options = options_for t ~epsilon ~delta in
  let db, metrics, fingerprint = epoch t in
  (* What analyzes/executes on a miss: the canonical core for factorable
     queries (paying once for all its base aggregates), the original AST
     otherwise. *)
  let canon = canon_key canonical in
  let exec_ast = match canonical with Factored f -> f.core | Whole { ast; _ } -> ast in
  req.key <- Some canon;
  let release_key = release_key ~fingerprint options canonical in
  match replay t req ~analyst canonical release_key with
  | Some answered -> answered
  | None ->
    let analyzed, cache_hit =
      analyze_cached t ?span:req.root ~canon ~fingerprint ~metrics ~options exec_ast
    in
    req.cache_hit <- cache_hit;
    let* analysis = Result.map_error rejected analyzed in
    let column_releases = Flex.smooth_columns ?span:req.root ~options analysis in
    let n = float_of_int (List.length column_releases) in
    let cost_eps = epsilon *. n and cost_delta = delta *. n in
    (* Refuse before executing: the cost is known from the query's shape
       alone, and spending only grows, so a cost the budget cannot afford
       now would be refused by the charge below too. *)
    let* () =
      Result.map_error denied
        (Ledger.check_spend t.ledger ~analyst ~epsilon:cost_eps ~delta:cost_delta)
    in
    let* result_set =
      Result.map_error rejected
        (Flex.execute ?span:req.root ?pool:t.pool ~optimize:true ~metrics ~db exec_ast)
    in
    (* The atomic gate: journal-then-charge before any noisy value exists,
       so refusal can never follow a release. From here on the request
       carries its charge, whatever its outcome. *)
    let* remaining =
      Result.map_error denied
        (Span.timed req.root "charge" (fun _ ->
             Ledger.spend t.ledger ~analyst ~epsilon:cost_eps ~delta:cost_delta
               ~label:"flex-query"))
    in
    req.charged <- (cost_eps, cost_delta);
    let release =
      Flex.perturb ?span:req.root ~rng:session.rng ~options ~metrics ~db ~analysis
        ~column_releases result_set
    in
    (* Journal the release before responding: a crash after the charge but
       before the journal loses an answer nobody ever saw; a crash after the
       journal replays this exact entry forever. Either way, no second noise
       draw can leave the server for a charged key. If two sessions raced
       the same cold key, the store keeps the first and we respond with
       whatever it kept. *)
    let entry =
      {
        Release_store.key = release_key;
        fingerprint;
        analyst;
        epsilon;
        delta;
        epsilon_spent = cost_eps;
        delta_spent = cost_delta;
        columns = release.noisy.columns;
        rows = release.noisy.rows;
        bins_enumerated = release.bins_enumerated;
        noise_scales =
          List.map
            (fun (cr : Flex.column_release) -> (cr.name, cr.noise_scale))
            release.column_releases;
      }
    in
    let stored =
      match t.release_store with
      | None -> entry
      | Some store -> Release_store.record store entry
    in
    req.remaining <- remaining;
    answer `Granted (factoring canonical) stored

(* An exception anywhere past admission fails the request through
   [conclude], audited with whatever it had been charged; [handle]'s
   catch-all only guards [conclude] itself. A text in the canon memo is not
   parsed again. An EXPLAIN typed where a query was expected is not a query:
   it gets the explain op's answer, uncounted; it and a parse error are
   never memoised, so each of their sends parses. *)
let handle_query t session ~sql ~epsilon ~delta ~id =
  match session.analyst with
  | None -> Wire.Error_msg "no analyst: send hello first"
  | Some analyst -> (
    let epsilon, delta = privacy_level t ~epsilon ~delta in
    match admit t ~analyst ~epsilon ~delta with
    | Error outcome -> conclude t (request ?id ~analyst ~sql ()) outcome
    | Ok () -> (
      let root = if t.config.telemetry then Some (Span.root "query") else None in
      let req = request ?id ?root ~analyst ~sql () in
      let run canonical =
        conclude t req
          (try run_query t session req ~analyst ~epsilon ~delta (canonical ())
           with exn -> failed exn)
      in
      match memoised t root ~sql with
      | Some c -> run (fun () -> c)
      | None -> (
        match Span.timed root "parse" (fun _ -> Parser.parse_statement sql) with
        | exception exn -> conclude t req (failed exn)
        | Ok ((Flex_sql.Ast.Explain _ | Flex_sql.Ast.Explain_analyze _) as stmt) ->
          Option.iter Span.finish root;
          explain_statement t session ~sql stmt
        | Error e -> conclude t req (rejected (Errors.Parse_error e))
        | Ok (Flex_sql.Ast.Query ast) -> run (fun () -> canonicalize t req ~sql ast))))

let handle_analyze t ~sql =
  let options =
    options_for t ~epsilon:t.config.default_epsilon ~delta:t.config.default_delta
  in
  match Parser.parse sql with
  | Error e -> wire_rejection (Errors.Parse_error e)
  | Ok ast -> (
    let _, metrics, fingerprint = epoch t in
    let analyzed, cache_hit =
      analyze_cached t ~canon:(Canon.cache_key ast) ~fingerprint ~metrics ~options ast
    in
    match analyzed with
    | Error reason -> wire_rejection reason
    | Ok analysis ->
      let columns =
        List.map
          (fun (cr : Flex.column_release) ->
            {
              Wire.column = cr.name;
              sensitivity = Sens.to_string cr.elastic;
              smooth_bound = cr.smooth.smooth_bound;
              noise_scale = cr.noise_scale;
            })
          (Flex.smooth_columns ~options analysis)
      in
      Wire.Analysis
        { cache_hit; is_histogram = analysis.is_histogram; joins = analysis.joins; columns })

(* Per-analyst budget series stay off the wire [Stats] response: the op
   needs no hello, and those series label every analyst's name with their
   budget consumption, where [Budget_info] only ever discloses the caller's
   own. The burn-rate / exhaustion-forecast observatory series carry the
   same analyst labels and follow the same rule. Operators still get them
   all on the loopback-only /metrics scrape. (Statement stats and flight
   records never even reach the registry: they hold raw SQL and live only
   behind the loopback /statements and /flights endpoints.) *)
let wire_omitted_families =
  [
    "flex_analyst_remaining_epsilon";
    "flex_analyst_remaining_delta";
    "flex_analyst_epsilon_burn_per_second";
    "flex_analyst_epsilon_exhaustion_seconds";
  ]

let json_of_registry ?(omit = []) reg : Json.t =
  let sample (s : Registry.sample) =
    let labels =
      ("labels", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) s.labels))
    in
    match s.value with
    | Registry.Sample v -> Json.Obj [ labels; ("value", Json.Num v) ]
    | Registry.Hist { upper; cumulative; count; sum } ->
      let quantiles =
        match
          ( Registry.estimate_quantile ~upper ~cumulative ~count 0.5,
            Registry.estimate_quantile ~upper ~cumulative ~count 0.95,
            Registry.estimate_quantile ~upper ~cumulative ~count 0.99 )
        with
        | Some p50, Some p95, Some p99 ->
          [
            ( "quantiles",
              Json.Obj
                [ ("p50", Json.Num p50); ("p95", Json.Num p95); ("p99", Json.Num p99) ] );
          ]
        | _ -> []
      in
      Json.Obj
        ([
           labels;
           ("count", Json.Num (float_of_int count));
           ("sum", Json.Num sum);
           ( "buckets",
             Json.List
               (List.mapi
                  (fun i u ->
                    Json.Obj
                      [
                        ("le", Json.Num u);
                        ("count", Json.Num (float_of_int cumulative.(i)));
                      ])
                  (Array.to_list upper)) );
         ]
        @ quantiles)
  in
  let family (f : Registry.family) =
    Json.Obj
      [
        ("name", Json.Str f.name);
        ("kind", Json.Str f.kind);
        ("help", Json.Str f.help);
        ("samples", Json.List (List.map sample f.samples));
      ]
  in
  let families =
    List.filter
      (fun (f : Registry.family) -> not (List.mem f.name omit))
      (Registry.snapshot reg)
  in
  Json.Obj [ ("families", Json.List (List.map family families)) ]

let counters t =
  let c = t.counts in
  {
    queries = Atomic.get c.queries;
    granted = Atomic.get c.granted;
    replayed = Atomic.get c.replayed;
    derived = Atomic.get c.derived;
    rejected = Atomic.get c.rejected;
    rate_limited = Atomic.get c.rate_limited;
    refused = Atomic.get c.refused;
    failed = Atomic.get c.failed;
  }

let stats_report t =
  let c = counters t in
  let uptime = uptime_seconds t in
  let rs =
    match t.release_store with
    | None -> None
    | Some store -> Some (Release_store.stats store)
  in
  let release_hits = match rs with Some s -> s.hits | None -> 0 in
  let release_misses = match rs with Some s -> s.misses | None -> 0 in
  Wire.Stats_report
    {
      queries = c.queries;
      granted = c.granted;
      rejected = c.rejected;
      refused = c.refused;
      cache_hits = Cache.hits t.analysis_cache;
      cache_misses = Cache.misses t.analysis_cache;
      cache_entries = Cache.length t.analysis_cache;
      release_hits;
      release_misses;
      release_derived = c.derived;
      release_evictions =
        (match rs with Some s -> s.evictions + s.stale_dropped | None -> 0);
      release_entries = (match rs with Some s -> s.entries | None -> 0);
      release_hit_rate =
        float_of_int release_hits /. float_of_int (max 1 (release_hits + release_misses));
      analysts = List.length (Ledger.analysts t.ledger);
      uptime_seconds = uptime;
      qps = float_of_int c.queries /. uptime;
      metrics =
        (match t.registry with
        | Some reg -> json_of_registry ~omit:wire_omitted_families reg
        | None -> Json.Null);
    }

let handle t session req =
  try
    match (req : Wire.request) with
    | Hello { analyst; epsilon; delta } -> handle_hello t session ~analyst ~epsilon ~delta
    | Query { sql; epsilon; delta; id } -> handle_query t session ~sql ~epsilon ~delta ~id
    | Analyze { sql } -> handle_analyze t ~sql
    | Explain { sql } -> handle_explain t session ~sql
    | Budget_info -> (
      match session.analyst with
      | None -> Wire.Error_msg "no analyst: send hello first"
      | Some analyst -> budget_report t analyst)
    | Stats -> stats_report t
    | Quit -> Wire.Bye
  with exn -> Wire.Error_msg ("internal error: " ^ Printexc.to_string exn)

let session_analyst (s : session) = s.analyst

(* A probed store hit, served from the entry the probe found: the stages
   [handle_query] runs on it, bar the second lookup. The token bucket comes
   first, as in [admit]; then the memo and store hits are counted and one
   [settle] books the answer. The reply is spliced from the text's last
   encoded answer when that was computed from this very entry; otherwise
   the answer is computed, encoded and kept for the next hit. *)
let serve_hit t ~analyst ~sql ~id ~epsilon ~delta root memo store entry =
  match admit t ~analyst ~epsilon ~delta with
  | Error outcome -> Wire.response_to_line ?id (conclude t (request ?id ~analyst ~sql ()) outcome)
  | Ok () -> (
    Cache.count_hit t.canon_memo;
    Release_store.count_hit store;
    let req = request ?id ?root ~analyst ~sql () in
    req.key <- Some (canon_key memo.canonical);
    let outcome, line =
      try
        match Atomic.get memo.last_hit with
        | Some (a, line) when a.entry == entry ->
          note_hit t req ~analyst;
          (Answered a, Some line)
        | _ -> (
          match hit t req ~analyst memo.canonical entry with
          | Answered a as outcome ->
            let line = Wire.encode_result (reply req outcome) in
            Atomic.set memo.last_hit (Some (a, line));
            (outcome, Some line)
          | outcome -> (outcome, None))
      with exn -> (failed exn, None)
    in
    settle t req outcome;
    match line with
    | Some line ->
      let remaining_epsilon, remaining_delta = req.remaining in
      Wire.splice ?id ~remaining_epsilon ~remaining_delta line
    | None -> Wire.response_to_line ?id (reply req outcome))

let answer_hit t session (req : Wire.request) =
  match (req, session.analyst, t.release_store) with
  | Query { sql; epsilon; delta; id }, Some analyst, Some store -> (
    let epsilon, delta = privacy_level t ~epsilon ~delta in
    try
      if Result.is_error (validate_privacy t ~epsilon ~delta) then None
      else
        let start_ns = Clock.now_ns () in
        match Cache.peek t.canon_memo ~key:sql with
        | None -> None
        | Some memo -> (
          (* the trace starts once the text is known to be memoised, dated
             back to the peek that its canon span records *)
          let root =
            if t.config.telemetry then begin
              let end_ns = Clock.now_ns () in
              let r = Span.root ~start_ns "query" in
              Span.finish ~end_ns (Span.enter ~start_ns r "canon");
              Some r
            end
            else None
          in
          let _, _, fingerprint = epoch t in
          let key = release_key ~fingerprint (options_for t ~epsilon ~delta) memo.canonical in
          match Span.timed root "replay" (fun _ -> Release_store.peek store key) with
          | None -> None
          | Some entry ->
            Some (serve_hit t ~analyst ~sql ~id ~epsilon ~delta root memo store entry))
    with exn ->
      let reason = "internal error: " ^ Printexc.to_string exn in
      Some (Wire.response_to_line ?id (Wire.Error_msg reason)))
  | _ -> None

(* The reactor sheds a request it never SQL-parsed (worker queue full): it
   concludes like every other admission decision, and the reactor sends its
   own precomputed reply. The raw line stands in for the SQL, truncated. *)
let log_overload t ~analyst ~line =
  let sql =
    if String.length line <= 200 then line else String.sub line 0 200 ^ "..."
  in
  let req = request ~analyst:(Option.value analyst ~default:"") ~sql () in
  let reason = "server overloaded: request queue is full, retry later" in
  ignore (conclude t req (Rejected { bucket = "overload"; reason }))

let cache t = t.analysis_cache
let canon_memo t = t.canon_memo
let release_store t = t.release_store
let registry t = t.registry
let statements t = t.statements
let flights t = t.flights

(* Data reload: swap in the new epoch atomically, then strand every stored
   release minted against the old fingerprint — a replayed answer must never
   outlive the data it described. Analysis-cache entries are keyed on the
   fingerprint too and simply stop matching. Returns how many releases were
   stranded. *)
let refresh_data t ~db ~metrics =
  with_lock t (fun () ->
      t.db <- db;
      t.metrics <- metrics;
      t.fingerprint <- Metrics.fingerprint metrics);
  match t.release_store with
  | None -> 0
  | Some store -> Release_store.invalidate_epoch store ~keep:(Metrics.fingerprint metrics)
