(** The FLEX query service: the paper's §1/§7 deployment shape — middleware
    that intercepts analysts' SQL, analyses it, charges a per-analyst budget
    and perturbs results before anything leaves the trusted side.

    A {!Wire.request} [Query] runs through stages. Each hands its result on
    or ends the request with an outcome, and one [conclude] turns every
    outcome into the same bookkeeping:

    {v
    admit > parse > canon > replay > analyse > pre-check > execute > charge > journal
      \_____________________________________ | ___________________________________/
                                            v
       answered (granted | replayed | derived) | rejected | refused | failed
                                            v
       conclude: queries + one outcome counter, span tree closed,
                 one audit event, one flight record, the wire reply
    v}

    - admit: the per-analyst token bucket, then the privacy parameters (an
      epsilon above the per-query cap never touches the budget);
    - parse tolerates trailing semicolons; an [EXPLAIN] here gets the
      [Explain] op's answer and is not counted as a query;
    - canon and replay: the query is factored into a releasable core and a
      post-processing suffix, and a release-store hit on the core is
      answered at zero budget;
    - analyse: elastic sensitivity, memoized across analysts; §3.7.1 typed
      rejections pass through with their §5.1 bucket;
    - pre-check and charge: [epsilon * aggregate-columns] under basic
      composition; an unaffordable request is [Refused] before execution
      and {e never} gets a noisy answer;
    - an exception past admission (a journal write that fails, say) is
      [failed], audited with the charge already made, so the audit log's
      epsilon always sums to the ledger's.

    [handle] is re-entrant: sessions can be driven concurrently from any
    number of threads (the ledger, cache and audit log carry their own
    locks; each session carries its own RNG). The TCP front end is
    {!Reactor}. *)

module Database = Flex_engine.Database
module Metrics = Flex_engine.Metrics
module Ledger = Flex_dp.Ledger
module Rng = Flex_dp.Rng

type config = {
  default_epsilon : float;  (** per-query epsilon when the request omits it *)
  default_delta : float;
  analyst_epsilon : float;  (** total budget granted by a plain Hello *)
  analyst_delta : float;
  max_epsilon_per_query : float;  (** admission cap on a single request *)
  public_optimization : bool;
  unique_optimization : bool;
  cross_joins : bool;
  explain_estimates : bool;
      (** render per-operator [~N rows] cardinality annotations in EXPLAIN
          responses — and serve EXPLAIN ANALYZE at all. Off by default:
          estimates are uncharged and seeded from exact private-table row
          counts ({!Flex_engine.Metrics.row_count}), and EXPLAIN ANALYZE
          executes the query, so its per-operator timings (not just its row
          counts) scale with private cardinalities and selectivities.
          Enabling this declares table cardinalities public in the
          deployment's threat model; EXPLAIN ANALYZE additionally requires
          an authenticated session (hello) and is audit-logged, though it
          remains uncharged. *)
  telemetry : bool;
      (** maintain a metrics registry and per-query trace spans (on by
          default). Releases are bit-identical either way: telemetry never
          touches the RNG or the result path. Off, the audit log's stage
          timings read zero and {!registry} is [None]. *)
  release_cache : bool;
      (** answer from the store of finalized noisy releases — the DP
          post-processing freebie. Each aggregate query is factored
          ({!Flex_sql.Factor}) into a releasable {e core} (FROM/WHERE/GROUP
          BY + base aggregates) and a post-processing suffix (HAVING, ORDER
          BY/LIMIT, projection arithmetic); the store is keyed on the
          canonical core, so an identical repeat replays the same bytes
          ([cached: true], [Replayed] in the audit log) and a {e different}
          query over the same core is answered by evaluating its suffix over
          the stored noisy rows ([cached: true, derived: true], [Derived] in
          the audit log) — either way zero budget, no execution, no fresh
          noise. A miss pays for the whole core once (epsilon for {e all} its
          base aggregates), so later derivations are genuinely free. On by
          default. Off, every query re-executes, draws fresh noise, and is
          charged again (correct accounting, strictly worse utility per
          epsilon for dashboard workloads). *)
  rate_limit_qps : float option;
      (** per-analyst token-bucket admission: each analyst may issue at
          most this many [Query] requests per second (with about one
          second of burst). A request over the limit is answered
          [Rejected {bucket = "rate_limit"}], audit-logged with the same
          outcome, and charged nothing — the decision is scheduling, not
          privacy, so it never touches the ledger. [None] (the default)
          disables the limiter. *)
  statement_capacity : int;
      (** distinct query shapes tracked by the statement-statistics table
          ({!statements}); past it the least-called shape is evicted.
          Default 512. Only meaningful with [telemetry]. *)
  flight_capacity : int;
      (** finished requests the flight recorder ({!flights}) retains.
          Default 256. Only meaningful with [telemetry]. *)
}

val default_config : config
(** eps 0.1 / delta 1e-8 per query, totals 10.0 / 1e-4, cap 1.0, paper-default
    optimisation flags, EXPLAIN cardinality annotations off, telemetry and
    release replay on. *)

type t

val create :
  ?audit:Audit.t ->
  ?config:config ->
  ?cache_capacity:int ->
  ?pool:Flex_engine.Task_pool.t ->
  ?registry:Flex_obs.Registry.t ->
  ?release_store:Release_store.t ->
  db:Database.t ->
  metrics:Metrics.t ->
  ledger:Ledger.t ->
  rng:Rng.t ->
  unit ->
  t
(** [pool] is one shared domain pool for every session's query execution;
    sessions whose query arrives while the pool is busy simply
    execute sequentially, so concurrent sessions never block each other.
    [registry] lets several servers (or the embedding process) share one
    metrics registry; a fresh one is created otherwise. Ignored when
    [config.telemetry] is false. [release_store] supplies a (typically
    journaled, see {!Release_store.open_}) store of past releases; with
    [config.release_cache] and no store given, a fresh in-memory one is
    created; with [config.release_cache] false, any given store is ignored
    and nothing is ever replayed. *)

type session

val session : t -> session
(** A fresh anonymous session with an independent RNG stream; [Hello] names
    its analyst. *)

val session_analyst : session -> string option
(** The analyst a [Hello] attached to this session, if any — what the
    connection layer records in audit events for requests it sheds before
    they ever reach {!handle}. *)

val log_overload : t -> analyst:string option -> line:string -> unit
(** Audit-log a request the connection layer shed before SQL parsing
    (worker queue full; the line was JSON-decoded, nothing more): outcome
    [Rejected "overload"], the raw wire line standing in for the SQL
    (truncated to 200 bytes). Concludes like a query:
    counted under [queries] and [rejected], charged nothing. *)

val handle : t -> session -> Wire.request -> Wire.response
(** Serve one request. Never raises. *)

val answer_hit : t -> session -> Wire.request -> string option
(** Answer [req] if it is a release-store hit, and return its reply line
    (no newline): [Some] for a [Query] from a session that has sent
    [hello], at an admissible privacy level, whose SQL text is in the canon
    memo and whose release is stored; [None] for anything else. This is
    how {!Reactor} picks the requests it answers on its own thread.

    One probe decides: the memo and the store are looked up once, counting
    nothing, so a [None] moves no canon-memo, release-store or
    analysis-cache counter, spends no rate-limit token and audits nothing.
    A hit is then served from the stored entry the probe found, through
    the stages {!handle} runs on the same request: admission and the
    token bucket (a rate-limited hit is [Some] rejection), a counted memo
    hit and store hit, the span tree, one audit event and one flight
    record. Its reply is byte for byte what
    [Wire.response_to_line ?id (handle t session req)] would have been.
    Since the entry is in hand, a release evicted or stranded by
    {!refresh_data} after the probe is still served from that entry, as a
    request already past the probe in {!handle} is.

    Each memoised text keeps the last answer a hit on it served, encoded
    ({!Wire.encode_result}) and tagged with the entry it was computed
    from. A hit on that same entry splices its remaining budget and id
    into the encoding ({!Wire.splice}); post-processing and encoding run
    only when the text meets a new release. So the memo holds at most one
    answer per text. Never raises. *)

type 'a counts = {
  queries : 'a;
      (** requests that reached an outcome: every [Query] past the hello
          check (bar the [EXPLAIN]s handed to the explain op) and every
          request the connection layer shed; the sum of the six outcomes *)
  granted : 'a;  (** charged releases ({e excludes} replays and derivations) *)
  replayed : 'a;  (** zero-budget exact replays from the release store *)
  derived : 'a;
      (** zero-budget derivations: store hits answered by evaluating a
          post-processing suffix over the stored noisy rows *)
  rejected : 'a;
  rate_limited : 'a;
      (** the subset of [rejected] turned away by the per-analyst token
          bucket ([config.rate_limit_qps]) *)
  refused : 'a;
  failed : 'a;
      (** failures after admission (a journal write error, an internal
          exception), audited with whatever they had been charged *)
}
(** The server keeps one atomic cell per counter, telemetry on or off; the
    registry's [flex_*_total] families read the same cells. *)

type counters = int counts

val counters : t -> counters
val cache : t -> (Flex_core.Elastic.analysis, Flex_core.Errors.reason) result Cache.t

type memo
(** A memoised query text: its canonical form (its factored core and
    suffix) and the last answer a store hit on it served, encoded. *)

val canon_memo : t -> memo Cache.t
(** The canon memo: raw SQL text to canonical form, looked up before
    parsing. Its hit and miss counts are the ones to watch. *)

val release_store : t -> Release_store.t option
(** The server's release store ([None] when [config.release_cache] is off). *)

val registry : t -> Flex_obs.Registry.t option
(** The server's metrics registry ([None] when telemetry is off) — what
    [Stats] snapshots and the [--stats-port] HTTP endpoint scrapes. The
    wire [Stats] response omits analyst-labelled families (remaining
    budget, burn rate, exhaustion forecast): the op needs no hello, and
    those series disclose other analysts' names and consumption. *)

val statements : t -> Flex_obs.Statements.t option
(** Per-shape statement statistics keyed on the canonical core key the
    release store uses, so every post-processing variant of one core
    aggregates into a single row. [None] when telemetry is off. Rows carry
    canonical SQL text: operator-only loopback surface ([/statements]),
    never the unauthenticated wire. *)

val flights : t -> Flex_obs.Flight.t option
(** The flight recorder: the last [config.flight_capacity] finished
    requests with their span trees, analyst, outcome and budget charge.
    [None] when telemetry is off. Records carry raw SQL and analyst names:
    operator-only loopback surface ([/flights]), never the unauthenticated
    wire. Pure observation — fixed-seed DP releases are bit-identical with
    the recorder on or off. *)

val refresh_data : t -> db:Database.t -> metrics:Metrics.t -> int
(** Swap in a new data epoch atomically (new database handle + metrics,
    hence a new fingerprint) and strand every stored release minted against
    the old epoch — a replayed answer must never outlive the data it
    described. Returns the number of releases stranded. In-flight requests
    finish against whichever epoch they snapshotted at admission. *)
