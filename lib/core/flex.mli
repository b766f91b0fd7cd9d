module Ast = Flex_sql.Ast
module Sens = Flex_dp.Sens
module Smooth = Flex_dp.Smooth
module Rng = Flex_dp.Rng
module Budget = Flex_dp.Budget
module Database = Flex_engine.Database
module Metrics = Flex_engine.Metrics
module Executor = Flex_engine.Executor
module Task_pool = Flex_engine.Task_pool

(** The FLEX mechanism (paper §4, Definition 7): parse the query, compute
    its elastic sensitivity from precomputed metrics, execute the unmodified
    query on the underlying database, smooth the sensitivity, and perturb
    each aggregate output cell with Laplace noise of scale 2S/epsilon.
    Theorem 2: the release is (epsilon, delta)-differentially private. *)

(** [`Smooth] is Definition 7. [`Elastic_k0] uses the elastic sensitivity at
    distance 0 without the smooth-sensitivity maximisation — the error
    magnitudes the paper reports in §5 are only attainable this way; see
    EXPERIMENTS.md. Only [`Smooth] carries the (epsilon, delta)-DP proof. *)
type smoothing = [ `Smooth | `Elastic_k0 ]

(** [`Laplace] is Definition 7: (epsilon, delta)-DP with scale 2S/epsilon.
    [`Cauchy] is Nissim et al.'s pure epsilon-DP variant: beta = epsilon/6,
    scale 6S/epsilon, heavy tails; delta is ignored. *)
type noise = [ `Laplace | `Cauchy ]

type options = private {
  epsilon : float;
  delta : float;
  public_optimization : bool;  (** §3.6 toggle, benchmarked in Fig 7 *)
  unique_optimization : bool;  (** schema-enforced key uniqueness *)
  enumerate_bins : bool;  (** §4 histogram bin enumeration *)
  round_counts : bool;  (** round released counts to integers *)
  cross_joins : bool;  (** bounded-DP cross-join extension (default off) *)
  smoothing : smoothing;
  noise : noise;
}

val options :
  ?public_optimization:bool ->
  ?unique_optimization:bool ->
  ?enumerate_bins:bool ->
  ?round_counts:bool ->
  ?cross_joins:bool ->
  ?smoothing:smoothing ->
  ?noise:noise ->
  epsilon:float ->
  delta:float ->
  unit ->
  options
(** @raise Invalid_argument unless [epsilon > 0] and [delta] is in (0, 1). *)

val delta_for_size : int -> float
(** [n^(-ln n)], the delta used throughout the paper's evaluation. *)

type column_release = {
  name : string;
  kind : Elastic.column_kind;
  elastic : Sens.t;  (** elastic sensitivity as a function of k *)
  smooth : Smooth.result;  (** smoothed bound S and its argmax *)
  noise_scale : float;  (** 2S/epsilon *)
}

type release = {
  noisy : Executor.result_set;  (** what the analyst sees *)
  true_result : Executor.result_set;  (** sensitive; for experiments only *)
  analysis : Elastic.analysis;
  column_releases : column_release list;
  epsilon : float;
  delta : float;
  bins_enumerated : bool;
}

(** {2 Staged, re-entrant pipeline}

    The FLEX mechanism split at its natural joints, for long-lived services:
    each stage is a pure function of its arguments (plus the per-call [rng]
    in {!perturb}), so concurrent sessions can interleave stages freely, a
    server can time them separately (the Table 2 breakdown), and the
    analysis stage — which depends only on the query, the metrics and the
    option flags — can be memoized across requests. *)

val analyze_ast :
  ?span:Flex_obs.Span.t ->
  options:options ->
  metrics:Metrics.t ->
  Ast.query ->
  (Elastic.analysis, Errors.reason) result
(** Stage 1: elastic-sensitivity analysis of an already-parsed query. The
    cacheable prefix (key on canonical AST + metrics fingerprint +
    option flags). Every stage takes an optional parent [span] and times
    itself as a child ("analysis"/"smooth"/"execute"/"perturb"); [None]
    (the default) records nothing. *)

val smooth_columns :
  ?span:Flex_obs.Span.t -> options:options -> Elastic.analysis -> column_release list
(** Stage 2: smooth-sensitivity maximisation per aggregate column; depends
    on the request's epsilon/delta, so it runs per request. *)

val execute :
  ?span:Flex_obs.Span.t ->
  ?pool:Task_pool.t ->
  ?optimize:bool ->
  ?metrics:Metrics.t ->
  db:Database.t ->
  Ast.query ->
  (Executor.result_set, Errors.reason) result
(** Stage 3: the unmodified query on the underlying database, engine
    exceptions mapped to typed reasons. [pool] dispatches execution onto the
    columnar engine's morsel-parallel kernels; results are identical either way.
    [~optimize:true] (default false) routes execution through
    {!Optimizer.rewrite}, with [?metrics] doubling as cardinality statistics
    (paper §3.4). The privacy analysis never sees the rewritten plan: result
    multisets are identical up to floating-point rounding, so releases differ
    at most in row order — except float SUM/AVG, whose accumulation order
    join reorder and build-side swaps can re-associate, shifting low-order
    bits (well inside the noise scale). *)

val perturb :
  ?span:Flex_obs.Span.t ->
  rng:Rng.t ->
  options:options ->
  metrics:Metrics.t ->
  db:Database.t ->
  analysis:Elastic.analysis ->
  column_releases:column_release list ->
  Executor.result_set ->
  release
(** Stage 4: histogram bin enumeration (§4) plus Laplace/Cauchy noise on
    every aggregate cell. *)

val post_process :
  Flex_sql.Factor.suffix ->
  columns:string list ->
  Flex_engine.Value.t array list ->
  Executor.result_set
(** Stage 5 — the materialized-view read path: evaluate a post-processing
    suffix ({!Flex_sql.Factor}) over the rows of a stored noisy release whose
    columns are [columns] ([_k0..]/[_a0..]). HAVING filters the noisy cells
    under 3-valued logic, ORDER BY sorts with the engine's [Value.compare]
    total order (stable; positional/alias references were already resolved by
    the factoring), OFFSET/LIMIT slice, and the projection expressions are
    evaluated through the engine's own compiler, so arithmetic over released
    aggregates matches execution semantics bit for bit. Touches no database,
    no RNG and no budget: by the post-processing theorem the result costs
    epsilon = delta = 0 beyond what the core already paid. *)

val run :
  ?budget:Budget.t ->
  ?pool:Task_pool.t ->
  ?optimize:bool ->
  rng:Rng.t ->
  options:options ->
  db:Database.t ->
  metrics:Metrics.t ->
  Ast.query ->
  (release, Errors.reason) result
(** Execute one query end to end. When [budget] is given, it is charged
    [epsilon * aggregate-columns] before anything is released; [pool] is
    passed through to {!execute}.
    @raise Budget.Exhausted when the budget cannot afford the query. *)

val run_sql :
  ?budget:Budget.t ->
  ?pool:Task_pool.t ->
  ?optimize:bool ->
  rng:Rng.t ->
  options:options ->
  db:Database.t ->
  metrics:Metrics.t ->
  string ->
  (release, Errors.reason) result

val analyze_only :
  options:options ->
  metrics:Metrics.t ->
  string ->
  (Elastic.analysis * (string * Sens.t * Smooth.result) list, Errors.reason) result
(** The sensitivity computation without touching any database — what the
    paper's Table 2 times as "Elastic Sensitivity Analysis". *)

(** {2 Propose-test-release (paper §6)} *)

type ptr_release = {
  outcome : Flex_dp.Ptr.outcome;
  proposed_sensitivity : float;
  distance_bound : int;  (** elastic lower bound on distance to instability *)
  true_value : float;  (** sensitive; for experiments only *)
}

val run_ptr :
  rng:Rng.t ->
  options:options ->
  db:Database.t ->
  metrics:Metrics.t ->
  proposed_sensitivity:float ->
  string ->
  (ptr_release, Errors.reason) result
(** (epsilon, delta)-DP release of a scalar counting query at a *proposed*
    sensitivity: the elastic sensitivity function supplies the distance
    bound PTR tests. Far less noise than the smooth bound when the proposal
    comfortably exceeds ES(0); refuses when the database is too close to one
    where the proposal is unsound. *)

val confidence_intervals :
  ?alpha:float -> options:options -> release -> (string * float) list
(** Per-aggregate-column two-sided (1 - alpha) noise half-widths (default
    95%), computable without the true results. *)

val median_relative_error : release -> float option
(** Median percent error of the noisy result against the true result over
    all aggregate cells (the §5.2 utility metric). Rows are matched by their
    group keys under the engines' key equality; enumerated padding bins,
    which have no true row, are skipped. *)
