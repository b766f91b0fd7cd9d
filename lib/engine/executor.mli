module Ast = Flex_sql.Ast

(** SQL query evaluation over a {!Database}. The executor plays the role of
    the paper's "any existing database": FLEX only parses queries and
    post-processes results, so the engine implements ordinary SQL semantics
    with no privacy awareness.

    Supported: projections with aliases and [*]/[t.*]; WHERE with 3-valued
    logic; inner/left/right/full/cross joins (hash join on equality keys,
    nested loop otherwise); USING/NATURAL; GROUP BY + HAVING with
    COUNT/SUM/AVG/MIN/MAX/MEDIAN/STDDEV (and DISTINCT variants); derived
    tables and chained CTEs; IN/EXISTS/scalar subqueries (correlated
    subqueries resolve free columns against enclosing scopes);
    UNION/EXCEPT/INTERSECT (with ALL); DISTINCT; ORDER BY (including
    unprojected source columns) with LIMIT/OFFSET.

    Implementation: every execution walks a logical plan ({!Plan}),
    subqueries included. Each select body is offered to the {!Columnar}
    batch engine first; the row pipeline runs whatever it declines. The
    row pipeline compiles expressions once per relation into closures with
    column offsets pre-resolved ({!Compiled}); rows travel in dynamic
    arrays ({!Row_vec}); joins, grouping, DISTINCT and set operations share
    a [Value.t array]-keyed hashtable ({!Row_table}). The original
    AST interpreter is kept as {!Reference}, the differential-testing
    oracle. *)

exception Error of string

type header = Compiled.header = { alias : string option; name : string }

type result_set = { columns : string list; rows : Value.t array list }

val columnar_fallbacks : unit -> int
(** Lifetime count (process-global) of select bodies the row pipeline
    evaluated because {!Columnar} declined them while it was allowed to run:
    {!Columnar.enabled} on, no bound CTEs, no correlated scope, no EXPLAIN
    ANALYZE trace. A {!Columnar.plan_query} miss retried as
    {!Columnar.plan_select} counts only if the retry also falls back.
    Subqueries always run a correlated scope, so they never count. *)

val run_plan : ?pool:Task_pool.t -> Database.t -> Plan.t -> result_set
(** Execute a logical plan. [?pool] is handed to the {!Columnar} engine,
    whose selection, join-probe and materialisation kernels split large
    inputs into morsels across it ({!Parallel.gather}); the row pipeline
    that runs what the columnar engine declines is sequential. Results are
    bit-identical to a run without a pool — every kernel preserves row
    order and evaluation order (enforced by the differential suite);
    inputs below {!Parallel.threshold} rows run sequentially.
    Optimized plans ({!Optimizer.rewrite}) may permute row order relative to
    {!Plan.of_query} (hash-join build-side swaps and join reorder follow the
    probe relation's order), so the two compare as multisets.
    @raise Error (and {!Eval.Error} / {!Aggregate.Error}) on semantic
    errors: unknown tables or columns, arity mismatches, aggregates outside
    grouping. *)

val run : ?pool:Task_pool.t -> Database.t -> Ast.query -> result_set
(** [run_plan (Plan.of_query q)]: the query as written, unoptimized. *)

val run_plan_analyzed :
  ?pool:Task_pool.t -> Database.t -> Plan.t -> result_set * Plan.Analyze.trace
(** {!run_plan} with EXPLAIN ANALYZE collection: every plan operator records
    its output cardinality and inclusive elapsed time into the returned
    trace (paths follow the {!Plan.Analyze} scheme, so
    {!Plan.render_analyzed} can annotate the plan text). The result set is
    identical to [run_plan]'s — tracing only observes. *)

val explain_analyze :
  ?pool:Task_pool.t ->
  ?optimize:bool ->
  ?metrics:Metrics.t ->
  ?show_rows:bool ->
  Database.t ->
  Ast.query ->
  string * result_set
(** Execute [q] (through the optimizer by default) collecting per-operator
    stats and render the annotated plan. [show_rows] (default [true])
    prints actual row counts; pass [false] to render counts as [?] — actual
    cardinalities of private tables are gated exactly like EXPLAIN's
    estimates (see {!Plan.Analyze.suffix}). The result set is returned too,
    but EXPLAIN ANALYZE surfaces normally discard it. *)

val run_sql :
  ?pool:Task_pool.t ->
  ?optimize:bool ->
  ?metrics:Metrics.t ->
  Database.t ->
  string ->
  (result_set, string) result
(** Parse, plan and run; all failures as [Error message]. The plan is
    {!Optimizer.plan} under [~optimize:true] and {!Plan.of_query} otherwise
    (the default). *)

val run_sql_exn :
  ?pool:Task_pool.t ->
  ?optimize:bool ->
  ?metrics:Metrics.t ->
  Database.t ->
  string ->
  result_set

val resolve_opt : header array -> Ast.col_ref -> int option
(** Column resolution: qualified references match the alias; unqualified
    references take the first name match. *)
