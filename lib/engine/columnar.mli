module Ast = Flex_sql.Ast

(** Columnar batch execution: vectorized filter / hash-equijoin / GROUP BY /
    top-K kernels over {!Chunk} columns for the recognised subset of logical
    plans ({!Plan}): scan chains with pushed-down filters and left-deep
    INNER equijoins built on either side ({!Plan.rel.Join.build_left}),
    conjunctive predicates, column projections and group keys, standard
    aggregates. A filter whose conjuncts are all typed runs as kernels:
    column-vs-literal int and float comparisons become inclusive ranges of
    {!Value.compare}'s order (NaN sorts below every float), and the string
    comparisons on one column one kernel over its dictionary codes: [=]
    and [<>] by one dictionary lookup per literal, ranges through a pass
    table over the dictionary (built when it is no larger than the rows
    filtered). Each morsel refines its selection in place and
    allocates only its survivors; an aggregate without GROUP BY allocates
    no per-row group ids. The executor offers it every select body it may
    run — {!enabled} on, no bound CTEs, no correlated scope, no EXPLAIN
    ANALYZE trace — and is the one place that checks the switch.

    Every entry point returns [None] — and the caller runs the row pipeline
    unchanged — when the plan falls outside the subset or raises any
    engine error during columnar evaluation (the columnar plan evaluates
    predicates on pre-join supersets of the row pipeline's input, so its
    error set is a superset: falling back on error reproduces the row
    pipeline's result or its error exactly). Accepted plans return
    results bit-identical to the row pipeline, which is what keeps DP
    releases invariant under {!enabled}. *)

type header = Compiled.header = { alias : string option; name : string }

type result_set = { chead : header array; crows : Value.t array Row_vec.t }

val enabled : bool ref
(** Master switch, on by default; the differential suites and the engine
    benchmark toggle it. Results are bit-identical either way, so toggling
    it never changes a DP release. *)

val plan_query : ?pool:Task_pool.t -> Database.t -> Plan.t -> result_set option
(** A whole CTE-free plan whose body is one ungrouped select, including
    ORDER BY, LIMIT and OFFSET. A body with GROUP BY, HAVING or an
    aggregate is declined before any work; the executor runs it through
    {!plan_select}. A build-left join emits its matches in the row
    engine's build-left order: the joined table's rows ascending and,
    within each, the prefix rows in logical order. *)

val plan_select : ?pool:Task_pool.t -> Database.t -> Plan.select_plan -> result_set option
(** One select body, grouped or not (the executor's sort/slice tail runs on
    top, including its hidden-order-key re-evaluation). *)
