(** Morsel dispatch for the {!Columnar} engine's data-parallel kernels.

    {!gather} is the engine's one dispatch point: it splits an input of [n]
    rows into chunk ranges and runs them on a {!Task_pool}, or tells the
    caller to run its own sequential loop when the pool is absent, shut
    down, no wider than one effective worker, or the input is below
    {!threshold} rows. Chunk results come back in chunk order, so a caller
    that reassembles them in that order returns bit-identical results to
    its sequential loop. Chunk functions must be safe to call concurrently
    from several domains on disjoint ranges. The row pipeline
    ({!Executor}) is sequential and never dispatches. *)

val threshold : int ref
(** Inputs below this many rows run sequentially (default 2048). Mutable so
    tests and smoke benchmarks can push tiny inputs through the parallel
    path. *)

val morsel : int ref
(** Target rows per chunk (default 1024); inputs smaller than two morsels
    never split. Mutable for the same reason as {!threshold}. *)

val host_cpus : int ref
(** CPUs available to this process ([Domain.recommended_domain_count] at
    startup). Dispatch caps its effective width at
    [min (Task_pool.domains pool) host_cpus] and runs sequentially when that
    leaves one worker — a pool wider than the host buys no parallelism but
    pays full coordination cost. Mutable so tests can simulate wider
    hosts. *)

val effective_domains : Task_pool.t option -> int
(** The capped worker count dispatch decisions use; [1] means every
    kernel falls back to its sequential loop. *)

val ops_counts : unit -> int * int
(** Lifetime [(parallel, sequential)] dispatch counts across the process
    (counted at {!gather}), for the telemetry surface. *)

val gather : Task_pool.t option -> int -> (int -> int -> 'a) -> 'a array option
(** [gather pool n f] runs [f lo hi] over chunk ranges covering [0, n) and
    returns per-chunk results in chunk order; [None] means "run it
    sequentially yourself" (no pool, or below threshold). *)
