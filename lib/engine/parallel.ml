(* Morsel dispatch for the columnar engine's data-parallel kernels:
   predicate selection, hash-join probes and output-row materialisation.

   [gather] takes an optional {!Task_pool.t}; with no pool, a pool that has
   been shut down, or an input below [threshold] rows, it returns [None]
   and the caller runs its plain sequential loop, so the sequential and
   parallel paths are the same code below the cutover. Chunk results come
   back in chunk order, which lets every caller reassemble them
   order-preservingly: the parallel run must return bit-identical results
   to the sequential one (the differential suites enforce this), so no
   kernel may trade determinism for speed.

   Chunk functions receive disjoint index ranges and write only chunk-local
   state (or disjoint slots of a shared result array), which is the whole
   synchronization story: the pool's join provides the happens-before edge
   that publishes worker writes to the caller. The row pipeline in
   {!Executor} is sequential and never dispatches. *)

(* Inputs below this many rows run sequentially: at (sub-)thousands of rows
   the fork/join handshake costs more than the scan. Mutable so tests and
   smoke benches can force tiny inputs through the parallel path. *)
let threshold = ref 2048

(* Target rows per chunk. Chunks are capped at 4x the pool's domains, so a
   large input gets a few generously sized morsels per domain (dynamic
   claiming in the pool evens out skew). Mutable for the same reason as
   [threshold]: inputs small enough to fit one morsel never split. *)
let morsel = ref 1024

(* Lifetime dispatch counters for the telemetry surface: how many kernel
   invocations actually split across domains vs. ran the sequential loop.
   Counted in [gather], the one dispatch point. *)
let parallel_ops = Atomic.make 0
let sequential_ops = Atomic.make 0
let ops_counts () = (Atomic.get parallel_ops, Atomic.get sequential_ops)

(* CPUs actually available to this process. A pool can be created with more
   domains than the host has cores (service configs are written for target
   hardware, not the machine they land on); dispatching across them then
   buys no parallelism and pays full coordination cost — the BENCH_parallel
   regressions on a 1-CPU host. Dispatch therefore caps its effective
   width at the host width and falls back to the sequential loop when the
   cap leaves a single worker. Mutable so tests and smoke benches can
   simulate wider hosts. *)
let host_cpus = ref (Domain.recommended_domain_count ())

let effective_domains pool =
  match pool with
  | None -> 1
  | Some p -> min (Task_pool.domains p) (max 1 !host_cpus)

(* [chunk_count pool n] is how many chunks to cut [n] rows into, or 0 to
   run sequentially. *)
let chunk_count pool n =
  match pool with
  | None -> 0
  | Some p ->
    let d = effective_domains pool in
    if (not (Task_pool.is_parallel p)) || d <= 1 || n < !threshold then 0
    else begin
      let c = min (4 * d) (max 1 (n / !morsel)) in
      if c <= 1 then 0 else c
    end

(* [gather pool n f]: run [f lo hi] over the chunk ranges of [0, n) and
   return the per-chunk results in chunk order, or [None] when the input
   should run sequentially. *)
let gather pool n (f : int -> int -> 'a) : 'a array option =
  let chunks = chunk_count pool n in
  if chunks = 0 then begin
    ignore (Atomic.fetch_and_add sequential_ops 1);
    None
  end
  else begin
    ignore (Atomic.fetch_and_add parallel_ops 1);
    let p = Option.get pool in
    let results = Array.make chunks None in
    Task_pool.run p ~chunks (fun i ->
        let lo = i * n / chunks and hi = (i + 1) * n / chunks in
        results.(i) <- Some (f lo hi));
    Some (Array.map (function Some r -> r | None -> assert false) results)
  end
