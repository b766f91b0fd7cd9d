(** Store of finalized noisy releases, for zero-budget replay.

    Once a DP release has been handed to any analyst it is public: returning
    the {e same} bytes for an identical (query, budget, epoch, mechanism)
    request is post-processing and costs no additional privacy budget. The
    store keys finished releases on exactly the tuple that determines the
    mechanism instance — canonical SQL, metrics fingerprint (the data
    epoch), mechanism flags, and the per-column (epsilon, delta) — so a hit
    can be replayed bit-identically without touching the database, the RNG,
    or the ledger. Any change to the tuple (new data epoch, different
    budget, different mechanism) misses and pays the full pipeline.

    The same argument extends past exact replay: when the server factors a
    query into a releasable core plus a post-processing suffix
    ({!Flex_sql.Factor}), [sql_canonical] is the {e core}'s canonical text,
    so every HAVING/ORDER BY/LIMIT/projection variant of one dashboard core
    collides onto a single stored release — a noisy materialized view — and
    is answered by evaluating its suffix over [rows] at zero budget.

    Persistence is a JSON-lines {!Flex_dp.Journal}, the ledger's file
    discipline: floats in round-trip precision, each release written and
    flushed {e before} it is servable. The order a server must observe is:
    charge the ledger, journal the release here, only then respond — so a
    crash can lose an un-acknowledged answer (and, conservatively, its
    charge) but can never mint a second, differently-noised answer for a key
    that was already released.

    Admission is bounded and fair: at most [capacity] entries, and when full
    an insert first evicts from analysts holding at least their proportional
    share — one analyst's churn cannot evict the fleet's working set.
    Eviction forfeits replay for that key (a later identical request is
    charged afresh, correctly); the journal still records every release. *)

type entry = {
  key : string;  (** full composite key, from {!val-key} *)
  fingerprint : string;  (** data epoch, for {!invalidate_epoch} *)
  analyst : string;  (** who paid for the release (fairness accounting) *)
  epsilon : float;  (** per-column epsilon the release was keyed on *)
  delta : float;
  epsilon_spent : float;  (** total charged when the release was minted *)
  delta_spent : float;
  columns : string list;
  rows : Flex_engine.Value.t array list;
      (** the released cells as runtime values, so a stored release doubles
          as the input of {!Flex_core.Flex.post_process} — the noisy
          materialized view a derived query's suffix evaluates over *)
  bins_enumerated : bool;
  noise_scales : (string * float) list;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;  (** capacity evictions since creation *)
  stale_dropped : int;  (** entries stranded by an epoch flip (or at load) *)
  entries : int;
  capacity : int;
}

type t

val key :
  sql_canonical:string ->
  fingerprint:string ->
  flags:string ->
  epsilon:float ->
  delta:float ->
  string
(** The composite cache key; floats are rendered in round-trip precision
    ([%.17g] text, {!Json.number_string}) so distinct budgets can never
    collide. *)

val create : ?capacity:int -> unit -> t
(** In-memory store (default capacity 4096 releases). *)

val open_ : ?sync:bool -> ?capacity:int -> fingerprint:string -> string -> t
(** Open (creating if absent) a journaled store, replayed under the
    {!Flex_dp.Journal} discipline (a torn final line is cut off: that
    release was never acknowledged). Journal entries from the current
    [fingerprint] epoch are re-admitted in order under the same capacity
    policy as live inserts, so a restarted server replays exactly what it
    would have served; entries from other epochs count as [stale_dropped].
    When replay leaves any dead records behind — stranded epochs, capacity
    evictions — the journal is compacted to the live working set
    ({!Flex_dp.Journal.rewrite}, insertion order preserved), so the file
    stays proportional to the store across restarts instead of growing
    without bound. [sync] fsyncs after every record.
    @raise Invalid_argument on interior journal corruption. *)

val close : t -> unit
val path : t -> string option

val find : t -> string -> entry option
(** Lookup by composite key, counting a hit or a miss. *)

val peek : t -> string -> entry option
(** Lookup by composite key, counting nothing: it is the reactor's probe
    ({!Server.answer_hit}), which must leave no trace. *)

val count_hit : t -> unit
(** Count one hit: a {!peek} that found its release and served it, as a
    {!find} would have counted it. *)

val record : t -> entry -> entry
(** Journal (flush, fsync when [sync]) and admit a finished release, then
    return the entry to serve. If the key is already present — two sessions
    raced the same cold key — the {e stored} entry wins and is returned, so
    every answer that leaves the server for a given key is the same bytes;
    the loser's noise is discarded unreleased. *)

val invalidate_epoch : t -> keep:string -> int
(** Drop every entry whose fingerprint differs from [keep] (data reload /
    metrics refresh), returning how many were stranded. The journal is
    untouched: it is an audit record, not the working set. *)

val stats : t -> stats
val length : t -> int
