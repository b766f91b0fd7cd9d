(** Thread-safe memo table for elastic-sensitivity analyses.

    Keys are strings combining the canonicalized query
    ({!Flex_sql.Canon.cache_key}), the database-metrics fingerprint
    ({!Flex_engine.Metrics.fingerprint}) and the analysis option flags — so a
    change to any [mf]/[vr] metric or to the optimisation toggles changes
    the key and old entries simply stop being reachable. Rejections are
    cached too: they are deterministic functions of the same inputs.

    Capacity-bounded; insertion beyond capacity evicts in FIFO order. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** Default capacity: 4096 entries. *)

val key : sql_canonical:string -> fingerprint:string -> flags:string -> string

val find : 'a t -> key:string -> 'a option
(** Look [key] up, counting a hit or a miss. *)

val peek : 'a t -> key:string -> 'a option
(** Look [key] up without counting a hit or a miss: a probe that must leave
    no trace ({!Server.answer_hit}). *)

val count_hit : 'a t -> unit
(** Count one hit: a {!peek} that found its key and is then used, as a
    {!find} would have counted it. *)

val add : 'a t -> key:string -> 'a -> unit
(** Store [v] under [key] unless the key is already present (a racing
    computation stored it first). *)

val find_or_compute : 'a t -> key:string -> (unit -> 'a) -> 'a * bool
(** Returns [(value, was_hit)]. The compute function runs outside the lock
    (two racing misses may both compute; one result wins — acceptable for a
    pure function). *)

val hits : 'a t -> int
val misses : 'a t -> int
val length : 'a t -> int
val clear : 'a t -> unit
