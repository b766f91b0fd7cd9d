(** Structured audit log: one JSON line per request, in the spirit of the
    paper's Table 2 — what ran, who ran it, what it cost, and where the time
    went (parse / analysis / smoothing / execution / perturbation). The log
    never contains result values, only query text and accounting. *)

type outcome =
  | Granted
  | Replayed
      (** served bit-identically from the release store — zero budget
          charged; the replay of a public value is still a data access
          worth recording *)
  | Derived
      (** answered by post-processing a stored release (noisy materialized
          view): the request's core hit the store and its HAVING/ORDER
          BY/LIMIT/projection suffix was evaluated over the stored noisy
          rows — zero budget, no database or RNG access, but a distinct
          outcome from {!Replayed} so operators can tell exact replay from
          view-based derivation *)
  | Rejected of string  (** §5.1 bucket: parse / unsupported / other *)
  | Refused  (** budget refusal *)
  | Failed  (** internal error after admission *)
  | Analyzed
      (** EXPLAIN ANALYZE ran the query against the private database
          (uncharged, gated behind the [explain_estimates] opt-in) — the
          data access itself is what's being recorded *)

type event = {
  analyst : string;
  sql : string;
  request_id : string option;
      (** the wire request's client-chosen correlation id, when given —
          emitted as an ["id"] field so client and server logs join on it *)
  outcome : outcome;
  epsilon : float;  (** charged (0 when not granted) *)
  delta : float;
  max_noise_scale : float;  (** worst aggregate column; 0 when not granted *)
  cache_hit : bool;
  parse_ns : float;
  analysis_ns : float;  (** ~0 on cache hits — the Table 2 story *)
  smooth_ns : float;
  execution_ns : float;
  perturbation_ns : float;
  total_ns : float;
      (** end-to-end request time, including queue/admission work the stage
          fields don't cover; always >= the sum of the stages *)
}

type t

val null : unit -> t
(** Drops every event (benchmarks). *)

val to_file : ?max_bytes:int -> string -> t
(** Append JSON lines to a file. With [max_bytes], the file is rotated to
    [path ^ ".1"] (replacing any previous rotation) whenever appending the
    next line would exceed the limit — rotation happens only at line
    boundaries, so no generation ever contains a torn JSON line. The byte
    count is seeded from the existing file size, so the limit holds across
    restarts. *)

val to_buffer : Buffer.t -> t
(** Collect lines in memory (tests). *)

val log : t -> event -> unit
(** Thread-safe; adds a wall-clock [ts] field. *)

val count : t -> int
(** Number of events logged since creation. *)

val close : t -> unit
