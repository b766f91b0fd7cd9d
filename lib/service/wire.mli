(** The service wire protocol: line-delimited JSON, one request line in, one
    response line out, over a plain TCP stream. Encode/decode round-trips
    exactly (property-tested), so client and server can be exercised
    independently of any socket. *)

module Json = Json

type request =
  | Hello of { analyst : string; epsilon : float option; delta : float option }
      (** register (or re-attach) an analyst; optional total budget limits,
          server defaults otherwise *)
  | Query of {
      sql : string;
      epsilon : float option;
      delta : float option;
      id : string option;
          (** optional client-chosen correlation id: echoed verbatim as a
              top-level ["id"] field of the response line and recorded in
              the audit event and flight record. Older peers on either side
              simply omit/ignore it. *)
    }  (** a DP query; optional per-query epsilon/delta overrides *)
  | Analyze of { sql : string }  (** sensitivity analysis only — free *)
  | Explain of { sql : string }
      (** the optimizer's logical and optimized plans — free, no execution *)
  | Budget_info  (** the session analyst's ledger state *)
  | Stats  (** service counters: cache, admissions, analysts *)
  | Quit

type column_analysis = {
  column : string;
  sensitivity : string;  (** elastic sensitivity as a polynomial in k *)
  smooth_bound : float;
  noise_scale : float;
}

type response =
  | Result of {
      columns : string list;
      rows : Json.t list list;
      epsilon_spent : float;
      delta_spent : float;
      remaining_epsilon : float;
      remaining_delta : float;
      cache_hit : bool;  (** the sensitivity analysis was memoized *)
      cached : bool;
          (** the answer came from the release store at zero additional
              budget ([epsilon_spent] = 0) — same bytes as the first answer
              for this (core, budget, epoch). Decodes to [false] from older
              servers that never replay. *)
      derived : bool;
          (** the store hit answered a {e different} query than the one that
              paid: the request factored into a stored core plus a
              post-processing suffix (HAVING / ORDER BY / LIMIT / projection
              arithmetic) that was evaluated over the stored noisy rows.
              Implies [cached]; exact replays keep [derived = false].
              Decodes to [false] from older servers. *)
      bins_enumerated : bool;
      noise_scales : (string * float) list;
    }
  | Analysis of {
      cache_hit : bool;
      is_histogram : bool;
      joins : int;
      columns : column_analysis list;
    }
  | Plan_report of { logical : string; optimized : string }
      (** rendered plans with estimated cardinalities, answering {!Explain} *)
  | Rejected of { bucket : string; reason : string }
      (** §3.7.1 typed rejection; [bucket] is the §5.1 class
          (parse / unsupported / other) *)
  | Refused of {
      analyst : string;
      requested_epsilon : float;
      requested_delta : float;
      remaining_epsilon : float;
      remaining_delta : float;
    }  (** budget refusal — the query was admissible but unaffordable *)
  | Budget_report of {
      analyst : string;
      epsilon_limit : float;
      delta_limit : float;
      epsilon_spent : float;
      delta_spent : float;
      remaining_epsilon : float;
      remaining_delta : float;
      queries : int;
    }
  | Stats_report of {
      queries : int;
      granted : int;
      rejected : int;
      refused : int;
      cache_hits : int;
      cache_misses : int;
      cache_entries : int;
      release_hits : int;  (** release-store replays served *)
      release_misses : int;
      release_derived : int;
          (** store hits answered by evaluating a post-processing suffix
              over the stored rows, rather than byte-identical replay *)
      release_evictions : int;
          (** capacity + stale-epoch drops; all release_* fields decode to 0
              from older servers without a release store *)
      release_entries : int;
      release_hit_rate : float;
      analysts : int;
      uptime_seconds : float;
      qps : float;
      metrics : Json.t;
          (** the full registry snapshot ({!Server.registry} rendered as
              JSON families); [Null] from servers without telemetry *)
    }
  | Analyzed_report of { plan : string }
      (** EXPLAIN ANALYZE: the executed plan annotated with per-operator
          timings (row counts gated by the server's EXPLAIN opt-in) *)
  | Error_msg of string  (** protocol-level error (bad JSON, unknown op, ...) *)
  | Bye

val request_to_json : request -> Json.t
val request_of_json : Json.t -> (request, string) result
val response_to_json : response -> Json.t
val response_of_json : Json.t -> (response, string) result

val request_id : request -> string option
(** The correlation id carried by a [Query], if any. *)

val request_to_line : request -> string
val request_of_line : string -> (request, string) result

val response_to_line : ?id:string -> response -> string
(** [id] (the request's correlation id) is appended as a top-level ["id"]
    field; decoders that don't know it ignore it. A [Result] is encoded by
    {!encode_result} and {!splice}. *)

type result_line
(** A [Result] line encoded once, around the three fields that change from
    one request to the next: [remaining_epsilon], [remaining_delta] and
    [id]. It holds the encoded text of every other field. *)

val encode_result : response -> result_line
(** Encode a [Result] without its remaining budget.
    @raise Invalid_argument on any other response. *)

val splice :
  ?id:string -> remaining_epsilon:float -> remaining_delta:float -> result_line -> string
(** The reply line: byte for byte [response_to_line ?id (Result r)] for the
    [r] the encoding came from, with its remaining budget replaced by these
    values. *)

val response_of_line : string -> (response, string) result

val response_id_of_line : string -> string option
(** The echoed correlation id on a response line, if present. *)

val json_of_value : Flex_engine.Value.t -> Json.t
(** How result cells travel: NULL/bool/number/string. *)
