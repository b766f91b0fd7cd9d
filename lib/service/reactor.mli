(** Event-driven TCP front end: a single readiness loop over nonblocking
    sockets feeding a bounded worker pool.

    This is the service's only front end. A thread per connection would
    spend an OS thread — and under load, a context switch per request — on
    every analyst; with replay/derivation answering warm queries in
    microseconds, that connection layer would be the bottleneck. Instead:

    - {b one reactor thread} multiplexes every connection with
      [Unix.select]: it accepts, reads, frames line-delimited requests
      incrementally (no [in_channel], no blocking reads), decodes each
      request once, and writes each response as soon as it is queued,
      selecting a socket for writability only after a short write — a
      slow reader never blocks anything but its own connection;
    - {b store hits on the reactor}: a zero-budget replay or derivation
      is answered by {!Server.answer_hit} on the reactor thread itself,
      from the stored release its single probe found (a probe that
      misses counts nothing). It does no blocking I/O but its audit line,
      and the workers share the reactor's runtime lock, so the handoff
      would only add latency. A hit is never shed;
    - {b a bounded worker pool} ({!Workers}) runs {!Server.handle} for
      every other request: misses, which may charge and journal (the
      blocking writes and fsyncs the workers overlap), and every other op.
      Requests from one connection execute serially (pipelined requests
      are answered in order and session state never races); requests from
      different connections interleave;
    - {b admission control}: when the worker queue is full the next
      request bound for it is answered [Rejected {bucket = "overload"}]
      after its JSON decode but without being SQL-parsed, executed, or
      charged — load shedding with a typed reply, audit-logged via
      {!Server.log_overload}. Connections beyond [max_connections] are
      refused the same way at accept. Per-analyst token-bucket rate limits
      live one layer down, in {!Server.config.rate_limit_qps}, and apply
      to hits too;
    - {b backpressure}: a connection with [max_pipeline] framed requests
      waiting, or [max_output_bytes] of unread responses, is simply not
      read from until it drains — the kernel's TCP window pushes back on
      the client, and server memory stays bounded;
    - {b idle sweep}: connections silent for [idle_timeout] seconds are
      closed (half-open peers, slowloris partial frames, dead clients) —
      no fd outlives its usefulness.

    The privacy-critical ordering lives in the server: charge → journal →
    respond all happen inside {!Server.handle}, on a worker thread for
    every request that may charge. A request the probe calls a hit is
    served from the entry in hand and never charges, whatever evicts or
    strands that entry meanwhile.

    Accepted sockets get [TCP_NODELAY]. The loop is built on
    [Unix.select], so [max_connections] must stay well under [FD_SETSIZE]
    (1024 on Linux); the default cap is 900. *)

type config = {
  workers : int;  (** worker threads executing requests (default 4) *)
  max_pending : int;
      (** worker-queue capacity: framed requests admitted but not yet
          executing; beyond it, requests are shed (default 256) *)
  max_connections : int;
      (** connection cap; an accept beyond it is answered with an
          overload rejection and closed (default 900 — select limit) *)
  idle_timeout : float;
      (** seconds of silence before a connection is reaped; 0 disables
          (default 300) *)
  max_line_bytes : int;
      (** frame cap: a longer request line is answered with an error and
          the connection closed (default 1 MiB) *)
  max_pipeline : int;
      (** per-connection framed-but-unserved request cap before the
          reactor stops reading that socket (default 64) *)
  max_output_bytes : int;
      (** per-connection unread-response cap before the reactor stops
          serving that connection's queue (default 1 MiB) *)
}

val default_config : config

type t

val listen : ?backlog:int -> ?port:int -> ?config:config -> Server.t -> t
(** Bind 127.0.0.1 (port 0 — the default — picks an ephemeral one), spawn
    the worker pool, and register [flex_connections_open],
    [flex_requests_inflight], [flex_reactor_answered_total],
    [flex_overload_rejections_total] and [flex_idle_closed_total] on the
    server's metrics registry (when telemetry is on). The loop itself
    starts with {!start} or {!run}. *)

val port : t -> int

val run : t -> unit
(** The readiness loop, in the calling thread; returns after {!stop}. *)

val start : t -> Thread.t
(** {!run} on a background thread. *)

val stop : t -> unit
(** Stop accepting and reading, let in-flight requests finish and their
    responses flush (bounded by a few seconds), then close every
    connection and join the loop and the workers. The ledger is quiescent
    when this returns. Idempotent. *)

type stats = {
  connections_open : int;
  accepted_total : int;
  answered_total : int;
      (** store hits answered on the reactor thread
          ([flex_reactor_answered_total]) *)
  dispatched_total : int;  (** requests handed to the worker pool *)
  shed_total : int;  (** requests answered with the overload rejection *)
  conn_refused_total : int;  (** accepts turned away at [max_connections] *)
  idle_closed_total : int;  (** connections reaped by the idle sweep *)
  requests_inflight : int;
      (** admitted to the worker pool, not yet done; a hit answered on the
          reactor is never in flight *)
}

val stats : t -> stats
