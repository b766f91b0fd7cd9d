module Registry = Flex_obs.Registry
module Clock = Flex_obs.Clock

type config = {
  workers : int;
  max_pending : int;
  max_connections : int;
  idle_timeout : float;
  max_line_bytes : int;
  max_pipeline : int;
  max_output_bytes : int;
}

let default_config =
  {
    workers = 4;
    max_pending = 256;
    max_connections = 900;
    idle_timeout = 300.0;
    max_line_bytes = 1 lsl 20;
    max_pipeline = 64;
    max_output_bytes = 1 lsl 20;
  }

(* All connection state is owned by the reactor thread. Workers never touch
   a [conn]: they hand finished responses back through [t.completions] and
   the wake pipe, and the reactor applies them. The reactor answers store
   hits itself and writes those replies directly. *)
type conn = {
  fd : Unix.file_descr;
  session : Server.session;
  partial : Buffer.t;  (* bytes of an incomplete frame *)
  inbox : string Queue.t;  (* framed requests not yet admitted *)
  outq : string Queue.t;  (* response lines, '\n' included, not yet written *)
  mutable out_off : int;  (* bytes of the head of [outq] already written *)
  mutable out_bytes : int;  (* total unwritten bytes across [outq] *)
  mutable busy : bool;  (* one request in the worker pool *)
  mutable read_closed : bool;  (* EOF seen (or reads abandoned) *)
  mutable closing : bool;  (* close once the output drains *)
  mutable dead : bool;  (* fd closed; drop late completions *)
  mutable last_activity : float;  (* seconds; reads and writes both count *)
}

type completion = { cc : conn; line : string; close : bool }

type stats = {
  connections_open : int;
  accepted_total : int;
  answered_total : int;
  dispatched_total : int;
  shed_total : int;
  conn_refused_total : int;
  idle_closed_total : int;
  requests_inflight : int;
}

type t = {
  server : Server.t;
  config : config;
  sock : Unix.file_descr;
  lport : int;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  pool : Workers.t;
  lock : Mutex.t;  (* guards completions, stopping, lifecycle flags *)
  completions : completion Queue.t;
  stopped : Condition.t;
  mutable stopping : bool;
  mutable finished : bool;  (* the loop has exited *)
  mutable cleaned : bool;  (* listener/pipe closed, pool joined *)
  mutable loop_thread : Thread.t option;
  conns : (Unix.file_descr, conn) Hashtbl.t;  (* reactor thread only *)
  (* counters below are mutated by the reactor thread only; [stats] reads
     them without a lock (plain int loads) *)
  mutable open_count : int;
  mutable accepted_total : int;
  mutable answered_total : int;  (* store hits served on the reactor thread *)
  mutable shed_total : int;
  mutable conn_refused_total : int;
  mutable idle_closed_total : int;
}

let now_s () = Clock.now_ns () /. 1e9

let overload_line =
  Wire.response_to_line
    (Wire.Rejected
       {
         bucket = "overload";
         reason = "server overloaded: request queue is full, retry later";
       })
  ^ "\n"

let conn_refused_line =
  Wire.response_to_line
    (Wire.Rejected
       {
         bucket = "overload";
         reason = "server overloaded: connection limit reached, retry later";
       })
  ^ "\n"

let error_line msg = Wire.response_to_line (Wire.Error_msg msg) ^ "\n"

let wake t =
  try ignore (Unix.write t.wake_w (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error _ -> ()
(* a full pipe means a wake is already pending — that's all we need *)

let register_collectors t =
  match Server.registry t.server with
  | None -> ()
  | Some reg ->
    Registry.collect reg ~help:"Connections currently open on the reactor"
      ~kind:`Gauge "flex_connections_open" (fun () ->
        [ ([], float_of_int t.open_count) ]);
    Registry.collect reg
      ~help:
        "Requests admitted to the worker pool and not yet completed (workers only: \
         the store hits the reactor answers itself are never in flight)"
      ~kind:`Gauge "flex_requests_inflight" (fun () ->
        [ ([], float_of_int (Workers.inflight t.pool)) ]);
    Registry.collect reg
      ~help:"Store hits (zero-budget replays and derivations) answered on the reactor thread"
      ~kind:`Counter "flex_reactor_answered_total" (fun () ->
        [ ([], float_of_int t.answered_total) ]);
    Registry.collect reg
      ~help:"Requests and connections shed by admission control" ~kind:`Counter
      "flex_overload_rejections_total" (fun () ->
        [
          ([ ("reason", "queue") ], float_of_int t.shed_total);
          ([ ("reason", "connections") ], float_of_int t.conn_refused_total);
        ]);
    Registry.collect reg ~help:"Connections closed by the idle sweep"
      ~kind:`Counter "flex_idle_closed_total" (fun () ->
        [ ([], float_of_int t.idle_closed_total) ])

let listen ?(backlog = 64) ?(port = 0) ?(config = default_config) server =
  if config.workers < 1 then invalid_arg "Reactor.listen: workers must be >= 1";
  if config.max_pending < 1 then invalid_arg "Reactor.listen: max_pending must be >= 1";
  if config.max_connections < 1 then
    invalid_arg "Reactor.listen: max_connections must be >= 1";
  let sock = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.setsockopt sock SO_REUSEADDR true;
  Unix.bind sock (ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen sock backlog;
  Unix.set_nonblock sock;
  let lport =
    match Unix.getsockname sock with ADDR_INET (_, p) -> p | _ -> assert false
  in
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let t =
    {
      server;
      config;
      sock;
      lport;
      wake_r;
      wake_w;
      pool = Workers.create ~workers:config.workers ~capacity:config.max_pending ();
      lock = Mutex.create ();
      completions = Queue.create ();
      stopped = Condition.create ();
      stopping = false;
      finished = false;
      cleaned = false;
      loop_thread = None;
      conns = Hashtbl.create 64;
      open_count = 0;
      accepted_total = 0;
      answered_total = 0;
      shed_total = 0;
      conn_refused_total = 0;
      idle_closed_total = 0;
    }
  in
  register_collectors t;
  t

let port t = t.lport

let stats t =
  {
    connections_open = t.open_count;
    accepted_total = t.accepted_total;
    answered_total = t.answered_total;
    dispatched_total = (Workers.stats t.pool).submitted;
    shed_total = t.shed_total;
    conn_refused_total = t.conn_refused_total;
    idle_closed_total = t.idle_closed_total;
    requests_inflight = Workers.inflight t.pool;
  }

(* ------------------------------------------------------------ connections *)

let close_conn t c =
  if not c.dead then begin
    c.dead <- true;
    Hashtbl.remove t.conns c.fd;
    t.open_count <- t.open_count - 1;
    (try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

let write_conn t c =
  let continue = ref true in
  while !continue && not (Queue.is_empty c.outq) do
    let s = Queue.peek c.outq in
    let remaining = String.length s - c.out_off in
    match Unix.write_substring c.fd s c.out_off remaining with
    | written ->
      c.out_bytes <- c.out_bytes - written;
      if written = remaining then begin
        ignore (Queue.pop c.outq);
        c.out_off <- 0
      end
      else begin
        c.out_off <- c.out_off + written;
        continue := false
      end;
      if written > 0 then c.last_activity <- now_s ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
      continue := false
    | exception Unix.Unix_error _ ->
      close_conn t c;
      continue := false
  done

(* Queue a reply and write it at once when nothing is queued ahead of it.
   Output stays queued only after a short write, and only then does the
   loop select the socket for writability. *)
let enqueue_out t c s =
  let idle = Queue.is_empty c.outq in
  Queue.push s c.outq;
  c.out_bytes <- c.out_bytes + String.length s;
  if idle then write_conn t c

(* Execute one request on a worker thread: everything here besides
   [Server.handle] (which never raises) only moves bytes and posts the
   completion. *)
let job t c req () =
  let line =
    Wire.response_to_line ?id:(Wire.request_id req) (Server.handle t.server c.session req) ^ "\n"
  in
  Mutex.protect t.lock (fun () ->
      Queue.push { cc = c; line; close = req = Wire.Quit } t.completions);
  wake t

(* Serve the connection's framed requests in order until one goes to a
   worker or the connection must wait. Each line is decoded here, once; a
   line that does not decode is answered with its error at once. A store
   hit ({!Server.answer_hit}) is answered on this thread: it costs
   microseconds and no I/O but an audit line, and the handoff to a worker
   and back would cost more than the answer, for no parallelism (workers
   share the runtime lock). Every other request — a miss that may charge
   and journal, or any other op — goes to a worker, or is shed when the
   queue is full. Serial per connection: while a request is on a worker
   none of its successors is served, so pipelined requests are answered in
   order and session state (hello, the per-session RNG) never races with
   itself. *)
let rec pump t c =
  if
    (not c.busy) && (not c.closing) && (not c.dead)
    && c.out_bytes <= t.config.max_output_bytes
  then
    match Queue.take_opt c.inbox with
    | None -> ()
    | Some line ->
      (match Wire.request_of_line line with
      | Error msg -> enqueue_out t c (error_line msg)
      | Ok req -> (
        match Server.answer_hit t.server c.session req with
        | Some reply ->
          t.answered_total <- t.answered_total + 1;
          enqueue_out t c (reply ^ "\n")
        | None ->
          if Workers.try_submit t.pool (job t c req) then c.busy <- true
          else begin
            (* the bounded queue is full: typed load shedding, charged
               nothing, SQL-parsed never *)
            t.shed_total <- t.shed_total + 1;
            Server.log_overload t.server
              ~analyst:(Server.session_analyst c.session)
              ~line;
            enqueue_out t c overload_line
          end));
      pump t c

let accept_loop t =
  let continue = ref true in
  while !continue do
    match Unix.accept t.sock with
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
      continue := false
    | exception Unix.Unix_error _ -> continue := false
    | fd, _ ->
      (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
      if t.open_count >= t.config.max_connections then begin
        (* best-effort typed refusal: the socket buffer of a fresh
           connection always has room for one line *)
        t.conn_refused_total <- t.conn_refused_total + 1;
        (try
           ignore
             (Unix.write_substring fd conn_refused_line 0
                (String.length conn_refused_line))
         with Unix.Unix_error _ -> ());
        (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
        try Unix.close fd with Unix.Unix_error _ -> ()
      end
      else begin
        Unix.set_nonblock fd;
        let c =
          {
            fd;
            session = Server.session t.server;
            partial = Buffer.create 256;
            inbox = Queue.create ();
            outq = Queue.create ();
            out_off = 0;
            out_bytes = 0;
            busy = false;
            read_closed = false;
            closing = false;
            dead = false;
            last_activity = now_s ();
          }
        in
        Hashtbl.replace t.conns fd c;
        t.open_count <- t.open_count + 1;
        t.accepted_total <- t.accepted_total + 1
      end
  done

(* Incremental newline framing: split the chunk on '\n', completing the
   partial frame carried in [c.partial]; the tail (no newline yet) goes
   back into [c.partial]. A trailing '\r' is stripped per line. *)
let feed_chunk t c bytes len =
  let start = ref 0 in
  for i = 0 to len - 1 do
    if Bytes.get bytes i = '\n' then begin
      Buffer.add_subbytes c.partial bytes !start (i - !start);
      start := i + 1;
      let line =
        let s = Buffer.contents c.partial in
        Buffer.clear c.partial;
        let n = String.length s in
        if n > 0 && s.[n - 1] = '\r' then String.sub s 0 (n - 1) else s
      in
      Queue.push line c.inbox
    end
  done;
  Buffer.add_subbytes c.partial bytes !start (len - !start);
  if Buffer.length c.partial > t.config.max_line_bytes then begin
    (* a frame this long is hostile or broken either way; answer and hang up *)
    enqueue_out t c
      (error_line
         (Printf.sprintf "request line exceeds %d bytes" t.config.max_line_bytes));
    Buffer.clear c.partial;
    c.read_closed <- true;
    c.closing <- true
  end

let read_conn t read_buf c =
  match Unix.read c.fd read_buf 0 (Bytes.length read_buf) with
  | 0 ->
    (* EOF: no more requests will arrive; a partial frame is dropped (the
       peer tore mid-line), but framed requests still pending are served
       and their responses flushed before the close *)
    c.read_closed <- true;
    Buffer.clear c.partial
  | n ->
    c.last_activity <- now_s ();
    feed_chunk t c read_buf n
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> close_conn t c

(* ------------------------------------------------------------------ loop *)

let drain_wake t =
  let buf = Bytes.create 256 in
  let continue = ref true in
  while !continue do
    match Unix.read t.wake_r buf 0 (Bytes.length buf) with
    | n -> if n < Bytes.length buf then continue := false
    | exception Unix.Unix_error _ -> continue := false
  done

let drain_completions t =
  let comps =
    Mutex.protect t.lock (fun () ->
        let q = Queue.create () in
        Queue.transfer t.completions q;
        q)
  in
  Queue.iter
    (fun { cc; line; close } ->
      cc.busy <- false;
      if not cc.dead then begin
        enqueue_out t cc line;
        if close then cc.closing <- true;
        cc.last_activity <- now_s ()
      end)
    comps

let live_conns t = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns []

(* Reap connections that have gone silent: half-open peers, slowloris
   partial frames, clients that never read their responses. A connection
   with a request executing is spared — it is the query that is slow, not
   the peer. *)
let sweep_idle t now =
  if t.config.idle_timeout > 0.0 then
    List.iter
      (fun c ->
        if
          (not c.busy)
          && now -. c.last_activity > t.config.idle_timeout
          && not c.dead
        then begin
          t.idle_closed_total <- t.idle_closed_total + 1;
          close_conn t c
        end)
      (live_conns t)

(* Close connections that have nothing left to say: the output is flushed
   and either the peer asked to close (Quit, oversize frame) or it hung up
   and every framed request has been answered. *)
let sweep_done t =
  List.iter
    (fun c ->
      if
        (not c.dead) && (not c.busy) && c.out_bytes = 0
        && (c.closing || (c.read_closed && Queue.is_empty c.inbox))
      then close_conn t c)
    (live_conns t)

let run t =
  (* owned by this loop: each reactor instance reads into its own buffer *)
  let read_buf = Bytes.create 16384 in
  let force_deadline = ref None in
  let continue = ref true in
  (* Workers post a completion before they write the wake pipe, and the
     pipe is drained before the completions, so a completion is never left
     behind by draining only when [select] reports the pipe readable. *)
  let woken = ref false in
  while !continue do
    let stopping = Mutex.protect t.lock (fun () -> t.stopping) in
    if !woken then begin
      drain_wake t;
      drain_completions t
    end;
    let conns = live_conns t in
    if not stopping then List.iter (pump t) conns;
    sweep_done t;
    let now = now_s () in
    sweep_idle t now;
    if stopping then begin
      (match !force_deadline with
      | None -> force_deadline := Some (now +. 5.0)
      | Some _ -> ());
      let busy = Hashtbl.fold (fun _ c n -> if c.busy then n + 1 else n) t.conns 0 in
      let pending = Hashtbl.fold (fun _ c n -> n + c.out_bytes) t.conns 0 in
      let forced =
        match !force_deadline with Some d -> now >= d | None -> false
      in
      if (busy = 0 && pending = 0) || forced then begin
        List.iter (close_conn t) (live_conns t);
        continue := false
      end
    end;
    if !continue then begin
      let reads =
        t.wake_r
        :: ((* keep accepting even at the connection cap: the typed refusal
               reply is the backpressure signal, silence is not *)
            if not stopping then [ t.sock ] else [])
        @ List.filter_map
            (fun c ->
              if
                (not c.read_closed) && (not c.closing) && (not c.dead)
                && Queue.length c.inbox < t.config.max_pipeline
                && c.out_bytes <= t.config.max_output_bytes
              then Some c.fd
              else None)
            (live_conns t)
      in
      let writes =
        List.filter_map
          (fun c -> if (not c.dead) && c.out_bytes > 0 then Some c.fd else None)
          (live_conns t)
      in
      let timeout =
        if stopping then 0.02
        else if t.config.idle_timeout > 0.0 then
          Float.max 0.01 (Float.min 0.25 (t.config.idle_timeout /. 4.0))
        else 0.25
      in
      match Unix.select reads writes [] timeout with
      | exception Unix.Unix_error (EINTR, _, _) -> ()
      | rs, ws, _ ->
        woken := List.memq t.wake_r rs;
        if List.memq t.sock rs && not stopping then accept_loop t;
        List.iter
          (fun fd ->
            if fd <> t.sock && fd <> t.wake_r then
              match Hashtbl.find_opt t.conns fd with
              | Some c when not c.dead -> read_conn t read_buf c
              | _ -> ())
          rs;
        List.iter
          (fun fd ->
            match Hashtbl.find_opt t.conns fd with
            | Some c when not c.dead -> write_conn t c
            | _ -> ())
          ws
    end
  done;
  Mutex.protect t.lock (fun () ->
      t.finished <- true;
      Condition.broadcast t.stopped)

let start t =
  let th = Thread.create run t in
  Mutex.protect t.lock (fun () -> t.loop_thread <- Some th);
  th

let stop t =
  let th =
    Mutex.protect t.lock (fun () ->
        t.stopping <- true;
        let th = t.loop_thread in
        t.loop_thread <- None;
        th)
  in
  wake t;
  (match th with
  | Some th -> Thread.join th
  | None ->
    (* [run] may be inline in another thread (or never started); wait for
       it to notice the flag *)
    Mutex.lock t.lock;
    let deadline = now_s () +. 10.0 in
    while (not t.finished) && now_s () < deadline do
      Mutex.unlock t.lock;
      wake t;
      Thread.delay 0.01;
      Mutex.lock t.lock
    done;
    Mutex.unlock t.lock);
  let do_clean =
    Mutex.protect t.lock (fun () ->
        if t.cleaned then false
        else begin
          t.cleaned <- true;
          true
        end)
  in
  if do_clean then begin
    Workers.shutdown t.pool;
    (try Unix.close t.sock with Unix.Unix_error _ -> ());
    (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
    try Unix.close t.wake_w with Unix.Unix_error _ -> ()
  end
