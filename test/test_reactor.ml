module Wire = Flex_service.Wire
module Server = Flex_service.Server
module Reactor = Flex_service.Reactor
module Workers = Flex_service.Workers
module Rate_limit = Flex_service.Rate_limit
module Load_driver = Flex_service.Load_driver
module Audit = Flex_service.Audit
module Json = Flex_service.Json
module Cache = Flex_service.Cache
module Release_store = Flex_service.Release_store
module Ledger = Flex_dp.Ledger
module Rng = Flex_dp.Rng
module Registry = Flex_obs.Registry

(* --- workers ------------------------------------------------------------------- *)

let workers_tests =
  [
    Alcotest.test_case "jobs run exactly once and stats add up" `Quick (fun () ->
        let pool = Workers.create ~workers:2 ~capacity:64 () in
        let hits = Atomic.make 0 in
        for _ = 1 to 50 do
          Alcotest.(check bool) "submit accepted" true
            (Workers.try_submit pool (fun () -> Atomic.incr hits))
        done;
        Workers.shutdown pool;
        Alcotest.(check int) "every job ran" 50 (Atomic.get hits);
        let s = Workers.stats pool in
        Alcotest.(check int) "submitted" 50 s.submitted;
        Alcotest.(check int) "completed" 50 s.completed;
        Alcotest.(check int) "rejected" 0 s.rejected;
        Alcotest.(check int) "nothing inflight" 0 (Workers.inflight pool));
    Alcotest.test_case "full queue refuses instead of blocking" `Quick (fun () ->
        let pool = Workers.create ~workers:1 ~capacity:1 () in
        let gate = Mutex.create () and go = Condition.create () in
        let released = ref false in
        let running = Mutex.create () and started = Condition.create () in
        let worker_started = ref false in
        (* pin the single worker on a job we control *)
        assert (
          Workers.try_submit pool (fun () ->
              Mutex.protect running (fun () ->
                  worker_started := true;
                  Condition.broadcast started);
              Mutex.lock gate;
              while not !released do
                Condition.wait go gate
              done;
              Mutex.unlock gate));
        Mutex.protect running (fun () ->
            while not !worker_started do
              Condition.wait started running
            done);
        (* one slot waits, the next is refused *)
        Alcotest.(check bool) "queued" true (Workers.try_submit pool (fun () -> ()));
        Alcotest.(check bool) "refused at capacity" false
          (Workers.try_submit pool (fun () -> ()));
        Alcotest.(check int) "two inflight" 2 (Workers.inflight pool);
        Mutex.protect gate (fun () ->
            released := true;
            Condition.broadcast go);
        Workers.shutdown pool;
        let s = Workers.stats pool in
        Alcotest.(check int) "one refusal counted" 1 s.rejected;
        Alcotest.(check int) "queued job drained by shutdown" 2 s.completed;
        Alcotest.(check bool) "submit after shutdown refused" false
          (Workers.try_submit pool (fun () -> ())));
    Alcotest.test_case "job exceptions are contained" `Quick (fun () ->
        let pool = Workers.create ~workers:1 ~capacity:8 () in
        let after = Atomic.make false in
        assert (Workers.try_submit pool (fun () -> failwith "boom"));
        assert (Workers.try_submit pool (fun () -> Atomic.set after true));
        Workers.shutdown pool;
        Alcotest.(check bool) "the pool survived the raise" true (Atomic.get after));
  ]

(* --- rate limiting ------------------------------------------------------------- *)

let rate_limit_tests =
  [
    Alcotest.test_case "burst spends down, refill is continuous" `Quick (fun () ->
        let rl = Rate_limit.create ~qps:2.0 () in
        (* burst defaults to max 1 qps = 2 tokens *)
        Alcotest.(check bool) "1st" true (Rate_limit.allow ~now:100.0 rl ~key:"a");
        Alcotest.(check bool) "2nd" true (Rate_limit.allow ~now:100.0 rl ~key:"a");
        Alcotest.(check bool) "3rd denied" false (Rate_limit.allow ~now:100.0 rl ~key:"a");
        (* half a second refills one token at 2 qps *)
        Alcotest.(check bool) "refilled" true (Rate_limit.allow ~now:100.5 rl ~key:"a");
        Alcotest.(check bool) "spent again" false (Rate_limit.allow ~now:100.5 rl ~key:"a");
        (* a long sleep caps at burst, not unbounded credit *)
        Alcotest.(check bool) "cap 1" true (Rate_limit.allow ~now:200.0 rl ~key:"a");
        Alcotest.(check bool) "cap 2" true (Rate_limit.allow ~now:200.0 rl ~key:"a");
        Alcotest.(check bool) "cap hit" false (Rate_limit.allow ~now:200.0 rl ~key:"a");
        let s = Rate_limit.stats rl in
        Alcotest.(check int) "allowed" 5 s.allowed;
        Alcotest.(check int) "denied" 3 s.denied);
    Alcotest.test_case "buckets are per key" `Quick (fun () ->
        let rl = Rate_limit.create ~burst:1.0 ~qps:1.0 () in
        Alcotest.(check bool) "a" true (Rate_limit.allow ~now:5.0 rl ~key:"a");
        Alcotest.(check bool) "a exhausted" false (Rate_limit.allow ~now:5.0 rl ~key:"a");
        Alcotest.(check bool) "b unaffected" true (Rate_limit.allow ~now:5.0 rl ~key:"b");
        Alcotest.(check int) "two keys" 2 (Rate_limit.stats rl).keys);
    Alcotest.test_case "invalid parameters are refused" `Quick (fun () ->
        List.iter
          (fun f ->
            match f () with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.fail "expected Invalid_argument")
          [
            (fun () -> Rate_limit.create ~qps:0.0 ());
            (fun () -> Rate_limit.create ~qps:Float.nan ());
            (fun () -> Rate_limit.create ~burst:0.5 ~qps:1.0 ());
          ]);
  ]

(* --- reactor fixtures ----------------------------------------------------------- *)

let fixture =
  lazy
    (Flex_workload.Uber.generate ~sizes:Flex_workload.Uber.small_sizes
       (Rng.create ~seed:7 ()))

let make_server ?audit ?config ?ledger ?release_store () =
  let db, metrics = Lazy.force fixture in
  let ledger = match ledger with Some l -> l | None -> Ledger.in_memory () in
  let server =
    Server.create ?audit ?config ?release_store ~db ~metrics ~ledger
      ~rng:(Rng.create ~seed:11 ()) ()
  in
  (server, ledger)

let with_reactor ?config server f =
  let r = Reactor.listen ?config server in
  ignore (Reactor.start r);
  Fun.protect ~finally:(fun () -> Reactor.stop r) (fun () -> f r)

let connect port =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let send_string fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

let send fd req = send_string fd (Wire.request_to_line req ^ "\n")

(* blocking line reads over the raw fd; [None] on EOF *)
let reader fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec next () =
    match String.index_opt (Buffer.contents buf) '\n' with
    | Some i ->
      let s = Buffer.contents buf in
      let line = String.sub s 0 i in
      Buffer.clear buf;
      Buffer.add_string buf (String.sub s (i + 1) (String.length s - i - 1));
      Some line
    | None -> (
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> None
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        next ()
      | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> None)
  in
  next

let recv next =
  match next () with
  | None -> Alcotest.fail "unexpected EOF from the reactor"
  | Some line -> Result.get_ok (Wire.response_of_line line)

let eventually ?(timeout = 5.0) pred =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec loop () =
    if pred () then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Thread.delay 0.01;
      loop ()
    end
  in
  loop ()

(* --- reactor: protocol behavior ------------------------------------------------- *)

let reactor_tests =
  [
    Alcotest.test_case "round trips, replay, and quit over the reactor" `Quick (fun () ->
        let server, ledger = make_server () in
        with_reactor server (fun r ->
            let fd = connect (Reactor.port r) in
            let next = reader fd in
            send fd (Wire.Hello { analyst = "alice"; epsilon = None; delta = None });
            (match recv next with
            | Wire.Budget_report b -> Alcotest.(check string) "analyst" "alice" b.analyst
            | other -> Alcotest.failf "hello: %s" (Wire.response_to_line other));
            let sql = "SELECT COUNT(*) FROM trips" in
            (match
               send fd (Wire.Query { sql; epsilon = Some 0.5; delta = None; id = None });
               recv next
             with
            | Wire.Result res ->
              Alcotest.(check bool) "charged" false res.cached;
              Alcotest.(check (float 0.0)) "spent" 0.5 res.epsilon_spent
            | other -> Alcotest.failf "query: %s" (Wire.response_to_line other));
            (* the repeat replays from the release store: zero budget *)
            (match
               send fd (Wire.Query { sql; epsilon = Some 0.5; delta = None; id = None });
               recv next
             with
            | Wire.Result res -> Alcotest.(check bool) "replayed" true res.cached
            | other -> Alcotest.failf "replay: %s" (Wire.response_to_line other));
            Alcotest.(check bool) "one charge" true
              (match Ledger.spent ledger ~analyst:"alice" with
              | Some (e, _) -> e = 0.5
              | None -> false);
            send fd Wire.Quit;
            (match recv next with
            | Wire.Bye -> ()
            | other -> Alcotest.failf "quit: %s" (Wire.response_to_line other));
            (* quit closes the connection from the server side *)
            Alcotest.(check bool) "EOF after bye" true (next () = None);
            Unix.close fd;
            Alcotest.(check bool) "conn swept" true
              (eventually (fun () -> (Reactor.stats r).connections_open = 0))));
    Alcotest.test_case "pipelined requests are answered in order" `Quick (fun () ->
        let server, _ = make_server () in
        with_reactor server (fun r ->
            let fd = connect (Reactor.port r) in
            let next = reader fd in
            (* one write carrying hello + 8 queries with distinct epsilons:
               responses must come back in submission order *)
            let epsilons = [ 0.5; 0.25; 0.125; 0.0625; 0.5; 0.03125; 0.25; 0.125 ] in
            let burst = Buffer.create 512 in
            Buffer.add_string burst
              (Wire.request_to_line
                 (Wire.Hello { analyst = "pipe"; epsilon = None; delta = None })
              ^ "\n");
            List.iter
              (fun e ->
                Buffer.add_string burst
                  (Wire.request_to_line
                     (Wire.Query
                        {
                          (* distinct epsilon per request defeats the release
                             store: every answer carries its own spend *)
                          sql = "SELECT COUNT(*) FROM trips";
                          epsilon = Some e;
                          delta = None;
                          id = None;
                        })
                  ^ "\n"))
              epsilons;
            send_string fd (Buffer.contents burst);
            (match recv next with
            | Wire.Budget_report _ -> ()
            | other -> Alcotest.failf "hello: %s" (Wire.response_to_line other));
            List.iteri
              (fun i e ->
                match recv next with
                | Wire.Result res ->
                  if not res.cached then
                    Alcotest.(check (float 0.0))
                      (Printf.sprintf "answer %d matches request %d" i i)
                      e res.epsilon_spent
                  else
                    (* a replayed repeat spends nothing but still proves
                       ordering via its position *)
                    ()
                | other -> Alcotest.failf "query %d: %s" i (Wire.response_to_line other))
              epsilons;
            Unix.close fd));
    Alcotest.test_case "malformed and oversized frames get typed errors" `Quick (fun () ->
        let server, _ = make_server () in
        let config = { Reactor.default_config with max_line_bytes = 1024 } in
        with_reactor ~config server (fun r ->
            (* malformed JSON: an error response, connection stays usable *)
            let fd = connect (Reactor.port r) in
            let next = reader fd in
            send_string fd "this is not json\n";
            (match recv next with
            | Wire.Error_msg _ -> ()
            | other -> Alcotest.failf "garbage: %s" (Wire.response_to_line other));
            send fd Wire.Stats;
            (match recv next with
            | Wire.Stats_report _ -> ()
            | other -> Alcotest.failf "stats after garbage: %s" (Wire.response_to_line other));
            Unix.close fd;
            (* an over-long frame: error response, then hangup *)
            let fd2 = connect (Reactor.port r) in
            let next2 = reader fd2 in
            send_string fd2 (String.make 4096 'x');
            (match recv next2 with
            | Wire.Error_msg m ->
              Alcotest.(check bool) "mentions the cap" true
                (Astring.String.is_infix ~affix:"exceeds" m)
            | other -> Alcotest.failf "oversize: %s" (Wire.response_to_line other));
            Alcotest.(check bool) "closed after oversize" true (next2 () = None);
            Unix.close fd2));
    Alcotest.test_case "connection cap refuses with a typed overload reply" `Quick
      (fun () ->
        let server, _ = make_server () in
        let config = { Reactor.default_config with max_connections = 2 } in
        with_reactor ~config server (fun r ->
            let fd1 = connect (Reactor.port r) in
            let fd2 = connect (Reactor.port r) in
            (* make sure both are accepted before the third knocks *)
            let n1 = reader fd1 and n2 = reader fd2 in
            send fd1 Wire.Stats;
            ignore (recv n1);
            send fd2 Wire.Stats;
            ignore (recv n2);
            let fd3 = connect (Reactor.port r) in
            let n3 = reader fd3 in
            (match recv n3 with
            | Wire.Rejected rej ->
              Alcotest.(check string) "bucket" "overload" rej.bucket
            | other -> Alcotest.failf "cap: %s" (Wire.response_to_line other));
            Alcotest.(check bool) "refused conn closed" true (n3 () = None);
            Alcotest.(check bool) "refusal counted" true
              ((Reactor.stats r).conn_refused_total >= 1);
            List.iter Unix.close [ fd1; fd2; fd3 ]));
    Alcotest.test_case "idle sweep reaps half-open and slowloris connections" `Quick
      (fun () ->
        let server, _ = make_server () in
        let config = { Reactor.default_config with idle_timeout = 0.3 } in
        with_reactor ~config server (fun r ->
            (* half-open: connects, never sends a byte *)
            let silent = connect (Reactor.port r) in
            (* slowloris: sends half a frame and stalls *)
            let slow = connect (Reactor.port r) in
            send_string slow "{\"op\":\"sta";
            (* a live connection keeps itself alive across sweeps *)
            let live = connect (Reactor.port r) in
            let nl = reader live in
            Alcotest.(check bool) "three open" true
              (eventually (fun () -> (Reactor.stats r).connections_open = 3));
            for _ = 1 to 6 do
              Thread.delay 0.1;
              send live Wire.Stats;
              ignore (recv nl)
            done;
            Alcotest.(check bool) "idle pair reaped" true
              (eventually (fun () ->
                   let s = Reactor.stats r in
                   s.idle_closed_total >= 2 && s.connections_open = 1));
            (* the survivor still works *)
            send live Wire.Stats;
            (match recv nl with
            | Wire.Stats_report _ -> ()
            | other -> Alcotest.failf "live conn: %s" (Wire.response_to_line other));
            List.iter Unix.close [ silent; slow; live ]));
    Alcotest.test_case "mid-frame disconnect is cleaned up, partial frame dropped"
      `Quick (fun () ->
        let buf = Buffer.create 256 in
        let server, _ = make_server ~audit:(Audit.to_buffer buf) () in
        with_reactor server (fun r ->
            let fd = connect (Reactor.port r) in
            send_string fd "{\"op\":\"query\",\"sql\":\"SELECT COUNT(*) FR";
            Unix.close fd;
            Alcotest.(check bool) "conn closed" true
              (eventually (fun () -> (Reactor.stats r).connections_open = 0));
            (* the torn fragment was never parsed or served *)
            Alcotest.(check string) "no audit event" "" (Buffer.contents buf)));
    Alcotest.test_case "stopped reactor refuses new connections" `Quick (fun () ->
        let server, _ = make_server () in
        let r = Reactor.listen server in
        ignore (Reactor.start r);
        let fd = connect (Reactor.port r) in
        let next = reader fd in
        send fd Wire.Stats;
        (match recv next with
        | Wire.Stats_report _ -> ()
        | other -> Alcotest.failf "stats: %s" (Wire.response_to_line other));
        Reactor.stop r;
        Reactor.stop r (* idempotent *);
        Unix.close fd;
        match connect (Reactor.port r) with
        | exception Unix.Unix_error (ECONNREFUSED, _, _) -> ()
        | fd2 ->
          (* the listener backlog may absorb the SYN; the fd must then be dead *)
          let n2 = reader fd2 in
          send fd2 Wire.Stats;
          Alcotest.(check bool) "no service after stop" true (n2 () = None);
          Unix.close fd2);
    Alcotest.test_case "reactor registers connection metrics" `Quick (fun () ->
        let server, _ = make_server () in
        with_reactor server (fun r ->
            let fd = connect (Reactor.port r) in
            let next = reader fd in
            send fd Wire.Stats;
            ignore (recv next);
            let reg = Option.get (Server.registry server) in
            let families = Registry.snapshot reg in
            let value name =
              List.find_opt (fun (f : Registry.family) -> f.name = name) families
              |> Option.map (fun (f : Registry.family) ->
                     List.fold_left
                       (fun acc (s : Registry.sample) ->
                         match s.value with Registry.Sample v -> acc +. v | _ -> acc)
                       0.0 f.samples)
            in
            Alcotest.(check (option (float 0.0))) "one connection open" (Some 1.0)
              (value "flex_connections_open");
            Alcotest.(check bool) "inflight gauge present" true
              (value "flex_requests_inflight" <> None);
            Alcotest.(check (option (float 0.0))) "no sheds yet" (Some 0.0)
              (value "flex_overload_rejections_total");
            Alcotest.(check (option (float 0.0))) "no hits answered yet" (Some 0.0)
              (value "flex_reactor_answered_total");
            Unix.close fd));
  ]

(* --- admission control under load ----------------------------------------------- *)

let overload_tests =
  [
    Alcotest.test_case "rate limit rejects with its own bucket and charges nothing"
      `Quick (fun () ->
        let buf = Buffer.create 512 in
        let config =
          { Server.default_config with rate_limit_qps = Some 2.0; release_cache = false }
        in
        let server, ledger = make_server ~audit:(Audit.to_buffer buf) ~config () in
        let session = Server.session server in
        (match
           Server.handle server session
             (Wire.Hello { analyst = "hasty"; epsilon = None; delta = None })
         with
        | Wire.Budget_report _ -> ()
        | other -> Alcotest.failf "hello: %s" (Wire.response_to_line other));
        (* burst is 2 tokens; a tight loop of 6 queries cannot refill more
           than a rounding error's worth, so at least 3 must be limited *)
        let limited = ref 0 and granted = ref 0 in
        for _ = 1 to 6 do
          match
            Server.handle server session
              (Wire.Query
                 { sql = "SELECT COUNT(*) FROM trips"; epsilon = Some 0.25; delta = None; id = None })
          with
          | Wire.Result _ -> incr granted
          | Wire.Rejected rej when rej.bucket = "rate_limit" -> incr limited
          | other -> Alcotest.failf "query: %s" (Wire.response_to_line other)
        done;
        Alcotest.(check bool) "most were limited" true (!limited >= 3);
        let c = Server.counters server in
        Alcotest.(check int) "counter agrees" !limited c.rate_limited;
        Alcotest.(check bool) "limited requests charged nothing" true
          (match Ledger.spent ledger ~analyst:"hasty" with
          | Some (e, _) -> e = 0.25 *. float_of_int !granted
          | None -> false);
        (* every limited request is audit-logged with the rate_limit bucket *)
        let events =
          String.split_on_char '\n' (Buffer.contents buf)
          |> List.filter (fun l -> l <> "")
          |> List.map Json.of_string_exn
        in
        let rate_limit_events =
          List.filter
            (fun e ->
              Option.bind (Json.mem "bucket" e) Json.to_str = Some "rate_limit")
            events
        in
        Alcotest.(check int) "audited" !limited (List.length rate_limit_events));
    Alcotest.test_case "log_overload audits the shed line, truncated" `Quick (fun () ->
        let buf = Buffer.create 256 in
        let server, ledger = make_server ~audit:(Audit.to_buffer buf) () in
        Server.log_overload server ~analyst:(Some "alice") ~line:(String.make 300 'q');
        Server.log_overload server ~analyst:None ~line:"short";
        let events =
          String.split_on_char '\n' (Buffer.contents buf)
          |> List.filter (fun l -> l <> "")
          |> List.map Json.of_string_exn
        in
        Alcotest.(check int) "two events" 2 (List.length events);
        let first = List.nth events 0 in
        Alcotest.(check (option string)) "outcome" (Some "rejected")
          (Option.bind (Json.mem "outcome" first) Json.to_str);
        Alcotest.(check (option string)) "bucket" (Some "overload")
          (Option.bind (Json.mem "bucket" first) Json.to_str);
        Alcotest.(check bool) "line truncated" true
          (match Option.bind (Json.mem "sql" first) Json.to_str with
          | Some s -> String.length s = 203 (* 200 + "..." *)
          | None -> false);
        Alcotest.(check int) "rejections counted" 2 (Server.counters server).rejected;
        Alcotest.(check bool) "nothing charged" true (Ledger.analysts ledger = []));
    Alcotest.test_case
      "forced overload sheds with a typed reply and conserves every analyst's budget"
      `Slow (fun () ->
        (* one worker, a two-slot queue, and eight closed-loop analysts: the
           flood must shed. Epsilon 0.25 and a budget of 1.0 are powers of
           two, so conservation below is exact float arithmetic, not
           approximate: any double charge or unbooked grant breaks it. *)
        let n_conns = 8 and n_requests = 12 in
        let budget = 1.0 in
        let config =
          {
            Server.default_config with
            default_epsilon = 0.25;
            analyst_epsilon = budget;
            release_cache = false;
          }
        in
        let rconfig = { Reactor.default_config with workers = 1; max_pending = 2 } in
        let rec attempt tries =
          let ledger = Ledger.in_memory () in
          let server, _ = make_server ~config ~ledger () in
          let outcome, shed =
            with_reactor ~config:rconfig server (fun r ->
                let o =
                  Load_driver.run ~port:(Reactor.port r) ~connections:n_conns
                    ~requests:n_requests
                    ~hello:(fun i -> Some (Printf.sprintf "ov-%d" i))
                    ~make_request:(fun ~conn:_ ~seq:_ ->
                      Wire.Query
                        {
                          sql =
                            "SELECT t.status, COUNT(*) FROM trips t GROUP BY t.status";
                          epsilon = None;
                          delta = None;
                          id = None;
                        })
                    ()
                in
                (o, (Reactor.stats r).shed_total))
          in
          Alcotest.(check int) "every request answered" outcome.sent
            (outcome.ok + outcome.rejected + outcome.refused + outcome.errors);
          (* [errors] is not zero here: a shed Hello leaves its connection
             unauthenticated, so its later queries draw "no analyst" errors —
             the expected face of overload, never a hung connection *)
          let counters = Server.counters server in
          let spends =
            List.map
              (fun a ->
                match Ledger.spent ledger ~analyst:a with
                | Some (e, _) -> e
                | None -> 0.0)
              (Ledger.analysts ledger)
          in
          let total = List.fold_left ( +. ) 0.0 spends in
          Alcotest.(check bool) "ledger total = 0.25 x grants, exactly" true
            (total = 0.25 *. float_of_int counters.granted);
          Alcotest.(check bool) "no analyst over budget" true
            (List.for_all (fun e -> e <= budget) spends);
          if outcome.overload > 0 then begin
            Alcotest.(check bool) "reactor shed at least the rejections seen" true
              (shed >= outcome.overload)
          end
          else if tries > 1 then attempt (tries - 1)
          else
            Alcotest.fail
              "the undersized queue never shed in five floods — overload path untested"
        in
        attempt 5);
    Alcotest.test_case "load driver reports a sane closed-loop outcome" `Quick (fun () ->
        let server, _ = make_server () in
        with_reactor server (fun r ->
            let outcome =
              Load_driver.run ~port:(Reactor.port r) ~connections:4 ~requests:6
                ~make_request:(fun ~conn ~seq:_ ->
                  Wire.Query
                    {
                      sql = "SELECT COUNT(*) FROM trips";
                      (* distinct epsilon per connection: one charge each,
                         then replays *)
                      epsilon = Some (Float.ldexp 1.0 (-1 - (conn mod 4)));
                      delta = None;
                      id = None;
                    })
                ()
            in
            (* 4 hellos + 24 queries *)
            Alcotest.(check int) "sent" 28 outcome.sent;
            Alcotest.(check int) "all ok" 28 outcome.ok;
            Alcotest.(check int) "errors" 0 outcome.errors;
            Alcotest.(check int) "replays counted" 20 outcome.cached;
            Alcotest.(check int) "one latency per round trip" 28
              (Array.length outcome.latencies);
            let sorted = Array.copy outcome.latencies in
            Array.sort compare sorted;
            Alcotest.(check bool) "latencies sorted" true (sorted = outcome.latencies);
            Alcotest.(check bool) "percentiles ordered" true
              (Load_driver.percentile outcome 0.5 <= Load_driver.percentile outcome 0.99);
            Alcotest.(check bool) "positive qps" true (Load_driver.qps outcome > 0.0)));
  ]

(* --- reactor: observability ------------------------------------------------------ *)

let observability_tests =
  [
    Alcotest.test_case "id echoes and the span tree completes over the reactor" `Quick
      (fun () ->
        let buf = Buffer.create 1024 in
        let server, _ = make_server ~audit:(Audit.to_buffer buf) () in
        with_reactor server (fun r ->
            let fd = connect (Reactor.port r) in
            let next = reader fd in
            send fd (Wire.Hello { analyst = "alice"; epsilon = None; delta = None });
            ignore (recv next);
            send fd
              (Wire.Query
                 {
                   sql = "SELECT COUNT(*) FROM trips";
                   epsilon = Some 0.5;
                   delta = None;
                   id = Some "corr-42";
                 });
            (match next () with
            | None -> Alcotest.fail "unexpected EOF"
            | Some line ->
              Alcotest.(check (option string)) "response echoes the id" (Some "corr-42")
                (Wire.response_id_of_line line);
              (match Wire.response_of_line line with
              | Ok (Wire.Result _) -> ()
              | Ok other -> Alcotest.failf "query: %s" (Wire.response_to_line other)
              | Error e -> Alcotest.failf "decode: %s" e));
            (* a request without an id gets a response without one — old
               clients never see the field *)
            send fd
              (Wire.Query
                 {
                   sql = "SELECT COUNT(*) FROM trips";
                   epsilon = Some 0.5;
                   delta = None;
                   id = None;
                 });
            (match next () with
            | None -> Alcotest.fail "unexpected EOF"
            | Some line ->
              Alcotest.(check (option string)) "no unsolicited id" None
                (Wire.response_id_of_line line));
            Unix.close fd;
            (* the audit line written on the worker thread has the complete
               stage breakdown: the span tree survived the reactor's
               parse-on-event-loop / execute-on-worker split *)
            Alcotest.(check bool) "audit flushed" true
              (eventually (fun () -> Buffer.length buf > 0));
            (match
               Json.of_string (List.hd (String.split_on_char '\n' (Buffer.contents buf)))
             with
            | Error e -> Alcotest.failf "audit line does not parse: %s" e
            | Ok j ->
              Alcotest.(check (option string)) "audit joins on the id" (Some "corr-42")
                (Option.bind (Json.mem "id" j) Json.to_str);
              List.iter
                (fun field ->
                  match Option.bind (Json.mem field j) Json.to_num with
                  | Some v when v > 0.0 -> ()
                  | Some v -> Alcotest.failf "%s not positive over the reactor: %g" field v
                  | None -> Alcotest.failf "missing %s" field)
                [ "parse_ns"; "execution_ns"; "perturbation_ns"; "total_ns" ]);
            (* and the flight recorder holds the same request with its trace *)
            match Server.flights server with
            | None -> Alcotest.fail "flight recorder expected"
            | Some fl -> (
              match Flex_obs.Flight.snapshot fl with
              | [] -> Alcotest.fail "no flight recorded"
              | records -> (
                match
                  List.find_opt
                    (fun r -> r.Flex_obs.Flight.id = Some "corr-42")
                    records
                with
                | None -> Alcotest.fail "flight with the request id not found"
                | Some r -> (
                  match r.trace with
                  | None -> Alcotest.fail "flight trace missing"
                  | Some v ->
                    let names =
                      List.map (fun (c : Flex_obs.Span.view) -> c.name) v.children
                    in
                    List.iter
                      (fun n ->
                        if not (List.mem n names) then
                          Alcotest.failf "span %S missing from the reactor trace: [%s]" n
                            (String.concat "; " names))
                      [ "parse"; "execute"; "perturb" ])))));
  ]

(* --- reactor: store hits on the reactor thread ------------------------------------ *)

let core_sql = "SELECT t.status, COUNT(*) FROM trips t GROUP BY t.status"
let derived_sql = core_sql ^ " ORDER BY 2 DESC LIMIT 2"
let query ?id ?epsilon sql = Wire.Query { sql; epsilon; delta = None; id }

(* A reply line without the [id] the response echoes as its last field. *)
let strip_id ~id line =
  let suffix = Printf.sprintf ",\"id\":\"%s\"}" id in
  if String.ends_with ~suffix line then
    String.sub line 0 (String.length line - String.length suffix) ^ "}"
  else Alcotest.failf "reply does not end with its id %s: %s" id line

let raw_line next =
  match next () with None -> Alcotest.fail "unexpected EOF from the reactor" | Some l -> l

(* Audit lines with their wall-clock and stage timings dropped. *)
let untimed_events buf =
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l ->
         match Json.of_string_exn l with
         | Json.Obj fields ->
           Json.to_string
             (Json.Obj
                (List.filter
                   (fun (k, _) -> k <> "ts" && not (String.ends_with ~suffix:"_ns" k))
                   fields))
         | _ -> Alcotest.fail "audit line is not an object")

let other_sql = "SELECT d.vehicle, COUNT(*) FROM drivers d GROUP BY d.vehicle"

(* One step of a twin-server script: a request on a numbered connection
   with the outcome its reply must have, or a data reload on both servers
   (a database with another seed, hence a new fingerprint). *)
type step = Send of int * Wire.request * string | Reload

let ask conn req expect = Send (conn, req, expect)

let hello conn =
  let analyst = Printf.sprintf "a%d" conn in
  ask conn (Wire.Hello { analyst; epsilon = None; delta = None }) "budget"

let reloaded =
  lazy
    (Flex_workload.Uber.generate ~sizes:Flex_workload.Uber.small_sizes
       (Rng.create ~seed:8 ()))

let reload server =
  let db, metrics = Lazy.force reloaded in
  ignore (Server.refresh_data server ~db ~metrics)

let kind = function
  | Wire.Result r ->
    if r.derived then "derived" else if r.cached then "replayed" else "granted"
  | Wire.Rejected r -> "rejected:" ^ r.bucket
  | Wire.Error_msg _ -> "error"
  | Wire.Plan_report _ -> "plan"
  | Wire.Budget_report _ -> "budget"
  | other -> Wire.response_to_line other

(* Run [steps] through [Server.handle] on one server and over a reactor on
   a twin, then check that each reply has its expected outcome and that
   the twins agree on every reply byte, audit event, flight record and
   request counter, and on the release store's, the canon memo's and the
   analysis cache's hits and misses; exactly [reactor_hits] requests must
   have been answered on the reactor thread. *)
let twin_differential ?config ?store_capacity ~reactor_hits steps =
  let make () =
    let buf = Buffer.create 1024 in
    let release_store =
      Option.map (fun capacity -> Release_store.create ~capacity ()) store_capacity
    in
    let server, _ = make_server ~audit:(Audit.to_buffer buf) ?config ?release_store () in
    (server, buf)
  in
  let sends = List.filter_map (function Send (c, r, e) -> Some (c, r, e) | Reload -> None) steps in
  let run_direct () =
    let server, buf = make () in
    let sessions = Hashtbl.create 8 in
    let replies =
      List.concat_map
        (function
          | Reload ->
            reload server;
            []
          | Send (conn, req, _) ->
            let session =
              match Hashtbl.find_opt sessions conn with
              | Some s -> s
              | None ->
                let s = Server.session server in
                Hashtbl.replace sessions conn s;
                s
            in
            [ Wire.response_to_line ?id:(Wire.request_id req) (Server.handle server session req) ])
        steps
    in
    (server, buf, replies)
  in
  let run_reactor () =
    let server, buf = make () in
    let replies, answered =
      with_reactor server (fun r ->
          let conns = Hashtbl.create 8 in
          let replies =
            List.concat_map
              (function
                | Reload ->
                  reload server;
                  []
                | Send (conn, req, _) ->
                  (* connections open in first-use order, each served
                     before the next opens, so sessions split the RNG in
                     the same order as [run_direct] *)
                  let fd, next =
                    match Hashtbl.find_opt conns conn with
                    | Some c -> c
                    | None ->
                      let fd = connect (Reactor.port r) in
                      (* a reactor thread that died fails the test instead
                         of hanging it *)
                      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
                      let c = (fd, reader fd) in
                      Hashtbl.replace conns conn c;
                      c
                  in
                  send fd req;
                  [ raw_line next ])
              steps
          in
          Hashtbl.iter (fun _ (fd, _) -> Unix.close fd) conns;
          (replies, (Reactor.stats r).answered_total))
    in
    (server, buf, replies, answered)
  in
  let direct, direct_audit, direct_replies = run_direct () in
  let reactor, reactor_audit, reactor_replies, answered = run_reactor () in
  Alcotest.(check int) "hits answered on the reactor" reactor_hits answered;
  List.iter2
    (fun (_, req, expect) (d, r) ->
      let what = Wire.request_to_line req in
      Alcotest.(check string) ("outcome of " ^ what) expect
        (kind (Result.get_ok (Wire.response_of_line d)));
      Alcotest.(check string) ("reply to " ^ what) d r)
    sends
    (List.combine direct_replies reactor_replies);
  Alcotest.(check (list string)) "audit events" (untimed_events direct_audit)
    (untimed_events reactor_audit);
  let flights server =
    List.map
      (fun (f : Flex_obs.Flight.record) ->
        ( f.seq,
          (f.id, f.analyst, f.sql, f.key, f.outcome),
          ( f.epsilon,
            f.delta,
            Option.map
              (fun (v : Flex_obs.Span.view) ->
                List.map (fun (c : Flex_obs.Span.view) -> c.name) v.children)
              f.trace ) ))
      (Flex_obs.Flight.snapshot (Option.get (Server.flights server)))
  in
  Alcotest.(check bool) "flight records" true (flights direct = flights reactor);
  Alcotest.(check bool) "request counters" true
    (Server.counters direct = Server.counters reactor);
  let store server = Option.get (Server.release_store server) in
  let rs_direct = Release_store.stats (store direct)
  and rs_reactor = Release_store.stats (store reactor) in
  Alcotest.(check (pair int int)) "release-store hits and misses"
    (rs_direct.hits, rs_direct.misses) (rs_reactor.hits, rs_reactor.misses);
  let counts c = (Cache.hits c, Cache.misses c) in
  Alcotest.(check (pair int int)) "canon-memo hits and misses"
    (counts (Server.canon_memo direct)) (counts (Server.canon_memo reactor));
  Alcotest.(check (pair int int)) "analysis-cache hits and misses"
    (counts (Server.cache direct)) (counts (Server.cache reactor))

let hit_path_tests =
  [
    Alcotest.test_case "replays and derivations are answered on the reactor thread" `Quick
      (fun () ->
        let server, ledger = make_server () in
        with_reactor server (fun r ->
            let fd = connect (Reactor.port r) in
            let next = reader fd in
            send fd (Wire.Hello { analyst = "alice"; epsilon = None; delta = None });
            ignore (recv next);
            (* prime: the core is charged once, and the derived text is
               memoised by its first (worker-served) derivation *)
            (match send fd (query ~epsilon:0.5 core_sql); recv next with
            | Wire.Result res -> Alcotest.(check bool) "charged" false res.cached
            | other -> Alcotest.failf "prime: %s" (Wire.response_to_line other));
            (match send fd (query ~epsilon:0.5 derived_sql); recv next with
            | Wire.Result res -> Alcotest.(check bool) "derived" true res.derived
            | other -> Alcotest.failf "prime derived: %s" (Wire.response_to_line other));
            let before = Reactor.stats r in
            let spent = Ledger.spent ledger ~analyst:"alice" in
            let n = 25 in
            let replies sql tag =
              List.init n (fun i ->
                  let id = Printf.sprintf "%s%d" tag i in
                  send fd (query ~id ~epsilon:0.5 sql);
                  strip_id ~id (raw_line next))
            in
            let replays = replies core_sql "r" in
            let derivations = replies derived_sql "d" in
            let after = Reactor.stats r in
            Alcotest.(check int) "2N answered on the reactor" (2 * n)
              (after.answered_total - before.answered_total);
            Alcotest.(check int) "no worker submissions" before.dispatched_total
              after.dispatched_total;
            Alcotest.(check int) "nothing in flight" 0 after.requests_inflight;
            let same what = function
              | [] -> ()
              | first :: rest ->
                List.iter (fun l -> Alcotest.(check string) what first l) rest
            in
            same "replays are byte-identical" replays;
            same "derivations are byte-identical" derivations;
            (match Wire.response_of_line (List.hd replays) with
            | Ok (Wire.Result res) ->
              Alcotest.(check bool) "replayed" true (res.cached && not res.derived)
            | _ -> Alcotest.fail "replay reply");
            (match Wire.response_of_line (List.hd derivations) with
            | Ok (Wire.Result res) ->
              Alcotest.(check bool) "derived" true (res.cached && res.derived)
            | _ -> Alcotest.fail "derivation reply");
            Alcotest.(check bool) "zero spend" true
              (Ledger.spent ledger ~analyst:"alice" = spent);
            let c = Server.counters server in
            Alcotest.(check int) "replayed counter" n c.replayed;
            Alcotest.(check int) "derived counter" (n + 1) c.derived;
            Unix.close fd));
    Alcotest.test_case
      "the reactor's probe counts nothing: same replies, audit, flights and counters as \
       Server.handle"
      `Quick (fun () ->
        (* one token per analyst and no refill to speak of: an analyst's
           second query is rate limited, on both servers alike *)
        let config = { Server.default_config with rate_limit_qps = Some 1e-6 } in
        (* [handle] on the reactor thread: the rate-limited hits, the replay
           and the second derivation *)
        twin_differential ~config ~reactor_hits:4
          [
            hello 0;
            ask 0 (query ~id:"miss" ~epsilon:0.5 core_sql) "granted";
            ask 0 (query ~id:"limited-hit" ~epsilon:0.5 core_sql) "rejected:rate_limit";
            hello 1;
            ask 1 (query ~id:"replay" ~epsilon:0.5 core_sql) "replayed";
            hello 2;
            ask 2 (query ~id:"first-derivation" ~epsilon:0.5 derived_sql) "derived";
            hello 3;
            ask 3 (query ~id:"derivation" ~epsilon:0.5 derived_sql) "derived";
            hello 4;
            ask 4 (query ~id:"epsilon-over-cap" ~epsilon:50.0 core_sql) "rejected:admission";
            hello 9;
            ask 9 (query ~id:"zero-epsilon" ~epsilon:0.0 core_sql) "rejected:admission";
            ask 5 (query ~id:"before-hello" ~epsilon:0.5 core_sql) "error";
            hello 6;
            ask 6 (query ~id:"explain" ("EXPLAIN " ^ core_sql)) "plan";
            hello 7;
            ask 7 (query ~id:"parse-error" "SELEC nonsense") "rejected:parse";
            hello 8;
            ask 8 (query ~id:"second-miss" ~epsilon:0.25 core_sql) "granted";
            ask 1 (query ~id:"limited-replay" ~epsilon:0.5 core_sql) "rejected:rate_limit";
          ]);
    Alcotest.test_case
      "encoded-once answers: per-request budgets and escaped ids, one text at two \
       epsilons"
      `Quick (fun () ->
        (* a0 and a1 pay different epsilons, so their remaining budgets
           differ in every hit they share *)
        let ids = [| "q\"uote"; "back\\slash"; "ctl\x01\t"; "d\xc3\xa9j\xc3\xa0 \xe6\x97\xa5" |] in
        let hits conn sql ~epsilon expect tag =
          List.init 3 (fun i ->
              ask conn
                (query ~id:(Printf.sprintf "%s%d %s" tag i ids.((conn + i) mod 4)) ~epsilon sql)
                expect)
        in
        twin_differential ~reactor_hits:22
          ([
             hello 0;
             hello 1;
             ask 0 (query ~id:"pay" ~epsilon:0.5 core_sql) "granted";
             ask 1 (query ~id:"pay-other" ~epsilon:0.25 other_sql) "granted";
           ]
          @ hits 0 core_sql ~epsilon:0.5 "replayed" "r"
          @ hits 1 core_sql ~epsilon:0.5 "replayed" "r"
          @ [ ask 1 (query ~id:"first" ~epsilon:0.5 derived_sql) "derived" ]
          @ hits 0 derived_sql ~epsilon:0.5 "derived" "d"
          @ hits 1 derived_sql ~epsilon:0.5 "derived" "d"
          @ [ ask 0 (query ~id:"pay-0.25" ~epsilon:0.25 core_sql) "granted" ]
          @ List.concat
              (List.init 5 (fun i ->
                   let conn = i mod 2 in
                   [
                     ask conn (query ~id:(Printf.sprintf "a%d" i) ~epsilon:0.25 core_sql)
                       "replayed";
                     ask conn (query ~id:(Printf.sprintf "b%d" i) ~epsilon:0.5 core_sql)
                       "replayed";
                   ]))));
    Alcotest.test_case
      "a data reload between hits: the old answer is never served, the next request \
       is charged on a worker"
      `Quick (fun () ->
        twin_differential ~reactor_hits:6
          [
            hello 0;
            ask 0 (query ~id:"pay" ~epsilon:0.5 core_sql) "granted";
            ask 0 (query ~id:"r1" ~epsilon:0.5 core_sql) "replayed";
            ask 0 (query ~id:"r2" ~epsilon:0.5 core_sql) "replayed";
            ask 0 (query ~id:"first" ~epsilon:0.5 derived_sql) "derived";
            ask 0 (query ~id:"d1" ~epsilon:0.5 derived_sql) "derived";
            Reload;
            ask 0 (query ~id:"pay-again" ~epsilon:0.5 core_sql) "granted";
            ask 0 (query ~id:"r3" ~epsilon:0.5 core_sql) "replayed";
            ask 0 (query ~id:"d2" ~epsilon:0.5 derived_sql) "derived";
            ask 0 (query ~id:"d3" ~epsilon:0.5 derived_sql) "derived";
          ]);
    Alcotest.test_case
      "an eviction between hits: a release paid again is served, not the evicted one"
      `Quick (fun () ->
        twin_differential ~store_capacity:1 ~reactor_hits:5
          [
            hello 0;
            ask 0 (query ~id:"pay" ~epsilon:0.5 core_sql) "granted";
            ask 0 (query ~id:"r1" ~epsilon:0.5 core_sql) "replayed";
            ask 0 (query ~id:"first" ~epsilon:0.5 derived_sql) "derived";
            ask 0 (query ~id:"d1" ~epsilon:0.5 derived_sql) "derived";
            ask 0 (query ~id:"evict" ~epsilon:0.5 other_sql) "granted";
            ask 0 (query ~id:"pay-again" ~epsilon:0.5 core_sql) "granted";
            ask 0 (query ~id:"r2" ~epsilon:0.5 core_sql) "replayed";
            ask 0 (query ~id:"d2" ~epsilon:0.5 derived_sql) "derived";
            ask 0 (query ~id:"r3" ~epsilon:0.5 core_sql) "replayed";
          ]);
    Alcotest.test_case "200 pipelined hits behind a full socket arrive whole and in order"
      `Quick (fun () ->
        let server, _ = make_server () in
        (* a connection whose unwritten replies pass 8 KiB is not served
           until they drain, and only a short write leaves any unwritten *)
        let config = { Reactor.default_config with max_output_bytes = 8192 } in
        with_reactor ~config server (fun r ->
            let fd = Unix.socket PF_INET SOCK_STREAM 0 in
            Unix.setsockopt_int fd Unix.SO_RCVBUF 4096;
            Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, Reactor.port r));
            Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
            let next = reader fd in
            send fd (Wire.Hello { analyst = "alice"; epsilon = None; delta = None });
            ignore (recv next);
            ignore (send fd (query ~epsilon:0.5 core_sql); recv next);
            (* 40 KB ids make 8 MB of replies, twice the most a Linux socket's
               send buffer grows to by default (net.ipv4.tcp_wmem), so the
               reactor's writes must come up short *)
            let n = 200 and pad = String.make 40_000 'x' in
            let id i = Printf.sprintf "%03d-%s" i pad in
            let before = (Reactor.stats r).answered_total in
            let burst =
              String.concat ""
                (List.init n (fun i ->
                     Wire.request_to_line (query ~id:(id i) ~epsilon:0.5 core_sql) ^ "\n"))
            in
            let sender = Thread.create (fun () -> send_string fd burst) () in
            (* the client reads nothing until the reactor stops answering *)
            let rec stalled last =
              Thread.delay 0.05;
              let now = (Reactor.stats r).answered_total in
              if now = last then now - before else stalled now
            in
            let answered = stalled before in
            if answered >= n then
              Alcotest.failf "all %d replies were written without blocking" answered;
            for i = 0 to n - 1 do
              let line = raw_line next in
              Alcotest.(check (option string)) "in order" (Some (id i))
                (Wire.response_id_of_line line);
              match Wire.response_of_line line with
              | Ok (Wire.Result res) -> Alcotest.(check bool) "whole replay" true res.cached
              | _ -> Alcotest.failf "reply %d: %s" i line
            done;
            Thread.join sender;
            Alcotest.(check int) "every hit answered on the reactor" n
              ((Reactor.stats r).answered_total - before);
            Unix.close fd));
    Alcotest.test_case "a hostile nested line gets an error while hits keep flowing"
      `Quick (fun () ->
        let server, _ = make_server () in
        with_reactor server (fun r ->
            let fd = connect (Reactor.port r) in
            let next = reader fd in
            send fd (Wire.Hello { analyst = "alice"; epsilon = None; delta = None });
            ignore (recv next);
            ignore (send fd (query ~epsilon:0.5 core_sql); recv next);
            let hostile = connect (Reactor.port r) in
            let hostile_next = reader hostile in
            (* 1 MiB of brackets: the frame cap, nested 1M deep *)
            let sender =
              Thread.create
                (fun () -> send_string hostile (String.make ((1 lsl 20) - 1) '[' ^ "\n"))
                ()
            in
            for _ = 1 to 50 do
              match send fd (query ~epsilon:0.5 core_sql); recv next with
              | Wire.Result res -> Alcotest.(check bool) "replayed" true res.cached
              | other -> Alcotest.failf "hit: %s" (Wire.response_to_line other)
            done;
            Thread.join sender;
            (match recv hostile_next with
            | Wire.Error_msg m ->
              Alcotest.(check bool) ("names the nesting limit: " ^ m) true
                (Astring.String.is_infix ~affix:"nesting" m)
            | other -> Alcotest.failf "hostile line: %s" (Wire.response_to_line other));
            Alcotest.(check bool) "the hits were the reactor's" true
              ((Reactor.stats r).answered_total >= 50);
            List.iter Unix.close [ fd; hostile ]));
  ]

let suites =
  [
    ("reactor-workers", workers_tests);
    ("reactor-rate-limit", rate_limit_tests);
    ("reactor-protocol", reactor_tests);
    ("reactor-observability", observability_tests);
    ("reactor-overload", overload_tests);
    ("reactor-hits", hit_path_tests);
  ]
