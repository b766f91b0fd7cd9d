(* flex_serve: the FLEX query service over TCP.

     # serve CSV data with precomputed metrics, durable ledger + audit log
     flex_serve data/ --metrics metrics.txt --ledger budgets.ledger \
       --audit audit.jsonl --port 8799

     # self-contained demo server on a generated ride-sharing database
     flex_serve --demo

   The wire protocol is one JSON request per line, one JSON response per
   line; drive it with flex_client (or netcat). *)

module Database = Flex_engine.Database
module Metrics = Flex_engine.Metrics
module Csv = Flex_engine.Csv
module Ledger = Flex_dp.Ledger
module Rng = Flex_dp.Rng
module Server = Flex_service.Server
module Reactor = Flex_service.Reactor
module Audit = Flex_service.Audit
open Cmdliner

let load_csv_dir dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    failwith (dir ^ " is not a directory");
  let tables =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".csv")
    |> List.map (fun f ->
         let name = Filename.remove_extension f in
         Csv.load_table ~name (Filename.concat dir f))
  in
  if tables = [] then failwith ("no .csv files in " ^ dir);
  Database.of_tables tables

let serve dir metrics_file demo port ledger_file audit_file audit_max_bytes sync epsilon
    delta analyst_epsilon analyst_delta cap seed domains explain_estimates stats_port
    no_telemetry release_cache releases_file release_capacity workers max_connections
    max_pending idle_timeout rate_limit statement_capacity flight_capacity =
  let db, metrics =
    if demo then begin
      Fmt.pr "generating a ride-sharing database...@.";
      Flex_workload.Uber.generate ~sizes:Flex_workload.Uber.small_sizes
        (Rng.create ~seed ())
    end
    else
      match dir with
      | None -> failwith "either a data directory or --demo is required"
      | Some dir ->
        let db = load_csv_dir dir in
        let m =
          match metrics_file with Some f -> Metrics.load f | None -> Metrics.compute db
        in
        (db, m)
  in
  let ledger =
    match ledger_file with None -> Ledger.in_memory () | Some path -> Ledger.open_ ~sync path
  in
  let audit =
    match audit_file with
    | None -> Audit.null ()
    | Some path -> Audit.to_file ?max_bytes:audit_max_bytes path
  in
  let release_store =
    match (release_cache, releases_file) with
    | false, _ -> None
    | true, None -> Some (Flex_service.Release_store.create ?capacity:release_capacity ())
    | true, Some path ->
      Some
        (Flex_service.Release_store.open_ ~sync ?capacity:release_capacity
           ~fingerprint:(Metrics.fingerprint metrics) path)
  in
  let config =
    {
      Server.default_config with
      default_epsilon = epsilon;
      default_delta = delta;
      analyst_epsilon;
      analyst_delta;
      max_epsilon_per_query = cap;
      explain_estimates;
      telemetry = not no_telemetry;
      release_cache;
      rate_limit_qps = rate_limit;
      statement_capacity;
      flight_capacity;
    }
  in
  let domains =
    match domains with
    | Some n -> n
    | None -> min 4 (Stdlib.Domain.recommended_domain_count ())
  in
  let pool = if domains > 1 then Some (Flex_engine.Task_pool.create ~domains) else None in
  let server =
    Server.create ~audit ~config ?pool ?release_store ~db ~metrics ~ledger
      ~rng:(Rng.create ~seed ()) ()
  in
  let reactor =
    Reactor.listen ~port
      ~config:
        {
          Reactor.default_config with
          workers;
          max_pending;
          max_connections;
          idle_timeout;
        }
      server
  in
  Fmt.pr "flex_serve: listening on 127.0.0.1:%d (%d tables, %d rows, %d execution domain%s)@."
    (Reactor.port reactor)
    (List.length (Database.table_names db))
    (Metrics.total_rows metrics)
    domains
    (if domains = 1 then "" else "s");
  Fmt.pr "flex_serve: event-driven front end (%d workers, %d pending, %d connections max)@."
    workers max_pending max_connections;
  (match rate_limit with
  | Some qps -> Fmt.pr "flex_serve: per-analyst rate limit %g queries/s@." qps
  | None -> ());
  (match Ledger.path ledger with
  | Some p -> Fmt.pr "flex_serve: budget ledger at %s@." p
  | None -> Fmt.pr "flex_serve: in-memory ledger (budgets reset on restart)@.");
  (match release_store with
  | None -> Fmt.pr "flex_serve: release replay disabled (repeats are re-charged)@."
  | Some store -> (
    match Flex_service.Release_store.path store with
    | Some p ->
      Fmt.pr "flex_serve: release store at %s (%d replayable)@." p
        (Flex_service.Release_store.length store)
    | None -> Fmt.pr "flex_serve: in-memory release store (replays reset on restart)@."));
  (match (stats_port, Server.registry server) with
  | Some _, None -> failwith "--stats-port needs telemetry (drop --no-telemetry)"
  | Some p, Some registry ->
    let http =
      Flex_service.Stats_http.listen ~port:p ?statements:(Server.statements server)
        ?flights:(Server.flights server) registry
    in
    ignore (Flex_service.Stats_http.start http);
    Fmt.pr
      "flex_serve: stats on http://127.0.0.1:%d/metrics (and /metrics.json, /statements, \
       /flights, /healthz)@."
      (Flex_service.Stats_http.port http)
  | None, _ -> ());
  Reactor.run reactor

let () =
  let dir =
    Arg.(
      value
      & pos 0 (some dir) None
      & info [] ~docv:"DIR" ~doc:"Directory of CSV tables (omit with $(b,--demo)).")
  in
  let metrics_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:"Metrics file; recomputed from the data when omitted.")
  in
  let demo =
    Arg.(value & flag & info [ "demo" ] ~doc:"Serve a generated ride-sharing database.")
  in
  let port =
    Arg.(value & opt int 8799 & info [ "p"; "port" ] ~docv:"PORT" ~doc:"TCP port (0 = ephemeral).")
  in
  let ledger_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "ledger" ] ~docv:"FILE"
          ~doc:"Append-only budget journal; replayed on startup so restarts resume \
                exactly the remaining budgets. In-memory when omitted.")
  in
  let audit_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "audit" ] ~docv:"FILE" ~doc:"Append JSON-lines audit events here.")
  in
  let audit_max_bytes =
    Arg.(
      value
      & opt (some int) None
      & info [ "audit-max-bytes" ] ~docv:"N"
          ~doc:
            "Rotate the audit log to $(i,FILE).1 when appending the next event would \
             push it past N bytes (rotation happens at line boundaries, so no \
             generation ever holds a torn JSON line). Unbounded when omitted.")
  in
  let sync =
    Arg.(
      value & flag
      & info [ "sync" ] ~doc:"fsync the ledger and release journals after every record.")
  in
  let epsilon =
    Arg.(
      value & opt float 0.1
      & info [ "e"; "epsilon" ] ~docv:"EPS" ~doc:"Default per-query epsilon.")
  in
  let delta =
    Arg.(
      value & opt float 1e-8
      & info [ "d"; "delta" ] ~docv:"DELTA" ~doc:"Default per-query delta.")
  in
  let analyst_epsilon =
    Arg.(
      value & opt float 10.0
      & info [ "analyst-epsilon" ] ~docv:"EPS" ~doc:"Default total epsilon budget per analyst.")
  in
  let analyst_delta =
    Arg.(
      value & opt float 1e-4
      & info [ "analyst-delta" ] ~docv:"DELTA" ~doc:"Default total delta budget per analyst.")
  in
  let cap =
    Arg.(
      value & opt float 1.0
      & info [ "max-epsilon" ] ~docv:"EPS" ~doc:"Admission cap on a single query's epsilon.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Noise RNG seed.") in
  let explain_estimates =
    Arg.(
      value & flag
      & info [ "explain-estimates" ]
          ~doc:
            "Render $(b,~N rows) cardinality annotations in EXPLAIN responses. Off by \
             default: EXPLAIN is uncharged and the estimates are seeded from exact \
             table row counts, so enabling this declares table cardinalities public.")
  in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Worker domains for parallel query execution (1 = sequential). Defaults to \
             the machine's recommended domain count, capped at 4.")
  in
  let stats_port =
    Arg.(
      value
      & opt (some int) None
      & info [ "stats-port" ] ~docv:"PORT"
          ~doc:
            "Serve the metrics registry over HTTP on 127.0.0.1: $(b,/metrics) \
             (Prometheus text), $(b,/metrics.json) and $(b,/healthz). 0 picks an \
             ephemeral port. Off when omitted.")
  in
  let no_telemetry =
    Arg.(
      value & flag
      & info [ "no-telemetry" ]
          ~doc:
            "Disable the metrics registry and per-query trace spans (audit stage \
             timings then read zero). Releases are bit-identical either way.")
  in
  let release_cache =
    Arg.(
      value
      & vflag true
          [
            ( true,
              info [ "release-cache" ]
                ~doc:
                  "Replay finalized noisy releases for identical (query, budget, epoch) \
                   requests at zero additional budget (the default). A replay returns \
                   the same bytes as the first answer and is flagged $(b,cached: true)." );
            ( false,
              info [ "no-release-cache" ]
                ~doc:
                  "Disable release replay: every repeated query re-executes, draws \
                   fresh noise, and is charged again." );
          ])
  in
  let releases_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "releases" ] ~docv:"FILE"
          ~doc:
            "Append-only release journal; replayed on startup so previously released \
             answers survive a restart bit-identically (entries from other data epochs \
             are skipped). In-memory when omitted. Ignored with $(b,--no-release-cache).")
  in
  let release_capacity =
    Arg.(
      value
      & opt (some int) None
      & info [ "release-capacity" ] ~docv:"N"
          ~doc:
            "Cap on live release-store entries (default 4096); at capacity, admission \
             evicts fairly across analysts. Evicted keys are re-charged on re-query.")
  in
  let workers =
    Arg.(
      value & opt int 4
      & info [ "workers" ] ~docv:"N"
          ~doc:"Worker threads executing requests behind the event-driven front end.")
  in
  let max_connections =
    Arg.(
      value & opt int 900
      & info [ "max-connections" ] ~docv:"N"
          ~doc:
            "Connection cap for the event-driven front end; accepts beyond it are \
             answered with a typed overload rejection and closed. Must stay under the \
             select(2) fd limit (1024).")
  in
  let max_pending =
    Arg.(
      value & opt int 256
      & info [ "max-pending" ] ~docv:"N"
          ~doc:
            "Bounded request-queue capacity; when full, further requests are shed with \
             $(b,Rejected {bucket=\"overload\"}) instead of growing the backlog.")
  in
  let idle_timeout =
    Arg.(
      value & opt float 300.0
      & info [ "idle-timeout" ] ~docv:"SECS"
          ~doc:
            "Close connections silent for this long (half-open peers, slowloris \
             frames); 0 disables.")
  in
  let rate_limit =
    Arg.(
      value
      & opt (some float) None
      & info [ "rate-limit" ] ~docv:"QPS"
          ~doc:
            "Per-analyst token-bucket rate limit on Query requests; over-limit \
             requests get $(b,Rejected {bucket=\"rate_limit\"}) and are charged \
             nothing. Off when omitted.")
  in
  let statement_capacity =
    Arg.(
      value & opt int 512
      & info [ "statement-capacity" ] ~docv:"N"
          ~doc:
            "Distinct query shapes tracked by per-statement statistics (served on the \
             stats port at $(b,/statements)); past it the least-called shape is \
             evicted. Ignored with $(b,--no-telemetry).")
  in
  let flight_capacity =
    Arg.(
      value & opt int 256
      & info [ "flight-capacity" ] ~docv:"N"
          ~doc:
            "Finished requests retained by the flight recorder (served on the stats \
             port at $(b,/flights), span trees included). Ignored with \
             $(b,--no-telemetry).")
  in
  let info =
    Cmd.info "flex_serve" ~version:"1.0.0"
      ~doc:"Serve FLEX differentially private SQL over TCP (line-delimited JSON)."
  in
  let term =
    Term.(
      const serve $ dir $ metrics_file $ demo $ port $ ledger_file $ audit_file
      $ audit_max_bytes $ sync $ epsilon $ delta $ analyst_epsilon $ analyst_delta $ cap
      $ seed $ domains $ explain_estimates $ stats_port $ no_telemetry $ release_cache
      $ releases_file $ release_capacity $ workers $ max_connections $ max_pending
      $ idle_timeout $ rate_limit $ statement_capacity $ flight_capacity)
  in
  exit (Cmd.eval (Cmd.v info term))
