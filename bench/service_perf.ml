(* Tracked service benchmark: what the analysis cache and the release store
   buy a long-lived flex_serve process.

     dune exec bench/service_perf.exe                -- writes BENCH_service.json
     dune exec bench/service_perf.exe -- --out FILE  -- choose the output path
     dune exec bench/service_perf.exe -- --smoke     -- tiny sizes, gates only

   Per query shape the benchmark drives Server.handle directly (no socket, so
   the numbers are the pipeline's own) and reads the per-stage timings the
   server writes to its audit log: a cold request pays the full
   elastic-sensitivity analysis, a warm repeat — even alias-renamed — should
   spend its time in execution + perturbation with analysis near zero (these
   sections run with replay off so they keep measuring the charged pipeline).
   A throughput section hammers one server from several threads to report
   cache hit rate and q/s.

   The release-store sections gate the subsystem, in smoke mode too:
   a replayed repeat must be >= 10x faster than its cold release, every
   repeat must come back [cached] with zero spend, and a simulated restart
   (fresh server, different RNG seed, same journals) must replay previously
   released answers byte-identically without charging another epsilon.
   The hit-line section times the reactor's hit path in process (request
   line in, reply line out) and fails unless every spliced reply equals the
   one Server.handle gives on a twin server ([hit_line_identical]).

   The ledger section measures history independence: Ledger.spend on an
   analyst with N prior spends against one with none, and journal replay
   (Ledger.open_) per line at N spends against N/10. Both ratios should
   read about 1; CI gates them through check_regress. *)

module Rng = Flex_dp.Rng
module Ledger = Flex_dp.Ledger
module W = Flex_workload
module Server = Flex_service.Server
module Wire = Flex_service.Wire
module Json = Flex_service.Json
module Audit = Flex_service.Audit
module Cache = Flex_service.Cache
module Release_store = Flex_service.Release_store
module Metrics = Flex_engine.Metrics

let smoke = ref false
let out_path = ref "BENCH_service.json"

let () =
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
      smoke := true;
      parse rest
    | "--out" :: path :: rest ->
      out_path := path;
      parse rest
    | arg :: rest ->
      Fmt.epr "warning: ignoring argument %s@." arg;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv))

(* --------------------------------------------------------------- workload *)

type shape = { name : string; sql : string; warm_sql : string }

(* warm_sql is the alias-renamed form: hitting the cache through
   canonicalization, not string identity, is the point *)
let shapes =
  [
    {
      name = "scalar_count";
      sql = "SELECT COUNT(*) FROM trips t WHERE t.status = 'completed'";
      warm_sql = "SELECT COUNT(*) FROM trips x WHERE x.status = 'completed'";
    };
    {
      name = "join_count";
      sql =
        "SELECT COUNT(*) FROM trips t JOIN drivers d ON t.driver_id = d.id \
         WHERE d.rating > 3.0";
      warm_sql =
        "SELECT COUNT(*) FROM trips a JOIN drivers b ON a.driver_id = b.id \
         WHERE b.rating > 3.0";
    };
    {
      name = "histogram";
      sql = "SELECT t.status, COUNT(*) FROM trips t GROUP BY t.status";
      warm_sql = "SELECT u.status, COUNT(*) FROM trips u GROUP BY u.status";
    };
    {
      name = "join_histogram";
      sql =
        "SELECT c.name, COUNT(*) FROM trips t JOIN cities c ON t.city_id = c.id \
         GROUP BY c.name";
      warm_sql =
        "SELECT z.name, COUNT(*) FROM trips y JOIN cities z ON y.city_id = z.id \
         GROUP BY z.name";
    };
  ]

(* ------------------------------------------------------- stage accounting *)

type stages = {
  parse_ns : float;
  analysis_ns : float;
  smooth_ns : float;
  execution_ns : float;
  perturbation_ns : float;
}

let total s = s.parse_ns +. s.analysis_ns +. s.smooth_ns +. s.execution_ns +. s.perturbation_ns

let field j name =
  match Option.bind (Json.mem name j) Json.to_num with
  | Some v -> v
  | None -> Fmt.failwith "audit event missing %s" name

let stages_of_event j =
  {
    parse_ns = field j "parse_ns";
    analysis_ns = field j "analysis_ns";
    smooth_ns = field j "smooth_ns";
    execution_ns = field j "execution_ns";
    perturbation_ns = field j "perturbation_ns";
  }

let audit_events buf =
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter (fun l -> l <> "")
  |> List.map Json.of_string_exn

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let median_stages evs =
  {
    parse_ns = median (List.map (fun s -> s.parse_ns) evs);
    analysis_ns = median (List.map (fun s -> s.analysis_ns) evs);
    smooth_ns = median (List.map (fun s -> s.smooth_ns) evs);
    execution_ns = median (List.map (fun s -> s.execution_ns) evs);
    perturbation_ns = median (List.map (fun s -> s.perturbation_ns) evs);
  }

(* ---------------------------------------------------------------- harness *)

let make_server ?(replay = false) ?release_store ?ledger ?(seed = 42) ~audit (db, metrics) =
  let ledger = match ledger with Some l -> l | None -> Ledger.in_memory () in
  (* a budget nothing here can exhaust: this benchmark measures latency *)
  let config =
    {
      Server.default_config with
      analyst_epsilon = 1e9;
      analyst_delta = 0.5;
      release_cache = replay;
    }
  in
  Server.create ~audit ~config ?release_store ~db ~metrics ~ledger
    ~rng:(Rng.create ~seed ()) ()

let hello server session analyst =
  match
    Server.handle server session (Wire.Hello { analyst; epsilon = None; delta = None })
  with
  | Wire.Budget_report _ -> ()
  | other -> Fmt.failwith "hello failed: %s" (Wire.response_to_line other)

(* returns whether the analysis came from the cache *)
let run_query server session sql =
  match Server.handle server session (Wire.Query { sql; epsilon = None; delta = None; id = None }) with
  | Wire.Result { cache_hit; _ } -> cache_hit
  | other -> Fmt.failwith "query failed: %s" (Wire.response_to_line other)

(* (replayed, epsilon_spent, released rows as one canonical string) *)
let run_query_release server session sql =
  match Server.handle server session (Wire.Query { sql; epsilon = None; delta = None; id = None }) with
  | Wire.Result r ->
    ( r.cached,
      r.epsilon_spent,
      Json.to_string (Json.List (List.map (fun row -> Json.List row) r.rows)) )
  | other -> Fmt.failwith "query failed: %s" (Wire.response_to_line other)

type report = { shape : string; cold : stages; warm : stages; warm_hit : bool }

let bench_shape fixture repeats s =
  let buf = Buffer.create 4096 in
  let server = make_server ~audit:(Audit.to_buffer buf) fixture in
  let session = Server.session server in
  (match Server.handle server session (Wire.Hello { analyst = "bench"; epsilon = None; delta = None }) with
  | Wire.Budget_report _ -> ()
  | other -> Fmt.failwith "hello failed: %s" (Wire.response_to_line other));
  let cold_hit = run_query server session s.sql in
  assert (not cold_hit);
  let warm_hit = ref true in
  for _ = 1 to repeats do
    warm_hit := run_query server session s.warm_sql && !warm_hit
  done;
  match List.map stages_of_event (audit_events buf) with
  | cold :: warm_events ->
    { shape = s.name; cold; warm = median_stages warm_events; warm_hit = !warm_hit }
  | [] -> Fmt.failwith "no audit events for %s" s.name

(* Several sessions replaying a mixed workload against one server: the cache
   serves every analysis after the first sight of each shape. A warmup pass
   primes the cache (and the runtime) before the clock starts, and the timed
   section repeats [rounds] times with the median wall time reported, so a
   single scheduler hiccup cannot skew the tracked number. *)
let bench_throughput fixture ~threads ~per_thread ~rounds =
  let server = make_server ~audit:(Audit.null ()) fixture in
  let prime = Server.session server in
  ignore
    (Server.handle server prime
       (Wire.Hello { analyst = "bench-warmup"; epsilon = None; delta = None }));
  List.iter (fun s -> ignore (run_query server prime s.sql)) shapes;
  let round () =
    let worker i =
      let session = Server.session server in
      ignore
        (Server.handle server session
           (Wire.Hello { analyst = Fmt.str "bench-%d" i; epsilon = None; delta = None }));
      List.iteri
        (fun j s ->
          for _ = 1 to per_thread do
            ignore (run_query server session (if (i + j) mod 2 = 0 then s.sql else s.warm_sql))
          done)
        shapes
    in
    let t0 = Unix.gettimeofday () in
    let ts = List.init threads (fun i -> Thread.create worker i) in
    List.iter Thread.join ts;
    (Unix.gettimeofday () -. t0) *. 1e9
  in
  let wall_ns = median (List.init rounds (fun _ -> round ())) in
  let queries = threads * per_thread * List.length shapes in
  let cache = Server.cache server in
  (queries, wall_ns, Cache.hits cache, Cache.misses cache)

(* ------------------------------------------------------- release replay *)

(* Cold release vs zero-budget replay, per shape, on one replay-enabled
   server. Gates (smoke mode included): every repeat — alias-renamed too —
   must come back [cached] with zero spend, and the median replay must be
   at least 10x faster end-to-end than the median cold release. *)
let bench_replay fixture repeats =
  let buf = Buffer.create 4096 in
  let server = make_server ~replay:true ~audit:(Audit.to_buffer buf) fixture in
  let session = Server.session server in
  hello server session "bench";
  List.iter (fun s -> ignore (run_query_release server session s.sql)) shapes;
  List.iter
    (fun s ->
      for _ = 1 to repeats do
        let cached, spent, _ = run_query_release server session s.warm_sql in
        if not cached then Fmt.failwith "%s: repeat was not replayed" s.name;
        if spent <> 0.0 then Fmt.failwith "%s: replay charged epsilon %g" s.name spent
      done)
    shapes;
  let outcome o j = Option.bind (Json.mem "outcome" j) Json.to_str = Some o in
  let totals o =
    List.filter_map
      (fun j -> if outcome o j then Some (field j "total_ns") else None)
      (audit_events buf)
  in
  let cold_ns = median (totals "granted") in
  let replay_ns = median (totals "replayed") in
  let speedup = cold_ns /. Float.max replay_ns 1.0 in
  if speedup < 10.0 then
    Fmt.failwith "replay gate: %.0f ns replay vs %.0f ns cold is only %.1fx (need 10x)"
      replay_ns cold_ns speedup;
  (cold_ns, replay_ns, speedup)

(* The dashboard workload: many sessions repeating the same few shapes
   against a replay-enabled server. After the priming pass everything is a
   release-store hit, so this is the warm-path q/s the release store buys. *)
let bench_replay_throughput fixture ~threads ~per_thread ~rounds =
  let server = make_server ~replay:true ~audit:(Audit.null ()) fixture in
  let prime = Server.session server in
  hello server prime "bench-warmup";
  List.iter (fun s -> ignore (run_query server prime s.sql)) shapes;
  let round () =
    let worker i =
      let session = Server.session server in
      hello server session (Fmt.str "bench-%d" i);
      List.iteri
        (fun j s ->
          for _ = 1 to per_thread do
            ignore (run_query server session (if (i + j) mod 2 = 0 then s.sql else s.warm_sql))
          done)
        shapes
    in
    let t0 = Unix.gettimeofday () in
    let ts = List.init threads (fun i -> Thread.create worker i) in
    List.iter Thread.join ts;
    (Unix.gettimeofday () -. t0) *. 1e9
  in
  let wall_ns = median (List.init rounds (fun _ -> round ())) in
  let queries = threads * per_thread * List.length shapes in
  let stats =
    match Server.release_store server with
    | Some store -> Release_store.stats store
    | None -> Fmt.failwith "replay server has no release store"
  in
  let hit_rate =
    float_of_int stats.hits /. float_of_int (max 1 (stats.hits + stats.misses))
  in
  (queries, wall_ns, hit_rate)

(* The reactor's hit path in process: a request line in and a reply line out
   (decode + Server.answer_hit), on a replay-enabled server logging to an
   audit file like flex_serve. The requests are every shape's text, its
   alias-renamed form and a LIMIT variant (a derivation), from two analysts
   whose remaining budgets differ, each with its own id. A twin server
   primed the same way answers the same requests through Server.handle and
   Wire.response_to_line: [identical] says every spliced line equalled its
   twin's, checked before the clock starts. Returns the median ns per line
   over [rounds] batches of [batch] lines. *)
let bench_hit_line fixture ~rounds ~batch =
  let twin () =
    let path = Filename.temp_file "flex_service_bench" ".audit" in
    let audit = Audit.to_file path in
    let server = make_server ~replay:true ~audit fixture in
    let payer = Server.session server and other = Server.session server in
    hello server payer "bench";
    hello server other "bench-2";
    List.iter (fun s -> ignore (run_query server payer s.sql)) shapes;
    (server, [| payer; other |], fun () -> Audit.close audit; Sys.remove path)
  in
  let texts = List.concat_map (fun s -> [ s.sql; s.warm_sql; s.sql ^ " LIMIT 3" ]) shapes in
  let lines =
    Array.of_list
      (List.concat
         (List.mapi
            (fun i sql ->
              List.init 2 (fun who ->
                  ( who,
                    Wire.request_to_line
                      (Wire.Query
                         { sql; epsilon = None; delta = None; id = Some (Fmt.str "h%d.%d" i who) })
                  )))
            texts))
  in
  let spliced, s_sessions, s_close = twin () and direct, d_sessions, d_close = twin () in
  let hit server sessions (who, line) =
    match Wire.request_of_line line with
    | Ok req -> Server.answer_hit server sessions.(who) req
    | Error e -> Fmt.failwith "hit line: %s" e
  in
  (* the first send of a text is a memo miss: memoise every text on both *)
  Array.iter
    (fun (who, line) ->
      let req = Result.get_ok (Wire.request_of_line line) in
      ignore (Server.handle spliced s_sessions.(who) req);
      ignore (Server.handle direct d_sessions.(who) req))
    lines;
  let identical =
    Array.for_all
      (fun ((who, line) as l) ->
        let req = Result.get_ok (Wire.request_of_line line) in
        hit spliced s_sessions l
        = Some
            (Wire.response_to_line ?id:(Wire.request_id req)
               (Server.handle direct d_sessions.(who) req)))
      lines
  in
  let n = Array.length lines in
  let per_line =
    median
      (List.init rounds (fun r ->
           let t0 = Unix.gettimeofday () in
           for j = 0 to batch - 1 do
             ignore (hit spliced s_sessions lines.(((r * batch) + j) mod n))
           done;
           (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int batch))
  in
  s_close ();
  d_close ();
  (per_line, identical)

(* DP conservation across a simulated restart: two server generations over
   the same ledger + release journals. The second runs with a different RNG
   seed, so any byte-identical answer can only have come from the store.
   Gates: within and across generations every analyst sees the same released
   bytes per shape, and the second generation charges nothing. *)
let restart_gate fixture =
  let _, metrics = fixture in
  let ledger_path = Filename.temp_file "flex_service_bench" ".ledger" in
  let store_path = Filename.temp_file "flex_service_bench" ".releases" in
  let analysts = [ "a1"; "a2"; "a3" ] in
  let run ~seed =
    let ledger = Ledger.open_ ledger_path in
    let store =
      Release_store.open_ ~fingerprint:(Metrics.fingerprint metrics) store_path
    in
    let answers =
      List.concat_map
        (fun analyst ->
          let server =
            make_server ~replay:true ~release_store:store ~ledger ~seed
              ~audit:(Audit.null ()) fixture
          in
          let session = Server.session server in
          hello server session analyst;
          List.map
            (fun s ->
              let _, _, rows = run_query_release server session s.sql in
              (s.name, rows))
            shapes)
        analysts
    in
    let spends = List.map (fun a -> Ledger.spent ledger ~analyst:a) analysts in
    Release_store.close store;
    Ledger.close ledger;
    (answers, spends)
  in
  let answers1, spends1 = run ~seed:42 in
  let answers2, spends2 = run ~seed:977 in
  let per_shape answers name =
    List.filter_map (fun (n, rows) -> if n = name then Some rows else None) answers
  in
  List.iter
    (fun s ->
      match per_shape answers1 s.name @ per_shape answers2 s.name with
      | [] -> Fmt.failwith "restart gate: no releases for %s" s.name
      | first :: rest ->
        List.iter
          (fun rows ->
            if rows <> first then
              Fmt.failwith "restart gate: %s released two different answers" s.name)
          rest)
    shapes;
  if spends1 <> spends2 then
    Fmt.failwith "restart gate: replays after the restart charged budget";
  Sys.remove ledger_path;
  Sys.remove store_path

(* ------------------------------------------------------------- ledger *)

let time_ns f =
  let t0 = Unix.gettimeofday () in
  f ();
  (Unix.gettimeofday () -. t0) *. 1e9

let spend ledger analyst =
  match Ledger.spend ledger ~analyst ~epsilon:0.125 ~delta:1e-9 ~label:"bench" with
  | Ok _ -> ()
  | Error e -> Fmt.failwith "ledger bench: %s" (Ledger.error_to_string e)

let register ledger analyst =
  match Ledger.register ledger ~analyst ~epsilon:1e9 ~delta:0.5 with
  | Ok () -> ()
  | Error e -> Fmt.failwith "ledger bench: %s" (Ledger.error_to_string e)

(* Median ns per Ledger.spend on an in-memory ledger, over [rounds] batches
   of [batch] spends: on one analyst with at least [n] prior spends, and on
   a fresh analyst per batch. The two are interleaved so both see the same
   machine. *)
let bench_spend_history ~n ~rounds ~batch =
  let ledger = Ledger.in_memory () in
  register ledger "history";
  for _ = 1 to n do
    spend ledger "history"
  done;
  let per_spend analyst =
    time_ns (fun () ->
        for _ = 1 to batch do
          spend ledger analyst
        done)
    /. float_of_int batch
  in
  let samples =
    List.init rounds (fun r ->
        let history = per_spend "history" in
        let fresh = Fmt.str "fresh-%d" r in
        register ledger fresh;
        (history, per_spend fresh))
  in
  (median (List.map fst samples), median (List.map snd samples))

(* Median ns per journal line to replay a journal of one registration and
   [spends] spends with Ledger.open_. *)
let bench_replay_per_line ~spends ~rounds =
  let path = Filename.temp_file "flex_service_bench" ".ledger" in
  let ledger = Ledger.open_ path in
  register ledger "a";
  for _ = 1 to spends do
    spend ledger "a"
  done;
  Ledger.close ledger;
  let ns =
    median
      (List.init rounds (fun _ ->
           time_ns (fun () ->
               let l = Ledger.open_ path in
               if Ledger.spends l ~analyst:"a" <> spends then
                 Fmt.failwith "ledger bench: replay lost spends";
               Ledger.close l)))
  in
  Sys.remove path;
  ns /. float_of_int (spends + 1)

(* ------------------------------------------------------------------ JSON *)

let json_of_stages s =
  Fmt.str
    "{\"parse_ns\": %.0f, \"analysis_ns\": %.0f, \"smooth_ns\": %.0f, \
     \"execution_ns\": %.0f, \"perturbation_ns\": %.0f, \"total_ns\": %.0f}"
    s.parse_ns s.analysis_ns s.smooth_ns s.execution_ns s.perturbation_ns (total s)

let json_report b r =
  let warm_exec_share = (r.warm.execution_ns +. r.warm.perturbation_ns) /. total r.warm in
  Buffer.add_string b
    (Fmt.str
       "    {\"shape\": %S, \"cold_ns\": %s, \"warm_ns\": %s, \"warm_cache_hit\": %b, \
        \"analysis_speedup\": %.1f, \"warm_exec_perturb_share\": %.3f}"
       r.shape (json_of_stages r.cold) (json_of_stages r.warm) r.warm_hit
       (r.cold.analysis_ns /. Float.max r.warm.analysis_ns 1.0)
       warm_exec_share)

(* -------------------------------------------------------------------- main *)

let () =
  let sizes = if !smoke then W.Uber.small_sizes else W.Uber.default_sizes in
  let repeats = if !smoke then 3 else 21 in
  let threads = if !smoke then 2 else 4 in
  let per_thread = if !smoke then 2 else 25 in
  let rounds = if !smoke then 1 else 3 in
  let fixture = W.Uber.generate ~sizes (Rng.create ~seed:7 ()) in
  Fmt.pr "flex service benchmark (analysis cache; median of %d warm repeats)@." repeats;
  Fmt.pr "  %-16s %12s %12s %12s %9s@." "shape" "cold ns" "warm ns" "warm analysis"
    "hit";
  let reports =
    List.map
      (fun s ->
        let r = bench_shape fixture repeats s in
        Fmt.pr "  %-16s %12.0f %12.0f %12.0f %9b@." r.shape (total r.cold) (total r.warm)
          r.warm.analysis_ns r.warm_hit;
        r)
      shapes
  in
  let queries, wall_ns, hits, misses = bench_throughput fixture ~threads ~per_thread ~rounds in
  let hit_rate = float_of_int hits /. float_of_int (max 1 (hits + misses)) in
  Fmt.pr
    "  throughput: %d queries over %d threads in %.1f ms (%.0f q/s, median of %d rounds), \
     cache hit rate %.3f@."
    queries threads (wall_ns /. 1e6)
    (float_of_int queries /. (wall_ns /. 1e9))
    rounds hit_rate;
  (* a timing gate on shared CI hardware gets three attempts: scheduler noise
     passes on retry, a real regression fails all three *)
  let rec gated_replay attempts =
    try bench_replay fixture repeats
    with Failure msg when attempts > 1 ->
      Fmt.pr "  (replay gate retry: %s)@." msg;
      gated_replay (attempts - 1)
  in
  let cold_ns, replay_ns, replay_speedup = gated_replay 3 in
  Fmt.pr "  replay: %.0f ns vs %.0f ns cold (%.0fx, zero budget)@." replay_ns cold_ns
    replay_speedup;
  let rqueries, rwall_ns, replay_hit_rate =
    bench_replay_throughput fixture ~threads ~per_thread ~rounds
  in
  let warm_replay_qps = float_of_int rqueries /. (rwall_ns /. 1e9) in
  Fmt.pr
    "  replay throughput: %d queries in %.1f ms (%.0f q/s), release hit rate %.3f@."
    rqueries (rwall_ns /. 1e6) warm_replay_qps replay_hit_rate;
  let hit_line_ns, hit_line_identical =
    bench_hit_line fixture ~rounds:(if !smoke then 5 else 21) ~batch:(if !smoke then 200 else 2000)
  in
  Fmt.pr "  hit line: %.0f ns per request line through decode + Server.answer_hit%s@."
    hit_line_ns
    (if hit_line_identical then ", every line identical to Server.handle's"
     else ", LINES DIFFER from Server.handle's");
  restart_gate fixture;
  Fmt.pr "  restart gate: byte-identical replays, zero additional spend@.";
  let ledger_n = if !smoke then 2_000 else 10_000 in
  let history_ns, fresh_ns = bench_spend_history ~n:ledger_n ~rounds:21 ~batch:50 in
  let spend_history_ratio = history_ns /. fresh_ns in
  let replay_n_ns = bench_replay_per_line ~spends:ledger_n ~rounds:5 in
  let replay_tenth_ns = bench_replay_per_line ~spends:(ledger_n / 10) ~rounds:5 in
  let replay_scaling_ratio = replay_n_ns /. replay_tenth_ns in
  Fmt.pr
    "  ledger: spend %.0f ns after %d spends vs %.0f ns fresh (%.2fx); replay %.0f vs \
     %.0f ns/line at %d vs %d spends (%.2fx)@."
    history_ns ledger_n fresh_ns spend_history_ratio replay_n_ns replay_tenth_ns ledger_n
    (ledger_n / 10) replay_scaling_ratio;
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"benchmark\": \"flex-service\",\n  \"unit\": \"ns/stage\",\n";
  Buffer.add_string b (Fmt.str "  \"smoke\": %b,\n  \"shapes\": [\n" !smoke);
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ",\n";
      json_report b r)
    reports;
  Buffer.add_string b "\n  ],\n";
  Buffer.add_string b
    (Fmt.str
       "  \"throughput\": {\"threads\": %d, \"rounds\": %d, \"queries\": %d, \
        \"wall_ns\": %.0f, \"queries_per_sec\": %.0f, \"cache_hits\": %d, \
        \"cache_misses\": %d, \"cache_hit_rate\": %.3f},\n"
       threads rounds queries wall_ns
       (float_of_int queries /. (wall_ns /. 1e9))
       hits misses hit_rate);
  Buffer.add_string b
    (Fmt.str
       "  \"replay\": {\"cold_ns\": %.0f, \"replay_ns\": %.0f, \
        \"replay_speedup\": %.1f, \"warm_replay_qps\": %.0f, \
        \"replay_hit_rate\": %.3f, \"restart_conservation\": true, \
        \"hit_line_ns\": %.0f, \"hit_line_identical\": %b},\n"
       cold_ns replay_ns replay_speedup warm_replay_qps replay_hit_rate hit_line_ns
       hit_line_identical);
  Buffer.add_string b
    (Fmt.str
       "  \"ledger\": {\"n\": %d, \"spend_ns_history\": %.0f, \"spend_ns_fresh\": %.0f, \
        \"spend_history_ratio\": %.3f, \"replay_ns_per_line_n\": %.0f, \
        \"replay_ns_per_line_tenth\": %.0f, \"replay_scaling_ratio\": %.3f}\n"
       ledger_n history_ns fresh_ns spend_history_ratio replay_n_ns replay_tenth_ns
       replay_scaling_ratio);
  Buffer.add_string b "}\n";
  let json = Buffer.contents b in
  (match Json.of_string json with
  | Ok _ -> ()
  | Error e -> Fmt.failwith "generated JSON is malformed: %s" e);
  if not hit_line_identical then
    Fmt.failwith "hit line: a spliced reply differs from Server.handle's";
  (* the cache must be measurably effective, or the number is a lie *)
  List.iter
    (fun r ->
      if not r.warm_hit then Fmt.failwith "%s: warm repeats missed the cache" r.shape)
    reports;
  let oc = open_out !out_path in
  output_string oc json;
  close_out oc;
  Fmt.pr "wrote %s@." !out_path
