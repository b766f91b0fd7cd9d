(* Tracked multicore benchmark: the columnar engine's morsel dispatch
   ({!Flex_engine.Parallel.gather}) swept over domain counts against its own
   sequential run, plus FLEX service throughput with a shared execution
   pool.

     dune exec bench/parallel_perf.exe                 -- writes BENCH_parallel.json
     dune exec bench/parallel_perf.exe -- --out FILE   -- choose the output path
     dune exec bench/parallel_perf.exe -- --smoke      -- small scales, JSON sanity check

   The row engine is sequential, so every shape and service query must run
   columnar: each one asserts that {!Executor.columnar_fallbacks} did not
   move, and the sweep therefore measures the morsel dispatch and nothing
   else. Every timed configuration is first checked to return results
   identical to the sequential run — the morsel kernels are
   order-preserving, so anything short of equality is a bug, not noise. The
   JSON records [host_cpus] (Domain.recommended_domain_count) next to every
   speedup: with one CPU, or two that share little capacity, the pool's
   domains time-slice the cores, so the honest expectation is ~1.0x or
   below and the tracked number bounds the dispatch overhead rather than
   demonstrating scaling. *)

module Rng = Flex_dp.Rng
module Ledger = Flex_dp.Ledger
module Database = Flex_engine.Database
module Table = Flex_engine.Table
module Executor = Flex_engine.Executor
module Task_pool = Flex_engine.Task_pool
module W = Flex_workload
module Server = Flex_service.Server
module Wire = Flex_service.Wire
module Audit = Flex_service.Audit

let smoke = ref false
let out_path = ref "BENCH_parallel.json"
let domain_counts = [ 1; 2; 4 ]

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

(* ------------------------------------------------------------ measurement *)

(* Warmup rounds then per-configuration medians over sample rounds that
   round-robin across all configurations (same discipline as
   bench/perf.ml): heap growth and GC drift over the process lifetime hit
   every configuration equally instead of whichever was timed last, which
   is what the sequential-vs-domains ratio needs to be trustworthy on a
   noisy single-CPU host. Repetitions are adapted per configuration so
   each sample takes a measurable slice. *)
let medians_ns (fs : (unit -> unit) array) =
  let samples = if !smoke then 3 else 9 in
  let warmups = if !smoke then 1 else 3 in
  Array.iter
    (fun f ->
      for _ = 1 to warmups do
        f ()
      done)
    fs;
  Gc.compact ();
  let reps =
    Array.map
      (fun f ->
        if !smoke then 1
        else begin
          let t0 = Unix.gettimeofday () in
          f ();
          let one = (Unix.gettimeofday () -. t0) *. 1e9 in
          max 1 (min 30 (int_of_float (5e6 /. max one 1.0)))
        end)
      fs
  in
  let xs = Array.map (fun _ -> Array.make samples 0.0) fs in
  let k = Array.length fs in
  for s = 0 to samples - 1 do
    (* rotate the starting configuration each round: allocation-heavy
       queries leave major-GC debt that the next configuration pays, so a
       fixed order would systematically tax whichever config follows the
       biggest allocator *)
    for j = 0 to k - 1 do
      let i = (s + j) mod k in
      let t0 = Unix.gettimeofday () in
      for _ = 1 to reps.(i) do
        fs.(i) ()
      done;
      xs.(i).(s) <- (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int reps.(i)
    done
  done;
  Array.map
    (fun a ->
      Array.sort compare a;
      a.(samples / 2))
    xs

(* --------------------------------------------------------------- workload *)

type shape = { sname : string; table : string; sql : string }

let uber_shapes =
  [
    { sname = "scan"; table = "trips"; sql = "SELECT * FROM trips" };
    {
      sname = "filter";
      table = "trips";
      sql = "SELECT id, fare FROM trips WHERE city_id = 1 AND fare > 10 AND status = 'completed'";
    };
    {
      sname = "equijoin";
      table = "trips";
      sql =
        "SELECT t.id, d.rating, u.status FROM trips t \
         JOIN drivers d ON t.driver_id = d.id \
         JOIN users u ON t.rider_id = u.id WHERE d.rating > 3.0";
    };
    {
      sname = "group_agg";
      table = "trips";
      sql =
        "SELECT city_id, COUNT(*), AVG(fare), MAX(fare) FROM trips \
         GROUP BY city_id HAVING COUNT(*) > 1";
    };
    {
      sname = "order_limit";
      table = "trips";
      sql = "SELECT id, fare FROM trips ORDER BY fare DESC, id LIMIT 100";
    };
  ]

let tpch_shapes =
  [
    { sname = "scan"; table = "lineitem"; sql = "SELECT * FROM lineitem" };
    {
      sname = "equijoin";
      table = "lineitem";
      sql =
        "SELECT o.o_orderkey, c.c_mktsegment FROM orders o \
         JOIN lineitem l ON o.o_orderkey = l.l_orderkey \
         JOIN customer c ON o.o_custkey = c.c_custkey";
    };
    {
      sname = "group_agg";
      table = "lineitem";
      sql =
        "SELECT l_returnflag, l_linestatus, COUNT(*), SUM(l_quantity), AVG(l_extendedprice) \
         FROM lineitem GROUP BY l_returnflag, l_linestatus";
    };
    {
      sname = "order_limit";
      table = "lineitem";
      sql = "SELECT l_orderkey, l_extendedprice FROM lineitem \
             ORDER BY l_extendedprice DESC LIMIT 100";
    };
  ]

(* ----------------------------------------------------------------- engine *)

type entry = {
  substrate : string;
  shape : string;
  input_rows : int;
  sequential_ns : float;
  by_domains : (int * float) list;
}

(* [columnar what f] runs [f] and fails if the row engine took over any
   select body meanwhile. *)
let columnar what f =
  let before = Executor.columnar_fallbacks () in
  let r = f () in
  if Executor.columnar_fallbacks () <> before then
    Fmt.failwith "%s fell back to the row engine; the sweep would not time the morsel dispatch"
      what;
  r

let bench_engine substrate (db : Database.t) pools shapes acc =
  List.fold_left
    (fun acc s ->
      columnar (Fmt.str "%s/%s" substrate s.sname) @@ fun () ->
      let input_rows =
        match Database.find_opt db s.table with
        | Some t -> Array.length (Table.rows t)
        | None -> 0
      in
      let base =
        match Executor.run_sql db s.sql with
        | Ok r -> r
        | Error e -> Fmt.failwith "%s/%s: %s" substrate s.sname e
      in
      (* every pool must be result-identical before it is timed *)
      List.iter
        (fun (d, pool) ->
          match Executor.run_sql ~pool db s.sql with
          | Ok r when r = base -> ()
          | Ok _ ->
            Fmt.failwith "%s/%s: parallel result differs at %d domains" substrate s.sname d
          | Error e -> Fmt.failwith "%s/%s (%d domains): %s" substrate s.sname d e)
        pools;
      let configs =
        Array.of_list
          ((fun () -> ignore (Executor.run_sql db s.sql))
          :: List.map
               (fun (_, pool) -> fun () -> ignore (Executor.run_sql ~pool db s.sql))
               pools)
      in
      let meds = medians_ns configs in
      let sequential_ns = meds.(0) in
      let by_domains = List.mapi (fun i (d, _) -> (d, meds.(i + 1))) pools in
      let e = { substrate; shape = s.sname; input_rows; sequential_ns; by_domains } in
      Fmt.pr "  %-6s %-12s %8d rows  seq %10.0f ns  %a@." substrate s.sname input_rows
        sequential_ns
        Fmt.(
          list ~sep:(any "  ") (fun ppf (d, ns) ->
              Fmt.pf ppf "d=%d %6.2fx" d (sequential_ns /. ns)))
        by_domains;
      e :: acc)
    acc shapes

(* ---------------------------------------------------------------- service *)

let service_sqls =
  [
    "SELECT COUNT(*) FROM trips t WHERE t.status = 'completed'";
    "SELECT t.status, COUNT(*) FROM trips t GROUP BY t.status";
    "SELECT c.name, COUNT(*) FROM trips t JOIN cities c ON t.city_id = c.id GROUP BY c.name";
  ]

let run_query server session sql =
  match Server.handle server session (Wire.Query { sql; epsilon = None; delta = None; id = None }) with
  | Wire.Result _ -> ()
  | other -> Fmt.failwith "query failed: %s" (Wire.response_to_line other)

let hello server session analyst =
  match Server.handle server session (Wire.Hello { analyst; epsilon = None; delta = None }) with
  | Wire.Budget_report _ -> ()
  | other -> Fmt.failwith "hello failed: %s" (Wire.response_to_line other)

(* Sessions on OS threads against one server whose execution stage shares
   one domain pool — the flex_serve deployment shape. The analysis cache is
   primed first so the timed rounds measure execute + perturb. *)
let service_qps (db, metrics) pool =
  let config =
    {
      Server.default_config with
      analyst_epsilon = 1e9;
      analyst_delta = 0.5;
      (* replay off: this benchmark measures pool-backed execution; repeats
         served from the release store would never reach the pool *)
      release_cache = false;
    }
  in
  let server =
    Server.create ~audit:(Audit.null ()) ~config ?pool ~db ~metrics
      ~ledger:(Ledger.in_memory ()) ~rng:(Rng.create ~seed:42 ()) ()
  in
  let threads = if !smoke then 2 else 4 in
  let per_thread = if !smoke then 2 else 25 in
  let rounds = if !smoke then 1 else 3 in
  let prime = Server.session server in
  hello server prime "warmup";
  List.iter (run_query server prime) service_sqls;
  let round () =
    let worker i =
      let session = Server.session server in
      hello server session (Fmt.str "bench-%d" i);
      List.iter
        (fun sql ->
          for _ = 1 to per_thread do
            run_query server session sql
          done)
        service_sqls
    in
    let t0 = Unix.gettimeofday () in
    let ts = List.init threads (fun i -> Thread.create worker i) in
    List.iter Thread.join ts;
    (Unix.gettimeofday () -. t0) *. 1e9
  in
  let walls = Array.init rounds (fun _ -> round ()) in
  Array.sort compare walls;
  let wall_ns = walls.(rounds / 2) in
  let queries = threads * per_thread * List.length service_sqls in
  (queries, wall_ns)

(* ------------------------------------------------------------------ JSON *)

let json_of results service host_cpus =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"benchmark\": \"parallel-execution\",\n  \"unit\": \"ns/query\",\n";
  Buffer.add_string b
    (Fmt.str "  \"host_cpus\": %d,\n  \"smoke\": %b,\n" host_cpus !smoke);
  Buffer.add_string b
    "  \"note\": \"every engine shape and service query runs on the columnar engine (checked: \
     no row-engine fallback), so the sweep times its morsel dispatch alone; the row engine is \
     sequential. speedup > 1.0 requires host_cpus > 1 with spare capacity; otherwise these \
     numbers bound the dispatch overhead instead of demonstrating scaling\",\n";
  Buffer.add_string b "  \"engine\": [\n";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Fmt.str
           "    {\"substrate\": %S, \"shape\": %S, \"input_rows\": %d, \
            \"sequential_ns\": %.0f, \"parallel\": [%s]}"
           e.substrate e.shape e.input_rows e.sequential_ns
           (String.concat ", "
              (List.map
                 (fun (d, ns) ->
                   Fmt.str "{\"domains\": %d, \"ns\": %.0f, \"speedup\": %.2f}" d ns
                     (e.sequential_ns /. ns))
                 e.by_domains))))
    results;
  Buffer.add_string b "\n  ],\n  \"service\": [\n";
  List.iteri
    (fun i (d, queries, wall_ns) ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Fmt.str
           "    {\"domains\": %d, \"queries\": %d, \"wall_ns\": %.0f, \"queries_per_sec\": %.0f}"
           d queries wall_ns
           (float_of_int queries /. (wall_ns /. 1e9))))
    service;
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b

(* Same minimal well-formedness check as bench/perf.ml. *)
let json_well_formed s =
  let n = String.length s in
  let rec go i depth in_str =
    if i >= n then (not in_str) && depth = []
    else
      let c = s.[i] in
      if in_str then
        if c = '\\' then go (i + 2) depth true
        else go (i + 1) depth (c <> '"')
      else
        match c with
        | '"' -> go (i + 1) depth true
        | '{' | '[' -> go (i + 1) (c :: depth) false
        | '}' -> (match depth with '{' :: d -> go (i + 1) d false | _ -> false)
        | ']' -> (match depth with '[' :: d -> go (i + 1) d false | _ -> false)
        | _ -> go (i + 1) depth false
  in
  go 0 [] false

(* -------------------------------------------------------------------- main *)

let () =
  let host_cpus = Domain.recommended_domain_count () in
  let rng = Rng.create ~seed:42 () in
  (* smoke scales stay above the parallel threshold (2048 rows) on the
     driving tables so the morsel dispatch genuinely runs *)
  let uber_sizes =
    if !smoke then { W.Uber.cities = 8; drivers = 100; users = 150; trips = 3000; user_tags = 60 }
    else W.Uber.default_sizes
  in
  let tpch_scale = if !smoke then 0.0005 else 0.01 in
  let pools = List.map (fun d -> (d, Task_pool.create ~domains:d)) domain_counts in
  Fmt.pr "parallel execution benchmark (host_cpus=%d; domain sweep %a)@." host_cpus
    Fmt.(list ~sep:(any ",") int)
    domain_counts;
  if host_cpus = 1 then
    Fmt.pr "  note: single-CPU host — domains time-slice one core, expect ~1.0x@.";
  let udb, _ = W.Uber.generate ~sizes:uber_sizes (Rng.split rng) in
  let tdb, _ = W.Tpch.generate ~scale:tpch_scale (Rng.split rng) in
  let results = bench_engine "uber" udb pools uber_shapes [] in
  let results = bench_engine "tpch" tdb pools tpch_shapes results in
  let results = List.rev results in
  let fixture = W.Uber.generate ~sizes:uber_sizes (Rng.split rng) in
  let service =
    List.map
      (fun (d, pool) ->
        let pool = if d > 1 then Some pool else None in
        let queries, wall_ns =
          columnar (Fmt.str "service d=%d" d) (fun () -> service_qps fixture pool)
        in
        Fmt.pr "  service d=%d: %d queries in %.1f ms (%.0f q/s)@." d queries (wall_ns /. 1e6)
          (float_of_int queries /. (wall_ns /. 1e9));
        (d, queries, wall_ns))
      pools
  in
  List.iter (fun (_, pool) -> Task_pool.shutdown pool) pools;
  let json = json_of results service host_cpus in
  let out = if !smoke then Filename.temp_file "bench_parallel" ".json" else !out_path in
  let oc = open_out out in
  output_string oc json;
  close_out oc;
  Fmt.pr "wrote %s@." out;
  if !smoke then begin
    let ic = open_in out in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    Sys.remove out;
    if not (json_well_formed s) then Fmt.failwith "smoke: JSON not well-formed";
    if not (Astring.String.is_infix ~affix:"\"host_cpus\"" s) then
      Fmt.failwith "smoke: missing host_cpus";
    if not (Astring.String.is_infix ~affix:"\"domains\": 4" s) then
      Fmt.failwith "smoke: missing 4-domain sweep entry";
    Fmt.pr "smoke ok: JSON well-formed, %d engine entries@." (List.length results)
  end
