(* Tracked engine performance benchmark: compiled/vectorized {!Executor}
   against the row-at-a-time {!Reference} interpreter on six query shapes
   (scan, filter, equijoin, group-aggregate, a date-range count,
   order-limit) over the Uber and TPC-H substrates at two scales each.

     dune exec bench/perf.exe                       -- full run, writes BENCH_engine.json
     dune exec bench/perf.exe -- --out FILE         -- choose the output path
     dune exec bench/perf.exe -- --smoke            -- tiny scales, JSON sanity check

   Per (substrate, scale, shape) the JSON records median ns/query for both
   pipelines, the speedup, and compiled rows/sec (input rows of the shape's
   primary table divided by median compiled time).

   It also records the fallback share of the paper workloads: how many of
   their optimized plans the row engine runs because the columnar engine
   declined a select body ({!Executor.columnar_fallbacks}). The corpora are
   the Qgen queries of seed 11 with their population companions, the six
   §5.5 programs and the five TPC-H queries. No generated Qgen plan may
   fall back: --smoke fails if one does. *)

module Rng = Flex_dp.Rng
module Database = Flex_engine.Database
module Table = Flex_engine.Table
module Executor = Flex_engine.Executor
module Reference = Flex_engine.Reference
module Columnar = Flex_engine.Columnar
module Optimizer = Flex_engine.Optimizer
module W = Flex_workload

let smoke = ref false
let out_path = ref "BENCH_engine.json"

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

(* Median wall-clock ns per run for each pipeline. Warmup rounds run every
   pipeline unmeasured first (so one-time lazies, branch history and the
   allocator's steady state are paid before the clock starts), then samples
   are interleaved (one round of each pipeline, repeated) so machine noise
   lands on all pipelines alike; repetitions adapt so each sample takes a
   measurable slice without letting the whole suite crawl. In smoke mode
   tiny inputs get enough repetitions per sample for the perf-regression
   gate below to compare real numbers, not clock granularity. *)
let medians (fns : (unit -> unit) array) : float array =
  let samples = if !smoke then 5 else 9 in
  let warmups = if !smoke then 1 else 3 in
  let time_once f reps =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      f ()
    done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int reps
  in
  let reps f =
    let one = time_once f 1 in
    let budget = if !smoke then 2e5 else 5e6 in
    let cap = if !smoke then 200 else 30 in
    max 1 (min cap (int_of_float (budget /. max one 1.0)))
  in
  for _ = 1 to warmups do
    Array.iter (fun f -> f ()) fns
  done;
  Gc.compact ();
  let rs = Array.map reps fns in
  let out = Array.map (fun _ -> Array.make samples 0.0) fns in
  for i = 0 to samples - 1 do
    Array.iteri (fun j f -> out.(j).(i) <- time_once f rs.(j)) fns
  done;
  Array.map
    (fun s ->
      Array.sort compare s;
      s.(samples / 2))
    out

type row = {
  substrate : string;
  scale : string;
  shape : string;
  input_rows : int;
  reference_ns : float;
  compiled_ns : float;  (* row pipeline: columnar engine switched off *)
  columnar_ns : float;  (* columnar engine on (the default serving config) *)
}

let speedup r = r.reference_ns /. r.compiled_ns

let columnar_speedup r = r.compiled_ns /. r.columnar_ns

let rows_per_sec r = float_of_int r.input_rows /. (r.columnar_ns /. 1e9)

(* A shape is a query plus the table whose cardinality drives it. *)
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
      sname = "range_count";
      table = "trips";
      sql =
        "SELECT COUNT(*) FROM trips WHERE requested_at >= '2016-03-01' \
         AND requested_at < '2016-06-01' AND city_id = 3";
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
      sname = "filter";
      table = "lineitem";
      sql =
        "SELECT l_orderkey, l_quantity FROM lineitem \
         WHERE l_quantity > 30 AND l_returnflag = 'R'";
    };
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
      sname = "range_count";
      table = "lineitem";
      sql =
        "SELECT COUNT(*) FROM lineitem WHERE l_shipdate >= '1994-01-01' \
         AND l_shipdate < '1995-01-01' AND l_quantity < 24";
    };
    {
      sname = "order_limit";
      table = "lineitem";
      sql = "SELECT l_orderkey, l_extendedprice FROM lineitem \
             ORDER BY l_extendedprice DESC LIMIT 100";
    };
  ]

(* Run [f] with the columnar engine forced on or off. *)
let with_columnar on f =
  let saved = !Columnar.enabled in
  Columnar.enabled := on;
  Fun.protect ~finally:(fun () -> Columnar.enabled := saved) f

let bench_substrate name scale_label (db : Database.t) shapes acc =
  List.fold_left
    (fun acc s ->
      let input_rows =
        match Database.find_opt db s.table with
        | Some t -> Array.length (Table.rows t)
        | None -> 0
      in
      (* check all three pipelines agree before timing anything; the row and
         columnar pipelines must agree bit-for-bit, rows and order *)
      let expect = Reference.run_sql db s.sql in
      let got = with_columnar false (fun () -> Executor.run_sql db s.sql) in
      let gotc = with_columnar true (fun () -> Executor.run_sql db s.sql) in
      (match (expect, got, gotc) with
      | Ok a, Ok b, Ok c ->
        if List.length a.Reference.rows <> List.length b.Executor.rows then
          Fmt.failwith "%s/%s: pipelines disagree on %s" name s.sname s.sql;
        if b.Executor.rows <> c.Executor.rows then
          Fmt.failwith "%s/%s: columnar diverges from row pipeline on %s" name s.sname
            s.sql
      | Error e, _, _ | _, Error e, _ | _, _, Error e ->
        Fmt.failwith "%s/%s: %s" name s.sname e);
      let ns =
        medians
          [|
            (fun () -> ignore (Reference.run_sql db s.sql));
            (fun () -> with_columnar false (fun () -> ignore (Executor.run_sql db s.sql)));
            (fun () -> with_columnar true (fun () -> ignore (Executor.run_sql db s.sql)));
          |]
      in
      let reference_ns = ns.(0) and compiled_ns = ns.(1) and columnar_ns = ns.(2) in
      let r =
        { substrate = name; scale = scale_label; shape = s.sname; input_rows;
          reference_ns; compiled_ns; columnar_ns }
      in
      Fmt.pr "  %-12s %-10s %-12s %10.0f ns %10.0f ns %10.0f ns %6.2fx %6.2fx %12.0f rows/s@."
        name scale_label s.sname reference_ns compiled_ns columnar_ns (speedup r)
        (columnar_speedup r) (rows_per_sec r);
      r :: acc)
    acc shapes

(* ---------------------------------------------------------- fallback share *)

type share = { corpus : string; queries : int; fallbacks : int }

(* Run each query's optimized plan, as the service does, and count the
   plans during which the row engine took over a select body. *)
let fallback_share corpus db metrics sqls =
  let falls_back sql =
    let plan = Optimizer.plan ~metrics (Flex_sql.Parser.parse_exn sql) in
    let before = Executor.columnar_fallbacks () in
    ignore (Executor.run_plan db plan);
    Executor.columnar_fallbacks () > before
  in
  let s =
    { corpus; queries = List.length sqls; fallbacks = List.length (List.filter falls_back sqls) }
  in
  Fmt.pr "  %-8s %3d of %3d optimized plans fall back to the row engine@." corpus s.fallbacks
    s.queries;
  s

let share s = float_of_int s.fallbacks /. float_of_int (max 1 s.queries)

let fallback_shares ~uber_sizes ~tpch_scale =
  let rng = Rng.create ~seed:7 () in
  let udb, umetrics = W.Uber.generate ~sizes:uber_sizes (Rng.split rng) in
  let qgen =
    W.Qgen.generate (Rng.create ~seed:11 ()) ~count:120 ~n_cities:uber_sizes.W.Uber.cities
      ~n_drivers:uber_sizes.drivers ~n_users:uber_sizes.users
  in
  let tdb, tmetrics = W.Tpch.generate ~scale:tpch_scale (Rng.split rng) in
  Fmt.pr "fallback share (optimized plans, no pool)@.";
  let qgen =
    fallback_share "qgen" udb umetrics
      (List.concat_map (fun (q : W.Qgen.t) -> [ q.sql; q.population_sql ]) qgen)
  in
  let sec55 =
    fallback_share "sec5.5" udb umetrics
      (List.map (fun (p : W.Representative.program) -> p.sql) W.Representative.programs)
  in
  let tpch =
    fallback_share "tpch" tdb tmetrics (List.map (fun (q : W.Tpch.query) -> q.sql) W.Tpch.queries)
  in
  [ qgen; sec55; tpch ]

(* ------------------------------------------------------------------ JSON *)

let json_of_rows rows shares =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"benchmark\": \"engine-executor\",\n  \"unit\": \"ns/query\",\n  \"results\": [\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Fmt.str
           "    {\"substrate\": %S, \"scale\": %S, \"shape\": %S, \"input_rows\": %d, \
            \"reference_ns\": %.0f, \"compiled_ns\": %.0f, \"columnar_ns\": %.0f, \
            \"speedup\": %.2f, \"columnar_speedup\": %.2f, \"rows_per_sec\": %.0f}"
           r.substrate r.scale r.shape r.input_rows r.reference_ns r.compiled_ns
           r.columnar_ns (speedup r) (columnar_speedup r) (rows_per_sec r)))
    rows;
  Buffer.add_string b "\n  ],\n  \"fallback_share\": [\n";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Fmt.str "    {\"corpus\": %S, \"queries\": %d, \"fallbacks\": %d, \"share\": %.3f}"
           s.corpus s.queries s.fallbacks (share s)))
    shares;
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b

(* Minimal well-formedness check for the smoke test: quoted strings are
   opaque, outside them braces/brackets must nest properly. *)
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
  let rng = Rng.create ~seed:42 () in
  let uber_scales =
    if !smoke then
      (* big enough that per-row work dominates per-query setup — the
         columnar gate below compares real kernel time, not parse and
         compile overhead *)
      [ ("tiny", { W.Uber.cities = 4; drivers = 40; users = 80; trips = 600; user_tags = 30 }) ]
    else [ ("small", W.Uber.small_sizes); ("default", W.Uber.default_sizes) ]
  in
  let tpch_scales = if !smoke then [ ("tiny", 0.0005) ] else [ ("sf0.002", 0.002); ("sf0.01", 0.01) ] in
  Fmt.pr "engine executor benchmark (%d warmup rounds, median of %d interleaved samples)@."
    (if !smoke then 1 else 3)
    (if !smoke then 5 else 9);
  Fmt.pr "  %-12s %-10s %-12s %13s %13s %13s %7s %7s %14s@." "substrate" "scale" "shape"
    "reference" "row" "columnar" "row-x" "col-x" "throughput";
  let rows =
    List.fold_left
      (fun acc (label, sizes) ->
        let db, _ = W.Uber.generate ~sizes (Rng.split rng) in
        bench_substrate "uber" label db uber_shapes acc)
      [] uber_scales
  in
  let rows =
    List.fold_left
      (fun acc (label, scale) ->
        let db, _ = W.Tpch.generate ~scale (Rng.split rng) in
        bench_substrate "tpch" label db tpch_shapes acc)
      rows tpch_scales
  in
  let rows = List.rev rows in
  let uber_sizes = if !smoke then W.Uber.small_sizes else W.Uber.default_sizes in
  let shares = fallback_shares ~uber_sizes ~tpch_scale:(if !smoke then 0.0005 else 0.004) in
  let json = json_of_rows rows shares in
  let out = if !smoke then Filename.temp_file "bench_engine" ".json" else !out_path in
  let oc = open_out out in
  output_string oc json;
  close_out oc;
  Fmt.pr "wrote %s@." out;
  if !smoke then begin
    (* smoke mode asserts the JSON is written and well-formed *)
    let ic = open_in out in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    Sys.remove out;
    if not (json_well_formed s) then Fmt.failwith "smoke: JSON not well-formed";
    if not (Astring.String.is_infix ~affix:"\"shape\": \"equijoin\"" s) then
      Fmt.failwith "smoke: missing equijoin entry";
    if not (Astring.String.is_infix ~affix:"\"columnar_ns\"" s) then
      Fmt.failwith "smoke: missing columnar column";
    (* perf-regression gate: the columnar engine must beat the row pipeline
       on the vectorization-friendly shapes even at smoke scale — a chunk
       rebuild per query, a lost fast path or an accidental fallback shows
       up here as a hard failure in `dune runtest` *)
    List.iter
      (fun r ->
        match r.shape with
        | "scan" | "filter" | "group_agg" | "range_count" ->
          if r.columnar_ns >= r.compiled_ns then
            Fmt.failwith
              "smoke: columnar regression on %s/%s/%s: columnar %.0f ns >= row %.0f ns"
              r.substrate r.scale r.shape r.columnar_ns r.compiled_ns
        | _ -> ())
      rows;
    List.iter
      (fun s ->
        if s.corpus = "qgen" && s.fallbacks > 0 then
          Fmt.failwith "smoke: %d of %d Qgen plans fell back to the row engine" s.fallbacks
            s.queries)
      shares;
    Fmt.pr "smoke ok: JSON well-formed, columnar gate passed, no Qgen fallback, %d result entries@."
      (List.length rows)
  end
