(* Tracked optimizer benchmark: the same compiled executor with and without
   {!Optimizer.rewrite}, on shapes the rewrites target — a selective filter
   left above a fact/dimension join, a star join whose only selective
   predicate sits on the far dimension, a predicate that must sink into a
   wide derived table, a comma join written in an order that forces a
   cross product unless the optimizer reorders it, and the generated
   workload's m:n self-join, whose smaller filtered left input makes the
   optimizer hash the left side (build=left).

     dune exec bench/optimizer_perf.exe                 -- full run, writes BENCH_optimizer.json
     dune exec bench/optimizer_perf.exe -- --out FILE   -- choose the output path
     dune exec bench/optimizer_perf.exe -- --smoke      -- tiny scale, JSON sanity check

   Per (scale, shape) the JSON records median ns/query for the unoptimized
   and optimized plan pipelines and the speedup. Both pipelines execute
   through {!Executor.run_plan}; the only difference is the plan. *)

module Rng = Flex_dp.Rng
module Database = Flex_engine.Database
module Table = Flex_engine.Table
module Metrics = Flex_engine.Metrics
module Executor = Flex_engine.Executor
module Plan = Flex_engine.Plan
module Optimizer = Flex_engine.Optimizer
module W = Flex_workload

let smoke = ref false
let out_path = ref "BENCH_optimizer.json"

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

(* Same discipline as bench/perf.ml: unmeasured warmups, then interleaved
   samples so machine noise lands on both pipelines alike, with adaptive
   repetitions per sample. *)
let median_pair (funopt : unit -> unit) (fopt : unit -> unit) =
  let samples = if !smoke then 3 else 9 in
  let warmups = if !smoke then 1 else 3 in
  let time_once f reps =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      f ()
    done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int reps
  in
  let reps f =
    if !smoke then 1
    else begin
      let one = time_once f 1 in
      max 1 (min 30 (int_of_float (5e6 /. max one 1.0)))
    end
  in
  for _ = 1 to warmups do
    funopt ();
    fopt ()
  done;
  Gc.compact ();
  let ru = reps funopt and ro = reps fopt in
  let us = Array.make samples 0.0 and os = Array.make samples 0.0 in
  for i = 0 to samples - 1 do
    us.(i) <- time_once funopt ru;
    os.(i) <- time_once fopt ro
  done;
  Array.sort compare us;
  Array.sort compare os;
  (us.(samples / 2), os.(samples / 2))

type row = {
  scale : string;
  shape : string;
  input_rows : int;
  unoptimized_ns : float;
  optimized_ns : float;
}

let speedup r = r.unoptimized_ns /. r.optimized_ns

type shape = { sname : string; table : string; sql : string }

let shapes =
  [
    {
      sname = "filter_above_join";
      table = "trips";
      sql =
        "SELECT t.id, d.rating FROM trips t JOIN drivers d ON t.driver_id = d.id \
         WHERE d.city_id = 1 AND t.fare > 45";
    };
    {
      sname = "star_selective_dim";
      table = "trips";
      sql =
        "SELECT COUNT(*) FROM trips t \
         JOIN drivers d ON t.driver_id = d.id \
         JOIN cities c ON d.city_id = c.id WHERE c.name = 'seattle'";
    };
    {
      sname = "derived_pushdown";
      table = "trips";
      sql =
        "SELECT x.id FROM (SELECT id, driver_id, rider_id, city_id, status, fare, \
         requested_at FROM trips) x WHERE x.fare > 45";
    };
    {
      sname = "join_reorder";
      table = "trips";
      sql =
        "SELECT COUNT(*) FROM drivers d JOIN trips t ON t.driver_id = d.id, cities c \
         WHERE d.city_id = c.id AND c.name = 'seattle'";
    };
    {
      sname = "build_left_join";
      table = "trips";
      sql =
        "SELECT COUNT(*) FROM trips t JOIN trips t2 ON t.rider_id = t2.rider_id \
         WHERE t.status = 'completed' AND t2.status = 'cancelled' \
         AND t.requested_at >= '2016-03-01' AND t.requested_at < '2016-03-08'";
    };
  ]

let sorted_rows (r : Executor.result_set) = List.sort Stdlib.compare r.rows

let bench_scale scale_label (db : Database.t) (metrics : Metrics.t) acc =
  List.fold_left
    (fun acc s ->
      let input_rows =
        match Database.find_opt db s.table with
        | Some t -> Array.length (Table.rows t)
        | None -> 0
      in
      let q = Flex_sql.Parser.parse_exn s.sql in
      let unopt_plan = Plan.of_query q in
      let opt_plan = Optimizer.plan ~metrics q in
      (* correctness gate before timing: identical result multisets *)
      let a = Executor.run_plan db unopt_plan and b = Executor.run_plan db opt_plan in
      if sorted_rows a <> sorted_rows b then
        Fmt.failwith "%s: optimized plan changes the result on %s" s.sname s.sql;
      let unoptimized_ns, optimized_ns =
        median_pair
          (fun () -> ignore (Executor.run_plan db unopt_plan))
          (fun () -> ignore (Executor.run_plan db opt_plan))
      in
      let r = { scale = scale_label; shape = s.sname; input_rows; unoptimized_ns; optimized_ns } in
      Fmt.pr "  %-10s %-20s %12.0f ns %12.0f ns %6.2fx@." scale_label s.sname
        unoptimized_ns optimized_ns (speedup r);
      r :: acc)
    acc shapes

let json_of_rows rows =
  let b = Buffer.create 2048 in
  Buffer.add_string b
    "{\n  \"benchmark\": \"plan-optimizer\",\n  \"unit\": \"ns/query\",\n  \"results\": [\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Fmt.str
           "    {\"scale\": %S, \"shape\": %S, \"input_rows\": %d, \
            \"unoptimized_ns\": %.0f, \"optimized_ns\": %.0f, \"speedup\": %.2f}"
           r.scale r.shape r.input_rows r.unoptimized_ns r.optimized_ns (speedup r)))
    rows;
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b

let json_well_formed s =
  let n = String.length s in
  let rec go i depth in_str =
    if i >= n then (not in_str) && depth = []
    else
      let c = s.[i] in
      if in_str then
        if c = '\\' then go (i + 2) depth true else go (i + 1) depth (c <> '"')
      else
        match c with
        | '"' -> go (i + 1) depth true
        | '{' | '[' -> go (i + 1) (c :: depth) false
        | '}' -> (match depth with '{' :: d -> go (i + 1) d false | _ -> false)
        | ']' -> (match depth with '[' :: d -> go (i + 1) d false | _ -> false)
        | _ -> go (i + 1) depth false
  in
  go 0 [] false

let () =
  let rng = Rng.create ~seed:42 () in
  let scales =
    if !smoke then
      [ ("tiny", { W.Uber.cities = 4; drivers = 12; users = 20; trips = 60; user_tags = 8 }) ]
    else [ ("small", W.Uber.small_sizes); ("default", W.Uber.default_sizes) ]
  in
  Fmt.pr "plan optimizer benchmark (%d warmup rounds, median of %d interleaved samples)@."
    (if !smoke then 1 else 3)
    (if !smoke then 3 else 9);
  Fmt.pr "  %-10s %-20s %15s %15s %7s@." "scale" "shape" "unoptimized" "optimized" "speedup";
  let rows =
    List.fold_left
      (fun acc (label, sizes) ->
        let db, metrics = W.Uber.generate ~sizes (Rng.split rng) in
        bench_scale label db metrics acc)
      [] scales
  in
  let rows = List.rev rows in
  let json = json_of_rows rows in
  let out = if !smoke then Filename.temp_file "bench_optimizer" ".json" else !out_path in
  let oc = open_out out in
  output_string oc json;
  close_out oc;
  if !smoke then begin
    if not (json_well_formed json) then Fmt.failwith "smoke: malformed JSON";
    Sys.remove out;
    Fmt.pr "smoke ok@."
  end
  else Fmt.pr "wrote %s@." out
