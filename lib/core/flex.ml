module Ast = Flex_sql.Ast
module Sens = Flex_dp.Sens
module Smooth = Flex_dp.Smooth
module Laplace = Flex_dp.Laplace
module Rng = Flex_dp.Rng
module Budget = Flex_dp.Budget
module Value = Flex_engine.Value
module Database = Flex_engine.Database
module Metrics = Flex_engine.Metrics
module Executor = Flex_engine.Executor
module Task_pool = Flex_engine.Task_pool
module Span = Flex_obs.Span

(* The FLEX mechanism (paper §4, Definition 7): parse the query, compute its
   elastic sensitivity from precomputed metrics, execute the *unmodified*
   query on the underlying database, smooth the sensitivity, and perturb each
   aggregate output cell with Laplace noise of scale 2S/epsilon. *)

(* [`Smooth] is Definition 7 — the provably (epsilon, delta)-DP mechanism.
   [`Elastic_k0] skips the smooth-sensitivity maximisation and uses the
   elastic sensitivity at distance 0 directly; the error magnitudes the
   paper reports in §5 are only attainable this way (any k-growing
   sensitivity smoothed with beta = eps/2ln(2/delta) is at least 1/(e*beta)),
   so the experiment harness can opt into it for comparison. *)
type smoothing = [ `Smooth | `Elastic_k0 ]

(* [`Laplace] is Definition 7 ((epsilon, delta)-DP). [`Cauchy] is the pure
   epsilon-DP variant of Nissim et al.: beta = epsilon/6 and noise scale
   6S/epsilon, at the cost of heavy tails; delta is ignored. *)
type noise = [ `Laplace | `Cauchy ]

type options = {
  epsilon : float;
  delta : float;
  public_optimization : bool; (* §3.6 toggle, benchmarked in Fig 7 *)
  unique_optimization : bool; (* schema-enforced key uniqueness: mf_k = 1 *)
  enumerate_bins : bool; (* §4 histogram bin enumeration *)
  round_counts : bool; (* round released counts to integers *)
  cross_joins : bool; (* bounded-DP cross-join extension (off: paper behaviour) *)
  smoothing : smoothing;
  noise : noise;
}

let options ?(public_optimization = true) ?(unique_optimization = true)
    ?(enumerate_bins = true) ?(round_counts = false) ?(cross_joins = false)
    ?(smoothing = `Smooth) ?(noise = `Laplace) ~epsilon ~delta () =
  if epsilon <= 0.0 then invalid_arg "Flex.options: epsilon must be positive";
  if delta <= 0.0 || delta >= 1.0 then invalid_arg "Flex.options: delta in (0,1)";
  {
    epsilon;
    delta;
    public_optimization;
    unique_optimization;
    enumerate_bins;
    round_counts;
    cross_joins;
    smoothing;
    noise;
  }

(* delta = n^(-ln n), the setting used throughout the paper's evaluation
   (following Dwork and Lei). *)
let delta_for_size n =
  let n = float_of_int (max n 3) in
  Float.pow n (-.log n)

type column_release = {
  name : string;
  kind : Elastic.column_kind;
  elastic : Sens.t; (* elastic sensitivity as a function of k *)
  smooth : Smooth.result; (* smoothed bound S and its argmax *)
  noise_scale : float; (* 2S/epsilon *)
}

type release = {
  noisy : Executor.result_set;
  true_result : Executor.result_set;
  analysis : Elastic.analysis;
  column_releases : column_release list;
  epsilon : float;
  delta : float;
  bins_enumerated : bool;
}

let catalog_of_options opts metrics =
  Elastic.catalog_of_metrics ~public_optimization:opts.public_optimization
    ~unique_optimization:opts.unique_optimization ~cross_joins:opts.cross_joins
    metrics

(* The smoothing parameter depends on the noise family. *)
let beta_of opts =
  match opts.noise with
  | `Laplace -> Smooth.beta ~epsilon:opts.epsilon ~delta:opts.delta
  | `Cauchy -> Flex_dp.Cauchy.beta ~epsilon:opts.epsilon

let scale_of opts smooth =
  match opts.noise with
  | `Laplace -> Smooth.noise_scale ~epsilon:opts.epsilon smooth
  | `Cauchy -> Flex_dp.Cauchy.noise_scale ~epsilon:opts.epsilon smooth.Smooth.smooth_bound

let sample_noise opts rng ~scale =
  match opts.noise with
  | `Laplace -> Laplace.sample rng ~scale
  | `Cauchy -> Flex_dp.Cauchy.sample rng ~scale

(* Smoothed bound per the configured mode. *)
let smooth_of opts ~beta ~n sens =
  match opts.smoothing with
  | `Smooth -> Smooth.of_sens ~beta ~n sens
  | `Elastic_k0 ->
    { Smooth.smooth_bound = Sens.eval sens 0; argmax_k = 0; beta; scanned = 1 }

(* Noise one released cell. NULL cells pass through (e.g. empty-group SUM). *)
let perturb_cell opts rng ~scale ~round v =
  match Value.to_float v with
  | None -> v
  | Some f ->
    let noisy = f +. sample_noise opts rng ~scale in
    if round then Value.Int (int_of_float (Float.round noisy)) else Value.Float noisy

(* --- staged, re-entrant entry points -----------------------------------------
   The FLEX pipeline split at its natural joints so a long-lived service can
   drive (and time, Table 2) each stage separately, cache the analysis stage
   across requests, and interleave requests from concurrent sessions: every
   stage is a pure function of its arguments plus the per-call [rng]. *)

(* Stage 1 — elastic-sensitivity analysis. Depends only on the query, the
   metrics and the option flags: the cacheable prefix of the pipeline.
   [span] is the enclosing trace span (the service's cache-lookup span, so a
   cache hit shows no "analysis" child at all). *)
let analyze_ast ?span ~options:opts ~metrics (q : Ast.query) :
    (Elastic.analysis, Errors.reason) result =
  Span.timed span "analysis" (fun _ -> Elastic.analyze (catalog_of_options opts metrics) q)

(* Stage 2 — smooth-sensitivity maximisation per aggregate column. Cheap, but
   depends on the request's epsilon/delta, so it stays outside the cache. *)
let smooth_columns ?span ~options:opts (analysis : Elastic.analysis) : column_release list =
  Span.timed span "smooth" (fun _ ->
      let beta = beta_of opts in
      List.filter_map
        (function
          | Elastic.Group_key_col _ -> None
          | Elastic.Aggregate_col { kind; sens; name } ->
            let smooth = smooth_of opts ~beta ~n:analysis.Elastic.database_rows sens in
            Some { name; kind; elastic = sens; smooth; noise_scale = scale_of opts smooth })
        analysis.Elastic.columns)

(* Stage 3 — run the unmodified query on the database; [pool] dispatches
   execution onto the engine's morsel-parallel operators. Under a span the
   optimizer rewrite (when optimizing) and the engine run appear as separate
   children. *)
let execute ?span ?pool ?(optimize = false) ?metrics ~db (q : Ast.query) :
    (Executor.result_set, Errors.reason) result =
  Span.timed span "execute" (fun sp ->
      match
        let p =
          if optimize then
            Span.timed sp "optimize" (fun _ -> Flex_engine.Optimizer.plan ?metrics q)
          else Flex_engine.Plan.of_query q
        in
        Span.timed sp "run" (fun _ -> Executor.run_plan ?pool db p)
      with
      | true_result -> Ok true_result
      | exception Executor.Error m -> Error (Errors.Analysis_error ("execution: " ^ m))
      | exception Flex_engine.Eval.Error m ->
        Error (Errors.Analysis_error ("evaluation: " ^ m))
      | exception Flex_engine.Aggregate.Error m ->
        Error (Errors.Analysis_error ("aggregation: " ^ m)))

(* Stage 4 — histogram bin enumeration plus per-cell noise. *)
let perturb ?span ~rng ~options:opts ~metrics ~db ~analysis ~column_releases true_result :
    release =
  Span.timed span "perturb" @@ fun _ ->
  let cat = catalog_of_options opts metrics in
  let enumerated, bins_enumerated =
    if opts.enumerate_bins && analysis.Elastic.is_histogram then
      match Histogram.enumerate cat db analysis true_result with
      | Some r -> (r, true)
      | None -> (true_result, false)
    else (true_result, false)
  in
  (* map column name -> noise scale, aligned by position *)
  let scales = Array.make (List.length analysis.Elastic.columns) None in
  List.iteri
    (fun i spec ->
      match spec with
      | Elastic.Group_key_col _ -> ()
      | Elastic.Aggregate_col { name; _ } ->
        let release = List.find (fun r -> r.name = name) column_releases in
        scales.(i) <- Some release.noise_scale)
    analysis.Elastic.columns;
  let noisy_rows =
    List.map
      (fun row ->
        Array.mapi
          (fun i v ->
            if i < Array.length scales then
              match scales.(i) with
              | Some scale -> perturb_cell opts rng ~scale ~round:opts.round_counts v
              | None -> v
            else v)
          row)
      enumerated.rows
  in
  {
    noisy = { enumerated with rows = noisy_rows };
    true_result;
    analysis;
    column_releases;
    epsilon = opts.epsilon;
    delta = opts.delta;
    bins_enumerated;
  }

(* Stage 5 — post-processing over a stored noisy release: the materialized-
   view read path. The released histogram is public once paid for, so the
   suffix {!Flex_sql.Factor} split off — HAVING over the noisy cells, ORDER
   BY/LIMIT, projection arithmetic — evaluates here without touching the
   database, the RNG or any budget. Expressions compile through the engine's
   own evaluator ({!Flex_engine.Compiled} over {!Flex_engine.Eval}), so
   arithmetic, 3-valued logic and the ORDER BY total order (Value.compare,
   NULL first, stable via index tiebreak) are exactly the execution
   semantics. *)
let post_process (sx : Flex_sql.Factor.suffix) ~(columns : string list)
    (rows : Value.t array list) : Executor.result_set =
  let headers =
    Array.of_list
      (List.map (fun name -> { Flex_engine.Compiled.alias = None; name }) columns)
  in
  let subquery : Flex_engine.Compiled.subquery =
   fun _ _ -> raise (Flex_engine.Compiled.Error "subquery in post-processing suffix")
  in
  let compile e = Flex_engine.Compiled.compile ~subquery ~headers ~outer:[] e in
  let kept =
    match sx.Flex_sql.Factor.having with
    | None -> rows
    | Some h ->
      let f = compile h in
      List.filter (fun r -> Flex_engine.Eval.is_truthy (f r)) rows
  in
  let kept = Array.of_list kept in
  let order =
    match sx.Flex_sql.Factor.order_by with
    | [] -> Array.init (Array.length kept) Fun.id
    | keys ->
      let cols =
        List.map (fun (e, dir) -> (Array.map (compile e) kept, dir)) keys
      in
      let idx = Array.init (Array.length kept) Fun.id in
      let cmp a b =
        let rec go = function
          | [] -> compare (a : int) b
          | (col, dir) :: rest ->
            let c = Value.compare col.(a) col.(b) in
            let c = match dir with Ast.Asc -> c | Ast.Desc -> -c in
            if c <> 0 then c else go rest
        in
        go cols
      in
      Array.sort cmp idx;
      idx
  in
  let off = max 0 (Option.value sx.Flex_sql.Factor.offset ~default:0) in
  let take =
    let avail = max 0 (Array.length order - off) in
    match sx.Flex_sql.Factor.limit with
    | None -> avail
    | Some l -> min avail (max 0 l)
  in
  let out_fns =
    Array.of_list (List.map (fun (e, _) -> compile e) sx.Flex_sql.Factor.outputs)
  in
  let out_rows =
    List.init take (fun k ->
        let r = kept.(order.(off + k)) in
        Array.map (fun f -> f r) out_fns)
  in
  { Executor.columns = List.map snd sx.Flex_sql.Factor.outputs; rows = out_rows }

let run ?budget ?pool ?optimize ~rng ~options:opts ~db ~metrics (q : Ast.query) :
    (release, Errors.reason) result =
  match analyze_ast ~options:opts ~metrics q with
  | Error r -> Error r
  | Ok analysis -> (
    match execute ?pool ?optimize ~metrics ~db q with
    | Error r -> Error r
    | Ok true_result ->
      let column_releases = smooth_columns ~options:opts analysis in
      (* charge the budget before releasing anything: each aggregate column
         is a separate (epsilon, delta) mechanism under basic composition *)
      let n_aggs = List.length column_releases in
      (match budget with
      | Some b ->
        Budget.charge b ~label:"flex-query"
          ~epsilon:(opts.epsilon *. float_of_int n_aggs)
          ~delta:(opts.delta *. float_of_int n_aggs)
      | None -> ());
      Ok (perturb ~rng ~options:opts ~metrics ~db ~analysis ~column_releases true_result))

let run_sql ?budget ?pool ?optimize ~rng ~options ~db ~metrics sql =
  match Flex_sql.Parser.parse sql with
  | Error e -> Error (Errors.Parse_error e)
  | Ok q -> run ?budget ?pool ?optimize ~rng ~options ~db ~metrics q

(* Analysis-only entry point: what the paper's Table 2 times as "Elastic
   Sensitivity Analysis". Returns the smooth bound for each aggregate
   column without touching the database. *)
let analyze_only ~options:opts ~metrics sql =
  let cat = catalog_of_options opts metrics in
  match Elastic.analyze_sql cat sql with
  | Error r -> Error r
  | Ok analysis ->
    let beta = beta_of opts in
    let bounds =
      List.filter_map
        (function
          | Elastic.Group_key_col _ -> None
          | Elastic.Aggregate_col { name; sens; _ } ->
            let smooth = smooth_of opts ~beta ~n:analysis.Elastic.database_rows sens in
            Some (name, sens, smooth))
        analysis.Elastic.columns
    in
    Ok (analysis, bounds)

(* Propose-test-release (paper §6): instead of smoothing, propose a fixed
   sensitivity [proposed] and release the (scalar) count with Lap-noise of
   scale proposed/(eps/2) only when the elastic-sensitivity-derived distance
   to instability noisily clears ln(1/delta)/(eps/2). Offers much lower
   noise than the smooth bound when the proposal comfortably exceeds ES(0),
   at the price of possible refusal. *)
type ptr_release = {
  outcome : Flex_dp.Ptr.outcome;
  proposed_sensitivity : float;
  distance_bound : int;
  true_value : float; (* sensitive; for experiments only *)
}

let run_ptr ~rng ~options:opts ~db ~metrics ~proposed_sensitivity sql :
    (ptr_release, Errors.reason) result =
  let cat = catalog_of_options opts metrics in
  match Elastic.analyze_sql cat sql with
  | Error r -> Error r
  | Ok analysis -> (
    match analysis.Elastic.columns with
    | [ Elastic.Aggregate_col { sens; _ } ] -> (
      match Executor.run_sql db sql with
      | Error m -> Error (Errors.Analysis_error m)
      | Ok { rows = [ [| v |] ]; _ } ->
        let true_value = Option.value ~default:0.0 (Value.to_float v) in
        let es k = Sens.eval sens k in
        let distance_bound =
          Flex_dp.Ptr.distance_bound ~sensitivity:proposed_sensitivity es
        in
        let outcome =
          Flex_dp.Ptr.release rng ~epsilon:opts.epsilon ~delta:opts.delta
            ~sensitivity:proposed_sensitivity es true_value
        in
        Ok { outcome; proposed_sensitivity; distance_bound; true_value }
      | Ok _ ->
        Error (Errors.Analysis_error "propose-test-release needs a scalar aggregate"))
    | _ ->
      Error
        (Errors.Analysis_error
           "propose-test-release supports single-aggregate scalar queries"))

(* Two-sided (1 - alpha) confidence half-width for each released aggregate
   column: P(|noise| <= width) = 1 - alpha under the noise distribution the
   release used. Lets analysts judge utility without access to the truth. *)
let confidence_intervals ?(alpha = 0.05) ~options:(opts : options) (r : release) :
    (string * float) list =
  List.map
    (fun c ->
      let width =
        match opts.noise with
        | `Laplace -> Laplace.confidence_width ~scale:c.noise_scale ~alpha
        | `Cauchy -> Flex_dp.Cauchy.confidence_width ~scale:c.noise_scale ~alpha
      in
      (c.name, width))
    r.column_releases

(* Median relative error (percent) of the noisy result against the true
   result over all aggregate cells — the utility metric of §5.2. *)
let median_relative_error (r : release) =
  let scales_positions =
    List.mapi (fun i spec -> (i, spec)) r.analysis.Elastic.columns
    |> List.filter_map (fun (i, spec) ->
         match spec with
         | Elastic.Aggregate_col _ -> Some i
         | Elastic.Group_key_col _ -> None)
  in
  (* align noisy and true rows by group keys (noisy may have extra bins) *)
  let key_positions =
    List.mapi (fun i spec -> (i, spec)) r.analysis.Elastic.columns
    |> List.filter_map (fun (i, spec) ->
         match spec with
         | Elastic.Group_key_col _ -> Some i
         | Elastic.Aggregate_col _ -> None)
  in
  let true_by_key = Hashtbl.create 64 in
  List.iter
    (fun row ->
      let key = List.map (fun i -> row.(i)) key_positions in
      Hashtbl.replace true_by_key key row)
    r.true_result.rows;
  let errors = ref [] in
  List.iter
    (fun noisy_row ->
      let key = List.map (fun i -> noisy_row.(i)) key_positions in
      match Hashtbl.find_opt true_by_key key with
      | None ->
        (* an enumerated padding bin with true count 0: relative error is
           undefined there, and the paper's §5.2 metric is computed over the
           query's true cells, so padding bins are skipped *)
        ()
      | Some true_row ->
        List.iter
          (fun i ->
            let truth = Option.value ~default:0.0 (Value.to_float true_row.(i)) in
            match Value.to_float noisy_row.(i) with
            | None -> ()
            | Some noisy ->
              let err =
                if truth = 0.0 then if noisy = 0.0 then 0.0 else infinity
                else Float.abs (noisy -. truth) /. Float.abs truth *. 100.0
              in
              errors := err :: !errors)
          scales_positions)
    r.noisy.rows;
  match List.sort compare !errors with
  | [] -> None
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    Some (if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0)
