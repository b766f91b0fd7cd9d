(* flex_cli: FLEX differential privacy for SQL queries from the command line.

   Workflow (mirrors the paper's Fig 2 architecture):

     # one-off: collect database metrics from a directory of CSV tables
     flex_cli metrics data/ -o metrics.txt --public cities --pk trips.id

     # inspect a query's elastic sensitivity (needs only the metrics)
     flex_cli analyze --metrics metrics.txt -e 0.1 -d 1e-8 \
       "SELECT COUNT(*) FROM trips t JOIN drivers d ON t.driver_id = d.id"

     # answer a query with differential privacy
     flex_cli run data/ --metrics metrics.txt -e 0.1 -d 1e-8 "SELECT ..."

     # self-contained demo on a generated ride-sharing database
     flex_cli demo *)

module Value = Flex_engine.Value
module Database = Flex_engine.Database
module Metrics = Flex_engine.Metrics
module Csv = Flex_engine.Csv
module Flex = Flex_core.Flex
module Elastic = Flex_core.Elastic
module Rng = Flex_dp.Rng
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

(* --- common options ---------------------------------------------------------- *)

let epsilon_t =
  Arg.(value & opt float 1.0 & info [ "e"; "epsilon" ] ~docv:"EPS" ~doc:"Privacy budget epsilon.")

let delta_t =
  Arg.(value & opt float 1e-8 & info [ "d"; "delta" ] ~docv:"DELTA" ~doc:"Privacy parameter delta.")

let sql_t =
  Arg.(required & pos ~rev:true 0 (some string) None & info [] ~docv:"SQL" ~doc:"The query.")

let seed_t =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Random seed for the noise.")

let no_public_opt_t =
  Arg.(
    value & flag
    & info [ "no-public-optimization" ]
        ~doc:"Disable the public-table optimisation (paper section 3.6).")

(* --- metrics ------------------------------------------------------------------- *)

let metrics_cmd =
  let run dir output publics pks =
    let db = load_csv_dir dir in
    let m = Metrics.compute db in
    List.iter (Metrics.set_public m) publics;
    List.iter
      (fun spec ->
        match String.split_on_char '.' spec with
        | [ table; column ] -> Metrics.set_primary_key m ~table ~column
        | _ -> failwith ("bad --pk spec (want table.column): " ^ spec))
      pks;
    Metrics.save m output;
    Fmt.pr "collected metrics for %d tables (%d rows) -> %s@."
      (List.length (Database.table_names db))
      (Metrics.total_rows m) output
  in
  let dir = Arg.(required & pos 0 (some dir) None & info [] ~docv:"DIR" ~doc:"Directory of CSV tables.") in
  let output =
    Arg.(value & opt string "metrics.txt" & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file.")
  in
  let publics =
    Arg.(
      value
      & opt (list string) []
      & info [ "public" ] ~docv:"TABLES" ~doc:"Comma-separated public (non-protected) tables.")
  in
  let pks =
    Arg.(
      value
      & opt (list string) []
      & info [ "pk" ] ~docv:"COLS"
          ~doc:"Comma-separated primary keys, e.g. trips.id,drivers.id.")
  in
  Cmd.v
    (Cmd.info "metrics" ~doc:"Collect max-frequency metrics from CSV tables.")
    Term.(const run $ dir $ output $ publics $ pks)

(* --- analyze -------------------------------------------------------------------- *)

let analyze_cmd =
  let run metrics_file data_dir epsilon delta no_public sql =
    let db = Option.map load_csv_dir data_dir in
    let m =
      match (metrics_file, db) with
      | Some f, _ -> Metrics.load f
      | None, Some db -> Metrics.compute db
      | None, None -> failwith "either --metrics FILE or --data DIR is required"
    in
    let options =
      Flex.options ~epsilon ~delta ~public_optimization:(not no_public) ()
    in
    (match Flex.analyze_only ~options ~metrics:m sql with
    | Error r ->
      Fmt.epr "rejected: %s@." (Flex_core.Errors.to_string r);
      exit 1
    | Ok (analysis, bounds) ->
      Fmt.pr "histogram query: %b; joins: %d@." analysis.Elastic.is_histogram
        analysis.Elastic.joins;
      List.iter
        (fun (name, sens, smooth) ->
          Fmt.pr "column %s:@." name;
          Fmt.pr "  elastic sensitivity ES(k) = %s@." (Flex_dp.Sens.to_string sens);
          Fmt.pr "  smooth bound S = %g (attained at k = %d)@."
            smooth.Flex_dp.Smooth.smooth_bound smooth.Flex_dp.Smooth.argmax_k;
          Fmt.pr "  Laplace noise scale 2S/eps = %g@."
            (Flex_dp.Smooth.noise_scale ~epsilon smooth))
        bounds);
    (* with local data in hand there is nothing to protect from its owner:
       run the query and show the executed plan with actual row counts *)
    match db with
    | None -> ()
    | Some db -> (
      match Flex_sql.Parser.parse_statement sql with
      | Error _ -> ()
      | Ok
          ( Flex_sql.Ast.Query q | Flex_sql.Ast.Explain q
          | Flex_sql.Ast.Explain_analyze q ) ->
        let plan, _ =
          Flex_engine.Executor.explain_analyze ~metrics:m ~show_rows:true db q
        in
        Fmt.pr "@.-- executed plan (EXPLAIN ANALYZE)@.%s@." plan)
  in
  let metrics_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "metrics" ] ~docv:"FILE" ~doc:"Metrics file produced by $(b,flex_cli metrics).")
  in
  let data_dir =
    Arg.(
      value
      & opt (some dir) None
      & info [ "data" ] ~docv:"DIR"
          ~doc:
            "Directory of CSV tables. Metrics are computed from it when $(b,--metrics) \
             is omitted, and the query is executed locally to show an EXPLAIN ANALYZE \
             plan with actual per-operator row counts and timings.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Compute a query's elastic sensitivity from metrics alone (and, with \
          $(b,--data), its executed plan).")
    Term.(const run $ metrics_file $ data_dir $ epsilon_t $ delta_t $ no_public_opt_t $ sql_t)

(* --- run ------------------------------------------------------------------------- *)

let run_cmd =
  let run dir metrics_file epsilon delta no_public seed output report optimize sql =
    let db = load_csv_dir dir in
    let m =
      match metrics_file with Some f -> Metrics.load f | None -> Metrics.compute db
    in
    (* [run EXPLAIN SELECT ...] prints the plans instead of executing;
       [run EXPLAIN ANALYZE SELECT ...] executes and prints the traced plan
       (actual rows shown: the caller owns the data) but releases nothing *)
    (match Flex_sql.Parser.parse_statement sql with
    | Ok (Flex_sql.Ast.Explain q) ->
      let logical, optimized = Flex_engine.Optimizer.explain ~metrics:m q in
      Fmt.pr "-- logical plan@.%s@.-- optimized plan@.%s@." logical optimized;
      exit 0
    | Ok (Flex_sql.Ast.Explain_analyze q) ->
      let plan, _ =
        Flex_engine.Executor.explain_analyze ~optimize ~metrics:m ~show_rows:true db q
      in
      Fmt.pr "%s@." plan;
      exit 0
    | Ok (Flex_sql.Ast.Query _) | Error _ -> ());
    let options =
      Flex.options ~epsilon ~delta ~public_optimization:(not no_public) ()
    in
    let rng = Rng.create ~seed () in
    match Flex.run_sql ~optimize ~rng ~options ~db ~metrics:m sql with
    | Error r ->
      if report then Fmt.epr "%s@." (Flex_core.Report.of_rejection ~sql r)
      else Fmt.epr "rejected: %s@." (Flex_core.Errors.to_string r);
      exit 1
    | Ok release -> (
      if report then Fmt.pr "%s@." (Flex_core.Report.of_release ~sql ~options release)
      else begin
        let result = release.Flex.noisy in
        match output with
        | Some path ->
          Csv.save_result result path;
          Fmt.pr "wrote %d rows to %s@." (List.length result.rows) path
        | None ->
          Fmt.pr "%s@." (String.concat "," result.columns);
          List.iter
            (fun row ->
              Fmt.pr "%s@."
                (String.concat ","
                   (Array.to_list (Array.map Value.to_csv_string row))))
            result.rows
      end)
  in
  let report =
    Arg.(value & flag & info [ "report" ] ~doc:"Print a markdown audit report instead of CSV.")
  in
  let dir = Arg.(required & pos 0 (some dir) None & info [] ~docv:"DIR" ~doc:"Directory of CSV tables.") in
  let metrics_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:"Metrics file; recomputed from the data when omitted.")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write CSV here.")
  in
  let optimize =
    Arg.(
      value & flag
      & info [ "optimize" ]
          ~doc:
            "Execute through the cost-based plan optimizer (metrics double as \
             cardinality statistics); the privacy analysis is unaffected.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Answer a SQL query with differential privacy.")
    Term.(
      const run $ dir $ metrics_file $ epsilon_t $ delta_t $ no_public_opt_t $ seed_t
      $ output $ report $ optimize $ sql_t)

(* --- explain -------------------------------------------------------------------- *)

let explain_cmd =
  let run metrics_file epsilon delta sql =
    (* accept [explain "SELECT ..."], [explain "EXPLAIN SELECT ..."] and the
       ANALYZE form (plans only here — there is no data to execute on) *)
    (match Flex_sql.Parser.parse_statement sql with
    | Ok
        ( Flex_sql.Ast.Query q | Flex_sql.Ast.Explain q
        | Flex_sql.Ast.Explain_analyze q ) ->
      let metrics = Option.map Metrics.load metrics_file in
      let logical, optimized = Flex_engine.Optimizer.explain ?metrics q in
      Fmt.pr "-- logical plan@.%s@.-- optimized plan@.%s" logical optimized
    | Error _ -> (
      match Flex_sql.Parser.parse sql with
      | Ok _ -> assert false
      | Error e ->
        Fmt.epr "%s@." e;
        exit 1));
    match metrics_file with
    | None -> ()
    | Some f -> (
      let m = Metrics.load f in
      let options = Flex.options ~epsilon ~delta () in
      match Flex.analyze_only ~options ~metrics:m sql with
      | Error r -> Fmt.pr "@.sensitivity: rejected (%s)@." (Flex_core.Errors.to_string r)
      | Ok (_, bounds) ->
        Fmt.pr "@.sensitivity:@.";
        List.iter
          (fun (name, sens, smooth) ->
            Fmt.pr "  %s: ES(k) = %s, S = %g@." name (Flex_dp.Sens.to_string sens)
              smooth.Flex_dp.Smooth.smooth_bound)
          bounds)
  in
  let metrics_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:"Also report elastic sensitivity using these metrics.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Show the logical and optimized plans (and optionally the sensitivity) of a \
          query.")
    Term.(const run $ metrics_file $ epsilon_t $ delta_t $ sql_t)

(* --- budget --------------------------------------------------------------------- *)

let budget_cmd =
  let run ledger_file =
    match Flex_dp.Ledger.summaries_of_file ledger_file with
    | [] -> Fmt.pr "no analysts registered in %s@." ledger_file
    | summaries ->
      List.iter (fun s -> Fmt.pr "%a@." Flex_dp.Ledger.pp_summary s) summaries
  in
  let ledger_file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"LEDGER" ~doc:"Budget journal written by $(b,flex_serve --ledger).")
  in
  Cmd.v
    (Cmd.info "budget"
       ~doc:"Replay a budget ledger journal and print per-analyst remaining budgets.")
    Term.(const run $ ledger_file)

(* --- demo ----------------------------------------------------------------------- *)

let demo_cmd =
  let run epsilon delta seed =
    let rng = Rng.create ~seed () in
    Fmt.pr "generating a ride-sharing database...@.";
    let db, m = Flex_workload.Uber.generate ~sizes:Flex_workload.Uber.small_sizes rng in
    Fmt.pr "%a@.@." Database.pp db;
    let options = Flex.options ~epsilon ~delta () in
    List.iter
      (fun sql ->
        Fmt.pr "> %s@." sql;
        match Flex.run_sql ~rng ~options ~db ~metrics:m sql with
        | Ok release ->
          List.iteri
            (fun i row ->
              if i < 5 then
                Fmt.pr "  %s@."
                  (String.concat ", " (Array.to_list (Array.map Value.to_string row))))
            release.Flex.noisy.rows;
          if List.length release.Flex.noisy.rows > 5 then
            Fmt.pr "  ... (%d rows)@." (List.length release.Flex.noisy.rows);
          Fmt.pr "@."
        | Error r -> Fmt.pr "  rejected: %s@.@." (Flex_core.Errors.to_string r))
      [
        "SELECT COUNT(*) FROM trips";
        "SELECT t.status, COUNT(*) FROM trips t GROUP BY t.status";
        "SELECT c.name, COUNT(*) FROM trips t JOIN cities c ON t.city_id = c.id GROUP BY c.name";
        "SELECT id, fare FROM trips";
      ]
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Run a self-contained demo on generated data.")
    Term.(const run $ epsilon_t $ delta_t $ seed_t)

let () =
  let info =
    Cmd.info "flex_cli" ~version:"1.0.0"
      ~doc:"Practical differential privacy for SQL queries (FLEX / elastic sensitivity)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ metrics_cmd; analyze_cmd; run_cmd; explain_cmd; budget_cmd; demo_cmd ]))
