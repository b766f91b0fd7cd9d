(* flexbench: the FLEX service measured socket to socket.

     flexbench --workload W --seed N --seconds S --trace 0|1
         one run of one workload; prints every metric by name with its
         unit, runs the output checks, and ends with one JSON line
     flexbench run --smoke        every workload, tiny, checks only
     flexbench trace --seed N [--seconds S] [--out FILE]
         every workload, traced; Chrome trace files under .flexbench/traces
     flexbench collect --base CMD --change CMD --out-base A --out-change B
         interleaved runs of two builds, for compare
     flexbench compare BASE.json CHANGE.json...

   See README.md for the workloads, the metrics and the comparison rule. *)

module Json = Flex_service.Json
module W = Workload

let end_to_end_units =
  [ ("setup_s", "s"); ("qps", "req/s"); ("p50_ms", "ms"); ("p99_ms", "ms"); ("server_rss_mb", "MiB") ]

type outcome = {
  workload : W.t;
  seed : int;
  seconds : float;
  trace : bool;
  checks : (string * bool) list;
  attempted : int;
  failed : int;
  end_to_end : Layers.metric list;
  per_layer : Layers.metric list;
}

let correct o = List.for_all snd o.checks && o.failed = 0

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

let work_root = ".flexbench"

let run_workload (s : Run.settings) ~trace =
  let checks = ref [] in
  let dashboard = W.dashboard () in
  let history =
    if s.workload = W.Durable then Some (Run.make_history s checks) else None
  in
  (* set-up is timed on fresh servers started before and after the load, and
     the one that serves it. A shared host has slow spells of about half a
     second, which would cover several back-to-back starts, so the starts
     are spaced out: one spell cannot set the median. *)
  let before, after = if trace then (0, 0) else Run.extra_setups s in
  let gap () = Unix.sleepf 0.4 in
  let timed_start () =
    gap ();
    let server, t = Run.start_server s ~history ~flights:0 in
    ignore (Run.stop server);
    t
  in
  let setups_before = List.init before (fun _ -> timed_start ()) in
  if before > 0 then gap ();
  let server, setup = Run.start_server s ~history ~flights:0 in
  let seconds = if trace then s.seconds /. 2.0 else s.seconds in
  let n = W.requests s.workload ~seconds in
  let u =
    Run.run_phase s checks ~label:"timed" ~server ~history ~dashboard ~seconds ~n ~trace:false
  in
  let setup_times = setups_before @ (setup :: List.init after (fun _ -> timed_start ())) in
  let lat = Run.latencies u (fun l -> l.lat) in
  let m name value = { Layers.name; unit = List.assoc name end_to_end_units; value } in
  let end_to_end =
    [
      m "setup_s" (Stats.median (Array.of_list setup_times));
      m "qps" (Run.qps u);
      m "p50_ms" (Stats.percentile lat 0.5 /. 1e6);
      m "p99_ms" (Stats.percentile lat 0.99 /. 1e6);
      m "server_rss_mb" u.rss_mib;
    ]
  in
  let per_layer, traced_n, traced_failed =
    if not trace then ([], 0, 0)
    else begin
      (* a second server on the same inputs, recording every request; at
         most 20,000 of them, to bound the recorder's memory *)
      let n = min n 20_000 in
      let server, _ = Run.start_server s ~history ~flights:((2 * n) + 4096) in
      let p =
        Run.run_phase s checks ~label:"traced" ~server ~history ~dashboard ~seconds ~n ~trace:true
      in
      let flights = Layers.read_flights (Serve.flights_file p.server_dir) in
      let lanes = Array.to_list p.lanes in
      let samples = List.concat_map (fun (l : Run.lane) -> List.rev l.samples) lanes in
      let rows = Layers.join samples flights in
      Run.check checks "traced: every request joined to its server flight"
        (List.length rows = List.length samples);
      let kept =
        List.concat_map (fun (l : Run.lane) -> l.kept) (Option.to_list p.primer @ lanes)
      in
      let direct = Layers.direct_calls ~dir:s.base ~sync:(W.sync s.workload) kept in
      let ms = Layers.metrics ~untraced:u ~traced:p ~rows ~direct in
      Run.check checks "traced: layers add up to the round trip" (Layers.adds_up rows ms);
      let dir = Filename.concat work_root "traces" in
      mkdir_p dir;
      Layers.write_chrome
        (Filename.concat dir (Printf.sprintf "%s-seed%d.json" (W.name s.workload) s.seed))
        rows ~limit:5000;
      (ms, Run.measured p, Run.failed p)
    end
  in
  {
    workload = s.workload;
    seed = s.seed;
    seconds = s.seconds;
    trace;
    checks = List.rev !checks;
    attempted = Run.measured u + traced_n;
    failed = Run.failed u + traced_failed;
    end_to_end;
    per_layer;
  }

let with_workdir workload seed f =
  let base =
    Filename.concat work_root
      (Printf.sprintf "run-%s-%d-%d" (W.name workload) seed (Unix.getpid ()))
  in
  rm_rf base;
  mkdir_p base;
  Fun.protect ~finally:(fun () -> rm_rf base) (fun () -> f base)

let metrics_json ms =
  Json.Obj
    (List.map
       (fun (x : Layers.metric) ->
         (x.name, Json.Obj [ ("value", Json.num x.value); ("unit", Json.str x.unit) ]))
       ms)

(* The last output line: the end-to-end metrics, or the per-layer ones
   for a traced run. *)
let result_json o =
  Json.Obj
    [
      ("correct", Json.bool (correct o));
      ("attempted", Json.int o.attempted);
      ("failed", Json.int o.failed);
      ("metrics", metrics_json (if o.trace then o.per_layer else o.end_to_end));
    ]

let run_record o =
  match result_json o with
  | Json.Obj fields ->
    Json.Obj
      ([
         ("workload", Json.str (W.name o.workload));
         ("seed", Json.int o.seed);
         ("seconds", Json.num o.seconds);
         ("trace", Json.int (if o.trace then 1 else 0));
       ]
      @ fields)
  | j -> j

let report o =
  Fmt.pr "== %s (seed %d, %gs%s)@." (W.name o.workload) o.seed o.seconds
    (if o.trace then ", traced" else "");
  List.iter
    (fun (name, ok) -> Fmt.pr "  check %-62s %s@." name (if ok then "ok" else "FAILED"))
    o.checks;
  Fmt.pr "  requests %d, unexpected outcomes %d@." o.attempted o.failed;
  List.iter
    (fun (x : Layers.metric) -> Fmt.pr "  %-42s %14.6g %s@." x.name x.value x.unit)
    (o.end_to_end @ o.per_layer)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
  out : string option;
}

let parse_args argv =
  let a =
    ref { workload = "all"; seed = 1; seconds = 20.0; trace = false; smoke = false; out = None }
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest -> a := { !a with workload = w }; go rest
    | "--seed" :: n :: rest -> a := { !a with seed = int_of_string n }; go rest
    | "--seconds" :: n :: rest -> a := { !a with seconds = float_of_string n }; go rest
    | "--trace" :: t :: rest -> a := { !a with trace = t = "1" }; go rest
    | "--smoke" :: rest -> a := { !a with smoke = true; trace = true }; go rest
    | "--out" :: p :: rest -> a := { !a with out = Some p }; go rest
    | arg :: _ -> Fmt.failwith "unknown argument %s" arg
  in
  go argv;
  !a

let run argv =
  let a = parse_args argv in
  let workloads =
    if a.workload = "all" then W.all
    else
      match W.of_name a.workload with
      | Some w -> [ w ]
      | None -> Fmt.failwith "unknown workload %s" a.workload
  in
  let outcomes =
    List.map
      (fun workload ->
        with_workdir workload a.seed (fun base ->
            let o =
              run_workload
                { Run.workload; seed = a.seed; seconds = a.seconds; smoke = a.smoke; base }
                ~trace:a.trace
            in
            report o;
            o))
      workloads
  in
  Option.iter (fun p -> Compare.write_results p (List.map run_record outcomes)) a.out;
  (match outcomes with
  | [ o ] -> print_endline (Json.to_string (result_json o))
  | os ->
    print_endline
      (Json.to_string
         (Json.Obj
            [
              ("correct", Json.bool (List.for_all correct os));
              ("runs", Json.List (List.map run_record os));
            ])));
  if not (List.for_all correct outcomes) then exit 1

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigterm; Sys.sigint ];
  try
    match List.tl (Array.to_list Sys.argv) with
    | "serve" :: rest -> Serve.main rest
    | "compare" :: rest -> exit (Compare.main rest)
    | "collect" :: rest -> Compare.collect rest
    | "trace" :: rest -> run (rest @ [ "--trace"; "1" ])
    | "run" :: rest -> run rest
    | rest -> run rest
  with Failure msg ->
    prerr_endline ("flexbench: " ^ msg);
    exit 2
