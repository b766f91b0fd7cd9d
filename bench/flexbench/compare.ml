(* Results files, interleaved collection, and the comparison rule.

   A results file is {"benchmark":"flexbench","runs":[...]}: one object per
   run, the run's final JSON line plus its workload, seed and length. *)

module Json = Flex_service.Json

let str k j = Option.value ~default:"" (Option.bind (Json.mem k j) Json.to_str)
let num k j = Option.bind (Json.mem k j) Json.to_num

let write_results path runs =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "{\"benchmark\":\"flexbench\",\"runs\":[\n";
      output_string oc (String.concat ",\n" (List.map Json.to_string runs));
      output_string oc "\n]}\n")

let read_results path =
  let j = Json.of_string_exn (In_channel.with_open_bin path In_channel.input_all) in
  Option.value ~default:[] (Option.bind (Json.mem "runs" j) Json.to_list)

(* ---------------------------------------------------------------- collect *)

(* Run [cmd --workload W --seed S --seconds T --trace 0] and return its last
   output line, annotated with its exit code. A run that printed no result
   is recorded as incorrect. *)
let run_once cmd ~workload ~seed ~seconds =
  let args =
    cmd
    @ [ "--workload"; workload; "--seed"; string_of_int seed; "--seconds"; seconds; "--trace"; "0" ]
  in
  let ic = Unix.open_process_args_in (List.hd cmd) (Array.of_list args) in
  let out = In_channel.input_all ic in
  let exit_code =
    match Unix.close_process_in ic with Unix.WEXITED c -> c | WSIGNALED _ | WSTOPPED _ -> 255
  in
  let lines = List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' out) in
  let result =
    match List.rev lines with
    | last :: _ -> (
      match Json.of_string last with Ok (Json.Obj fields) -> fields | _ -> [])
    | [] -> []
  in
  let result = if result = [] then [ ("correct", Json.bool false) ] else result in
  Json.Obj
    ([
       ("workload", Json.str workload);
       ("seed", Json.int seed);
       ("seconds", Json.num (float_of_string seconds));
       ("exit", Json.int exit_code);
     ]
    @ result)

let split_command s = List.filter (( <> ) "") (String.split_on_char ' ' s)

(* [pairs] rounds; round i runs every workload on seed i on both sides,
   alternating which side goes first, and rewrites both files. *)
let collect argv =
  let base = ref [] and change = ref [] and out_base = ref "" and out_change = ref "" in
  let pairs = ref 10 and seconds = ref "20" in
  let rec go = function
    | [] -> ()
    | "--base" :: c :: rest -> base := split_command c; go rest
    | "--change" :: c :: rest -> change := split_command c; go rest
    | "--out-base" :: p :: rest -> out_base := p; go rest
    | "--out-change" :: p :: rest -> out_change := p; go rest
    | "--pairs" :: n :: rest -> pairs := int_of_string n; go rest
    | "--seconds" :: n :: rest -> seconds := n; go rest
    | arg :: _ -> Fmt.failwith "collect: unknown argument %s" arg
  in
  go argv;
  if !base = [] || !change = [] || !out_base = "" || !out_change = "" then
    failwith
      "usage: flexbench collect --base CMD --change CMD --out-base FILE --out-change FILE \
       [--pairs N] [--seconds S]";
  let b = ref [] and c = ref [] in
  for i = 0 to !pairs - 1 do
    let seed = 1 + i in
    List.iter
      (fun workload ->
        let side cmd acc () =
          let r = run_once cmd ~workload ~seed ~seconds:!seconds in
          Fmt.pr "%s seed %d: %s@." workload seed (Json.to_string r);
          acc := r :: !acc
        in
        if i mod 2 = 0 then (side !base b (); side !change c ())
        else (side !change c (); side !base b ()))
      (List.map Workload.name Workload.all);
    write_results !out_base (List.rev !b);
    write_results !out_change (List.rev !c)
  done

(* ---------------------------------------------------------------- compare *)

type spec = { name : string; unit : string; lower_better : bool; bound : float }

let read_spec path =
  let j = Json.of_string_exn (In_channel.with_open_bin path In_channel.input_all) in
  List.map
    (fun m ->
      {
        name = str "name" m;
        unit = str "unit" m;
        lower_better = str "better" m = "lower";
        bound = Option.value ~default:0.0 (num "bound" m);
      })
    (Option.value ~default:[] (Option.bind (Json.mem "end_to_end" j) Json.to_list))

let metric_value run name =
  Option.bind (Option.bind (Json.mem "metrics" run) (Json.mem name)) (num "value")

(* Values of [metric] for [workload], keyed by seed. *)
let by_seed runs ~workload ~metric =
  List.filter_map
    (fun r ->
      if str "workload" r <> workload || num "trace" r = Some 1.0 then None
      else
        Option.bind (num "seed" r) (fun seed ->
            Option.map (fun v -> (int_of_float seed, v)) (metric_value r metric)))
    runs

let spread a =
  let q1, q3 = Stats.quartiles a in
  let m = Stats.median a in
  if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m

(* The rule, per workload x metric, with pairs matched on seed:
   - fewer than 10 pairs: "too few pairs";
   - either side's quartile spread wider than the bound, unless every
     change run beats every base run: "unresolved";
   - the change median worse than the base median by more than the bound:
     "REGRESSION";
   - the change wins at least 9 of 10 pairs and the medians differ by more
     than the base's interquartile range: "gain";
   - otherwise "no change". *)
let verdict spec pairs =
  let b = Array.of_list (List.map fst pairs) and c = Array.of_list (List.map snd pairs) in
  let better x y = if spec.lower_better then x < y else x > y in
  let n = Array.length b in
  let mb = Stats.median b and mc = Stats.median c in
  let q1, q3 = Stats.quartiles b in
  let wins = List.length (List.filter (fun (x, y) -> better y x) pairs) in
  let worse =
    if mb = 0.0 then 0.0
    else (if spec.lower_better then mc -. mb else mb -. mc) /. Float.abs mb
  in
  let all_better = Array.for_all (fun y -> Array.for_all (fun x -> better y x) b) c in
  let v =
    if n < 10 then "too few pairs"
    else if (spread b > spec.bound || spread c > spec.bound) && not all_better then "unresolved"
    else if worse > spec.bound then "REGRESSION"
    else if
      float_of_int wins >= 0.9 *. float_of_int n
      && better mc mb
      && Float.abs (mc -. mb) > q3 -. q1
    then "gain"
    else "no change"
  in
  (v, n, mb, mc, wins, spread b, spread c)

(* A run passed its output checks: it exited 0 (records written by [run
   --out] carry no exit code), said [correct] and counted no failed
   request. *)
let correct_run r =
  Option.value ~default:0.0 (num "exit" r) = 0.0
  && Json.mem "correct" r = Some (Json.Bool true)
  && num "failed" r = Some 0.0

let compare_files ~spec base change =
  let base_runs = read_results base and change_runs = read_results change in
  let workloads = List.sort_uniq compare (List.map (str "workload") base_runs) in
  Fmt.pr "%s (base) vs %s (change)@." base change;
  Fmt.pr "%-10s %-14s %5s %18s %12s %12s %7s %7s %7s  %s@." "workload" "metric" "pairs"
    "base median" "change" "change/base" "wins" "spr.b" "spr.c" "verdict (bound)";
  let bad = ref 0 in
  List.iter
    (fun workload ->
      (* one incorrect run on either side fails the workload, whatever its
         timings say *)
      let tally rs =
        let rs = List.filter (fun r -> str "workload" r = workload) rs in
        (List.length (List.filter correct_run rs), List.length rs)
      in
      let cb, nb = tally base_runs and cc, nc = tally change_runs in
      let ok = cb = nb && cc = nc in
      if not ok then incr bad;
      Fmt.pr "%-10s %-14s %5s %18s %12s %37s  %s@." workload "correct runs" ""
        (Printf.sprintf "%d/%d" cb nb) (Printf.sprintf "%d/%d" cc nc) ""
        (if ok then "ok" else "FAILED");
      List.iter
        (fun m ->
          let bs = by_seed base_runs ~workload ~metric:m.name in
          let cs = by_seed change_runs ~workload ~metric:m.name in
          let pairs =
            List.filter_map (fun (seed, x) -> Option.map (fun y -> (x, y)) (List.assoc_opt seed cs)) bs
          in
          let v, n, mb, mc, wins, sb, sc = verdict m pairs in
          if v = "REGRESSION" || v = "unresolved" || v = "too few pairs" then incr bad;
          Fmt.pr "%-10s %-14s %5d %12.4g %-5s %12.4g %12.3f %3d/%-3d %6.1f%% %6.1f%%  %s (%.0f%%)@."
            workload m.name n mb m.unit mc
            (if mb = 0.0 then 0.0 else mc /. mb)
            wins n (100.0 *. sb) (100.0 *. sc) v (100.0 *. m.bound))
        spec)
    workloads;
  !bad

(* Bounds and directions come from BENCHMARK.json in the working directory,
   the repository root when run through run.sh. *)
let main argv =
  match argv with
  | base :: (_ :: _ as changes) ->
    let spec = read_spec "BENCHMARK.json" in
    let bad = List.fold_left (fun n c -> n + compare_files ~spec base c) 0 changes in
    if bad > 0 then 1 else 0
  | _ ->
    prerr_endline "usage: flexbench compare BASE.json CHANGE.json...";
    2
