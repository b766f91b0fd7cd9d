(* Bench regression gate: compare a freshly produced bench JSON against the
   committed BENCH_*.json for the same suite and fail on large regressions.

     dune exec bench/check_regress.exe -- --committed BENCH_obs.json --fresh fresh/BENCH_obs.json

   The committed files hold full-run numbers while CI produces smoke-run
   numbers on shared, noisy machines, so absolute latencies and throughputs
   are not comparable. What IS comparable across scales:

   - overhead ratios (lower is better) — telemetry on/off style; these sit
     near 1.0 at any scale, so a fresh value past an absolute ceiling means
     the cheap path got expensive;
   - speedups (higher is better) — cache/replay/derivation wins; the
     magnitude shrinks at smoke scale, but a mechanism that stops helping
     at all drops to ~1x and below at every scale;
   - invariant booleans (zero_budget, conservation_exact, warm_cache_hit,
     all_derived, restart_conservation, hit_line_identical, ...) — true in
     the committed run must stay true, noise-free at any scale.

   Everything else (raw ns, qps, counts) is reported but never gated. *)

module Json = Flex_service.Json

let committed_path = ref ""
let fresh_path = ref ""

(* lower-is-better ratios: fail past max(committed * ratio_tol, ratio_floor).
   The floor absorbs smoke noise around 1.0 (a 0.99 committed ratio must not
   gate fresh runs at 0.99 * tol). *)
let ratio_tol = ref 2.0
let ratio_floor = ref 2.0

(* higher-is-better speedups: fail below max-comparable floor. Full-run
   speedups (100x+) collapse by well over 10x at smoke scale, so the
   fractional bound is deliberately loose; the absolute floor is what
   catches "the mechanism stopped helping". *)
let speedup_frac = ref 0.01
let min_speedup = ref 0.5

let usage () =
  prerr_endline
    "usage: check_regress --committed FILE --fresh FILE [--ratio-tol F] [--ratio-floor F] \
     [--speedup-frac F] [--min-speedup F]";
  exit 2

let rec parse_args = function
  | [] -> ()
  | "--committed" :: v :: rest ->
    committed_path := v;
    parse_args rest
  | "--fresh" :: v :: rest ->
    fresh_path := v;
    parse_args rest
  | "--ratio-tol" :: v :: rest ->
    ratio_tol := float_of_string v;
    parse_args rest
  | "--ratio-floor" :: v :: rest ->
    ratio_floor := float_of_string v;
    parse_args rest
  | "--speedup-frac" :: v :: rest ->
    speedup_frac := float_of_string v;
    parse_args rest
  | "--min-speedup" :: v :: rest ->
    min_speedup := float_of_string v;
    parse_args rest
  | _ -> usage ()

let load path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  match Json.of_string (String.trim s) with
  | Ok j -> j
  | Error e -> Fmt.failwith "%s: %s" path e

let ends_with ~suffix s =
  let ls = String.length suffix and l = String.length s in
  l >= ls && String.sub s (l - ls) ls = suffix

(* keys gated as lower-is-better ratios vs higher-is-better speedups *)
let is_ratio key = ends_with ~suffix:"_ratio" key || key = "ratio"
let is_speedup key = ends_with ~suffix:"speedup" key

(* booleans that are incidental metadata, not invariants *)
let boolean_ignored = [ "smoke" ]

type verdict = { mutable checked : int; mutable failed : int; mutable missing : int }

let v = { checked = 0; failed = 0; missing = 0 }

let fail path fmt =
  v.failed <- v.failed + 1;
  Fmt.epr ("FAIL %s: " ^^ fmt ^^ "@.") path

let missing path =
  v.missing <- v.missing + 1;
  Fmt.epr "FAIL %s: present in committed baseline but missing from fresh output@." path

let check_ratio path ~committed ~fresh =
  v.checked <- v.checked + 1;
  let ceiling = Float.max (committed *. !ratio_tol) !ratio_floor in
  if fresh > ceiling then
    fail path "ratio %.3f exceeds ceiling %.3f (committed %.3f)" fresh ceiling committed
  else Fmt.pr "ok   %s: ratio %.3f <= %.3f@." path fresh ceiling

let check_speedup path ~committed ~fresh =
  v.checked <- v.checked + 1;
  let floor = Float.min (committed *. !speedup_frac) !min_speedup in
  if fresh < floor then
    fail path "speedup %.2f below floor %.2f (committed %.2f)" fresh floor committed
  else Fmt.pr "ok   %s: speedup %.2f >= %.2f@." path fresh floor

let check_bool path ~committed ~fresh =
  if committed then begin
    v.checked <- v.checked + 1;
    if not fresh then fail path "invariant was true in committed baseline, false in fresh run"
    else Fmt.pr "ok   %s: invariant holds@." path
  end

(* walk the committed document; for every gated leaf, find the same path in
   the fresh document and compare *)
let rec walk path committed fresh =
  match committed with
  | Json.Obj fields ->
    List.iter
      (fun (key, cv) ->
        let sub = if path = "" then key else path ^ "." ^ key in
        match Option.bind fresh (Json.mem key) with
        | None ->
          if is_ratio key || is_speedup key then missing sub
          else (match cv with
            | Json.Bool true when not (List.mem key boolean_ignored) -> missing sub
            | _ -> ())
        | Some fv -> walk sub cv (Some fv))
      fields
  | Json.List items ->
    List.iteri
      (fun i cv ->
        let sub = Printf.sprintf "%s[%d]" path i in
        let fv =
          Option.bind fresh (fun f ->
            Option.bind (Json.to_list f) (fun l -> List.nth_opt l i))
        in
        match fv with
        | None -> (match cv with Json.Obj _ | Json.List _ -> walk sub cv None | _ -> ())
        | Some _ -> walk sub cv fv)
      items
  | Json.Num c -> (
    let key =
      match String.rindex_opt path '.' with
      | Some i -> String.sub path (i + 1) (String.length path - i - 1)
      | None -> path
    in
    match Option.bind fresh Json.to_num with
    | None -> if is_ratio key || is_speedup key then missing path
    | Some f ->
      if is_ratio key then check_ratio path ~committed:c ~fresh:f
      else if is_speedup key then check_speedup path ~committed:c ~fresh:f)
  | Json.Bool c -> (
    let key =
      match String.rindex_opt path '.' with
      | Some i -> String.sub path (i + 1) (String.length path - i - 1)
      | None -> path
    in
    if not (List.mem key boolean_ignored) then
      match Option.bind fresh Json.to_bool with
      | None -> if c then missing path
      | Some f -> check_bool path ~committed:c ~fresh:f)
  | _ -> ()

let () =
  parse_args (List.tl (Array.to_list Sys.argv));
  if !committed_path = "" || !fresh_path = "" then usage ();
  let committed = load !committed_path in
  let fresh = load !fresh_path in
  walk "" committed (Some fresh);
  let bad = v.failed + v.missing in
  if bad > 0 then begin
    Fmt.epr "check_regress: %d of %d gated metrics regressed (%s vs %s)@." bad
      (v.checked + v.missing) !fresh_path !committed_path;
    exit 1
  end
  else
    Fmt.pr "check_regress: %d gated metrics within tolerance (%s vs %s)@." v.checked
      !fresh_path !committed_path
