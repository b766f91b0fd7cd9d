(* The per-layer breakdown of a traced phase, from four sources:
   (C) the client's own timings of each request and of the Wire codec,
   (S) the span trees the server's flight recorder kept, joined to the
       client's requests on the wire id,
   (D) direct calls into public functions no span covers, on this
       workload's own answers and journal mode,
   (P) the counters the server process read at the start and end of the
       measured phase. *)

module Json = Flex_service.Json
module Wire = Flex_service.Wire
module Audit = Flex_service.Audit
module Release_store = Flex_service.Release_store
module Ledger = Flex_dp.Ledger
module Value = Flex_engine.Value
module Factor = Flex_sql.Factor
module W = Workload

type metric = { name : string; unit : string; value : float }

(* ------------------------------------------------------------- server spans *)

type span = { name : string; start : float; dur : float; children : span list }

let rec span_of_json j =
  let num k = Option.value ~default:0.0 (Option.bind (Json.mem k j) Json.to_num) in
  {
    name = Option.value ~default:"" (Option.bind (Json.mem "name" j) Json.to_str);
    start = num "start_ns";
    dur = num "duration_ns";
    children =
      List.map span_of_json
        (Option.value ~default:[] (Option.bind (Json.mem "children" j) Json.to_list));
  }

(* id -> (outcome, root span), from the file the server wrote at stop. *)
let read_flights path =
  let t = Hashtbl.create 4096 in
  if Sys.file_exists path then
    In_channel.with_open_bin path (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> ()
          | Some line ->
            (match String.split_on_char '\t' line with
            | id :: outcome :: rest ->
              Hashtbl.replace t id
                (outcome, span_of_json (Json.of_string_exn (String.concat "\t" rest)))
            | _ -> ());
            go ()
        in
        go ());
  t

let total spans = List.fold_left (fun a s -> a +. s.dur) 0.0 spans
let child root n = List.find_opt (fun (c : span) -> c.name = n) root.children

(* The named layers: direct children of the root span, with the analysis
   cache split into its own time and the analysis it ran on a miss; a root
   child this list does not name counts under "other". A request's layers
   plus [unaccounted] (root time no child span claims) make up the root
   span; root plus [frontend] (everything outside the root: wire, framing,
   queueing, audit, encoding, write-out) make up the round trip. *)
let named =
  [
    ("parse", "parse");
    ("canon", "canon");
    ("replay", "probe");
    ("smooth", "smooth");
    ("execute", "execute");
    ("charge", "charge");
    ("perturb", "perturb");
  ]

let layers_of root =
  let dur n = Option.map (fun (c : span) -> c.dur) (child root n) in
  let cache = child root "cache" in
  let others =
    List.filter
      (fun (c : span) -> c.name <> "cache" && not (List.mem_assoc c.name named))
      root.children
  in
  List.map (fun (span, key) -> (key, dur span)) named
  @ [
      ("cache_self", Option.map (fun c -> c.dur -. total c.children) cache);
      ( "analysis",
        Option.bind cache (fun c -> if c.children = [] then None else Some (total c.children)) );
      ("other", if others = [] then None else Some (total others));
    ]

type joined = {
  sample : Run.sample;
  outcome : string;
  root : span;
  layers : (string * float option) list;
  unaccounted : float;
  frontend : float;
}

let join (samples : Run.sample list) flights =
  List.filter_map
    (fun (s : Run.sample) ->
      Option.map
        (fun (outcome, root) ->
          {
            sample = s;
            outcome;
            root;
            layers = layers_of root;
            unaccounted = root.dur -. total root.children;
            frontend = s.rtt -. root.dur;
          })
        (Hashtbl.find_opt flights s.id))
    samples

(* ------------------------------------------------------------ direct calls *)

(* Median per-call time in microseconds: [n] samples of [batch] calls each. *)
let per_call_us ~n ~batch f =
  if n = 0 then 0.0
  else
    let v =
      Array.init n (fun i ->
          let t0 = Run.now () in
          for j = 1 to batch do
            f ((i * batch) + j)
          done;
          (Run.now () -. t0) /. float_of_int batch)
    in
    Stats.percentile v 0.5 /. 1e3

let value_of_json ~key (j : Json.t) =
  match j with
  | Json.Null -> Value.Null
  | Json.Bool b -> Value.Bool b
  | Json.Num x when key && Float.is_integer x -> Value.Int (int_of_float x)
  | Json.Num x -> Value.Float x
  | Json.Str s -> Value.String s
  | Json.List _ | Json.Obj _ -> Value.Null

type answer = { sql : string; columns : string list; rows : Json.t list list; epsilon_spent : float }

let answers kept =
  List.filter_map
    (fun (sql, (resp : Wire.response)) ->
      match resp with
      | Wire.Result r ->
        Some { sql; columns = r.columns; rows = r.rows; epsilon_spent = r.epsilon_spent }
      | _ -> None)
    kept

(* Stored rows, as the release store holds them, for every core whose exact
   text was answered: a core's own answer is its stored release. *)
let stored_rows answers =
  let t = Hashtbl.create 64 in
  List.iter
    (fun a ->
      match W.factor a.sql with
      | Some f when Factor.trivial f ->
        let row cells =
          Array.of_list (List.mapi (fun i c -> value_of_json ~key:(i < f.n_group_keys) c) cells)
        in
        Hashtbl.replace t f.core_sql (Factor.core_columns f, List.map row a.rows)
      | _ -> ())
    answers;
  t

type direct = {
  spend_us : float;
  record_us : float;
  audit_us : float;
  post_process_us : float;
  encode_us : float;
}

(* Public functions no span covers, timed in this process on the answers
   the traced phase kept, with the workload's journal mode. *)
let direct_calls ~dir ~sync kept =
  let kept = Array.of_list kept in
  let answers = answers (Array.to_list kept) in
  let stored = stored_rows answers in
  (* each answer with the stored rows of its core *)
  let with_core =
    Array.of_list
      (List.filter_map
         (fun a ->
           Option.bind (W.factor a.sql) (fun (f : Factor.t) ->
               Option.map
                 (fun (columns, rows) -> (a, f, columns, rows))
                 (Hashtbl.find_opt stored f.core_sql)))
         answers)
  in
  let n_cores = Array.length with_core in
  let ledger = Ledger.open_ ~sync (Filename.concat dir "direct-ledger.journal") in
  ignore (Ledger.register ledger ~analyst:"direct" ~epsilon:1e9 ~delta:0.5);
  let spend_us =
    per_call_us ~n:200 ~batch:1 (fun _ ->
        ignore
          (Ledger.spend ledger ~analyst:"direct" ~epsilon:W.epsilon ~delta:1e-8
             ~label:"flex-query"))
  in
  Ledger.close ledger;
  let store =
    Release_store.open_ ~sync ~fingerprint:"direct" (Filename.concat dir "direct-releases.journal")
  in
  let record_us =
    per_call_us ~n:(if n_cores = 0 then 0 else 200) ~batch:1 (fun i ->
        let a, _, columns, rows = with_core.(i mod n_cores) in
        ignore
          (Release_store.record store
             {
               key = Printf.sprintf "direct-%d" i;
               fingerprint = "direct";
               analyst = "direct";
               epsilon = W.epsilon;
               delta = 1e-8;
               epsilon_spent = a.epsilon_spent;
               delta_spent = 1e-8;
               columns;
               rows;
               bins_enumerated = false;
               noise_scales = List.map (fun c -> (c, 1.0)) columns;
             }))
  in
  Release_store.close store;
  let audit = Audit.to_file (Filename.concat dir "direct-audit.jsonl") in
  let audit_us =
    per_call_us ~n:(if kept = [||] then 0 else 200) ~batch:1 (fun i ->
        let sql, (resp : Wire.response) = kept.(i mod Array.length kept) in
        let outcome, epsilon, cache_hit =
          match resp with
          | Wire.Result r when r.derived -> (Audit.Derived, 0.0, true)
          | Wire.Result r when r.cached -> (Audit.Replayed, 0.0, true)
          | Wire.Result r -> (Audit.Granted, r.epsilon_spent, r.cache_hit)
          | Wire.Refused _ -> (Audit.Refused, 0.0, false)
          | _ -> (Audit.Failed, 0.0, false)
        in
        Audit.log audit
          {
            analyst = "direct";
            sql;
            request_id = Some (string_of_int i);
            outcome;
            epsilon;
            delta = 0.0;
            max_noise_scale = 1.0;
            cache_hit;
            parse_ns = 2000.0;
            analysis_ns = 0.0;
            smooth_ns = 0.0;
            execution_ns = 0.0;
            perturbation_ns = 0.0;
            total_ns = 10000.0;
          })
  in
  Audit.close audit;
  let post_process_us =
    per_call_us ~n:(if n_cores = 0 then 0 else 200) ~batch:20 (fun i ->
        let _, (f : Factor.t), columns, rows = with_core.(i mod n_cores) in
        ignore (Flex_core.Flex.post_process f.suffix ~columns rows))
  in
  let encode_us =
    per_call_us ~n:(if kept = [||] then 0 else 200) ~batch:20 (fun i ->
        ignore (Wire.response_to_line ~id:"1.1" (snd kept.(i mod Array.length kept))))
  in
  { spend_us; record_us; audit_us; post_process_us; encode_us }

(* ------------------------------------------------------- Chrome trace file *)

(* Client spans plus each request's server span tree, one track per
   connection, loadable in chrome://tracing or Perfetto. *)
let write_chrome path (rows : joined list) ~limit =
  let events = ref [] in
  let add e = events := Json.Obj e :: !events in
  let event ~name ~pid ~tid ~ts ~dur ~args =
    add
      [
        ("name", Json.str name);
        ("ph", Json.str "X");
        ("pid", Json.int pid);
        ("tid", Json.int tid);
        ("ts", Json.num (ts /. 1e3));
        ("dur", Json.num (dur /. 1e3));
        ("args", args);
      ]
  in
  List.iter
    (fun (pid, label) ->
      add
        [
          ("name", Json.str "process_name");
          ("ph", Json.str "M");
          ("pid", Json.int pid);
          ("args", Json.Obj [ ("name", Json.str label) ]);
        ])
    [ (1, "flexbench client"); (2, "FLEX server") ];
  List.iteri
    (fun i j ->
      if i < limit then begin
        let s = j.sample in
        let tid = int_of_string (List.hd (String.split_on_char '.' s.id)) in
        let args = Json.Obj [ ("id", Json.str s.id); ("outcome", Json.str j.outcome) ] in
        event ~name:"Wire.request_to_line" ~pid:1 ~tid ~ts:(s.t0 -. s.enc) ~dur:s.enc ~args;
        event ~name:"round trip" ~pid:1 ~tid ~ts:s.t0 ~dur:s.rtt ~args;
        event ~name:"Wire.response_of_line" ~pid:1 ~tid ~ts:(s.t0 +. s.rtt) ~dur:s.dec ~args;
        let rec spans (sp : span) =
          event ~name:sp.name ~pid:2 ~tid ~ts:sp.start ~dur:sp.dur ~args;
          List.iter spans sp.children
        in
        spans j.root
      end)
    rows;
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
      output_string oc (String.concat ",\n" (List.rev_map Json.to_string !events));
      output_string oc "\n]}\n")

(* ---------------------------------------------------------------- metrics *)

let counter (c : Json.t) phase key =
  Option.value ~default:0.0 (Option.bind (Option.bind (Json.mem phase c) (Json.mem key)) Json.to_num)

let delta c key = counter c "end" key -. counter c "mark" key
let ratio a b = if b > 0.0 then a /. b else 0.0

(* Every per-layer metric, in the order BENCHMARK.json lists them.
   [untraced] is the same workload's untraced phase; [traced] the traced
   one, whose flights, kept answers and counters feed the layers. *)
let metrics ~(untraced : Run.phase) ~(traced : Run.phase) ~rows ~(direct : direct) =
  let lat f = Run.latencies untraced f in
  let ms p a = Stats.percentile a p /. 1e6 in
  let samples = List.concat_map (fun (l : Run.lane) -> l.samples) (Array.to_list traced.lanes) in
  let client f = Array.of_list (List.map f samples) in
  let us a = Array.map (fun x -> x /. 1e3) a in
  let of_rows f = Array.of_list (List.filter_map f rows) in
  let layer k = of_rows (fun j -> List.assoc k j.layers) in
  let rtt_total = Stats.sum (Array.of_list (List.map (fun j -> j.sample.rtt) rows)) in
  let share a = ratio (Stats.sum a) rtt_total in
  let measured = float_of_int (Run.measured traced) in
  let charged =
    float_of_int
      (Array.fold_left (fun n (l : Run.lane) -> n + Stats.Vec.length l.lat_charged) 0 traced.lanes)
  in
  let c = traced.counters in
  let executed = List.filter (fun j -> List.assoc "execute" j.layers <> None) rows in
  let m name unit value = { name; unit; value } in
  (* Server spans come from a wall clock with microsecond ticks, so a
     span-timed layer is reported as its mean: a median would take one of a
     few tick values and hide moves smaller than a tick. *)
  let layer_metrics key prefix ~p99 =
    let v = layer key in
    [ m (prefix ^ "_mean") "us" (Stats.mean (us v)) ]
    @ (if p99 then [ m (prefix ^ "_p99") "us" (Stats.percentile (us v) 0.99) ] else [])
  in
  let frontend = of_rows (fun j -> Some j.frontend) in
  let unaccounted = of_rows (fun j -> Some j.unaccounted) in
  let handle = of_rows (fun j -> Some j.root.dur) in
  [
    m "charged_p50_ms" "ms" (ms 0.5 (lat (fun l -> l.lat_charged)));
    m "charged_p99_ms" "ms" (ms 0.99 (lat (fun l -> l.lat_charged)));
    m "hit_p50_ms" "ms" (ms 0.5 (lat (fun l -> l.lat_hit)));
    m "hit_p99_ms" "ms" (ms 0.99 (lat (fun l -> l.lat_hit)));
    m "refused_p50_ms" "ms" (ms 0.5 (lat (fun l -> l.lat_refused)));
    m "refused_p99_ms" "ms" (ms 0.99 (lat (fun l -> l.lat_refused)));
    m "failed_share" "fraction"
      (ratio (float_of_int (Run.failed untraced)) (float_of_int (Run.measured untraced)));
    m "wire.request_encode_us" "us" (Stats.percentile (us (client (fun s -> s.enc))) 0.5);
    m "wire.response_decode_us" "us" (Stats.percentile (us (client (fun s -> s.dec))) 0.5);
    m "wire.response_encode_us" "us" direct.encode_us;
    m "wire.response_bytes" "bytes" (Stats.mean (client (fun s -> float_of_int s.bytes)));
    m "reactor.frontend_us_p50" "us" (Stats.percentile (us frontend) 0.5);
    m "reactor.frontend_us_p99" "us" (Stats.percentile (us frontend) 0.99);
    m "reactor.frontend_share" "fraction" (share frontend);
    m "reactor.inflight_mean" "count"
      (Option.value ~default:0.0 (Option.bind (Json.mem "inflight_mean" c) Json.to_num));
    m "reactor.shed_total" "count" (delta c "shed_total");
    m "server.handle_us_mean" "us" (Stats.mean (us handle));
    m "server.handle_us_p99" "us" (Stats.percentile (us handle) 0.99);
    m "server.unaccounted_us_mean" "us" (Stats.mean (us unaccounted));
    m "server.unaccounted_share" "fraction" (share unaccounted);
    m "server.other_spans_share" "fraction" (share (layer "other"));
  ]
  @ layer_metrics "parse" "parse.us" ~p99:false
  @ [ m "parse.share" "fraction" (share (layer "parse")) ]
  @ layer_metrics "canon" "canon.us" ~p99:false
  @ [ m "canon.share" "fraction" (share (layer "canon")) ]
  @ [
      m "release_store.probe_us_mean" "us" (Stats.mean (us (layer "probe")));
      m "release_store.probe_share" "fraction" (share (layer "probe"));
      m "release_store.hit_rate" "fraction"
        (ratio (delta c "store_hits") (delta c "store_hits" +. delta c "store_misses"));
      m "release_store.record_us_p50" "us" direct.record_us;
      m "release_store.journal_bytes_per_release" "bytes" (ratio (delta c "releases_bytes") charged);
      m "release_store.evictions" "count" (delta c "store_evictions");
      m "cache.hit_rate" "fraction"
        (ratio (delta c "cache_hits") (delta c "cache_hits" +. delta c "cache_misses"));
      m "cache.self_us_mean" "us" (Stats.mean (us (layer "cache_self")));
      m "cache.self_share" "fraction" (share (layer "cache_self"));
    ]
  @ layer_metrics "analysis" "analysis.us" ~p99:true
  @ [ m "analysis.share" "fraction" (share (layer "analysis")) ]
  @ layer_metrics "smooth" "smooth.us" ~p99:false
  @ [ m "smooth.share" "fraction" (share (layer "smooth")) ]
  @ layer_metrics "execute" "execute.us" ~p99:true
  @ [
      m "execute.share" "fraction" (share (layer "execute"));
      m "execute.useful_ratio" "fraction"
        (ratio
           (float_of_int (List.length (List.filter (fun j -> j.outcome = "granted") executed)))
           (float_of_int (List.length executed)));
    ]
  @ layer_metrics "charge" "charge.us" ~p99:true
  @ [
      m "charge.share" "fraction" (share (layer "charge"));
      m "ledger.spend_us_p50" "us" direct.spend_us;
      m "ledger.journal_bytes_per_charge" "bytes" (ratio (delta c "ledger_bytes") charged);
    ]
  @ layer_metrics "perturb" "perturb.us" ~p99:false
  @ [
      m "perturb.share" "fraction" (share (layer "perturb"));
      m "post_process.us_p50" "us" direct.post_process_us;
      m "audit.log_us_p50" "us" direct.audit_us;
      m "audit.bytes_per_request" "bytes" (ratio (delta c "audit_bytes") measured);
      m "gc.minor_words_per_req" "words" (ratio (delta c "minor_words") measured);
      m "gc.major_collections_per_kreq" "count"
        (ratio (1000.0 *. delta c "major_collections") measured);
      m "gc.top_heap_mb" "MiB" (counter c "end" "top_heap_words" *. 8.0 /. 1048576.0);
      m "trace.overhead_ratio" "ratio" (ratio (Run.qps untraced) (Run.qps traced));
    ]

(* Per request, the layers plus [unaccounted] equal the root span, and the
   root plus [frontend] equal the round trip; so the shares sum to one, and
   no root span outlasts its round trip unless the join went wrong. *)
let adds_up rows (ms : metric list) =
  let shares =
    List.filter
      (fun (x : metric) -> String.ends_with ~suffix:"share" x.name && x.name <> "failed_share")
      ms
  in
  rows <> []
  && List.for_all (fun j -> j.frontend >= 0.0) rows
  && Float.abs (List.fold_left (fun a x -> a +. x.value) 0.0 shares -. 1.0) < 1e-6
