(* Request/response messages and their JSON forms. Encoding is total;
   decoding validates shape and reports the offending field. *)

module Json = Json

type request =
  | Hello of { analyst : string; epsilon : float option; delta : float option }
  | Query of {
      sql : string;
      epsilon : float option;
      delta : float option;
      id : string option;
          (* client-chosen correlation id, echoed verbatim in the response
             and recorded in the audit event and flight record *)
    }
  | Analyze of { sql : string }
  | Explain of { sql : string }
  | Budget_info
  | Stats
  | Quit

type column_analysis = {
  column : string;
  sensitivity : string;
  smooth_bound : float;
  noise_scale : float;
}

type response =
  | Result of {
      columns : string list;
      rows : Json.t list list;
      epsilon_spent : float;
      delta_spent : float;
      remaining_epsilon : float;
      remaining_delta : float;
      cache_hit : bool;
      cached : bool;
      derived : bool;
          (* answered by post-processing a stored release's noisy rows (a
             materialized-view hit with a nontrivial suffix); [cached] stays
             the "zero budget was charged" flag for both replay and
             derivation *)
      bins_enumerated : bool;
      noise_scales : (string * float) list;
    }
  | Analysis of {
      cache_hit : bool;
      is_histogram : bool;
      joins : int;
      columns : column_analysis list;
    }
  | Plan_report of { logical : string; optimized : string }
  | Rejected of { bucket : string; reason : string }
  | Refused of {
      analyst : string;
      requested_epsilon : float;
      requested_delta : float;
      remaining_epsilon : float;
      remaining_delta : float;
    }
  | Budget_report of {
      analyst : string;
      epsilon_limit : float;
      delta_limit : float;
      epsilon_spent : float;
      delta_spent : float;
      remaining_epsilon : float;
      remaining_delta : float;
      queries : int;
    }
  | Stats_report of {
      queries : int;
      granted : int;
      rejected : int;
      refused : int;
      cache_hits : int;
      cache_misses : int;
      cache_entries : int;
      release_hits : int;
      release_misses : int;
      release_derived : int;
          (* store hits answered by suffix evaluation rather than exact
             replay *)
      release_evictions : int;
      release_entries : int;
      release_hit_rate : float;
      analysts : int;
      uptime_seconds : float;
      qps : float;
      metrics : Json.t;
    }
  | Analyzed_report of { plan : string }
  | Error_msg of string
  | Bye

(* --- helpers ---------------------------------------------------------------- *)

let opt_num key = function Some f -> [ (key, Json.num f) ] | None -> []
let opt_str key = function Some s -> [ (key, Json.str s) ] | None -> []

let get_opt_str key j =
  match Json.mem key j with
  | None | Some Json.Null -> Ok None
  | Some v -> (
    match Json.to_str v with
    | Some s -> Ok (Some s)
    | None -> Error (Printf.sprintf "non-string field %S" key))

let get_opt_num key j =
  match Json.mem key j with
  | None | Some Json.Null -> Ok None
  | Some v -> (
    match Json.to_num v with
    | Some f -> Ok (Some f)
    | None -> Error (Printf.sprintf "non-number field %S" key))

(* fields added after an op shipped decode with a default, so a newer client
   still understands an older server's responses *)
let get_int_default key ~default j =
  match Json.mem key j with
  | None | Some Json.Null -> Ok default
  | Some v -> (
    match Json.to_int v with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "non-integer field %S" key))

let get_bool_default key ~default j =
  match Json.mem key j with
  | None | Some Json.Null -> Ok default
  | Some v -> (
    match Json.to_bool v with
    | Some b -> Ok b
    | None -> Error (Printf.sprintf "non-boolean field %S" key))

let ( let* ) = Result.bind

(* --- requests ---------------------------------------------------------------- *)

let request_to_json = function
  | Hello { analyst; epsilon; delta } ->
    Json.Obj
      ([ ("op", Json.str "hello"); ("analyst", Json.str analyst) ]
      @ opt_num "epsilon" epsilon @ opt_num "delta" delta)
  | Query { sql; epsilon; delta; id } ->
    Json.Obj
      ([ ("op", Json.str "query"); ("sql", Json.str sql) ]
      @ opt_num "epsilon" epsilon @ opt_num "delta" delta @ opt_str "id" id)
  | Analyze { sql } -> Json.Obj [ ("op", Json.str "analyze"); ("sql", Json.str sql) ]
  | Explain { sql } -> Json.Obj [ ("op", Json.str "explain"); ("sql", Json.str sql) ]
  | Budget_info -> Json.Obj [ ("op", Json.str "budget") ]
  | Stats -> Json.Obj [ ("op", Json.str "stats") ]
  | Quit -> Json.Obj [ ("op", Json.str "quit") ]

let request_of_json j =
  let* op = Json.get_str "op" j in
  match op with
  | "hello" ->
    let* analyst = Json.get_str "analyst" j in
    let* epsilon = get_opt_num "epsilon" j in
    let* delta = get_opt_num "delta" j in
    Ok (Hello { analyst; epsilon; delta })
  | "query" ->
    let* sql = Json.get_str "sql" j in
    let* epsilon = get_opt_num "epsilon" j in
    let* delta = get_opt_num "delta" j in
    (* added after the op shipped: an older client never sends one *)
    let* id = get_opt_str "id" j in
    Ok (Query { sql; epsilon; delta; id })
  | "analyze" ->
    let* sql = Json.get_str "sql" j in
    Ok (Analyze { sql })
  | "explain" ->
    let* sql = Json.get_str "sql" j in
    Ok (Explain { sql })
  | "budget" -> Ok Budget_info
  | "stats" -> Ok Stats
  | "quit" -> Ok Quit
  | op -> Error (Printf.sprintf "unknown op %S" op)

(* --- responses ---------------------------------------------------------------- *)

(* A [Result]'s fields in wire order: those before its remaining budget, the
   remaining budget, and those after it. *)
let result_fields = function
  | Result r ->
    ( [
        ("status", Json.str "result");
        ("columns", Json.List (List.map Json.str r.columns));
        ("rows", Json.List (List.map (fun row -> Json.List row) r.rows));
        ("epsilon_spent", Json.num r.epsilon_spent);
        ("delta_spent", Json.num r.delta_spent);
      ],
      (r.remaining_epsilon, r.remaining_delta),
      [
        ("cache_hit", Json.bool r.cache_hit);
        ("cached", Json.bool r.cached);
        ("derived", Json.bool r.derived);
        ("bins_enumerated", Json.bool r.bins_enumerated);
        ( "noise_scales",
          Json.List
            (List.map
               (fun (c, s) ->
                 Json.Obj [ ("column", Json.str c); ("scale", Json.num s) ])
               r.noise_scales) );
      ] )
  | _ -> invalid_arg "Wire.result_fields: not a Result"

let response_to_json = function
  | Result _ as r ->
    let before, (remaining_epsilon, remaining_delta), after = result_fields r in
    Json.Obj
      (before
      @ [
          ("remaining_epsilon", Json.num remaining_epsilon);
          ("remaining_delta", Json.num remaining_delta);
        ]
      @ after)
  | Analysis a ->
    Json.Obj
      [
        ("status", Json.str "analysis");
        ("cache_hit", Json.bool a.cache_hit);
        ("is_histogram", Json.bool a.is_histogram);
        ("joins", Json.int a.joins);
        ( "columns",
          Json.List
            (List.map
               (fun c ->
                 Json.Obj
                   [
                     ("column", Json.str c.column);
                     ("sensitivity", Json.str c.sensitivity);
                     ("smooth_bound", Json.num c.smooth_bound);
                     ("noise_scale", Json.num c.noise_scale);
                   ])
               a.columns) );
      ]
  | Plan_report { logical; optimized } ->
    Json.Obj
      [
        ("status", Json.str "plan");
        ("logical", Json.str logical);
        ("optimized", Json.str optimized);
      ]
  | Rejected { bucket; reason } ->
    Json.Obj
      [ ("status", Json.str "rejected"); ("bucket", Json.str bucket); ("reason", Json.str reason) ]
  | Refused r ->
    Json.Obj
      [
        ("status", Json.str "refused");
        ("analyst", Json.str r.analyst);
        ("requested_epsilon", Json.num r.requested_epsilon);
        ("requested_delta", Json.num r.requested_delta);
        ("remaining_epsilon", Json.num r.remaining_epsilon);
        ("remaining_delta", Json.num r.remaining_delta);
      ]
  | Budget_report b ->
    Json.Obj
      [
        ("status", Json.str "budget");
        ("analyst", Json.str b.analyst);
        ("epsilon_limit", Json.num b.epsilon_limit);
        ("delta_limit", Json.num b.delta_limit);
        ("epsilon_spent", Json.num b.epsilon_spent);
        ("delta_spent", Json.num b.delta_spent);
        ("remaining_epsilon", Json.num b.remaining_epsilon);
        ("remaining_delta", Json.num b.remaining_delta);
        ("queries", Json.int b.queries);
      ]
  | Stats_report s ->
    Json.Obj
      [
        ("status", Json.str "stats");
        ("queries", Json.int s.queries);
        ("granted", Json.int s.granted);
        ("rejected", Json.int s.rejected);
        ("refused", Json.int s.refused);
        ("cache_hits", Json.int s.cache_hits);
        ("cache_misses", Json.int s.cache_misses);
        ("cache_entries", Json.int s.cache_entries);
        ("release_hits", Json.int s.release_hits);
        ("release_misses", Json.int s.release_misses);
        ("release_derived", Json.int s.release_derived);
        ("release_evictions", Json.int s.release_evictions);
        ("release_entries", Json.int s.release_entries);
        ("release_hit_rate", Json.num s.release_hit_rate);
        ("analysts", Json.int s.analysts);
        ("uptime_seconds", Json.num s.uptime_seconds);
        ("qps", Json.num s.qps);
        ("metrics", s.metrics);
      ]
  | Analyzed_report { plan } ->
    Json.Obj [ ("status", Json.str "analyzed"); ("plan", Json.str plan) ]
  | Error_msg m -> Json.Obj [ ("status", Json.str "error"); ("message", Json.str m) ]
  | Bye -> Json.Obj [ ("status", Json.str "bye") ]

let response_of_json j =
  let* status = Json.get_str "status" j in
  match status with
  | "result" ->
    let* columns =
      match Option.bind (Json.mem "columns" j) Json.to_list with
      | Some vs -> (
        match List.filter_map Json.to_str vs with
        | strs when List.length strs = List.length vs -> Ok strs
        | _ -> Error "non-string column name")
      | None -> Error "missing columns"
    in
    let* rows =
      match Option.bind (Json.mem "rows" j) Json.to_list with
      | Some vs ->
        List.fold_left
          (fun acc row ->
            let* acc = acc in
            match Json.to_list row with
            | Some cells -> Ok (cells :: acc)
            | None -> Error "non-array row")
          (Ok []) vs
        |> Result.map List.rev
      | None -> Error "missing rows"
    in
    let* epsilon_spent = Json.get_num "epsilon_spent" j in
    let* delta_spent = Json.get_num "delta_spent" j in
    let* remaining_epsilon = Json.get_num "remaining_epsilon" j in
    let* remaining_delta = Json.get_num "remaining_delta" j in
    let* cache_hit = Json.get_bool "cache_hit" j in
    (* added with the release store; older servers never replay *)
    let* cached = get_bool_default "cached" ~default:false j in
    (* added with the materialized-view layer; older servers never derive *)
    let* derived = get_bool_default "derived" ~default:false j in
    let* bins_enumerated = Json.get_bool "bins_enumerated" j in
    let* noise_scales =
      match Option.bind (Json.mem "noise_scales" j) Json.to_list with
      | Some vs ->
        List.fold_left
          (fun acc v ->
            let* acc = acc in
            let* c = Json.get_str "column" v in
            let* s = Json.get_num "scale" v in
            Ok ((c, s) :: acc))
          (Ok []) vs
        |> Result.map List.rev
      | None -> Error "missing noise_scales"
    in
    Ok
      (Result
         {
           columns;
           rows;
           epsilon_spent;
           delta_spent;
           remaining_epsilon;
           remaining_delta;
           cache_hit;
           cached;
           derived;
           bins_enumerated;
           noise_scales;
         })
  | "analysis" ->
    let* cache_hit = Json.get_bool "cache_hit" j in
    let* is_histogram = Json.get_bool "is_histogram" j in
    let* joins = Json.get_int "joins" j in
    let* columns =
      match Option.bind (Json.mem "columns" j) Json.to_list with
      | Some vs ->
        List.fold_left
          (fun acc v ->
            let* acc = acc in
            let* column = Json.get_str "column" v in
            let* sensitivity = Json.get_str "sensitivity" v in
            let* smooth_bound = Json.get_num "smooth_bound" v in
            let* noise_scale = Json.get_num "noise_scale" v in
            Ok ({ column; sensitivity; smooth_bound; noise_scale } :: acc))
          (Ok []) vs
        |> Result.map List.rev
      | None -> Error "missing columns"
    in
    Ok (Analysis { cache_hit; is_histogram; joins; columns })
  | "plan" ->
    let* logical = Json.get_str "logical" j in
    let* optimized = Json.get_str "optimized" j in
    Ok (Plan_report { logical; optimized })
  | "rejected" ->
    let* bucket = Json.get_str "bucket" j in
    let* reason = Json.get_str "reason" j in
    Ok (Rejected { bucket; reason })
  | "refused" ->
    let* analyst = Json.get_str "analyst" j in
    let* requested_epsilon = Json.get_num "requested_epsilon" j in
    let* requested_delta = Json.get_num "requested_delta" j in
    let* remaining_epsilon = Json.get_num "remaining_epsilon" j in
    let* remaining_delta = Json.get_num "remaining_delta" j in
    Ok (Refused { analyst; requested_epsilon; requested_delta; remaining_epsilon; remaining_delta })
  | "budget" ->
    let* analyst = Json.get_str "analyst" j in
    let* epsilon_limit = Json.get_num "epsilon_limit" j in
    let* delta_limit = Json.get_num "delta_limit" j in
    let* epsilon_spent = Json.get_num "epsilon_spent" j in
    let* delta_spent = Json.get_num "delta_spent" j in
    let* remaining_epsilon = Json.get_num "remaining_epsilon" j in
    let* remaining_delta = Json.get_num "remaining_delta" j in
    let* queries = Json.get_int "queries" j in
    Ok
      (Budget_report
         {
           analyst;
           epsilon_limit;
           delta_limit;
           epsilon_spent;
           delta_spent;
           remaining_epsilon;
           remaining_delta;
           queries;
         })
  | "stats" ->
    let* queries = Json.get_int "queries" j in
    let* granted = Json.get_int "granted" j in
    let* rejected = Json.get_int "rejected" j in
    let* refused = Json.get_int "refused" j in
    let* cache_hits = Json.get_int "cache_hits" j in
    let* cache_misses = Json.get_int "cache_misses" j in
    let* cache_entries = Json.get_int "cache_entries" j in
    (* release-cache counters shipped after the op: an older server simply
       has no release store, which zeros render faithfully *)
    let* release_hits = get_int_default "release_hits" ~default:0 j in
    let* release_misses = get_int_default "release_misses" ~default:0 j in
    let* release_derived = get_int_default "release_derived" ~default:0 j in
    let* release_evictions = get_int_default "release_evictions" ~default:0 j in
    let* release_entries = get_int_default "release_entries" ~default:0 j in
    let* release_hit_rate = get_opt_num "release_hit_rate" j in
    let release_hit_rate = Option.value release_hit_rate ~default:0.0 in
    let* analysts = Json.get_int "analysts" j in
    (* uptime_seconds / qps / metrics arrived after the op itself: default
       them so an updated client still decodes an older server's report *)
    let* uptime_seconds = get_opt_num "uptime_seconds" j in
    let uptime_seconds = Option.value uptime_seconds ~default:0.0 in
    let* qps = get_opt_num "qps" j in
    let qps = Option.value qps ~default:0.0 in
    let metrics = Option.value (Json.mem "metrics" j) ~default:Json.Null in
    Ok
      (Stats_report
         {
           queries;
           granted;
           rejected;
           refused;
           cache_hits;
           cache_misses;
           cache_entries;
           release_hits;
           release_misses;
           release_derived;
           release_evictions;
           release_entries;
           release_hit_rate;
           analysts;
           uptime_seconds;
           qps;
           metrics;
         })
  | "analyzed" ->
    let* plan = Json.get_str "plan" j in
    Ok (Analyzed_report { plan })
  | "error" ->
    let* message = Json.get_str "message" j in
    Ok (Error_msg message)
  | "bye" -> Ok Bye
  | s -> Error (Printf.sprintf "unknown status %S" s)

(* --- lines ------------------------------------------------------------------- *)

let request_id = function Query { id; _ } -> id | _ -> None

let request_to_line r = Json.to_string (request_to_json r)

let request_of_line line =
  let* j = Json.of_string line in
  request_of_json j

(* A [Result] line encoded around the fields that change per request:
   [head] runs up to the value of "remaining_epsilon", and [tail] from the
   end of the value of "remaining_delta" up to where the id goes. *)
type result_line = { head : string; tail : string }

let field_text (k, v) = Json.to_string (Json.Str k) ^ ":" ^ Json.to_string v

let encode_result r =
  let before, _, after = result_fields r in
  {
    head = "{" ^ String.concat "," (List.map field_text before) ^ {|,"remaining_epsilon":|};
    tail = String.concat "" (List.map (fun f -> "," ^ field_text f) after);
  }

(* [id] echoes the client's correlation id as the last top-level field.
   Decoders only read the fields they name, so an older client simply never
   sees it. *)
let splice ?id ~remaining_epsilon ~remaining_delta { head; tail } =
  String.concat ""
    [
      head;
      Json.to_string (Json.Num remaining_epsilon);
      {|,"remaining_delta":|};
      Json.to_string (Json.Num remaining_delta);
      tail;
      (match id with Some id -> {|,"id":|} ^ Json.to_string (Json.Str id) | None -> "");
      "}";
    ]

let response_to_line ?id r =
  match r with
  | Result { remaining_epsilon; remaining_delta; _ } ->
    splice ?id ~remaining_epsilon ~remaining_delta (encode_result r)
  | _ -> (
    match (id, response_to_json r) with
    | Some id, Json.Obj fields -> Json.to_string (Json.Obj (fields @ [ ("id", Json.str id) ]))
    | _, j -> Json.to_string j)

let response_of_line line =
  let* j = Json.of_string line in
  response_of_json j

let response_id_of_line line =
  match Json.of_string line with
  | Error _ -> None
  | Ok j -> Option.bind (Json.mem "id" j) Json.to_str

let json_of_value (v : Flex_engine.Value.t) =
  match v with
  | Flex_engine.Value.Null -> Json.Null
  | Flex_engine.Value.Bool b -> Json.Bool b
  | Flex_engine.Value.Int i -> Json.int i
  | Flex_engine.Value.Float f -> Json.num f
  | Flex_engine.Value.String s -> Json.str s
