(* The server process: the stack bin/flex_serve.ml builds with its default
   flags (Server.default_config, Reactor.default_config, a Task_pool of
   min 4 recommended domains, file-backed ledger, release journal and audit
   log), on a database generated from the workload seed.

   It prints "port N" once listening, then obeys its stdin:
     mark  snapshot the counters that open the measured phase
     stop  stop the reactor and print one JSON line of counters
   EOF counts as stop, so a client that dies takes the server with it. *)

module Json = Flex_service.Json
module Server = Flex_service.Server
module Reactor = Flex_service.Reactor
module Release_store = Flex_service.Release_store
module Ledger = Flex_dp.Ledger
module Rng = Flex_dp.Rng

type args = { dir : string; seed : int; small : bool; sync : bool; flights : int }

let ledger_file dir = Filename.concat dir "ledger.journal"
let releases_file dir = Filename.concat dir "releases.journal"
let audit_file dir = Filename.concat dir "audit.jsonl"
let flights_file dir = Filename.concat dir "flights.tsv"

let to_args a =
  [ "--dir"; a.dir; "--seed"; string_of_int a.seed; "--flights"; string_of_int a.flights ]
  @ (if a.small then [ "--small" ] else [])
  @ if a.sync then [ "--sync" ] else []

let of_args argv =
  let a = ref { dir = "."; seed = 1; small = false; sync = false; flights = 0 } in
  let rec go = function
    | [] -> ()
    | "--dir" :: d :: rest -> a := { !a with dir = d }; go rest
    | "--seed" :: n :: rest -> a := { !a with seed = int_of_string n }; go rest
    | "--flights" :: n :: rest -> a := { !a with flights = int_of_string n }; go rest
    | "--small" :: rest -> a := { !a with small = true }; go rest
    | "--sync" :: rest -> a := { !a with sync = true }; go rest
    | arg :: _ -> Fmt.failwith "serve: unknown argument %s" arg
  in
  go argv;
  !a

let sizes small = if small then Flex_workload.Uber.small_sizes else Flex_workload.Uber.default_sizes

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

(* Counters read at "mark" and at "stop"; the client takes differences. *)
let snapshot server reactor dir =
  let gc = Gc.quick_stat () in
  let rs = Option.map Release_store.stats (Server.release_store server) in
  let cache = Server.cache server in
  let num f = Json.num f and int i = Json.int i in
  Json.Obj
    [
      ("minor_words", num gc.minor_words);
      ("major_collections", int gc.major_collections);
      ("top_heap_words", int gc.top_heap_words);
      ("shed_total", int (Reactor.stats reactor).shed_total);
      ("store_hits", int (match rs with Some s -> s.hits | None -> 0));
      ("store_misses", int (match rs with Some s -> s.misses | None -> 0));
      ("store_evictions", int (match rs with Some s -> s.evictions | None -> 0));
      ("cache_hits", int (Flex_service.Cache.hits cache));
      ("cache_misses", int (Flex_service.Cache.misses cache));
      ("ledger_bytes", int (file_size (ledger_file dir)));
      ("releases_bytes", int (file_size (releases_file dir)));
      ("audit_bytes", int (file_size (audit_file dir)));
    ]

(* One line per finished request that carried a wire id:
   id TAB outcome TAB span tree as JSON. *)
let write_flights server path =
  match Server.flights server with
  | None -> ()
  | Some fl ->
    let oc = open_out_bin path in
    List.iter
      (fun (r : Flex_obs.Flight.record) ->
        match (r.id, r.trace) with
        | Some id, Some v ->
          output_string oc (Printf.sprintf "%s\t%s\t%s\n" id r.outcome (Flex_obs.Span.to_json v))
        | _ -> ())
      (List.rev (Flex_obs.Flight.snapshot fl));
    close_out oc

(* Mean of [Reactor.stats].requests_inflight sampled every 10 ms. *)
type sampler = { mutable running : bool; mutable sum : float; mutable samples : int }

let sample_inflight s reactor =
  while s.running do
    s.sum <- s.sum +. float_of_int (Reactor.stats reactor).requests_inflight;
    s.samples <- s.samples + 1;
    Thread.delay 0.01
  done

let main argv =
  let a = of_args argv in
  let db, metrics = Flex_workload.Uber.generate ~sizes:(sizes a.small) (Rng.create ~seed:a.seed ()) in
  let ledger = Ledger.open_ ~sync:a.sync (ledger_file a.dir) in
  let audit = Flex_service.Audit.to_file (audit_file a.dir) in
  let release_store =
    Release_store.open_ ~sync:a.sync ~fingerprint:(Flex_engine.Metrics.fingerprint metrics)
      (releases_file a.dir)
  in
  let config =
    if a.flights > 0 then { Server.default_config with flight_capacity = a.flights }
    else Server.default_config
  in
  let domains = min 4 (Domain.recommended_domain_count ()) in
  let pool = if domains > 1 then Some (Flex_engine.Task_pool.create ~domains) else None in
  let server =
    Server.create ~audit ~config ?pool ~release_store ~db ~metrics ~ledger
      ~rng:(Rng.create ~seed:a.seed ()) ()
  in
  let reactor = Reactor.listen ~config:Reactor.default_config server in
  ignore (Reactor.start reactor);
  Printf.printf "port %d\n%!" (Reactor.port reactor);
  let mark = ref Json.Null in
  let sampler = { running = false; sum = 0.0; samples = 0 } in
  let sampler_thread = ref None in
  let rec control () =
    match input_line stdin with
    | "mark" ->
      mark := snapshot server reactor a.dir;
      if a.flights > 0 then begin
        sampler.running <- true;
        sampler_thread := Some (Thread.create (sample_inflight sampler) reactor)
      end;
      control ()
    | "stop" -> ()
    | other -> Fmt.failwith "serve: unknown command %S" other
    | exception End_of_file -> ()
  in
  control ();
  sampler.running <- false;
  Option.iter Thread.join !sampler_thread;
  Reactor.stop reactor;
  let final = snapshot server reactor a.dir in
  if a.flights > 0 then write_flights server (flights_file a.dir);
  Option.iter Flex_engine.Task_pool.shutdown pool;
  Ledger.close ledger;
  Release_store.close release_store;
  Flex_service.Audit.close audit;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("mark", !mark);
            ("end", final);
            ( "inflight_mean",
              Json.num
                (if sampler.samples = 0 then 0.0
                 else sampler.sum /. float_of_int sampler.samples) );
          ]))
