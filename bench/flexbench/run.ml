(* One run of one workload: a fresh server process per phase, closed-loop
   load from two connections, the output checks, and the numbers the layer
   breakdown needs. *)

module Json = Flex_service.Json
module Wire = Flex_service.Wire
module Ledger = Flex_dp.Ledger
module W = Workload
module Vec = Stats.Vec

(* Monotonic nanoseconds: client round trips are timed on this clock. *)
let now () = Int64.to_float (Monotonic_clock.now ())

(* ---------------------------------------------------------- server process *)

type server = {
  pid : int;
  ctl : out_channel;  (* the server's stdin *)
  out : in_channel;  (* the server's stdout *)
  port : int;
  dir : string;
  spawned : float;
}

(* Servers still running; killed if this process exits early. *)
let live = ref []

let reap pid ~patience =
  let deadline = Unix.gettimeofday () +. patience in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  live := List.filter (( <> ) pid) !live

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap pid ~patience:5.0)
        !live)

let input_line_within ic ~seconds ~what =
  match Unix.select [ Unix.descr_of_in_channel ic ] [] [] seconds with
  | [], _, _ -> Fmt.failwith "server sent no %s within %.0f s" what seconds
  | _ -> (
    match input_line ic with
    | line -> line
    | exception End_of_file -> Fmt.failwith "server exited before sending %s" what)

let spawn (a : Serve.args) =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let spawned = now () in
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: "serve" :: Serve.to_args a))
      in_r out_w Unix.stderr
  in
  live := pid :: !live;
  Unix.close in_r;
  Unix.close out_w;
  let out = Unix.in_channel_of_descr out_r in
  let port =
    Scanf.sscanf (input_line_within out ~seconds:120.0 ~what:"its port") "port %d" Fun.id
  in
  { pid; ctl = Unix.out_channel_of_descr in_w; out; port; dir = a.dir; spawned }

let command s cmd =
  output_string s.ctl (cmd ^ "\n");
  flush s.ctl

(* Stop the server and return the counters it printed on the way out. *)
let stop s =
  command s "stop";
  let line = input_line_within s.out ~seconds:60.0 ~what:"its counters" in
  close_out_noerr s.ctl;
  close_in_noerr s.out;
  reap s.pid ~patience:30.0;
  Json.of_string_exn line

let peak_rss_mib pid =
  In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid) (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> go ()
        | None -> Fmt.failwith "no VmHWM for process %d" pid
      in
      go ())

(* ------------------------------------------------------------ connections *)

type conn = { fd : Unix.file_descr; ic : in_channel }

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; ic = Unix.in_channel_of_descr fd }

let close c = close_in_noerr c.ic

let roundtrip c line =
  let s = line ^ "\n" in
  let n = String.length s in
  let rec write off = if off < n then write (off + Unix.write_substring c.fd s off (n - off)) in
  write 0;
  input_line c.ic

(* From spawning the server until it answers its first request. *)
let first_answer s =
  let c = connect s.port in
  ignore (roundtrip c (Wire.request_to_line Wire.Stats));
  let t = now () in
  close c;
  (t -. s.spawned) /. 1e9

let hello c (a : W.analyst) =
  let epsilon, delta =
    match a.limits with Some (e, d) -> (Some e, Some d) | None -> (None, None)
  in
  match
    Wire.response_of_line
      (roundtrip c (Wire.request_to_line (Wire.Hello { analyst = a.analyst; epsilon; delta })))
  with
  | Ok (Wire.Budget_report _) -> ()
  | _ -> Fmt.failwith "hello for %s was not answered with a budget" a.analyst

(* ------------------------------------------------------------------ lanes *)

(* One traced request as the client saw it. [t0] is wall-clock ns, the
   server spans' time base; durations are monotonic ns. *)
type sample = { id : string; t0 : float; rtt : float; enc : float; dec : float; bytes : int }

(* One connection's requests. The first group of fields covers every
   request the lane sends, warm-up included; the second only measured ones. *)
type lane = {
  idx : int;
  analyst : string;
  mutable seq : int;
  mutable eps : float;  (* in-order fold of epsilon_spent *)
  mutable charges : int;
  mutable results : int;
  mutable cached : int;
  mutable unexpected : int;
  mutable paying_refused : int;
  answers : (string, string) Hashtbl.t;  (* dashboard: SQL -> answer without its id *)
  mutable differing : int;
  mutable sent : int;
  mutable n_rejected : int;
  mutable n_error : int;
  mutable n_failed : int;
  lat : Vec.t;  (* round trips, ns, of every measured request ... *)
  lat_charged : Vec.t;  (* ... and of those charged, hit or refused *)
  lat_hit : Vec.t;
  lat_refused : Vec.t;
  mutable first : float;
  mutable last : float;
  mutable samples : sample list;
  mutable kept : (string * Wire.response) list;  (* answers for the direct-call timings *)
}

let lane idx analyst =
  {
    idx;
    analyst;
    seq = 0;
    eps = 0.0;
    charges = 0;
    results = 0;
    cached = 0;
    unexpected = 0;
    paying_refused = 0;
    answers = Hashtbl.create 64;
    differing = 0;
    sent = 0;
    n_rejected = 0;
    n_error = 0;
    n_failed = 0;
    lat = Vec.create ();
    lat_charged = Vec.create ();
    lat_hit = Vec.create ();
    lat_refused = Vec.create ();
    first = infinity;
    last = neg_infinity;
    samples = [];
    kept = [];
  }

let without_id line =
  match Astring.String.find_sub ~rev:true ~sub:",\"id\":" line with
  | Some i -> String.sub line 0 i
  | None -> line

let keep_limit = 400

let settle lane (r : W.request) line resp ~measured ~rtt =
  (match resp with
  | Ok (Wire.Result x) ->
    lane.eps <- lane.eps +. x.epsilon_spent;
    lane.results <- lane.results + 1;
    if x.epsilon_spent > 0.0 then lane.charges <- lane.charges + 1;
    if x.cached then lane.cached <- lane.cached + 1
  | _ -> ());
  let expected =
    match (r.expect, resp) with
    | W.Hit { derived }, Ok (Wire.Result x) ->
      x.cached && x.derived = derived && x.epsilon_spent = 0.0
    | W.Charge, Ok (Wire.Result x) -> (not x.cached) && x.epsilon_spent > 0.0
    | W.Refuse, Ok (Wire.Refused _) -> true
    | _ -> false
  in
  if not expected then lane.unexpected <- lane.unexpected + 1;
  (match (r.expect, resp) with
  | W.Charge, Ok (Wire.Refused _) -> lane.paying_refused <- lane.paying_refused + 1
  | W.Hit _, _ -> (
    let answer = without_id line in
    match Hashtbl.find_opt lane.answers r.sql with
    | None -> Hashtbl.add lane.answers r.sql answer
    | Some first -> if first <> answer then lane.differing <- lane.differing + 1)
  | _ -> ());
  if measured then begin
    lane.sent <- lane.sent + 1;
    if not expected then lane.n_failed <- lane.n_failed + 1;
    Vec.push lane.lat rtt;
    match resp with
    | Ok (Wire.Result x) when x.cached -> Vec.push lane.lat_hit rtt
    | Ok (Wire.Result x) when x.epsilon_spent > 0.0 -> Vec.push lane.lat_charged rtt
    | Ok (Wire.Refused _) -> Vec.push lane.lat_refused rtt
    | Ok (Wire.Rejected _) -> lane.n_rejected <- lane.n_rejected + 1
    | _ -> lane.n_error <- lane.n_error + 1
  end

(* Offset from the monotonic clock to the wall clock the server spans use. *)
let wall_offset () = (Unix.gettimeofday () *. 1e9) -. now ()

(* Send [limit] requests from [next], each only after the previous answer
   arrived, unless the clock passes [until] (monotonic ns) first. *)
let drive lane conn next ~until ~limit ~measured ~trace ~offset =
  let n = ref 0 in
  while !n < limit && now () < until do
    incr n;
    let r : W.request = next () in
    let id = Printf.sprintf "%d.%d" lane.idx lane.seq in
    lane.seq <- lane.seq + 1;
    let te = now () in
    let line =
      Wire.request_to_line
        (Wire.Query { sql = r.sql; epsilon = Some W.epsilon; delta = None; id = Some id })
    in
    let t0 = now () in
    let answer = roundtrip conn line in
    let t1 = now () in
    let resp = Wire.response_of_line answer in
    let t2 = now () in
    settle lane r answer resp ~measured ~rtt:(t1 -. t0);
    if measured then begin
      if t0 < lane.first then lane.first <- t0;
      lane.last <- t1;
      if trace then begin
        lane.samples <-
          {
            id;
            t0 = t0 +. offset;
            rtt = t1 -. t0;
            enc = t0 -. te;
            dec = t2 -. t1;
            bytes = String.length answer;
          }
          :: lane.samples;
        if lane.sent <= keep_limit then
          match resp with Ok x -> lane.kept <- (r.sql, x) :: lane.kept | Error _ -> ()
      end
    end
  done

(* Requests per lane in the warm-up and in the measured part of a load
   phase, and a time limit that only stops a build too slow to finish. *)
type plan = { warm_n : int; run_n : int; limit_s : float }

(* Two connections, one per domain, each a closed loop. Lane 0 tells the
   server when the measured part starts. *)
let load server ~analysts ~streams ~plan ~trace =
  let lanes = Array.mapi (fun i (a : W.analyst) -> lane i a.analyst) analysts in
  let offset = wall_offset () in
  let until = now () +. (plan.limit_s *. 1e9) in
  let go i =
    let c = connect server.port in
    Fun.protect
      ~finally:(fun () -> close c)
      (fun () ->
        hello c analysts.(i);
        drive lanes.(i) c streams.(i) ~until ~limit:plan.warm_n ~measured:false ~trace ~offset;
        if i = 0 then command server "mark";
        drive lanes.(i) c streams.(i) ~until ~limit:plan.run_n ~measured:true ~trace ~offset)
  in
  let other = Domain.spawn (fun () -> go 1) in
  Fun.protect ~finally:(fun () -> Domain.join other) (fun () -> go 0);
  lanes

(* Pay for every dashboard core once, from a separate analyst, before the
   load connections open. *)
let prime server (d : W.dashboard) =
  let l = lane 9 "primer" in
  let c = connect server.port in
  Fun.protect
    ~finally:(fun () -> close c)
    (fun () ->
      hello c (W.paying "primer");
      let cores = Array.to_list d.cores in
      let next =
        let rest = ref cores in
        fun () ->
          match !rest with
          | sql :: tl ->
            rest := tl;
            { W.sql; expect = W.Charge }
          | [] -> assert false
      in
      (* kept answers are the stored rows the derivations read *)
      drive l c next ~until:infinity ~limit:(List.length cores) ~measured:true ~trace:true
        ~offset:0.0);
  l

(* ------------------------------------------------------------------ checks *)

type checks = (string * bool) list ref

let check (cs : checks) name ok = cs := (name, ok) :: !cs

(* Each analyst's ledger record, replayed from the journal, must equal the
   in-order fold of the epsilon the client saw charged, bit for bit. *)
let conservation dir (lanes : lane list) =
  let summaries = Ledger.summaries_of_file (Serve.ledger_file dir) in
  List.for_all
    (fun (s : Ledger.summary) ->
      match List.find_opt (fun l -> l.analyst = s.analyst) lanes with
      | None -> s.spend_count = 0 && s.epsilon_spent = 0.0
      | Some l ->
        Int64.bits_of_float s.epsilon_spent = Int64.bits_of_float l.eps
        && s.spend_count = l.charges)
    summaries
  && List.for_all
       (fun l ->
         l.charges = 0
         || List.exists (fun (s : Ledger.summary) -> s.analyst = l.analyst) summaries)
       lanes

(* ----------------------------------------------------------- one workload *)

type settings = {
  workload : W.t;
  seed : int;
  seconds : float;
  smoke : bool;
  base : string;  (* this run's scratch directory *)
}

(* Servers started only to time their set-up, before and after the load. *)
let extra_setups s = if s.smoke then (0, 0) else (5, 5)
let history_releases s = if s.smoke then 200 else 10_000

(* A phase of [n] requests, split over the two lanes, after a warm-up of
   2%. The limit, four times the phase's nominal length, is there so a
   broken build still ends; a run it cuts short says so. *)
let plan s ~seconds ~n =
  if s.smoke then { warm_n = 10; run_n = 40; limit_s = infinity }
  else { warm_n = max 1 (n / 100); run_n = n / 2; limit_s = 4.0 *. seconds }

let sizes s = Serve.sizes s.smoke

let streams s dashboard =
  Array.init 2 (fun conn ->
      W.stream s.workload ~dashboard ~sizes:(sizes s) ~seed:s.seed ~conn)

let mkdir_fresh =
  let n = ref 0 in
  fun base ->
    incr n;
    let d = Filename.concat base (Printf.sprintf "server-%d" !n) in
    Unix.mkdir d 0o755;
    d

let copy_file src dst =
  let data = In_channel.with_open_bin src In_channel.input_all in
  Out_channel.with_open_bin dst (fun oc -> Out_channel.output_string oc data)

(* What an earlier server left behind for [durable]: 10k charged releases
   from two analysts, in journals the measured server restarts on. *)
type history = { dir : string; lanes : lane list }

let make_history s checks =
  let dir = mkdir_fresh s.base in
  let server =
    spawn { Serve.dir; seed = s.seed; small = s.smoke; sync = false; flights = 0 }
  in
  let n = history_releases s / 2 in
  let lanes =
    load server
      ~analysts:[| W.paying "history-0"; W.paying "history-1" |]
      ~streams:[| W.durable_stream ~lane:0; W.durable_stream ~lane:1 |]
      ~plan:{ warm_n = 0; run_n = n; limit_s = infinity }
      ~trace:false
  in
  ignore (stop server);
  let lanes = Array.to_list lanes in
  check checks "history: every request charged"
    (List.for_all (fun l -> l.unexpected = 0 && l.charges = n) lanes);
  check checks "history: ledger conservation" (conservation dir lanes);
  { dir; lanes }

(* A fresh server directory (seeded with the history journals for
   [durable]) and a server process on it, timed to its first answer. *)
let start_server s ~history ~flights =
  let dir = mkdir_fresh s.base in
  Option.iter
    (fun h ->
      copy_file (Serve.ledger_file h.dir) (Serve.ledger_file dir);
      copy_file (Serve.releases_file h.dir) (Serve.releases_file dir))
    history;
  let server =
    spawn
      { Serve.dir; seed = s.seed; small = s.smoke; sync = W.sync s.workload; flights }
  in
  (server, first_answer server)

(* One measured phase on its own server: every check that covers it, and
   what the metrics are computed from. *)
type phase = {
  lanes : lane array;
  primer : lane option;
  elapsed_s : float;
  counters : Json.t;
  rss_mib : float;
  server_dir : string;
}

let run_phase s checks ~label ~server ~history ~dashboard ~seconds ~n ~trace =
  let primer = if s.workload = W.Dashboard then Some (prime server dashboard) else None in
  let plan = plan s ~seconds ~n in
  let lanes =
    load server ~analysts:(W.analysts s.workload) ~streams:(streams s dashboard) ~plan ~trace
  in
  let sent = Array.fold_left (fun n l -> n + l.sent) 0 lanes in
  if sent < 2 * plan.run_n then
    Fmt.pr "  %s: the %.0f s limit stopped the phase after %d of %d requests@." label
      plan.limit_s sent (2 * plan.run_n);
  let rss_mib = peak_rss_mib server.pid in
  let counters = stop server in
  let all = Array.to_list lanes in
  let check name ok = check checks (label ^ ": " ^ name) ok in
  let history_lanes = match history with Some (h : history) -> h.lanes | None -> [] in
  check "ledger conservation, bit-exact per analyst"
    (conservation server.dir (all @ Option.to_list primer @ history_lanes));
  check "every answer had the expected outcome"
    (List.for_all (fun l -> l.unexpected = 0) (all @ Option.to_list primer));
  check "no paying analyst refused" (List.for_all (fun l -> l.paying_refused = 0) all);
  check "sent = sum of outcome counts"
    (List.for_all
       (fun l ->
         l.sent
         = Vec.length l.lat_charged + Vec.length l.lat_hit + Vec.length l.lat_refused
           + l.n_rejected + l.n_error)
       all);
  (match s.workload with
  | W.Dashboard ->
    let same =
      Hashtbl.fold
        (fun sql a ok ->
          ok
          && match Hashtbl.find_opt lanes.(1).answers sql with Some b -> a = b | None -> true)
        lanes.(0).answers true
    in
    check "each SQL text answered byte-identically at zero epsilon"
      (same && List.for_all (fun l -> l.differing = 0 && l.eps = 0.0 && l.charges = 0) all)
  | W.Adhoc | W.Durable ->
    check "no cached answers" (List.for_all (fun l -> l.cached = 0) all)
  | W.Exhausted ->
    let broke = lanes.(0) in
    check "the exhausted analyst spends 0 and receives no rows"
      (broke.eps = 0.0 && broke.charges = 0 && broke.results = 0));
  let first = Array.fold_left (fun m l -> Float.min m l.first) infinity lanes in
  let last = Array.fold_left (fun m l -> Float.max m l.last) neg_infinity lanes in
  { lanes; primer; elapsed_s = (last -. first) /. 1e9; counters; rss_mib; server_dir = server.dir }

let measured p = Array.fold_left (fun n l -> n + l.sent) 0 p.lanes
let failed p = Array.fold_left (fun n l -> n + l.n_failed) 0 p.lanes
let qps p = float_of_int (measured p) /. p.elapsed_s

let latencies p f = Vec.to_array (Vec.concat (List.map f (Array.to_list p.lanes)))

