(* The four traffic mixes: their analysts, their request streams and the
   outcome every request must have. A stream is a pure function of the seed
   and the connection index, so the same seed sends the same requests. *)

module Rng = Flex_dp.Rng
module Uber = Flex_workload.Uber
module Qgen = Flex_workload.Qgen
module Factor = Flex_sql.Factor

type t = Dashboard | Adhoc | Durable | Exhausted

let all = [ Dashboard; Adhoc; Durable; Exhausted ]

let name = function
  | Dashboard -> "dashboard"
  | Adhoc -> "adhoc"
  | Durable -> "durable"
  | Exhausted -> "exhausted"

let of_name s = List.find_opt (fun w -> name w = s) all

(* Every query carries this epsilon: a power of two, so any sum of charges
   is exact and the ledger can be compared bit for bit. *)
let epsilon = 0.125

(* Requests per second each workload sustained when the benchmark was
   defined (2-vCPU x86-64 at 2.1 GHz). A run sends [requests w ~seconds],
   the same count on every commit, because a request's cost grows with the
   requests before it (a charge folds the analyst's earlier charges, the
   journals and the store grow): a faster commit must not be handed more
   work. At that commit the measured phase lasts about [seconds]. *)
let rate = function Dashboard -> 12_000 | Adhoc -> 380 | Durable -> 1_000 | Exhausted -> 380

let requests w ~seconds = int_of_float (float_of_int (rate w) *. seconds)

type expect = Hit of { derived : bool } | Charge | Refuse
type request = { sql : string; expect : expect }

(* Budget limits a Hello asks for; [None] takes the server default. *)
type analyst = { analyst : string; limits : (float * float) option }

let paying name = { analyst = name; limits = Some (1e9, 0.5) }

(* Half an epsilon-0.125 query: every request of this analyst is refused. *)
let broke = { analyst = "broke"; limits = Some (0.0625, 0.5) }

let analysts w =
  match w with
  | Dashboard -> [| { analyst = "dash-0"; limits = None }; { analyst = "dash-1"; limits = None } |]
  | Adhoc -> [| paying "adhoc-0"; paying "adhoc-1" |]
  | Durable -> [| paying "durable-0"; paying "durable-1" |]
  | Exhausted -> [| broke; paying "payer" |]

(* Only [durable] fsyncs its journals; the others keep the flex_serve
   default of flush without fsync. *)
let sync = function Durable -> true | Dashboard | Adhoc | Exhausted -> false

let factor sql =
  match Flex_sql.Parser.parse sql with Ok ast -> Factor.factor ast | Error _ -> None

(* ------------------------------------------------------------- dashboard *)

(* The 16 cores one analyst pays for before timing: the four load_perf
   shapes, the six §5.5 representative programs and six more GROUP BYs. *)
let dashboard_cores () =
  [
    "SELECT COUNT(*) FROM trips t WHERE t.status = 'completed'";
    "SELECT COUNT(*) FROM trips t JOIN drivers d ON t.driver_id = d.id WHERE d.rating > 3.0";
    "SELECT t.status, COUNT(*) FROM trips t GROUP BY t.status";
    "SELECT c.name, COUNT(*) FROM trips t JOIN cities c ON t.city_id = c.id GROUP BY c.name";
  ]
  @ List.map
      (fun (p : Flex_workload.Representative.program) -> p.sql)
      Flex_workload.Representative.programs
  @ [
      "SELECT d.vehicle, COUNT(*) FROM drivers d GROUP BY d.vehicle";
      "SELECT d.status, COUNT(*) FROM drivers d GROUP BY d.status";
      "SELECT u.status, COUNT(*) FROM users u GROUP BY u.status";
      "SELECT g.tag, COUNT(*) FROM user_tags g GROUP BY g.tag";
      "SELECT c.country, COUNT(*) FROM trips t JOIN cities c ON t.city_id = c.id GROUP BY \
       c.country";
      "SELECT t.status, COUNT(*) FROM trips t WHERE t.fare > 50 GROUP BY t.status";
    ]

(* [sql] with " * 2" after its first COUNT(...) call. *)
let doubled sql =
  let len = String.length sql in
  let rec find i =
    if i + 6 > len then None
    else if String.sub sql i 6 = "COUNT(" then Some (i + 6)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
    let rec close i depth =
      if i >= len then None
      else
        match sql.[i] with
        | '(' -> close (i + 1) (depth + 1)
        | ')' when depth = 0 -> Some (i + 1)
        | ')' -> close (i + 1) (depth - 1)
        | _ -> close (i + 1) depth
    in
    Option.map
      (fun stop -> String.sub sql 0 stop ^ " * 2" ^ String.sub sql stop (len - stop))
      (close start 0)

(* HAVING / ORDER BY / LIMIT / arithmetic variants that factor onto the
   same core as [core] and so are derived from its stored release. The
   candidates are checked here, before any traffic, so a variant that would
   be charged can never slip into the stream. *)
let variants core =
  let key =
    match factor core with
    | Some f -> f.core_sql
    | None -> Fmt.failwith "dashboard core does not factor: %s" core
  in
  let grouped = Astring.String.is_infix ~affix:"GROUP BY" core in
  let candidates =
    [ Some (core ^ " LIMIT 3"); Some (core ^ " ORDER BY 1 DESC"); doubled core ]
    @
    if grouped then
      [ Some (core ^ " ORDER BY 2 DESC LIMIT 2"); Some (core ^ " HAVING COUNT(*) > -1000000") ]
    else []
  in
  let derived sql =
    match factor sql with Some f -> f.core_sql = key && not (Factor.trivial f) | None -> false
  in
  match List.filter derived (List.filter_map Fun.id candidates) with
  | ([] | [ _ ]) as vs ->
    Fmt.failwith "dashboard core has %d derivable variants: %s" (List.length vs) core
  | vs -> Array.of_list vs

type dashboard = { cores : string array; variants : string array array }

let dashboard () =
  let cores = Array.of_list (dashboard_cores ()) in
  { cores; variants = Array.map variants cores }

(* Half exact repeats (replayed), half variants (derived). *)
let dashboard_stream d rng () =
  let i = Rng.int rng (Array.length d.cores) in
  if Rng.bool rng then { sql = d.cores.(i); expect = Hit { derived = false } }
  else
    let vs = d.variants.(i) in
    { sql = vs.(Rng.int rng (Array.length vs)); expect = Hit { derived = true } }

(* ------------------------------------------------------------ generated *)

(* Generated queries whose factored core never repeats: connection [conn]
   keeps only cores whose hash has parity [conn], so the two connections
   never share a core either. Warm-up draws from the same stream, so it
   never overlaps the measured requests. *)
let qgen_stream (sizes : Uber.sizes) rng ~conn ~expect =
  let seen = Hashtbl.create 4096 in
  let rec next () =
    match
      Qgen.generate rng ~count:1 ~n_cities:sizes.cities ~n_drivers:sizes.drivers
        ~n_users:sizes.users
    with
    | [ q ] -> (
      match factor q.sql with
      | Some f when Hashtbl.hash f.core_sql land 1 = conn && not (Hashtbl.mem seen f.core_sql)
        ->
        Hashtbl.add seen f.core_sql ();
        { sql = q.sql; expect }
      | _ -> next ())
    | _ -> next ()
  in
  next

(* ---------------------------------------------------------------- durable *)

let durable_templates : (int -> string, unit, string) format array =
  [|
    "SELECT COUNT(*) FROM drivers d WHERE d.id <> %d";
    "SELECT d.vehicle, COUNT(*) FROM drivers d WHERE d.id <> %d GROUP BY d.vehicle";
    "SELECT COUNT(*) FROM users u WHERE u.id <> %d";
    "SELECT u.status, COUNT(*) FROM users u WHERE u.id <> %d GROUP BY u.status";
    "SELECT COUNT(*) FROM analytics a WHERE a.driver_id <> %d";
    "SELECT g.tag, COUNT(*) FROM user_tags g WHERE g.user_id <> %d GROUP BY g.tag";
  |]

(* Cheap distinct queries: the literal [1_000_000 + 4k + lane] matches no
   row and differs between every request of every lane, so no two requests
   share a core. Lanes 0-1 are the earlier server run, 2-3 the measured one. *)
let durable_stream ~lane =
  let k = ref 0 in
  fun () ->
    let i = !k in
    incr k;
    let template = durable_templates.(i mod Array.length durable_templates) in
    {
      sql = Printf.sprintf template (1_000_000 + (4 * i) + lane);
      expect = Charge;
    }

(* The requests connection [conn] sends, warm-up first. *)
let stream w ~dashboard ~sizes ~seed ~conn =
  let rng = Rng.create ~seed:((seed * 7919) + conn) () in
  match w with
  | Dashboard -> dashboard_stream dashboard rng
  | Adhoc -> qgen_stream sizes rng ~conn ~expect:Charge
  | Exhausted -> qgen_stream sizes rng ~conn ~expect:(if conn = 0 then Refuse else Charge)
  | Durable -> durable_stream ~lane:(2 + conn)
