type outcome =
  | Granted
  | Replayed
  | Derived
  | Rejected of string
  | Refused
  | Failed
  | Analyzed

type event = {
  analyst : string;
  sql : string;
  request_id : string option; (* client correlation id, when the wire carried one *)
  outcome : outcome;
  epsilon : float;
  delta : float;
  max_noise_scale : float;
  cache_hit : bool;
  parse_ns : float;
  analysis_ns : float;
  smooth_ns : float;
  execution_ns : float;
  perturbation_ns : float;
  total_ns : float;
}

(* A file sink tracks its own byte count so rotation never needs a stat per
   line; [bytes] is re-seeded from the file on open, so append-after-restart
   rotates at the right size too. *)
type file_sink = {
  path : string;
  max_bytes : int option;
  mutable oc : out_channel;
  mutable bytes : int;
}

type sink = To_file of file_sink | To_buffer of Buffer.t | Null

type t = { sink : sink; lock : Mutex.t; mutable count : int }

let make sink = { sink; lock = Mutex.create (); count = 0 }
let null () = make Null

let open_append path = open_out_gen [ Open_append; Open_creat ] 0o644 path

let to_file ?max_bytes path =
  let bytes = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0 in
  make (To_file { path; max_bytes; oc = open_append path; bytes })

let to_buffer b = make (To_buffer b)

(* Rotation happens between whole lines: the current file is renamed to
   [path ^ ".1"] (replacing any previous rotation) and a fresh file takes
   over, so neither generation ever holds a torn JSON line. *)
let rotate (f : file_sink) =
  close_out f.oc;
  let old = f.path ^ ".1" in
  (try Sys.remove old with Sys_error _ -> ());
  (try Sys.rename f.path old with Sys_error _ -> ());
  f.oc <- open_append f.path;
  f.bytes <- 0

let outcome_fields = function
  | Granted -> [ ("outcome", Json.str "granted") ]
  | Replayed -> [ ("outcome", Json.str "replayed") ]
  | Derived -> [ ("outcome", Json.str "derived") ]
  | Rejected bucket -> [ ("outcome", Json.str "rejected"); ("bucket", Json.str bucket) ]
  | Refused -> [ ("outcome", Json.str "refused") ]
  | Failed -> [ ("outcome", Json.str "failed") ]
  | Analyzed -> [ ("outcome", Json.str "analyzed") ]

let json_of_event ~ts (e : event) =
  Json.Obj
    ([
       ("ts", Json.num ts);
       ("analyst", Json.str e.analyst);
       ("sql", Json.str e.sql);
     ]
    @ (match e.request_id with Some id -> [ ("id", Json.str id) ] | None -> [])
    @ outcome_fields e.outcome
    @ [
        ("epsilon", Json.num e.epsilon);
        ("delta", Json.num e.delta);
        ("max_noise_scale", Json.num e.max_noise_scale);
        ("cache_hit", Json.bool e.cache_hit);
        ("parse_ns", Json.num e.parse_ns);
        ("analysis_ns", Json.num e.analysis_ns);
        ("smooth_ns", Json.num e.smooth_ns);
        ("execution_ns", Json.num e.execution_ns);
        ("perturbation_ns", Json.num e.perturbation_ns);
        ("total_ns", Json.num e.total_ns);
      ])

let log t e =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      t.count <- t.count + 1;
      let line () = Json.to_string (json_of_event ~ts:(Unix.gettimeofday ()) e) in
      match t.sink with
      | Null -> ()
      | To_buffer b ->
        Buffer.add_string b (line ());
        Buffer.add_char b '\n'
      | To_file f ->
        let line = line () in
        (match f.max_bytes with
        | Some limit when f.bytes > 0 && f.bytes + String.length line + 1 > limit ->
          rotate f
        | _ -> ());
        output_string f.oc line;
        output_char f.oc '\n';
        flush f.oc;
        f.bytes <- f.bytes + String.length line + 1)

let count t =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) (fun () -> t.count)

let close t =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () -> match t.sink with To_file f -> close_out f.oc | _ -> ())
