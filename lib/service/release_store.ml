(* Bounded, journaled store of finalized noisy releases (see the .mli for
   the privacy argument). Concurrency: one mutex over the whole structure;
   every operation is a few hashtable probes, so the critical sections are
   far shorter than the pipeline work they replace. *)

module Value = Flex_engine.Value
module Journal = Flex_dp.Journal

type entry = {
  key : string;
  fingerprint : string;
  analyst : string;
  epsilon : float;
  delta : float;
  epsilon_spent : float;
  delta_spent : float;
  columns : string list;
  rows : Value.t array list;
  bins_enumerated : bool;
  noise_scales : (string * float) list;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  stale_dropped : int;
  entries : int;
  capacity : int;
}

(* [seq] is a global insertion counter: the eviction policy breaks count
   ties toward the globally oldest entry, and determinism across a journal
   replay needs an order that depends only on the insert sequence. *)
type slot = { entry : entry; seq : int }

type t = {
  table : (string, slot) Hashtbl.t;
  queues : (string, string Queue.t) Hashtbl.t;  (* analyst -> keys, FIFO *)
  counts : (string, int) Hashtbl.t;  (* analyst -> live entries *)
  capacity : int;
  mutable seq : int;
  mutable journal : Journal.t option;  (* set once, after replay *)
  lock : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable stale : int;
}

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let key ~sql_canonical ~fingerprint ~flags ~epsilon ~delta =
  String.concat "\x00"
    [
      sql_canonical;
      fingerprint;
      flags;
      Json.number_string epsilon;
      Json.number_string delta;
    ]

(* --- journal lines --------------------------------------------------------- *)

(* Cells journal in a typed encoding so replay and post-processing see the
   exact runtime value. Int cannot round-trip through a JSON number (63-bit
   counts would lose low bits), so it is tagged with its decimal rendering;
   Float keeps the round-trip "%.17g" of [Json.num]. Bare JSON scalars are
   still accepted on decode for journals written before the tagging existed:
   those only ever held wire cells, where an integral number was an Int. *)
let json_of_cell : Value.t -> Json.t = function
  | Value.Null -> Json.Null
  | Value.Bool b -> Json.bool b
  | Value.String s -> Json.str s
  | Value.Int i -> Json.Obj [ ("i", Json.str (string_of_int i)) ]
  | Value.Float f -> Json.Obj [ ("f", Json.num f) ]

let cell_of_json : Json.t -> (Value.t, string) result = function
  | Json.Null -> Ok Value.Null
  | Json.Bool b -> Ok (Value.Bool b)
  | Json.Str s -> Ok (Value.String s)
  | Json.Obj _ as j -> (
    match Option.bind (Json.mem "i" j) Json.to_str with
    | Some s -> (
      match int_of_string_opt s with
      | Some i -> Ok (Value.Int i)
      | None -> Error "malformed integer cell")
    | None -> (
      match Option.bind (Json.mem "f" j) Json.to_num with
      | Some f -> Ok (Value.Float f)
      | None -> Error "unrecognised tagged cell"))
  | Json.Num n ->
    if Float.is_integer n && Float.abs n <= 9007199254740992. then
      Ok (Value.Int (int_of_float n))
    else Ok (Value.Float n)
  | Json.List _ -> Error "array is not a cell"

let json_of_entry (e : entry) =
  Json.Obj
    [
      ("key", Json.str e.key);
      ("fingerprint", Json.str e.fingerprint);
      ("analyst", Json.str e.analyst);
      ("epsilon", Json.num e.epsilon);
      ("delta", Json.num e.delta);
      ("epsilon_spent", Json.num e.epsilon_spent);
      ("delta_spent", Json.num e.delta_spent);
      ("columns", Json.List (List.map Json.str e.columns));
      ( "rows",
        Json.List
          (List.map
             (fun r -> Json.List (List.map json_of_cell (Array.to_list r)))
             e.rows) );
      ("bins_enumerated", Json.bool e.bins_enumerated);
      ( "noise_scales",
        Json.List
          (List.map
             (fun (c, s) -> Json.Obj [ ("column", Json.str c); ("scale", Json.num s) ])
             e.noise_scales) );
    ]

let ( let* ) = Result.bind

let entry_of_json j =
  let* key = Json.get_str "key" j in
  let* fingerprint = Json.get_str "fingerprint" j in
  let* analyst = Json.get_str "analyst" j in
  let* epsilon = Json.get_num "epsilon" j in
  let* delta = Json.get_num "delta" j in
  let* epsilon_spent = Json.get_num "epsilon_spent" j in
  let* delta_spent = Json.get_num "delta_spent" j in
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
          | Some cells ->
            let* vs =
              List.fold_left
                (fun acc c ->
                  let* acc = acc in
                  let* v = cell_of_json c in
                  Ok (v :: acc))
                (Ok []) cells
            in
            Ok (Array.of_list (List.rev vs) :: acc)
          | None -> Error "non-array row")
        (Ok []) vs
      |> Result.map List.rev
    | None -> Error "missing rows"
  in
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
    {
      key;
      fingerprint;
      analyst;
      epsilon;
      delta;
      epsilon_spent;
      delta_spent;
      columns;
      rows;
      bins_enumerated;
      noise_scales;
    }

let line_of_entry e = Json.to_string (json_of_entry e)

let entry_of_line line =
  let* j = Json.of_string line in
  entry_of_json j

(* --- bounded, fair admission ------------------------------------------------ *)

let count t a = Option.value ~default:0 (Hashtbl.find_opt t.counts a)

let queue_of t a =
  match Hashtbl.find_opt t.queues a with
  | Some q -> q
  | None ->
    let q = Queue.create () in
    Hashtbl.replace t.queues a q;
    q

(* Pop dead keys (evicted, stranded, or re-owned after an epoch flip) off
   the front of [a]'s queue; the front that remains is [a]'s oldest live
   entry. *)
let rec front t a q =
  match Queue.peek_opt q with
  | None -> None
  | Some k -> (
    match Hashtbl.find_opt t.table k with
    | Some s when s.entry.analyst = a -> Some s
    | _ ->
      ignore (Queue.pop q);
      front t a q)

(* Per-analyst fairness: an inserting analyst at or over their proportional
   share of the capacity evicts their own oldest entry; below it, the
   heaviest holder pays (ties to the analyst with the globally oldest
   entry). One dashboard analyst hammering fresh shapes therefore cycles
   their own slots and never strands another analyst's working set. *)
let evict_one t ~inserting =
  let holders =
    Hashtbl.fold (fun a n acc -> if n > 0 then a :: acc else acc) t.counts []
  in
  let owners = if List.mem inserting holders then holders else inserting :: holders in
  let share = max 1 (t.capacity / List.length owners) in
  let victim =
    if count t inserting >= share then inserting
    else
      let heaviest =
        List.fold_left
          (fun acc a ->
            match front t a (queue_of t a) with
            | None -> acc
            | Some s -> (
              let n = count t a in
              match acc with
              | Some (_, bn, bseq) when bn > n || (bn = n && bseq <= s.seq) -> acc
              | _ -> Some (a, n, s.seq)))
          None holders
      in
      match heaviest with Some (a, _, _) -> a | None -> inserting
  in
  let q = queue_of t victim in
  match front t victim q with
  | None -> ()
  | Some s ->
    ignore (Queue.pop q);
    Hashtbl.remove t.table s.entry.key;
    Hashtbl.replace t.counts victim (count t victim - 1);
    t.evictions <- t.evictions + 1

(* Admit without journaling (shared by live inserts and journal replay, so
   both follow the identical deterministic eviction sequence). *)
let admit t e =
  if not (Hashtbl.mem t.table e.key) then begin
    if Hashtbl.length t.table >= t.capacity then evict_one t ~inserting:e.analyst;
    t.seq <- t.seq + 1;
    Hashtbl.replace t.table e.key { entry = e; seq = t.seq };
    Queue.push e.key (queue_of t e.analyst);
    Hashtbl.replace t.counts e.analyst (count t e.analyst + 1)
  end

(* --- lifecycle -------------------------------------------------------------- *)

let create ?(capacity = 4096) () =
  {
    table = Hashtbl.create 256;
    queues = Hashtbl.create 16;
    counts = Hashtbl.create 16;
    capacity = max 1 capacity;
    seq = 0;
    journal = None;
    lock = Mutex.create ();
    hits = 0;
    misses = 0;
    evictions = 0;
    stale = 0;
  }

(* Compact the journal to the live working set. Replay admits under the same
   capacity/fairness policy as live inserts, so after replay the table holds
   exactly what this process will serve; every other record (evicted
   entries, releases stranded by an epoch flip) is dead weight that would
   otherwise accumulate across restarts. The rewrite is ordered by insertion
   seq, so re-replaying the compacted journal rebuilds this very store. *)
let compact t journal =
  Hashtbl.fold (fun _ s acc -> s :: acc) t.table []
  |> List.sort (fun (a : slot) b -> compare a.seq b.seq)
  |> List.to_seq
  |> Seq.map (fun s -> line_of_entry s.entry)
  |> Journal.rewrite journal

let open_ ?sync ?capacity ~fingerprint path =
  let t = create ?capacity () in
  let replayed = ref 0 in
  let journal =
    Journal.open_ ?sync path ~decode:entry_of_line (fun e ->
        incr replayed;
        if e.fingerprint = fingerprint then admit t e else t.stale <- t.stale + 1)
  in
  t.journal <- Some journal;
  if !replayed <> Hashtbl.length t.table then compact t journal;
  t

let close t = with_lock t (fun () -> Option.iter Journal.close t.journal)
let path t = Option.map Journal.path t.journal

(* --- operations ------------------------------------------------------------- *)

let peek t key =
  with_lock t (fun () -> Option.map (fun s -> s.entry) (Hashtbl.find_opt t.table key))

let count_hit t = with_lock t (fun () -> t.hits <- t.hits + 1)

let find t key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some s ->
        t.hits <- t.hits + 1;
        Some s.entry
      | None ->
        t.misses <- t.misses + 1;
        None)

let record t e =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.table e.key with
      | Some s -> s.entry (* first release wins; the racing loser is discarded *)
      | None ->
        Option.iter (fun j -> Journal.append j (line_of_entry e)) t.journal;
        admit t e;
        e)

let invalidate_epoch t ~keep =
  with_lock t (fun () ->
      let stale =
        Hashtbl.fold
          (fun k s acc ->
            if s.entry.fingerprint = keep then acc else (k, s.entry.analyst) :: acc)
          t.table []
      in
      List.iter
        (fun (k, a) ->
          Hashtbl.remove t.table k;
          Hashtbl.replace t.counts a (count t a - 1))
        stale;
      t.stale <- t.stale + List.length stale;
      List.length stale)

let stats t =
  with_lock t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        stale_dropped = t.stale;
        entries = Hashtbl.length t.table;
        capacity = t.capacity;
      })

let length t = with_lock t (fun () -> Hashtbl.length t.table)
