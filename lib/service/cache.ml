(* Mutex-guarded hashtable with FIFO eviction and hit/miss counters. The
   computation itself runs unlocked: analyses are pure, so a duplicated
   computation under a racing miss is only wasted work, never wrong. *)

type 'a t = {
  table : (string, 'a) Hashtbl.t;
  order : string Queue.t; (* insertion order, for FIFO eviction *)
  capacity : int;
  lock : Mutex.t;
  mutable hits : int;
  mutable misses : int;
}

let create ?(capacity = 4096) () =
  {
    table = Hashtbl.create 256;
    order = Queue.create ();
    capacity = max 1 capacity;
    lock = Mutex.create ();
    hits = 0;
    misses = 0;
  }

let key ~sql_canonical ~fingerprint ~flags =
  String.concat "\x00" [ sql_canonical; fingerprint; flags ]

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let find t ~key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some v ->
        t.hits <- t.hits + 1;
        Some v
      | None ->
        t.misses <- t.misses + 1;
        None)

let peek t ~key = with_lock t (fun () -> Hashtbl.find_opt t.table key)
let count_hit t = with_lock t (fun () -> t.hits <- t.hits + 1)

let add t ~key v =
  with_lock t (fun () ->
      if not (Hashtbl.mem t.table key) then begin
        while Queue.length t.order >= t.capacity do
          Hashtbl.remove t.table (Queue.pop t.order)
        done;
        Hashtbl.replace t.table key v;
        Queue.push key t.order
      end)

let find_or_compute t ~key f =
  match find t ~key with
  | Some v -> (v, true)
  | None ->
    let v = f () in
    add t ~key v;
    (v, false)

let hits t = with_lock t (fun () -> t.hits)
let misses t = with_lock t (fun () -> t.misses)
let length t = with_lock t (fun () -> Hashtbl.length t.table)

let clear t =
  with_lock t (fun () ->
      Hashtbl.reset t.table;
      Queue.clear t.order)
