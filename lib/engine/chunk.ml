(* Columnar chunks: a per-column typed decomposition of a Table, built once
   per table (physical identity) and cached. The row store stays the source
   of truth — a chunk never owns values, it only lays the same values out
   column-wise so kernels can run over unboxed [int array]/[float array]
   data and integer dictionary codes instead of boxed [Value.t] cells.

   Layout rules:
   - A column is typed ([Ints]/[Floats]/[Strings]) only when every non-NULL
     cell has that one constructor; any mix (or any [Bool]) degrades to
     [Boxed], which kernels read through the original rows.
   - NULLs are carried in an optional mask ([Some m] with [m.(i) = true] at
     NULL rows); the typed slot under a NULL holds a dummy (0 / 0.0 / "")
     and must never be read unmasked. String columns additionally encode
     NULL as dictionary code [-1], so equality kernels need no mask.
   - String columns are dictionary-encoded in first-appearance order:
     [codes.(i)] indexes [dict], so filters and GROUP BY compare ints:
     [=]/[<>] find their literal's code in [dict_tbl], and range predicates
     test each dictionary entry once, or the parallel [vals] array when the
     rows filtered are fewer than the entries. *)

type strings = {
  vals : string array;  (* per-row string; "" at NULL *)
  codes : int array;  (* per-row dictionary code; -1 at NULL *)
  dict : string array;  (* distinct values, first-appearance order *)
  dict_tbl : (string, int) Hashtbl.t;
}

type data = Ints of int array | Floats of float array | Strings of strings | Boxed

type col = { data : data; nulls : bool array option }

type t = {
  table : Table.t;
  rows : Value.t array array;  (* = Table.rows table, shared *)
  n : int;
  cols : col array;
}

let is_null col i = match col.nulls with None -> false | Some m -> m.(i)

let dict_code s v = Hashtbl.find_opt s.dict_tbl v

(* Classify column [j]: one pass to find the single non-NULL constructor
   (bailing to Boxed on the first conflict), then a typed fill pass. *)
let build_col rows n j =
  let has_null = ref false in
  let kind = ref `Empty in
  (try
     for i = 0 to n - 1 do
       match rows.(i).(j) with
       | Value.Null -> has_null := true
       | Value.Int _ -> (
           match !kind with
           | `Empty -> kind := `Int
           | `Int -> ()
           | _ ->
               kind := `Boxed;
               raise Exit)
       | Value.Float _ -> (
           match !kind with
           | `Empty -> kind := `Float
           | `Float -> ()
           | _ ->
               kind := `Boxed;
               raise Exit)
       | Value.String _ -> (
           match !kind with
           | `Empty -> kind := `String
           | `String -> ()
           | _ ->
               kind := `Boxed;
               raise Exit)
       | Value.Bool _ ->
           kind := `Boxed;
           raise Exit
     done
   with Exit -> ());
  let nulls =
    if not !has_null then None
    else begin
      let m = Array.make n false in
      for i = 0 to n - 1 do
        m.(i) <- Value.is_null rows.(i).(j)
      done;
      Some m
    end
  in
  match !kind with
  | `Boxed -> { data = Boxed; nulls = None }
  | `Empty when n = 0 -> { data = Ints [||]; nulls = None }
  | `Empty ->
      (* all-NULL column: typed-as-int so IS NULL masks and aggregate
         kernels still apply; every slot is masked *)
      { data = Ints (Array.make n 0); nulls }
  | `Int ->
      let a = Array.make n 0 in
      for i = 0 to n - 1 do
        match rows.(i).(j) with Value.Int v -> a.(i) <- v | _ -> ()
      done;
      { data = Ints a; nulls }
  | `Float ->
      let a = Array.make n 0.0 in
      for i = 0 to n - 1 do
        match rows.(i).(j) with Value.Float v -> a.(i) <- v | _ -> ()
      done;
      { data = Floats a; nulls }
  | `String ->
      let vals = Array.make n "" in
      let codes = Array.make n (-1) in
      let dict_tbl = Hashtbl.create 64 in
      let dict = Row_vec.create () in
      for i = 0 to n - 1 do
        match rows.(i).(j) with
        | Value.String v ->
            vals.(i) <- v;
            let c =
              match Hashtbl.find_opt dict_tbl v with
              | Some c -> c
              | None ->
                  let c = Row_vec.length dict in
                  Hashtbl.add dict_tbl v c;
                  Row_vec.push dict v;
                  c
            in
            codes.(i) <- c
        | _ -> ()
      done;
      { data = Strings { vals; codes; dict = Row_vec.to_array dict; dict_tbl }; nulls }

let build (table : Table.t) : t =
  let rows = Table.rows table in
  let n = Array.length rows in
  let width = Array.length (Table.columns table) in
  { table; rows; n; cols = Array.init width (build_col rows n) }

(* Per-table cache keyed by physical identity: [Table.with_row] copies the
   rows array, so a mutated table never aliases a cached chunk. Bounded MRU
   assoc list under a mutex; the build itself runs outside the lock. *)
let cache : (Table.t * t) list ref = ref []
let cache_lock = Mutex.create ()
let max_cached = 16

let of_table (table : Table.t) : t =
  let find () = List.find_opt (fun (t, _) -> t == table) !cache in
  Mutex.lock cache_lock;
  let hit = find () in
  Mutex.unlock cache_lock;
  match hit with
  | Some (_, c) -> c
  | None ->
      let c = build table in
      Mutex.lock cache_lock;
      let c =
        match find () with
        | Some (_, existing) -> existing
        | None ->
            let rest = List.filter (fun (t, _) -> t != table) !cache in
            let rest =
              if List.length rest >= max_cached then List.filteri (fun i _ -> i < max_cached - 1) rest
              else rest
            in
            cache := (table, c) :: rest;
            c
      in
      Mutex.unlock cache_lock;
      c
