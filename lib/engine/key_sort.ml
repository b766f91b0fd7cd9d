(* Typed sort keys for ORDER BY and top-K selection. A key column is
   classified once into an unboxed representation; the per-comparison cost
   then drops from polymorphic [Value.compare] over boxed cells to an int /
   float / string compare over flat arrays. Classification is conservative:
   any column the typed orders cannot reproduce bit-for-bit against
   [Value.compare] (mixed numerics with an integer outside the float-exact
   range, booleans, mixed ranks) stays boxed. *)

type key =
  | K_int of int array * bool array option
  | K_float of float array * bool array option
  | K_string of string array * bool array option
  | K_val of Value.t array

let of_values (vs : Value.t array) : key =
  let n = Array.length vs in
  let has_null = ref false in
  let any_int = ref false and any_float = ref false in
  let any_string = ref false and any_other = ref false in
  let ints_small = ref true in
  for i = 0 to n - 1 do
    match vs.(i) with
    | Value.Null -> has_null := true
    | Value.Int v ->
        any_int := true;
        (* past 2^53 [float_of_int] loses precision, so promoting a mixed
           Int/Float key column to floats would reorder: keep it boxed *)
        if not (Value.small_int v) then ints_small := false
    | Value.Float _ -> any_float := true
    | Value.String _ -> any_string := true
    | Value.Bool _ -> any_other := true
  done;
  let nulls () =
    if not !has_null then None
    else begin
      let m = Array.make n false in
      for i = 0 to n - 1 do
        m.(i) <- Value.is_null vs.(i)
      done;
      Some m
    end
  in
  if !any_other || (!any_string && (!any_int || !any_float)) then K_val vs
  else if !any_string then begin
    let a = Array.make n "" in
    for i = 0 to n - 1 do
      match vs.(i) with Value.String v -> a.(i) <- v | _ -> ()
    done;
    K_string (a, nulls ())
  end
  else if !any_float && ((not !any_int) || !ints_small) then begin
    (* pure floats, or exactly-representable ints promoted: Value.compare
       orders Int/Float pairs through float_of_int, which this reproduces *)
    let a = Array.make n 0.0 in
    for i = 0 to n - 1 do
      match vs.(i) with
      | Value.Float v -> a.(i) <- v
      | Value.Int v -> a.(i) <- float_of_int v
      | _ -> ()
    done;
    K_float (a, nulls ())
  end
  else if !any_int && not !any_float then begin
    let a = Array.make n 0 in
    for i = 0 to n - 1 do
      match vs.(i) with Value.Int v -> a.(i) <- v | _ -> ()
    done;
    K_int (a, nulls ())
  end
  else if not (!any_int || !any_float) then
    (* all NULL (or empty): every comparison is 0 *)
    K_int (Array.make n 0, nulls ())
  else K_val vs

(* NULL sorts below everything, matching Value.compare's rank order. The
   typed compares are annotated so the specialised primitives apply; for
   floats [Stdlib.compare] is the same total order Value.compare uses
   (NaN equal to itself, below real numbers). *)
let compare_fn (k : key) : int -> int -> int =
  match k with
  | K_val vs -> fun i j -> Value.compare vs.(i) vs.(j)
  | K_int (a, None) -> fun i j -> compare (a.(i) : int) a.(j)
  | K_float (a, None) -> fun i j -> compare (a.(i) : float) a.(j)
  | K_string (a, None) -> fun i j -> compare (a.(i) : string) a.(j)
  | K_int (a, Some m) ->
      fun i j ->
        if m.(i) then if m.(j) then 0 else -1
        else if m.(j) then 1
        else compare (a.(i) : int) a.(j)
  | K_float (a, Some m) ->
      fun i j ->
        if m.(i) then if m.(j) then 0 else -1
        else if m.(j) then 1
        else compare (a.(i) : float) a.(j)
  | K_string (a, Some m) ->
      fun i j ->
        if m.(i) then if m.(j) then 0 else -1
        else if m.(j) then 1
        else compare (a.(i) : string) a.(j)

(* Bounded selection for ORDER BY ... LIMIT: the [k] smallest of the indices
   [0, n) under [cmp], in sorted order, via a size-[k] max-heap — O(n log k)
   instead of sorting all [n] rows. [cmp] must be a total order (the caller
   tiebreaks on the index itself), which makes the result identical to
   sorting everything and slicing off the first [k]. *)
let top_k ~(cmp : int -> int -> int) ~n ~k =
  if k <= 0 then [||]
  else begin
    let hn = min k n in
    let heap = Array.init hn (fun i -> i) in
    let swap i j =
      let t = heap.(i) in
      heap.(i) <- heap.(j);
      heap.(j) <- t
    in
    let rec sift_down i =
      let l = (2 * i) + 1 and r = (2 * i) + 2 in
      let m = ref i in
      if l < hn && cmp heap.(l) heap.(!m) > 0 then m := l;
      if r < hn && cmp heap.(r) heap.(!m) > 0 then m := r;
      if !m <> i then begin
        swap i !m;
        sift_down !m
      end
    in
    for i = (hn / 2) - 1 downto 0 do
      sift_down i
    done;
    for i = hn to n - 1 do
      if cmp i heap.(0) < 0 then begin
        heap.(0) <- i;
        sift_down 0
      end
    done;
    Array.sort cmp heap;
    heap
  end

(* Sorted order of [0, n): bounded selection when only [wanted] rows
   survive LIMIT/OFFSET, full sort otherwise. *)
let sorted ~(cmp : int -> int -> int) ~n ~(wanted : int option) =
  match wanted with
  | Some k when k < n -> top_k ~cmp ~n ~k
  | _ ->
      let order = Array.init n (fun i -> i) in
      Array.sort cmp order;
      order
