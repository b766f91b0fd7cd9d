(* Hashtable keyed by [Value.t array] rows/keys, via a hash/equal pair that
   agrees with {!Value.equal} (so [Int 2] and [Float 2.] collide and compare
   equal, matching SQL [=]). The one key equality of the engines and the
   mechanism: hash-join build sides, GROUP BY, DISTINCT, the set operations,
   DISTINCT aggregates, max frequencies and histogram bins all key through
   it, in the oracle as in the row and columnar engines. *)

module Key = struct
  type t = Value.t array

  let equal a b =
    let n = Array.length a in
    n = Array.length b
    &&
    let rec go i = i >= n || (Value.equal a.(i) b.(i) && go (i + 1)) in
    go 0

  let hash a =
    let h = ref 17 in
    for i = 0 to Array.length a - 1 do
      h := (!h * 31) + Value.hash a.(i)
    done;
    !h land max_int
end

include Hashtbl.Make (Key)

(* Scalar variant for single-column keys (the common join/grouping case):
   avoids allocating a one-element key array per row. *)
module Scalar = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

(* Unboxed-int variant for key columns proven to hold only small integers;
   hashing and equality never touch a Value.t block. *)
module Int_key = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash = Hashtbl.hash
end)

let small_int_key (v : Value.t) =
  match v with Value.Int i -> Value.small_int i | _ -> false

(* The int a value indexes under in an all-small-int table, if any. A float
   equal (under SQL [=]) to a small int maps to that int: it is one exactly
   when it converts to a small int and back unchanged. Anything else can
   never match a small-int key. *)
let int_key_of (v : Value.t) =
  match v with
  | Value.Int i -> if Value.small_int i then Some i else None
  | Value.Float f ->
    let i = Float.to_int f in
    if Value.small_int i && Float.of_int i = f then Some i else None
  | _ -> None

(* First-occurrence dedupe over a row vector; the single helper behind
   SELECT DISTINCT, UNION, and EXCEPT/INTERSECT (distinct variants). *)
let dedupe_rows (rows : Value.t array Row_vec.t) : Value.t array Row_vec.t =
  let seen = create (max 16 (Row_vec.length rows)) in
  Row_vec.filter
    (fun row ->
      if mem seen row then false
      else begin
        replace seen row ();
        true
      end)
    rows

(* First-occurrence dedupe over single values; the helper behind DISTINCT
   aggregates and a histogram's bin domains. *)
let dedupe_values (vs : Value.t list) : Value.t list =
  let seen = Scalar.create 16 in
  List.filter
    (fun v ->
      if Scalar.mem seen v then false
      else begin
        Scalar.replace seen v ();
        true
      end)
    vs

(* Multiset of rows as a count table; used by EXCEPT/INTERSECT. *)
let counts_of (rows : Value.t array Row_vec.t) : int ref t =
  let tbl = create (max 16 (Row_vec.length rows)) in
  Row_vec.iter
    (fun row ->
      match find_opt tbl row with
      | Some c -> incr c
      | None -> replace tbl row (ref 1))
    rows;
  tbl
