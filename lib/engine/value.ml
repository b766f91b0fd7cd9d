(* SQL values with NULL. Dates and timestamps are carried as ISO-8601 strings,
   which order correctly under lexicographic comparison. *)

type t = Null | Bool of bool | Int of int | Float of float | String of string

let is_null = function Null -> true | _ -> false

(* Total order used for ORDER BY, MIN/MAX and grouping: NULL sorts first,
   numeric types compare by value across Int/Float. *)
let rank = function Null -> 0 | Bool _ -> 1 | Int _ | Float _ -> 2 | String _ -> 3

let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Bool a, Bool b -> Stdlib.compare a b
  | Int a, Int b -> Stdlib.compare a b
  | Float a, Float b -> Stdlib.compare a b
  | Int a, Float b -> Stdlib.compare (float_of_int a) b
  | Float a, Int b -> Stdlib.compare a (float_of_int b)
  | String a, String b -> Stdlib.compare a b
  | _ -> Stdlib.compare (rank a) (rank b)

let equal a b = compare a b = 0

(* SQL equality: NULL = anything is unknown (None). *)
let sql_equal a b =
  match (a, b) with Null, _ | _, Null -> None | _ -> Some (equal a b)

let sql_compare a b =
  match (a, b) with Null, _ | _, Null -> None | _ -> Some (compare a b)

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | Bool true -> Some 1.0
  | Bool false -> Some 0.0
  | Null | String _ -> None

let to_int = function
  | Int i -> Some i
  | Float f -> Some (int_of_float f)
  | Bool true -> Some 1
  | Bool false -> Some 0
  | Null | String _ -> None

let pp ppf = function
  | Null -> Fmt.string ppf "NULL"
  | Bool b -> Fmt.bool ppf b
  | Int i -> Fmt.int ppf i
  | Float f -> Fmt.pf ppf "%g" f
  | String s -> Fmt.string ppf s

let to_string v = Fmt.str "%a" pp v

(* Literal-style rendering used by CSV output: strings unquoted, NULL empty. *)
let to_csv_string = function
  | Null -> ""
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f -> Fmt.str "%.12g" f
  | String s -> s

(* The ints strictly inside +-2^53: each converts to a float that no other
   int converts to, so an [Int] there equals a [Float] iff they are the same
   number. Past 2^53, [equal] is not transitive: [Int 2^53 = Float 2^53 =
   Int (2^53 + 1)], yet the two ints differ. Two comparisons, not
   [abs i < two_53]: [abs min_int] is negative. *)
let two_53 = 9007199254740992 (* 2^53 *)

let small_int i = i > -two_53 && i < two_53

(* Must collide where [equal] holds across Int/Float. Small numbers hash
   through the integer, allocation-free; the rare larger ones canonicalise
   through a float. *)
let hash v =
  match v with
  | Int i when small_int i -> Hashtbl.hash i
  | Float f when Float.is_integer f && Float.abs f < float_of_int two_53 ->
    Hashtbl.hash (int_of_float f)
  | Int i -> Hashtbl.hash (Float (float_of_int i))
  | v -> Hashtbl.hash v
