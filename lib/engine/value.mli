(** SQL values with NULL. Dates and timestamps are carried as ISO-8601
    strings, which order correctly under lexicographic comparison. *)

type t = Null | Bool of bool | Int of int | Float of float | String of string

val is_null : t -> bool

val compare : t -> t -> int
(** Total order used by ORDER BY, MIN/MAX and grouping: NULL sorts first,
    Int and Float compare numerically across types. *)

val equal : t -> t -> bool
(** [equal (Int 2) (Float 2.0)] is [true]. *)

val sql_equal : t -> t -> bool option
(** SQL equality: [None] (unknown) when either side is NULL. *)

val sql_compare : t -> t -> int option

val to_float : t -> float option
val to_int : t -> int option
val pp : t Fmt.t
val to_string : t -> string

val to_csv_string : t -> string
(** Literal-style rendering: strings unquoted, NULL empty. *)

val small_int : int -> bool
(** [-2^53 < i < 2^53]: the ints whose float no other int shares, so an
    [Int] there and a [Float] are {!equal} iff they are the same number,
    and {!hash} hashes both through the int. Past it {!equal} is not
    transitive: [Int 2^53 = Float 2^53 = Int (2^53 + 1)], yet the two ints
    differ. *)

val hash : t -> int
(** Consistent with {!equal} (Int/Float coercion included): the key
    equality of every join, grouping, DISTINCT, set operation, DISTINCT
    aggregate, max frequency and histogram bin, through {!Row_table}. *)
