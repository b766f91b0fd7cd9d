(** Precomputed database metrics consumed by elastic sensitivity (paper §4):
    max frequencies [mf], value ranges [vr] (§3.7.2), the public-table
    registry (§3.6), primary-key constraints, and table row counts. In the
    paper's deployment these are collected offline with one SQL query per
    column and refreshed by database triggers. *)

type t

val create : unit -> t

val compute : Database.t -> t
(** Collect every metric for every column of every table. *)

val recompute_table : t -> Database.t -> string -> unit
(** Refresh one table's metrics after an update. *)

(** {2 Max frequency} *)

val compute_mf : Table.t -> string -> int
(** Frequency of the most frequent non-NULL value: the largest count of
    [SELECT COUNT(a) FROM T GROUP BY a], under the key equality the engines'
    GROUP BY and joins use ({!Row_table}; [1] and [1.0] are one key). *)

val mf : t -> table:string -> column:string -> int option
val set_mf : t -> table:string -> column:string -> int -> unit

(** {2 Value range} *)

val compute_vr : Table.t -> string -> float option
(** [max - min] over a column's numeric values; [None] when there are none. *)

val vr : t -> table:string -> column:string -> float option
val set_vr : t -> table:string -> column:string -> float -> unit

(** {2 Constraints and bookkeeping} *)

val set_public : t -> string -> unit
val clear_public : t -> string -> unit
val is_public : t -> string -> bool
val public_tables : t -> string list

val set_primary_key : t -> table:string -> column:string -> unit
(** Declare schema-enforced uniqueness: the analysis may then use
    [mf_k = 1] at every distance for this column. *)

val is_primary_key : t -> table:string -> column:string -> bool
val set_row_count : t -> table:string -> int -> unit
val row_count : t -> table:string -> int option
val total_rows : t -> int

val columns : t -> table:string -> string list
(** Columns known for a table (from the collected metrics), letting the
    analysis run without a database connection. *)

val known_tables : t -> string list

val fingerprint : t -> string
(** Hex digest of the full metric set (deterministic: the serialised form is
    sorted). Analysis caches key on it so that any [mf]/[vr]/constraint
    change invalidates every dependent entry. *)

(** {2 Persistence} *)

val to_lines : t -> string list
val of_lines : string list -> t
val save : t -> string -> unit
val load : string -> t
