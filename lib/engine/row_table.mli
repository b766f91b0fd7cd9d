(** Hashtable keyed by [Value.t array] with SQL-consistent hash/equal
    ([Int 2] = [Float 2.]): the one key equality, shared by joins, GROUP BY,
    DISTINCT, set operations, DISTINCT aggregates, max frequencies
    ({!Metrics.compute_mf}) and histogram bins, in every engine. *)

module Key : sig
  type t = Value.t array

  val equal : t -> t -> bool
  val hash : t -> int
end

include Hashtbl.S with type key = Value.t array

module Scalar : Hashtbl.S with type key = Value.t
(** Single-column key variant: no per-row key array allocation. *)

module Int_key : Hashtbl.S with type key = int
(** Unboxed variant for key columns proven all-small-int. *)

val small_int_key : Value.t -> bool
(** [Int i] with {!Value.small_int}[ i]. *)

val int_key_of : Value.t -> int option
(** The int a value indexes under in an all-small-int table: small ints
    themselves, floats equal (SQL [=]) to one; [None] can never match. *)

val dedupe_rows : Value.t array Row_vec.t -> Value.t array Row_vec.t
(** Keep the first occurrence of each distinct row, preserving order. *)

val dedupe_values : Value.t list -> Value.t list
(** Keep the first occurrence of each distinct value, preserving order. *)

val counts_of : Value.t array Row_vec.t -> int ref t
(** Multiset view of a row vector (row -> multiplicity). *)
