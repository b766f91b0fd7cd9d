module Ast = Flex_sql.Ast

(** Compile-once expression evaluation: an {!Ast.expr} becomes an OCaml
    closure over the current row, with column references resolved to integer
    offsets (or, for correlated references, to the enclosing row's value)
    exactly once per relation. *)

exception Error of string

type header = { alias : string option; name : string }

val resolve_opt : header array -> Ast.col_ref -> int option
(** Column resolution: qualified references match the alias; unqualified
    references take the first name match. *)

val expand_projections :
  header array -> Ast.projection list -> (Ast.expr * string) list
(** Expand [*] and [t.*] against [headers] and name every projection —
    shared by the row pipeline and the columnar engine so both see the
    same output shape. @raise Error on [t.*] with an unknown relation. *)

type t = Value.t array -> Value.t
(** A compiled expression, applied to one row of the compiling relation. *)

type subquery = Ast.query -> Value.t array -> int * Value.t array list
(** Staged: {!compile} applies [subquery q] once per subquery node, when it
    compiles the expression, and calls the resulting closure per row. That
    closure evaluates [q] with the row pushed as the innermost enclosing
    scope and returns (column count, result rows). Work a provider does
    before taking the row (the executor plans [q] there) thus happens once
    per compiled expression, not once per row. *)

type agg_slot = { func : Ast.agg_func; distinct : bool; star : bool; arg : t option }
(** One distinct aggregate application collected during compilation;
    [arg = None] iff the argument is [*]. *)

type agg_slots

val make_slots : unit -> agg_slots

val slots : agg_slots -> agg_slot list
(** The slots collected so far, in slot order. *)

val specs : agg_slots -> (Ast.agg_func * bool * Ast.agg_arg) list
(** The source-level (func, distinct, arg) of each slot, aligned with
    {!slots}; the columnar engine inspects the argument expressions to
    decide which slots admit typed accumulator kernels. *)

val set_group : agg_slots -> Value.t Lazy.t array -> unit
(** Publish the current group's (lazily computed) slot values; compiled
    [Agg] nodes read slot [i] from this array. *)

val compile :
  subquery:subquery ->
  ?agg:agg_slots ->
  headers:header array ->
  outer:(header array * Value.t array) list ->
  Ast.expr ->
  t
(** Compile [e] against [headers] (the current relation) and [outer] (the
    enclosing scopes, innermost first, each with its fixed current row).
    Aggregates are only legal when [agg] is provided.
    @raise Error on unknown columns or misplaced aggregates. *)
