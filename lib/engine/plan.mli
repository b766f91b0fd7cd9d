module Ast = Flex_sql.Ast

(** The engine's logical plan IR, the only form the executor runs.
    {!of_query} translates a parsed AST one-to-one (comma FROM items become
    left-deep cross joins) with no rewriting; {!Optimizer.rewrite}
    transforms plans and {!Executor.run_plan} executes either kind — every
    execution, including subqueries inside expressions, goes through it.
    The renderer is the engine's EXPLAIN; an optional {!estimator}
    annotates operators with estimated cardinalities. *)

type rel =
  | Scan of { table : string; alias : string }
  | Derived of { plan : t; alias : string }
  | Filter of { pred : Ast.expr; input : rel }
      (** introduced by predicate pushdown; filters the input relation *)
  | Join of {
      kind : Ast.join_kind;
      cond : Ast.join_cond;
      build_left : bool;
          (** hash-join build side: [true] builds on the left input and
              probes the right (cost-based choice); [false] is the engine's
              historical build-on-right *)
      left : rel;
      right : rel;
    }

and select_plan = {
  distinct : bool;
  projections : Ast.projection list;
  source : rel option;  (** [None] = FROM-less SELECT *)
  where : Ast.expr option;
  group_by : Ast.expr list;
  having : Ast.expr option;
}

and body_plan =
  | Plan_select of select_plan
  | Plan_set of { op : set_op; all : bool; left : body_plan; right : body_plan }

and set_op = Union | Except | Intersect

and t = {
  ctes : (string * string list * t) list;  (** name, column list, body *)
  body : body_plan;
  order_by : (Ast.expr * Ast.order_dir) list;
  limit : int option;
  offset : int option;
}

val of_query : Ast.query -> t
val of_table_ref : Ast.table_ref -> rel

(** {2 Traversals} *)

val fold_exprs : ('a -> Ast.expr -> 'a) -> 'a -> t -> 'a
(** Fold over every expression in the plan: projections, predicates, join
    conditions, group/having/order keys, descending into CTEs and derived
    tables (but not into subqueries nested in expressions). *)

val fold_rel_exprs : ('a -> Ast.expr -> 'a) -> 'a -> rel -> 'a

val columns_of_plan : t -> Ast.col_ref list
(** Every column name mentioned anywhere in the plan, including inside
    expression subqueries — the conservative name set behind scan pruning. *)

val rel_aliases : rel -> string list
(** Lowercased relation aliases of the leaves, left to right. *)

val join_keys : Ast.join_cond -> (string * string) list * int
(** Syntactic equality keys of a join condition (rendered by EXPLAIN and
    used by the optimizer to detect hash-joinable conditions), plus the
    number of residual non-equality conjuncts. *)

(** {2 EXPLAIN ANALYZE traces} *)

(** Per-operator runtime statistics, collected by
    {!Executor.run_plan_analyzed} and rendered by {!render_analyzed}.
    Operators are identified by a path string; the executor's evaluation and
    the renderer's walk build paths with the same constructors, which is the
    contract that keeps them aligned. Stats are inclusive of children. *)
module Analyze : sig
  type stat = {
    rows_in : int;  (** -1 when the operator has no single input cardinality *)
    rows_out : int;
    elapsed_ns : float;  (** NaN when the stage has no independent timing *)
  }

  type trace

  val create : unit -> trace

  val record : trace -> path:string -> ?rows_in:int -> rows_out:int -> float -> unit
  (** Record (or overwrite — re-evaluation wins) the stat at [path]. *)

  val find : trace -> string -> stat option

  val root_path : string
  (** ["q"], the whole plan. *)

  val cte_path : string -> int -> string
  val body_path : string -> string
  val left_path : string -> string
  val right_path : string -> string
  val source_path : string -> string
  val where_path : string -> string
  val input_path : string -> string
  val derived_path : string -> string
  val sort_path : string -> string

  val result_rows : trace -> int option
  (** The root plan's output cardinality. *)

  val suffix : show_rows:bool -> stat -> string
  (** The rendered [  (actual rows=..., ...ms)] suffix; with
      [show_rows:false] row counts print as [?] (they are exact private
      cardinalities — gated like EXPLAIN estimates). *)
end

(** {2 Rendering (EXPLAIN)} *)

type estimator = {
  est_rel : rel -> float option;
  est_select : select_plan -> float option;
}
(** Cardinality annotations for the renderer; see {!Optimizer.estimator}. *)

val no_estimator : estimator

val pp : t Fmt.t
val to_string : t -> string

val render : ?est:estimator -> t -> string
(** [to_string] with per-operator [ (~N rows)] cardinality annotations. *)

val render_analyzed : ?show_rows:bool -> trace:Analyze.trace -> t -> string
(** The same plan text with each operator line suffixed by its recorded
    [  (actual rows=..., ...ms)] stat (absent stats render nothing).
    [show_rows] defaults to [true] — callers rendering for remote analysts
    must pass the deployment's EXPLAIN-estimates opt-in instead. *)

val explain_sql : string -> (string, string) result
(** Parse and render the unoptimized plan. *)
