(** Recursive-descent parser for the SQL subset of {!Ast}: SELECT cores with
    joins of every kind, WHERE/GROUP BY/HAVING, set operations with standard
    precedence (INTERSECT binds tighter), CTEs, derived tables, subquery
    predicates, CASE/IN/BETWEEN/LIKE/CAST, and ORDER BY/LIMIT/OFFSET. *)

exception Error of { message : string; line : int; col : int }

val max_depth : int
(** The deepest statement the parser accepts (256 levels). Each nested
    expression, subquery, derived or parenthesised table, and each link of
    a left-deep chain (arithmetic, joins, set operations) is one level; a
    chain of [n] links is [n] levels taller than its deepest operand. A
    statement one level deeper is an {!Error} naming the limit, raised as
    soon as the level is opened, so hostile nesting or chaining costs time
    linear in the input and never builds the deep tree that later passes
    would recurse over. *)

val parse : string -> (Ast.query, string) result
(** Parse one statement. Surrounding whitespace/comments and any number of
    trailing [;] are accepted — the forms a query service receives over the
    wire. The error string includes the source position. Statements deeper
    than {!max_depth} are errors. *)

val parse_exn : string -> Ast.query
(** @raise Error on malformed input. *)

val parse_statement : string -> (Ast.statement, string) result
(** Like {!parse}, additionally accepting a leading [EXPLAIN] keyword. *)

val parse_statement_exn : string -> Ast.statement
(** @raise Error on malformed input. *)

val parse_expr_exn : string -> Ast.expr
(** Parse a standalone scalar expression (used by tests and tools). *)
