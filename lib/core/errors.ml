module Ast = Flex_sql.Ast

(* Typed rejection reasons. The taxonomy mirrors the paper's error
   classification in §5.1 (parse errors / unsupported queries / other) and
   the unsupported-query discussion in §3.7.1. *)

type attr = { table : string; column : string }

type unsupported =
  | Non_equijoin of string (* join condition with no usable equality term *)
  | Cross_join (* cartesian products have no key to bound *)
  | Join_key_not_base of string
    (* join key computed (e.g. from an aggregate), so no mf metric exists *)
  | Missing_metric of attr (* mf metric unavailable for a base join key *)
  | Missing_value_range of attr (* vr metric needed by SUM/AVG/MIN/MAX missing *)
  | Raw_data_query (* returns non-aggregated data: out of DP scope *)
  | Arithmetic_on_aggregate (* e.g. SUM(x)/COUNT(x): not a plain aggregate *)
  | Unsupported_aggregate of Ast.agg_func (* MEDIAN, STDDEV *)
  | Set_operation (* UNION/EXCEPT/INTERSECT *)
  | Private_subquery_in_predicate
    (* WHERE/HAVING subquery reads private tables: filter stability unbounded *)

type reason =
  | Parse_error of string
  | Unsupported of unsupported
  | Analysis_error of string (* unknown table/column and similar *)

exception Reject of reason

let reject r = raise (Reject r)

let unsupported u = reject (Unsupported u)

(* Buckets used by the §5.1 success-rate experiment. *)
type bucket = Parse_bucket | Unsupported_bucket | Other_bucket

let bucket_of = function
  | Parse_error _ -> Parse_bucket
  | Unsupported _ -> Unsupported_bucket
  | Analysis_error _ -> Other_bucket

let pp_unsupported ppf = function
  | Non_equijoin cond -> Fmt.pf ppf "non-equijoin condition: %s" cond
  | Cross_join -> Fmt.string ppf "cross join (cartesian product)"
  | Join_key_not_base what ->
    Fmt.pf ppf "join key %s is not drawn from an original table" what
  | Missing_metric { table; column } ->
    Fmt.pf ppf "no max-frequency metric for %s.%s" table column
  | Missing_value_range { table; column } ->
    Fmt.pf ppf "no value-range metric for %s.%s" table column
  | Raw_data_query -> Fmt.string ppf "query returns raw (non-aggregated) data"
  | Arithmetic_on_aggregate ->
    Fmt.string ppf "arithmetic over aggregation results is not supported"
  | Unsupported_aggregate f ->
    Fmt.pf ppf "aggregation function %s is not supported"
      (String.uppercase_ascii (Ast.agg_func_name f))
  | Set_operation -> Fmt.string ppf "set operations (UNION/EXCEPT/INTERSECT)"
  | Private_subquery_in_predicate ->
    Fmt.string ppf "subquery over private tables used in a predicate"

let pp_reason ppf = function
  | Parse_error m ->
    (* the parser's messages begin "parse error at line ..." already *)
    if String.starts_with ~prefix:"parse error" m then Fmt.string ppf m
    else Fmt.pf ppf "parse error: %s" m
  | Unsupported u -> Fmt.pf ppf "unsupported query: %a" pp_unsupported u
  | Analysis_error m -> Fmt.pf ppf "analysis error: %s" m

let to_string r = Fmt.str "%a" pp_reason r
