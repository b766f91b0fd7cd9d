module Ast = Flex_sql.Ast
module Vec = Row_vec

(* Columnar batch execution over {!Chunk} columns. The recognizer accepts a
   subset of logical plans — scan chains and left-deep INNER equijoins
   (either hash-build orientation) with conjunctive filters, column
   projections/group keys, and the standard aggregates — and runs them
   through vectorized kernels: filters become selection vectors over typed
   arrays (no row materialisation; ranges and dictionary pass tables, see
   the filter kernels below), the hash equijoin extracts keys
   column-wise (with the dense-int counting-sort fast path of the row
   engine), GROUP BY aggregates accumulate into per-group typed arrays, a
   COUNT( * ) over two joined tables is counted by key without joining
   ({!count_slab}), and ORDER BY+LIMIT runs {!Key_sort} top-K over column
   key arrays. Everything else returns [None] and the row pipeline runs as
   before.

   Bit-identity contract: for every accepted query, the result must be
   bit-identical to the row pipeline — same rows, same order, same float
   bits — because DP releases must not change when this engine is toggled.
   The kernels therefore replicate the row pipeline's evaluation orders
   exactly (probe-side row order in joins with build-row-order candidates,
   re-sorted to the probed table's row order when the plan builds on the
   left, first-appearance group order, ascending per-group accumulation, the
   sort tiebreak on row index), and output cells are fetched as the
   already-boxed values of the original table rows wherever possible.
   Anywhere a divergence cannot be ruled out statically, the recognizer
   bails; anywhere the row pipeline could raise a semantic error that the
   columnar plan might not (it evaluates filters on pre-join supersets, so
   its error set is a superset — never a subset — of the row pipeline's),
   errors are caught and the query falls back to the row path, which then
   decides between result and error exactly as before. *)

type header = Compiled.header = { alias : string option; name : string }

type result_set = { chead : header array; crows : Value.t array Vec.t }

let enabled = ref true

(* Raised when recognition or execution leaves the supported subset;
   callers translate it to [None]. *)
exception Fallback

let fallback : unit -> 'a = fun () -> raise Fallback

let two_53 = 9007199254740992

(* --- recognition ----------------------------------------------------------- *)

let no_subquery e = Ast.expr_subqueries e = []

let has_aggregate e =
  Ast.fold_expr (fun acc e -> acc || match e with Ast.Agg _ -> true | _ -> false) false e

let plain_expr e = if (not (no_subquery e)) || has_aggregate e then fallback ()

type step = {
  s_table : Table.t;
  s_alias : string;
  s_cond : Ast.expr option; (* ON condition joining this table to the prefix *)
  s_build_left : bool; (* the plan hashes the prefix and probes this table *)
  mutable s_groups : (Ast.expr list * bool) list;
      (* predicate groups in application order; a group is the per-table
         slice of one source predicate's conjuncts, flagged [true] when the
         source predicate had several (so non-boolean conjunct values must
         fall back: the row engine's AND would error) *)
}

let step_of_table db name alias =
  match Database.find_opt db name with
  | None -> fallback ()
  | Some t ->
      { s_table = t; s_alias = alias; s_cond = None; s_build_left = false; s_groups = [] }

(* A plan-side scan chain: Filter* over Scan, predicates innermost first. *)
let rec scan_chain db (r : Plan.rel) preds =
  match r with
  | Plan.Filter { pred; input } -> scan_chain db input (pred :: preds)
  | Plan.Scan { table; alias } -> (step_of_table db table alias, preds)
  | _ -> fallback ()

let rec is_scan_chain = function
  | Plan.Scan _ -> true
  | Plan.Filter { input; _ } -> is_scan_chain input
  | _ -> false

(* Steps left to right, plus predicates sitting above join subtrees, each
   with the number of prefix tables its columns must resolve within. *)
let rec flatten_rel db (r : Plan.rel) : (step * Ast.expr list) list * (int * Ast.expr) list
    =
  match r with
  | Plan.Scan _ -> ([ scan_chain db r [] ], [])
  | Plan.Filter { input; pred } ->
      if is_scan_chain r then ([ scan_chain db r [] ], [])
      else begin
        let steps, preds = flatten_rel db input in
        (steps, preds @ [ (List.length steps, pred) ])
      end
  | Plan.Join { kind = Ast.Inner; cond = Ast.On e; build_left; left; right } ->
      let steps, preds = flatten_rel db left in
      let step, sfs = scan_chain db right [] in
      (steps @ [ ({ step with s_cond = Some e; s_build_left = build_left }, sfs) ], preds)
  | _ -> fallback ()

(* --- the slab: combined headers over per-table chunks ----------------------- *)

type ctx = {
  pool : Task_pool.t option;
  chunks : Chunk.t array;
  headers : header array; (* full combined, alias-qualified *)
  col_tbl : int array; (* combined column -> table index *)
  col_off : int array; (* combined column -> offset within its table *)
  tbl_start : int array; (* table index -> first combined column *)
}

(* Logical rows over the joined tables: [n] rows, each mapping through
   [maps.(t)] to a physical row of table [t] ([None] = identity). Map
   composition after a join is lazy: tables never read downstream (not
   projected, ordered, grouped or join-probed) never pay for it. Forcing
   happens on the coordinating thread before any parallel section. *)
type slab = { n : int; maps : int array option Lazy.t array }

let map_of (slab : slab) t = Lazy.force slab.maps.(t)

let ctx_of_steps pool (steps : step array) : ctx =
  let chunks = Array.map (fun s -> Chunk.of_table s.s_table) steps in
  let headers = Vec.create () and col_tbl = Vec.create () and col_off = Vec.create () in
  let tbl_start = Array.make (Array.length steps) 0 in
  Array.iteri
    (fun t (s : step) ->
      tbl_start.(t) <- Vec.length headers;
      Array.iteri
        (fun j name ->
          Vec.push headers { alias = Some s.s_alias; name };
          Vec.push col_tbl t;
          Vec.push col_off j)
        (Table.columns s.s_table))
    steps;
  {
    pool;
    chunks;
    headers = Vec.to_array headers;
    col_tbl = Vec.to_array col_tbl;
    col_off = Vec.to_array col_off;
    tbl_start;
  }

let phys_of (slab : slab) t : int -> int =
  match map_of slab t with None -> (fun i -> i) | Some m -> fun i -> m.(i)

(* Boxed cell fetch by logical row, through the original table rows. *)
let fetcher ctx (slab : slab) ci : int -> Value.t =
  let t = ctx.col_tbl.(ci) in
  let rows = ctx.chunks.(t).Chunk.rows and off = ctx.col_off.(ci) in
  match map_of slab t with
  | None -> fun i -> rows.(i).(off)
  | Some m -> fun i -> rows.(m.(i)).(off)

(* Resolve a column reference and check it lands in table [t]. *)
let resolve_in ctx t (c : Ast.col_ref) =
  match Compiled.resolve_opt ctx.headers c with
  | Some ci when ctx.col_tbl.(ci) = t -> ci
  | _ -> fallback ()

let value_of_lit : Ast.lit -> Value.t = function
  | Ast.Null -> Value.Null
  | Ast.Bool b -> Value.Bool b
  | Ast.Int i -> Value.Int i
  | Ast.Float f -> Value.Float f
  | Ast.String s -> Value.String s

(* --- filter kernels --------------------------------------------------------- *)

(* A typed conjunct runs as a kernel over physical row indices. Kernels are
   total (no errors, no NULL results), so a group's kernels may run in any
   order and short-circuit each other.
   - [K_ints]/[K_floats]: an inclusive range of Value.compare's order, empty
     when [lo > hi]. That order on floats is Stdlib.compare's: NaN equals
     itself and sorts below every other float, so NaN cells pass by the
     [nan] flag and the rest by IEEE comparison with the ends. [mask] is the
     column's NULL mask, [||] when it has none.
   - [K_codes]: a pass table over a string column's dictionary, at
     [code + 1]; slot 0 is NULL and never passes. (A string [=] is a
     one-code [K_ints] over the codes, whose NULL code -1 never matches.)
   - [K_test]: any other typed test, as a closure. *)
type kernel =
  | K_ints of { a : int array; mask : bool array; lo : int; hi : int }
  | K_floats of { a : float array; mask : bool array; nan : bool; lo : float; hi : float }
  | K_codes of { codes : int array; pass : Bytes.t }
  | K_test of (int -> bool)

(* A compiled conjunct. A string-vs-literal test waits for its group: all the
   tests of one group on one column become a single kernel. Generic
   conjuncts evaluate a compiled closure over a scratch row and surface the
   raw value so the caller can replicate 3-valued AND semantics. *)
type pred =
  | P_kernel of kernel
  | P_dict of Chunk.strings * (Ast.binop * string)
  | P_generic of (int -> Value.t)

let p_test f = P_kernel (K_test f)

let test_op (op : Ast.binop) (c : int) =
  match op with
  | Ast.Eq -> c = 0
  | Ast.Neq -> c <> 0
  | Ast.Lt -> c < 0
  | Ast.Le -> c <= 0
  | Ast.Gt -> c > 0
  | Ast.Ge -> c >= 0
  | _ -> assert false

let flip_op : Ast.binop -> Ast.binop = function
  | Ast.Lt -> Ast.Gt
  | Ast.Le -> Ast.Ge
  | Ast.Gt -> Ast.Lt
  | Ast.Ge -> Ast.Le
  | op -> op

let not_null_fn (col : Chunk.col) : int -> bool =
  match col.Chunk.data with
  | Chunk.Strings s -> fun p -> s.Chunk.codes.(p) >= 0
  | _ -> (
      match col.Chunk.nulls with
      | None -> fun _ -> true
      | Some m -> fun p -> not m.(p))

(* Value.compare's rank for every value a typed column can hold. *)
let col_rank (d : Chunk.data) =
  match d with Chunk.Ints _ | Chunk.Floats _ -> 2 | Chunk.Strings _ -> 3 | Chunk.Boxed -> 0

let lit_rank : Value.t -> int = function
  | Value.Null -> 0
  | Value.Bool _ -> 1
  | Value.Int _ | Value.Float _ -> 2
  | Value.String _ -> 3

(* The smallest int satisfying [ok], which is monotone over the ints (false
   up to some point, true from there on); [None] if none does. *)
let first_int ok =
  if not (ok max_int) then None
  else if ok min_int then Some min_int
  else
    (* not (ok lo), ok hi; [mid] is the floor average, free of overflow *)
    let rec go lo hi =
      let mid = (lo asr 1) + (hi asr 1) + (lo land hi land 1) in
      if mid = lo then hi else if ok mid then go lo mid else go mid hi
    in
    Some (go min_int max_int)

(* The ints whose Value.compare against the numeric [lit] satisfies [op]
   (not [<>]), as an inclusive range. Value.compare is monotone in the int,
   against a float literal too (float_of_int is monotone), so the ends are
   found by bisection on Value.compare itself. *)
let int_range op (lit : Value.t) =
  let first ok = first_int (fun x -> ok (Value.compare (Value.Int x) lit)) in
  let empty = (1, 0) in
  let from = function None -> empty | Some g -> (g, max_int) in
  let below = function
    | None -> (min_int, max_int)
    | Some g -> if g = min_int then empty else (min_int, g - 1)
  in
  match op with
  | Ast.Ge -> from (first (fun c -> c >= 0))
  | Ast.Gt -> from (first (fun c -> c > 0))
  | Ast.Lt -> below (first (fun c -> c >= 0))
  | Ast.Le -> below (first (fun c -> c > 0))
  | Ast.Eq ->
      let l1, h1 = from (first (fun c -> c >= 0)) and l2, h2 = below (first (fun c -> c > 0)) in
      (max l1 l2, min h1 h2)
  | _ -> assert false

(* The floats whose Value.compare against the numeric [lit] satisfies [op]
   (not [<>]): [(nan, (lo, hi))], NaN passing iff [nan] and any other float
   iff it lies in [lo, hi]. Off NaN, Stdlib.compare is IEEE comparison
   (-0.0 = 0.0), and floats are discrete, so a strict bound is the next
   float inwards. *)
let float_range op (lit : Value.t) =
  let f = match lit with Value.Float f -> f | Value.Int k -> float_of_int k | _ -> assert false in
  let all = (neg_infinity, infinity) and none = (infinity, neg_infinity) in
  if Float.is_nan f then (test_op op 0, if test_op op 1 then all else none)
  else
    ( test_op op (-1),
      match op with
      | Ast.Eq -> (f, f)
      | Ast.Ge -> (f, infinity)
      | Ast.Le -> (neg_infinity, f)
      | Ast.Gt -> if f = infinity then none else (Float.succ f, infinity)
      | Ast.Lt -> if f = neg_infinity then none else (neg_infinity, Float.pred f)
      | _ -> assert false )

(* Whether a kernel passes physical row [p], as 1 or 0, without a branch on
   the data: a filter's pass/fail pattern is unpredictable, and a mispredicted
   branch costs more than the test. An int range is one unsigned comparison
   (flipping the sign bit maps unsigned order onto signed order); [span] is
   [(hi - lo) lxor min_int], which needs [lo <= hi]. *)
external bit : bool -> int = "%identity"

let[@inline] int_bit (a : int array) (mask : bool array) lo span p =
  let b = bit ((a.(p) - lo) lxor min_int <= span) in
  if Array.length mask = 0 then b else b land bit (not mask.(p))

let[@inline] float_bit (a : float array) (mask : bool array) nan (lo : float) hi p =
  let x = a.(p) in
  (* [x = x] fails only at NaN *)
  let b = if x = x then bit (lo <= x) land bit (x <= hi) else bit nan in
  if Array.length mask = 0 then b else b land bit (not mask.(p))

let[@inline] code_bit (codes : int array) pass p = Char.code (Bytes.get pass (codes.(p) + 1))

(* A kernel no row can pass: its group selects nothing. *)
let selects_nothing = function
  | K_ints { lo; hi; _ } -> lo > hi
  | K_floats { nan; lo; hi; _ } -> (not nan) && lo > hi
  | K_codes { pass; _ } -> not (Bytes.contains pass '\001')
  | K_test _ -> false

(* [k] as a per-row test, for groups that also hold generic conjuncts. *)
let kernel_test : kernel -> int -> bool = function
  | K_ints { lo; hi; _ } when lo > hi -> fun _ -> false
  | K_ints { a; mask; lo; hi } ->
      let span = (hi - lo) lxor min_int in
      fun p -> int_bit a mask lo span p = 1
  | K_floats { a; mask; nan; lo; hi } -> fun p -> float_bit a mask nan lo hi p = 1
  | K_codes { codes; pass } -> fun p -> code_bit codes pass p = 1
  | K_test f -> f

(* column-vs-literal comparison: SQL 3-valued — NULL operand drops the row *)
let col_vs_lit (col : Chunk.col) op (lit : Value.t) : pred option =
  let nn = not_null_fn col in
  let mask = Option.value col.Chunk.nulls ~default:[||] in
  let const_rank () =
    (* ranks differ for every non-NULL cell, so the comparison is constant *)
    if Value.is_null lit then Some (p_test (fun _ -> false))
    else begin
      let c = compare (col_rank col.Chunk.data) (lit_rank lit) in
      if test_op op c then Some (p_test nn) else Some (p_test (fun _ -> false))
    end
  in
  (* [range op] is the kernel for [op]; [<>] is not a range, but the
     complement of [=]'s *)
  let numeric range =
    if op = Ast.Neq then begin
      let eq = kernel_test (range Ast.Eq) in
      Some (p_test (fun p -> nn p && not (eq p)))
    end
    else Some (P_kernel (range op))
  in
  match (col.Chunk.data, lit) with
  | Chunk.Boxed, _ -> None
  | Chunk.Ints a, (Value.Int _ | Value.Float _) ->
      numeric (fun op ->
          let lo, hi = int_range op lit in
          K_ints { a; mask; lo; hi })
  | Chunk.Floats a, (Value.Int _ | Value.Float _) ->
      numeric (fun op ->
          let nan, (lo, hi) = float_range op lit in
          K_floats { a; mask; nan; lo; hi })
  | Chunk.Strings s, Value.String v -> Some (P_dict (s, (op, v)))
  | (Chunk.Ints _ | Chunk.Floats _ | Chunk.Strings _), _ -> const_rank ()

let col_vs_col (ca : Chunk.col) op (cb : Chunk.col) : pred option =
  let nna = not_null_fn ca and nnb = not_null_fn cb in
  match (ca.Chunk.data, cb.Chunk.data) with
  | Chunk.Boxed, _ | _, Chunk.Boxed -> None
  | Chunk.Ints a, Chunk.Ints b ->
      Some (p_test (fun p -> nna p && nnb p && test_op op (compare a.(p) b.(p))))
  | Chunk.Floats a, Chunk.Floats b ->
      Some (p_test (fun p -> nna p && nnb p && test_op op (compare (a.(p) : float) b.(p))))
  | Chunk.Ints a, Chunk.Floats b ->
      Some (p_test (fun p -> nna p && nnb p && test_op op (compare (float_of_int a.(p)) b.(p))))
  | Chunk.Floats a, Chunk.Ints b ->
      Some
        (p_test (fun p ->
             nna p && nnb p && test_op op (compare (a.(p) : float) (float_of_int b.(p)))))
  | Chunk.Strings a, Chunk.Strings b ->
      Some
        (p_test (fun p ->
             a.Chunk.codes.(p) >= 0
             && b.Chunk.codes.(p) >= 0
             && test_op op (compare (a.Chunk.vals.(p) : string) b.Chunk.vals.(p))))
  | da, db ->
      (* distinct typed ranks: constant comparison wherever both non-NULL *)
      let c = compare (col_rank da) (col_rank db) in
      if test_op op c then Some (p_test (fun p -> nna p && nnb p))
      else Some (p_test (fun _ -> false))

(* Subquery hook for compiled predicates and aggregates. Recognition already
   rejected subqueries, so it never runs. It declines only when applied to a
   row, not when {!Compiled.compile} stages it, so staging cannot change
   which plans are accepted. *)
let no_subquery_fn : Compiled.subquery = fun _ _ -> fallback ()

(* Compile one conjunct into a per-physical-row predicate for table [t]. *)
let compile_pred ctx t (e : Ast.expr) : pred =
  let chunk = ctx.chunks.(t) in
  let col_of c = chunk.Chunk.cols.(ctx.col_off.(resolve_in ctx t c)) in
  let typed =
    match e with
    | Ast.Binop (((Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op), a, b) -> (
        match (a, b) with
        | Ast.Col c, Ast.Lit l -> col_vs_lit (col_of c) op (value_of_lit l)
        | Ast.Lit l, Ast.Col c -> col_vs_lit (col_of c) (flip_op op) (value_of_lit l)
        | Ast.Col c1, Ast.Col c2 -> col_vs_col (col_of c1) op (col_of c2)
        | _ -> None)
    | Ast.Is_null { subject = Ast.Col c; negated } ->
        let ci = resolve_in ctx t c in
        let col = chunk.Chunk.cols.(ctx.col_off.(ci)) in
        let isnull =
          match col.Chunk.data with
          | Chunk.Strings s -> fun p -> s.Chunk.codes.(p) < 0
          | Chunk.Boxed ->
              let rows = chunk.Chunk.rows and off = ctx.col_off.(ci) in
              fun p -> Value.is_null rows.(p).(off)
          | _ -> (
              match col.Chunk.nulls with
              | None -> fun _ -> false
              | Some m -> fun p -> m.(p))
        in
        Some (p_test (if negated then fun p -> not (isnull p) else isnull))
    | _ -> None
  in
  match typed with
  | Some p -> p
  | None ->
      (* generic: compile against the combined headers, evaluate over a
         scratch row filled with just this conjunct's columns *)
      let needed =
        List.map
          (fun c ->
            let ci = resolve_in ctx t c in
            (ci, ctx.col_off.(ci)))
          (Ast.expr_columns e)
      in
      let closure =
        Compiled.compile ~subquery:no_subquery_fn ~headers:ctx.headers ~outer:[] e
      in
      let scratch = Array.make (Array.length ctx.headers) Value.Null in
      let rows = chunk.Chunk.rows in
      P_generic
        (fun p ->
          List.iter (fun (ci, off) -> scratch.(ci) <- rows.(p).(off)) needed;
          closure scratch)

(* All the tests of a group on one string column as one kernel, making no
   more string comparisons than per-row tests would. An [=] finds its
   literal's code with one lookup, and only that entry can pass; a [<>]
   drops its literal's code the same way. Range tests run once per entry of
   a pass table when the dictionary is no larger than the group's input,
   and per row otherwise. *)
let dict_kernel ~rows ((s : Chunk.strings), tests) =
  let codes = s.Chunk.codes and dict = s.Chunk.dict in
  let codes_of op =
    List.filter_map (fun (o, v) -> if o = op then Some (Chunk.dict_code s v) else None) tests
  in
  let dropped = List.filter_map Fun.id (codes_of Ast.Neq) in
  let ranges = List.filter (fun (op, _) -> op <> Ast.Eq && op <> Ast.Neq) tests in
  (* per entry or row: no closure allocated *)
  let rec mem (c : int) = function [] -> false | d :: rest -> c = d || mem c rest in
  let kept c = c >= 0 && not (mem c dropped) in
  let rec pass_all v = function
    | [] -> true
    | (op, lit) :: rest -> test_op op (compare (v : string) lit) && pass_all v rest
  in
  let in_range v = pass_all v ranges in
  match codes_of Ast.Eq with
  | Some c :: rest when List.for_all (( = ) (Some c)) rest && kept c && in_range dict.(c) ->
      K_ints { a = codes; mask = [||]; lo = c; hi = c }
  | _ :: _ ->
      (* the entry fails another test, a literal is absent from the
         dictionary, or two literals differ *)
      K_ints { a = codes; mask = [||]; lo = 1; hi = 0 }
  | [] when Array.length dict <= rows ->
      let pass = Bytes.make (Array.length dict + 1) '\000' in
      Array.iteri (fun c v -> if kept c && in_range v then Bytes.set pass (c + 1) '\001') dict;
      K_codes { codes; pass }
  | [] -> K_test (fun p -> kept codes.(p) && in_range s.Chunk.vals.(p))

(* A group's typed conjuncts as kernels over [rows] input rows: the ranges,
   then one per string column, then the closures. *)
let kernels_of ~rows preds =
  let rec add_dict s t = function
    | [] -> [ (s, [ t ]) ]
    | (s', ts) :: rest when s' == s -> (s', ts @ [ t ]) :: rest
    | d :: rest -> d :: add_dict s t rest
  in
  let ranges, dicts, tests =
    List.fold_left
      (fun (r, d, t) -> function
        | P_kernel (K_test _ as k) -> (r, d, k :: t)
        | P_kernel k -> (k :: r, d, t)
        | P_dict (s, test) -> (r, add_dict s test d, t)
        | P_generic _ -> (r, d, t))
      ([], [], []) preds
  in
  List.rev ranges @ List.map (dict_kernel ~rows) dicts @ List.rev tests

(* How many of the rows [src.(lo..hi-1)] (physical rows [lo..hi-1] when
   [ident]) pass [k]. Here and in [select], [k] is not {!selects_nothing}:
   an int range's [span] needs [lo <= hi]. *)
let count k ~ident (src : int array) lo hi =
  let w = ref 0 in
  (match k with
  | K_ints { a; mask; lo = l; hi = h } ->
      let span = (h - l) lxor min_int in
      for i = lo to hi - 1 do
        w := !w + int_bit a mask l span (if ident then i else src.(i))
      done
  | K_floats { a; mask; nan; lo = l; hi = h } ->
      for i = lo to hi - 1 do
        w := !w + float_bit a mask nan l h (if ident then i else src.(i))
      done
  | K_codes { codes; pass } ->
      for i = lo to hi - 1 do
        w := !w + code_bit codes pass (if ident then i else src.(i))
      done
  | K_test f ->
      for i = lo to hi - 1 do
        w := !w + bit (f (if ident then i else src.(i)))
      done);
  !w

(* The same rows that pass [k], compacted into [out] from index 0 until it is
   full; returns how many were kept. Every row is stored at the cursor,
   which only a passing row advances. [out] may be [src]: the cursor never
   overtakes the read position. *)
let select k ~ident (src : int array) lo hi (out : int array) =
  let w = ref 0 and i = ref lo and cap = Array.length out in
  (match k with
  | K_ints { a; mask; lo = l; hi = h } ->
      let span = (h - l) lxor min_int in
      while !i < hi && !w < cap do
        let p = if ident then !i else src.(!i) in
        out.(!w) <- p;
        w := !w + int_bit a mask l span p;
        incr i
      done
  | K_floats { a; mask; nan; lo = l; hi = h } ->
      while !i < hi && !w < cap do
        let p = if ident then !i else src.(!i) in
        out.(!w) <- p;
        w := !w + float_bit a mask nan l h p;
        incr i
      done
  | K_codes { codes; pass } ->
      while !i < hi && !w < cap do
        let p = if ident then !i else src.(!i) in
        out.(!w) <- p;
        w := !w + code_bit codes pass p;
        incr i
      done
  | K_test f ->
      while !i < hi && !w < cap do
        let p = if ident then !i else src.(!i) in
        out.(!w) <- p;
        w := !w + bit (f p);
        incr i
      done);
  !w

(* Apply one predicate group to the surviving physical rows of a table.
   A group with a generic conjunct runs row by row and sequentially, its
   conjuncts sharing a compiled scratch row: every generic conjunct is
   evaluated on every input row — the row engine's AND evaluates all
   operands before combining, so its error/3-valued behaviour depends on all
   of them — while typed ones may short-circuit each other. An all-typed
   group runs as kernels, morsel-parallel over the input (order-preserving
   concat). Each morsel runs its kernels in turn: the first counts its
   survivors and fills an array of exactly that size (a closure, too dear
   to run twice, fills a morsel-sized one), later ones compact that array
   in place, so a morsel allocates only for survivors. *)
let apply_group pool (chunk : Chunk.t) (sel : int array option) (conjs : Ast.expr list)
    ~strict ~(compile : Ast.expr -> pred) : int array option =
  let nin = match sel with None -> chunk.Chunk.n | Some s -> Array.length s in
  let preds = List.map compile conjs in
  let kernels = kernels_of ~rows:nin preds in
  let gens = Array.of_list (List.filter_map (function P_generic g -> Some g | _ -> None) preds) in
  if Array.length gens > 0 then begin
    let typed = Array.of_list (List.map kernel_test kernels) in
    let rec passes k p = k >= Array.length typed || (typed.(k) p && passes (k + 1) p) in
    let keep p =
      let ok = ref (passes 0 p) in
      for k = 0 to Array.length gens - 1 do
        match gens.(k) p with
        | Value.Bool true -> ()
        | Value.Bool false | Value.Null -> ok := false
        | _ ->
            (* the row engine's AND raises on non-boolean operands; a lone
               conjunct just falls to is_truthy = false *)
            if strict then fallback () else ok := false
      done;
      !ok
    in
    let out = Array.make nin 0 and w = ref 0 in
    for i = 0 to nin - 1 do
      let p = match sel with None -> i | Some s -> s.(i) in
      if keep p then begin
        out.(!w) <- p;
        incr w
      end
    done;
    Some (if !w = nin then out else Array.sub out 0 !w)
  end
  else if List.exists selects_nothing kernels then Some [||]
  else begin
    let ks = Array.of_list kernels in
    let ident, src = match sel with None -> (true, [||]) | Some s -> (false, s) in
    let chunkf lo hi =
      let buf =
        match ks.(0) with
        | K_test _ ->
            (* a closure is too dear to run twice *)
            Array.make (hi - lo) 0
        | k -> Array.make (count k ~ident src lo hi) 0
      in
      let w = ref (select ks.(0) ~ident src lo hi buf) in
      for j = 1 to Array.length ks - 1 do
        w := select ks.(j) ~ident:false buf 0 !w buf
      done;
      if !w = Array.length buf then buf else Array.sub buf 0 !w
    in
    match Parallel.gather pool nin chunkf with
    | None -> Some (chunkf 0 nin)
    | Some parts -> Some (Array.concat (Array.to_list parts))
  end

let selection_of ctx t (s : step) : int array option =
  let compile = compile_pred ctx t in
  List.fold_left
    (fun sel (conjs, strict) ->
      apply_group ctx.pool ctx.chunks.(t) sel conjs ~strict ~compile)
    None s.s_groups

(* --- hash equijoin ---------------------------------------------------------- *)

let small_int v = v > -two_53 && v < two_53

module Str_table = Hashtbl.Make (String)

(* Rows [0, n) by bucket, stably: bucket [b]'s rows are [items.(starts.(b))]
   up to [items.(starts.(b + 1) - 1)], each mapped through [row] ([None] =
   identity). Row [i] is in bucket [bkt.(i) - off]; a negative one is in
   none. The rows themselves are listed only on demand, by a counting sort
   that needs no cursor array: filling from the last row down with
   [starts.(b + 1)] as bucket [b]'s falling cursor leaves it at the bucket's
   start, and one shift restores [starts]. Force [items] before reading
   [starts] from another domain. *)
let by_bucket ~nbk ~n (bkt : int array) ~off (row : int array option) =
  let starts = Array.make (nbk + 1) 0 in
  for i = 0 to n - 1 do
    let b = bkt.(i) - off in
    if b >= 0 then starts.(b + 1) <- starts.(b + 1) + 1
  done;
  for b = 1 to nbk do
    starts.(b) <- starts.(b) + starts.(b - 1)
  done;
  let items =
    lazy
      (let items = Array.make starts.(nbk) 0 in
       for i = n - 1 downto 0 do
         let b = bkt.(i) - off in
         if b >= 0 then begin
           let pos = starts.(b + 1) - 1 in
           starts.(b + 1) <- pos;
           items.(pos) <- (match row with None -> i | Some r -> r.(i))
         end
       done;
       for b = 0 to nbk - 1 do
         starts.(b) <- starts.(b + 1)
       done;
       starts.(nbk) <- Array.length items;
       items)
  in
  (starts, items)

(* An equijoin's key matching, shared by the join ({!join_step}) and the join
   count ({!count_slab}): one bucket per key. The build side, ascending, is
   [nk] rows; row [q] is physical row [bphys.(q)] ([None] = [q]) in bucket
   [bkey.(q) - off] (negative: a NULL key, in none), and [starts]/[items]
   list the rows bucket by bucket ({!by_bucket}). [probe buf lo hi] writes
   the buckets of probe rows [lo, hi) to [buf.(0)] on, [-1] for none. *)
type keys = {
  nbk : int;
  nk : int;
  bkey : int array;
  off : int;
  bphys : int array option;
  starts : int array;
  items : int array Lazy.t;
  np : int;
  probe : int array -> int -> int -> unit;
}

(* Probe rows [lo, hi) a block at a time into one small buffer: [f buf l n]
   for each block of rows [l, l + n), in order, row [l + j]'s bucket in
   [buf.(j)]. *)
let probe_blocks (k : keys) ~lo ~hi f =
  let buf = Array.make 256 0 in
  let l = ref lo in
  while !l < hi do
    let h = min hi (!l + 256) in
    k.probe buf !l h;
    f buf !l (h - !l);
    l := h
  done

(* [f i b] for each probe row [i] in order whose bucket is [b]. *)
let iter_probe (k : keys) f =
  probe_blocks k ~lo:0 ~hi:k.np (fun buf l n ->
      for j = 0 to n - 1 do
        let b = buf.(j) in
        if b >= 0 then f (l + j) b
      done)

(* Bucket the build side, table [bt]'s filtered rows, on its column
   [build_off], and look up every probe row of [slab] on [probe_ci].
   Strategy selection replicates the row join: dense counting-sort buckets
   for small-int keys in a modest range, then an unboxed int-keyed table, a
   string table (scalar-keyed in the row engine, but only strings can match
   a string column), or the boxed scalar table. A table numbers its keys in
   first appearance. *)
let key_buckets ctx (slab : slab) ~bt ~probe_ci ~build_off (bsel : int array option) : keys =
  let bchunk = ctx.chunks.(bt) in
  let bcol = bchunk.Chunk.cols.(build_off) in
  let nb = match bsel with None -> bchunk.Chunk.n | Some s -> Array.length s in
  let bphys_of q = match bsel with None -> q | Some s -> s.(q) in
  let pt = ctx.col_tbl.(probe_ci) in
  let pcol = ctx.chunks.(pt).Chunk.cols.(ctx.col_off.(probe_ci)) in
  let pphys = phys_of slab pt in
  let pnn = not_null_fn pcol in
  let pfetch = fetcher ctx slab probe_ci in
  let keys ~nbk ~nk bkey ~off bphys probe =
    let starts, items = by_bucket ~nbk ~n:nk bkey ~off bphys in
    { nbk; nk; bkey; off; bphys; starts; items; np = slab.n; probe }
  in
  let hashed (type k) (module H : Hashtbl.S with type key = k) ~n (key : int -> k option)
      (bphys : int array option) (probe_key : int -> k option) =
    let tbl = H.create (max 16 n) in
    let bkey =
      Array.init n (fun q ->
          match key q with
          | None -> -1
          | Some k -> (
              match H.find_opt tbl k with
              | Some b -> b
              | None ->
                  let b = H.length tbl in
                  H.replace tbl k b;
                  b))
    in
    keys ~nbk:(H.length tbl) ~nk:n bkey ~off:0 bphys (fun buf lo hi ->
        for i = lo to hi - 1 do
          buf.(i - lo) <-
            (match probe_key i with
            | None -> -1
            | Some k -> ( match H.find_opt tbl k with Some b -> b | None -> -1))
        done)
  in
  (* probe-side key extraction mirroring Row_table.int_key_of *)
  let probe_int : int -> int option =
    match pcol.Chunk.data with
    | Chunk.Ints a ->
        fun i ->
          let p = pphys i in
          if pnn p && small_int a.(p) then Some a.(p) else None
    | Chunk.Floats _ | Chunk.Boxed ->
        fun i ->
          let v = pfetch i in
          if Value.is_null v then None else Row_table.int_key_of v
    | Chunk.Strings _ -> fun _ -> None
  in
  let probe_value i =
    let v = pfetch i in
    if Value.is_null v then None else Some v
  in
  match bcol.Chunk.data with
  | Chunk.Ints a ->
      (* the build rows with a key, ascending; monomorphic. An unselected
         null-free column is its own key array ([kphys] = identity, no
         copies at all). *)
      let bkey, kphys, nk =
        match (bsel, bcol.Chunk.nulls) with
        | None, None -> (a, None, bchunk.Chunk.n)
        | _, mask ->
            let mask = Option.value mask ~default:[||] in
            let bkey = Array.make (max nb 1) 0 and kp = Array.make (max nb 1) 0 in
            let nk = ref 0 in
            for q = 0 to nb - 1 do
              let p = match bsel with None -> q | Some s -> s.(q) in
              if Array.length mask = 0 || not mask.(p) then begin
                bkey.(!nk) <- a.(p);
                kp.(!nk) <- p;
                incr nk
              end
            done;
            (bkey, Some kp, !nk)
      in
      let all_small = ref true in
      let lo = ref max_int and hi = ref min_int in
      for q = 0 to nk - 1 do
        let v = bkey.(q) in
        if not (small_int v) then all_small := false;
        if v < !lo then lo := v;
        if v > !hi then hi := v
      done;
      let lo = !lo and hi = !hi in
      let range = if nk = 0 then 0 else hi - lo + 1 in
      if not !all_small then
        (* the row engine would use the boxed scalar table *)
        hashed (module Row_table.Scalar) ~n:nk (fun q -> Some (Value.Int bkey.(q))) kphys probe_value
      else if range > 0 && range <= max 1024 (8 * nb) then
        (* dense id keys: a bucket per value in [lo, hi], no hashing at all.
           [lo..hi] are small ints, so any probe key inside the range passes
           Row_table's small-int guard for free. *)
        keys ~nbk:range ~nk bkey ~off:lo kphys
          (match pcol.Chunk.data with
          | Chunk.Ints pa ->
              let mask = Option.value pcol.Chunk.nulls ~default:[||] in
              let pmap = map_of slab pt in
              fun buf plo phi ->
                for i = plo to phi - 1 do
                  let p = match pmap with None -> i | Some m -> m.(i) in
                  let k = pa.(p) in
                  buf.(i - plo) <-
                    (if (Array.length mask = 0 || not mask.(p)) && k >= lo && k <= hi then
                       k - lo
                     else -1)
                done
          | _ ->
              fun buf plo phi ->
                for i = plo to phi - 1 do
                  buf.(i - plo) <-
                    (match probe_int i with Some k when k >= lo && k <= hi -> k - lo | _ -> -1)
                done)
      else hashed (module Row_table.Int_key) ~n:nk (fun q -> Some bkey.(q)) kphys probe_int
  | Chunk.Strings s ->
      hashed
        (module Str_table)
        ~n:nb
        (fun q ->
          let p = bphys_of q in
          if s.Chunk.codes.(p) >= 0 then Some s.Chunk.vals.(p) else None)
        bsel
        (match pcol.Chunk.data with
        | Chunk.Strings ps ->
            fun i ->
              let p = pphys i in
              if ps.Chunk.codes.(p) >= 0 then Some ps.Chunk.vals.(p) else None
        | Chunk.Boxed -> (
            fun i -> match pfetch i with Value.String s -> Some s | _ -> None)
        | _ -> fun _ -> None)
  | Chunk.Floats _ | Chunk.Boxed ->
      let rows = bchunk.Chunk.rows in
      hashed (module Row_table.Scalar) ~n:nb
        (fun q ->
          let v = rows.(bphys_of q).(build_off) in
          if Value.is_null v then None else Some v)
        bsel probe_value

(* Join the accumulated slab (probe side, logical row order preserved) with
   table [bt]'s filtered rows (build side) on [probe_ci = build col]. The
   candidate order per key is the build side's ascending row order and the
   output follows the probe scan — exactly the row engine's hash join. *)
let join_step ctx (slab : slab) ~bt ~probe_ci ~build_off (bsel : int array option) : slab =
  let k = key_buckets ctx slab ~bt ~probe_ci ~build_off bsel in
  let starts = k.starts and items = Lazy.force k.items in
  (* a counting probe, then a probe filling arrays of exactly that size *)
  let chunkf lo hi =
    let total = ref 0 in
    probe_blocks k ~lo ~hi (fun buf _ n ->
        for j = 0 to n - 1 do
          let b = buf.(j) in
          if b >= 0 then total := !total + starts.(b + 1) - starts.(b)
        done);
    let op = Array.make !total 0 and ob = Array.make !total 0 in
    let w = ref 0 in
    probe_blocks k ~lo ~hi (fun buf l n ->
        for j = 0 to n - 1 do
          let b = buf.(j) in
          if b >= 0 then
            for q = starts.(b) to starts.(b + 1) - 1 do
              op.(!w) <- l + j;
              ob.(!w) <- items.(q);
              incr w
            done
        done);
    (op, ob)
  in
  let opa, oba =
    match Parallel.gather ctx.pool slab.n chunkf with
    | None -> chunkf 0 slab.n
    | Some parts ->
        ( Array.concat (List.map fst (Array.to_list parts)),
          Array.concat (List.map snd (Array.to_list parts)) )
  in
  let n_out = Array.length opa in
  let maps = Array.make (Array.length ctx.chunks) (Lazy.from_val None) in
  for t = 0 to bt - 1 do
    maps.(t) <-
      lazy
        (Some
           (match map_of slab t with
           | None -> opa
           | Some m ->
               let r = Array.make n_out 0 in
               for i = 0 to n_out - 1 do
                 r.(i) <- m.(Array.unsafe_get opa i)
               done;
               r))
  done;
  maps.(bt) <- Lazy.from_val (Some oba);
  { n = n_out; maps }

(* --- filter + join pipeline ------------------------------------------------- *)

(* Attach predicates to their tables as groups. [prefix] limits resolution
   to the first [prefix] tables (plan Filters above a join subtree compile
   against that prefix relation in the row engine). *)
let attach ctx (steps : step array) ?prefix (e : Ast.expr) =
  let headers =
    match prefix with
    | None -> ctx.headers
    | Some p ->
        let stop =
          if p >= Array.length steps then Array.length ctx.headers else ctx.tbl_start.(p)
        in
        Array.sub ctx.headers 0 stop
  in
  let conjs = Ast.conjuncts e in
  let strict = List.length conjs > 1 in
  let by_table = Array.make (Array.length steps) [] in
  List.iter
    (fun c ->
      plain_expr c;
      let tids =
        List.map
          (fun cr ->
            match Compiled.resolve_opt headers cr with
            | Some ci -> ctx.col_tbl.(ci)
            | None -> fallback ())
          (Ast.expr_columns c)
      in
      let t =
        match List.sort_uniq compare tids with
        | [] -> 0
        | [ t ] -> t
        | _ -> fallback () (* cross-table conjunct: row path only *)
      in
      by_table.(t) <- c :: by_table.(t))
    conjs;
  Array.iteri
    (fun t cs ->
      if cs <> [] then steps.(t).s_groups <- steps.(t).s_groups @ [ (List.rev cs, strict) ])
    by_table

(* Resolve each step's ON condition to a single (prefix col, build col)
   equality, replicating the row engine's split_join_condition orientation
   (left-hand resolution against the prefix tried first). *)
let join_keys ctx (steps : step array) =
  Array.mapi
    (fun t (s : step) ->
      if t = 0 then begin
        (match s.s_cond with Some _ -> fallback () | None -> ());
        None
      end
      else begin
        let e = match s.s_cond with Some e -> e | None -> fallback () in
        let prefix = Array.sub ctx.headers 0 ctx.tbl_start.(t) in
        let width =
          (if t + 1 < Array.length steps then ctx.tbl_start.(t + 1)
           else Array.length ctx.headers)
          - ctx.tbl_start.(t)
        in
        let mine = Array.sub ctx.headers ctx.tbl_start.(t) width in
        match Ast.conjuncts e with
        | [ Ast.Binop (Ast.Eq, Ast.Col a, Ast.Col b) ] -> (
            match (Compiled.resolve_opt prefix a, Compiled.resolve_opt mine b) with
            | Some li, Some ri -> Some (li, ri)
            | _ -> (
                match (Compiled.resolve_opt prefix b, Compiled.resolve_opt mine a) with
                | Some li, Some ri -> Some (li, ri)
                | _ -> fallback ()))
        | _ -> fallback ()
      end)
    steps

(* A build-left join hashes the prefix and probes table [bt], so the row
   engine emits table [bt]'s rows ascending and, within each, its prefix
   matches in logical order. [join_step] finds the same matches (key
   equality does not depend on which side is hashed) prefix-major; a stable
   counting sort of the logical rows on table [bt]'s physical row restores
   the build-left order. The permutation is composed into each joined
   table's map lazily, so a result that reads no column never sorts. *)
let build_left_order ctx (slab : slab) ~bt : slab =
  let perm =
    lazy
      (let rows_of = Option.get (map_of slab bt) in
       let starts = Array.make (ctx.chunks.(bt).Chunk.n + 1) 0 in
       for i = 0 to slab.n - 1 do
         let b = rows_of.(i) + 1 in
         starts.(b) <- starts.(b) + 1
       done;
       for b = 1 to Array.length starts - 1 do
         starts.(b) <- starts.(b) + starts.(b - 1)
       done;
       let perm = Array.make slab.n 0 in
       for i = 0 to slab.n - 1 do
         let b = rows_of.(i) in
         perm.(starts.(b)) <- i;
         starts.(b) <- starts.(b) + 1
       done;
       perm)
  in
  let maps =
    Array.mapi
      (fun t m ->
        if t > bt then m
        else
          lazy
            (let m = Option.get (Lazy.force m) and perm = Lazy.force perm in
             Some (Array.map (fun i -> Array.unsafe_get m i) perm)))
      slab.maps
  in
  { slab with maps }

(* The first table's filtered rows, as the slab joins start from. *)
let scan_slab ctx (sels : int array option array) : slab =
  let maps = Array.make (Array.length sels) (Lazy.from_val None) in
  maps.(0) <- Lazy.from_val sels.(0);
  { n = (match sels.(0) with None -> ctx.chunks.(0).Chunk.n | Some s -> Array.length s); maps }

let build_slab ctx (steps : step array) : slab =
  let sels = Array.mapi (fun t s -> selection_of ctx t s) steps in
  let keys = join_keys ctx steps in
  let slab = ref (scan_slab ctx sels) in
  for t = 1 to Array.length steps - 1 do
    match keys.(t) with
    | None -> fallback ()
    | Some (li, ri) ->
        slab := join_step ctx !slab ~bt:t ~probe_ci:li ~build_off:(ri + 0) sels.(t);
        if steps.(t).s_build_left then slab := build_left_order ctx !slab ~bt:t
  done;
  !slab

(* --- join counts ------------------------------------------------------------ *)

(* COUNT( * ) over a two-table equijoin without building it. The join output
   is its ordering side's rows in order — the probe table's logical rows, or
   the joined table's rows ascending when the plan builds left — each
   followed by the other side's rows of the same key in their order. The
   keys are {!key_buckets}', so equality is the join's. [count_slab] returns
   rows of table [gt] in the order they first appear in that output, each
   weighted by the join rows it stands for; grouping them ({!run_grouped}
   with [weights]) gives the join's groups, in its order, with its counts.
   Without [gt] it is one row weighted by the join's size, or none. The
   other table's map is never read. *)
let count_slab ctx (steps : step array) ~(gt : int option) : slab * int array =
  let sels = Array.mapi (fun t s -> selection_of ctx t s) steps in
  let li, ri = match (join_keys ctx steps).(1) with Some k -> k | None -> fallback () in
  let k = key_buckets ctx (scan_slab ctx sels) ~bt:1 ~probe_ci:li ~build_off:ri sels.(1) in
  let size b = k.starts.(b + 1) - k.starts.(b) in
  let rows = Vec.create () and weights = Vec.create () in
  let push r w =
    Vec.push rows r;
    Vec.push weights w
  in
  let phys sel i = match sel with None -> i | Some s -> s.(i) in
  (match (gt, steps.(1).s_build_left) with
  | None, _ ->
      let total = ref 0 in
      iter_probe k (fun _ b -> total := !total + size b);
      if !total > 0 then push 0 !total
  | Some 0, false ->
      (* the probe rows that match, in order *)
      iter_probe k (fun i b ->
          let c = size b in
          if c > 0 then push (phys sels.(0) i) c)
  | Some _, false ->
      (* a bucket's build rows at its first hit, weighted by its hits *)
      let hits = Array.make k.nbk 0 and order = Vec.create () in
      iter_probe k (fun _ b ->
          if hits.(b) = 0 then Vec.push order b;
          hits.(b) <- hits.(b) + 1);
      let items = Lazy.force k.items in
      Vec.iter
        (fun b ->
          for q = k.starts.(b) to k.starts.(b + 1) - 1 do
            push items.(q) hits.(b)
          done)
        order
  | Some 1, true ->
      (* the build rows that match, ascending *)
      let hits = Array.make k.nbk 0 in
      iter_probe k (fun _ b -> hits.(b) <- hits.(b) + 1);
      for q = 0 to k.nk - 1 do
        let b = k.bkey.(q) - k.off in
        if b >= 0 && hits.(b) > 0 then push (phys k.bphys q) hits.(b)
      done
  | Some _, true ->
      (* a bucket's probe rows at its first build row, weighted by its size *)
      let pb = Array.make k.np 0 in
      k.probe pb 0 k.np;
      let pstarts, pitems = by_bucket ~nbk:k.nbk ~n:k.np pb ~off:0 sels.(0) in
      let pitems = Lazy.force pitems and seen = Array.make k.nbk false in
      for q = 0 to k.nk - 1 do
        let b = k.bkey.(q) - k.off in
        if b >= 0 && not seen.(b) then begin
          seen.(b) <- true;
          for r = pstarts.(b) to pstarts.(b + 1) - 1 do
            push pitems.(r) (size b)
          done
        end
      done);
  let maps =
    Array.init 2 (fun t ->
        if gt = Some t then Lazy.from_val (Some (Vec.to_array rows)) else lazy (fallback ()))
  in
  ({ n = Vec.length rows; maps }, Vec.to_array weights)

(* --- projection / aggregation tails ------------------------------------------ *)

(* Expanded projections must all be plain column references for the
   column-fetch materialiser; anything else falls back to the row path. *)
let projection_cols ctx (projections : (Ast.expr * string) list) : int array =
  Array.of_list
    (List.map
       (fun (e, _) ->
         match e with
         | Ast.Col c -> (
             plain_expr e;
             match Compiled.resolve_opt ctx.headers c with
             | Some ci -> ci
             | None -> fallback ())
         | _ -> fallback ())
       projections)

(* Materialise output rows for the given logical rows (identity when
   [order] is [None]), replicating the row engine's fresh-array projection.
   When the projection is the identity over a single table, output rows
   share the table's row arrays (structurally identical, zero copying). *)
let materialize ctx (slab : slab) (proj : int array) ~(order : int array option) ~start
    ~take : Value.t array Vec.t =
  let w = Array.length proj in
  let identity =
    Array.length ctx.chunks = 1
    && w = Array.length ctx.headers
    && Array.for_all2 (fun a b -> a = b) proj (Array.init w (fun i -> i))
  in
  if identity then begin
    let rows = ctx.chunks.(0).Chunk.rows in
    let make : int -> Value.t array =
      match (order, map_of slab 0) with
      | None, None -> fun k -> rows.(start + k)
      | None, Some m -> fun k -> rows.(m.(start + k))
      | Some o, None -> fun k -> rows.(o.(start + k))
      | Some o, Some m -> fun k -> rows.(m.(o.(start + k)))
    in
    match
      Parallel.gather ctx.pool take (fun lo hi ->
          Array.init (hi - lo) (fun k -> make (lo + k)))
    with
    | None -> Vec.wrap (Array.init take make)
    | Some parts -> Vec.of_arrays parts
  end
  else begin
    (* Wide projections (the equijoin SELECT-* shape) materialise
       column-at-a-time from the selection vectors: gather each source
       table's physical row indices for the output window once, then fill
       each output column with a tight loop over the chunk's typed array.
       Ints/Floats box straight off the flat array (the same bits the row
       holds, and a sequential read instead of a pointer chase through
       scattered row arrays); Strings share one pre-boxed Value per
       dictionary entry, so repeated join keys allocate nothing; Boxed and
       mixed columns keep reading through the rows. Results are structurally
       identical to the row path — same values, same order. *)
    let boxed_dicts : (int * int, Value.t array) Hashtbl.t = Hashtbl.create 4 in
    Array.iter
      (fun ci ->
        let t = ctx.col_tbl.(ci) and off = ctx.col_off.(ci) in
        if not (Hashtbl.mem boxed_dicts (t, off)) then
          match (ctx.chunks.(t).Chunk.cols.(off)).Chunk.data with
          | Chunk.Strings s ->
              (* boxed on the coordinating thread, before any worker reads *)
              Hashtbl.add boxed_dicts (t, off)
                (Array.map (fun v -> Value.String v) s.Chunk.dict)
          | _ -> ())
      proj;
    let fill_cols phys_of lo hi =
      let cnt = hi - lo in
      let out = Array.init cnt (fun _ -> Array.make w Value.Null) in
      let pi_cache : (int, int array) Hashtbl.t = Hashtbl.create 4 in
      let phys_idx t =
        match Hashtbl.find_opt pi_cache t with
        | Some pi -> pi
        | None ->
            let pi : int array = phys_of t lo hi in
            Hashtbl.add pi_cache t pi;
            pi
      in
      for j = 0 to w - 1 do
        let ci = proj.(j) in
        let t = ctx.col_tbl.(ci) and off = ctx.col_off.(ci) in
        let pi = phys_idx t in
        let chunk = ctx.chunks.(t) in
        let col = chunk.Chunk.cols.(off) in
        match (col.Chunk.data, col.Chunk.nulls) with
        | Chunk.Ints a, None ->
            for k = 0 to cnt - 1 do
              out.(k).(j) <- Value.Int a.(pi.(k))
            done
        | Chunk.Ints a, Some nu ->
            for k = 0 to cnt - 1 do
              let i = pi.(k) in
              out.(k).(j) <- (if nu.(i) then Value.Null else Value.Int a.(i))
            done
        | Chunk.Floats a, None ->
            for k = 0 to cnt - 1 do
              out.(k).(j) <- Value.Float a.(pi.(k))
            done
        | Chunk.Floats a, Some nu ->
            for k = 0 to cnt - 1 do
              let i = pi.(k) in
              out.(k).(j) <- (if nu.(i) then Value.Null else Value.Float a.(i))
            done
        | Chunk.Strings s, _ ->
            (* codes carry NULL as -1, so the nulls mask is already folded in *)
            let boxed = Hashtbl.find boxed_dicts (t, off) in
            for k = 0 to cnt - 1 do
              let c = s.Chunk.codes.(pi.(k)) in
              out.(k).(j) <- (if c < 0 then Value.Null else boxed.(c))
            done
        | Chunk.Boxed, _ ->
            let rows = chunk.Chunk.rows in
            for k = 0 to cnt - 1 do
              out.(k).(j) <- rows.(pi.(k)).(off)
            done
      done;
      out
    in
    let phys_direct t lo hi =
      match map_of slab t with
      | None -> Array.init (hi - lo) (fun k -> start + lo + k)
      | Some m -> Array.init (hi - lo) (fun k -> m.(start + lo + k))
    in
    let phys_ordered o t lo hi =
      match map_of slab t with
      | None -> Array.init (hi - lo) (fun k -> o.(start + lo + k))
      | Some m -> Array.init (hi - lo) (fun k -> m.(o.(start + lo + k)))
    in
    (* No ORDER BY: read output rows straight through the lazy maps — no
       per-window gather arrays, just one bounds-free int indirection per
       cell. The per-column [match] on the map is a predictable branch. *)
    let chunkf_direct lo hi =
      let cnt = hi - lo in
      let src j =
        let t = ctx.col_tbl.(proj.(j)) in
        (ctx.chunks.(t).Chunk.rows, map_of slab t, ctx.col_off.(proj.(j)))
      in
      match proj with
      | [| _ |] ->
          let rows0, m0, o0 = src 0 in
          Array.init cnt (fun k ->
              let i = start + lo + k in
              [| (match m0 with None -> rows0.(i) | Some m -> rows0.(m.(i))).(o0) |])
      | [| _; _ |] ->
          let rows0, m0, o0 = src 0 and rows1, m1, o1 = src 1 in
          Array.init cnt (fun k ->
              let i = start + lo + k in
              [|
                (match m0 with None -> rows0.(i) | Some m -> rows0.(m.(i))).(o0);
                (match m1 with None -> rows1.(i) | Some m -> rows1.(m.(i))).(o1);
              |])
      | [| _; _; _ |] ->
          let rows0, m0, o0 = src 0 and rows1, m1, o1 = src 1 in
          let rows2, m2, o2 = src 2 in
          Array.init cnt (fun k ->
              let i = start + lo + k in
              [|
                (match m0 with None -> rows0.(i) | Some m -> rows0.(m.(i))).(o0);
                (match m1 with None -> rows1.(i) | Some m -> rows1.(m.(i))).(o1);
                (match m2 with None -> rows2.(i) | Some m -> rows2.(m.(i))).(o2);
              |])
      | _ -> fill_cols phys_direct lo hi
    in
    (* ORDER BY: gather each source table's row pointers for the output
       window first (monomorphic loops over the order/map variants), then
       build output rows from those pointers. *)
    let chunkf_ordered o lo hi =
      let cnt = hi - lo in
      let rp_cache : (int, Value.t array array) Hashtbl.t = Hashtbl.create 4 in
      let row_ptrs t : Value.t array array =
        match Hashtbl.find_opt rp_cache t with
        | Some rp -> rp
        | None ->
            let rows = ctx.chunks.(t).Chunk.rows in
            let rp =
              match map_of slab t with
              | None -> Array.init cnt (fun k -> rows.(o.(start + lo + k)))
              | Some m -> Array.init cnt (fun k -> rows.(m.(o.(start + lo + k))))
            in
            Hashtbl.add rp_cache t rp;
            rp
      in
      match proj with
      | [| c0 |] ->
          let rp0 = row_ptrs ctx.col_tbl.(c0) and o0 = ctx.col_off.(c0) in
          Array.init cnt (fun k -> [| rp0.(k).(o0) |])
      | [| c0; c1 |] ->
          let rp0 = row_ptrs ctx.col_tbl.(c0) and o0 = ctx.col_off.(c0) in
          let rp1 = row_ptrs ctx.col_tbl.(c1) and o1 = ctx.col_off.(c1) in
          Array.init cnt (fun k -> [| rp0.(k).(o0); rp1.(k).(o1) |])
      | [| c0; c1; c2 |] ->
          let rp0 = row_ptrs ctx.col_tbl.(c0) and o0 = ctx.col_off.(c0) in
          let rp1 = row_ptrs ctx.col_tbl.(c1) and o1 = ctx.col_off.(c1) in
          let rp2 = row_ptrs ctx.col_tbl.(c2) and o2 = ctx.col_off.(c2) in
          Array.init cnt (fun k -> [| rp0.(k).(o0); rp1.(k).(o1); rp2.(k).(o2) |])
      | _ -> fill_cols (phys_ordered o) lo hi
    in
    let chunkf =
      match order with None -> chunkf_direct | Some o -> chunkf_ordered o
    in
    (* force lazy maps on this thread before workers read them *)
    Array.iter (fun ci -> ignore (map_of slab ctx.col_tbl.(ci))) proj;
    match Parallel.gather ctx.pool take chunkf with
    | None -> Vec.wrap (chunkf 0 take)
    | Some parts -> Vec.of_arrays parts
  end

(* --- GROUP BY --------------------------------------------------------------- *)

(* First-appearance group ids over the slab's logical rows. Dense integer /
   dictionary codes avoid hashing; otherwise grouping goes through the same
   Value-keyed tables as the row engine (same equality, same order). *)
let group_ids ctx (slab : slab) (kcis : int list) ~want_rows =
  let n = slab.n in
  let gids = Array.make n 0 in
  let first = Vec.create () in
  let grows : int Vec.t Vec.t = Vec.create () in
  let enter code_tbl i code =
    match code_tbl code with
    | Some g ->
        gids.(i) <- g;
        if want_rows then Vec.push (Vec.unsafe_get grows g) i
    | None ->
        let g = Vec.length first in
        gids.(i) <- g;
        Vec.push first i;
        if want_rows then begin
          let cell = Vec.create () in
          Vec.push cell i;
          Vec.push grows cell
        end
  in
  (* try dense codes: every key column as ints in [0, range), NULL = 0 *)
  let dense_code ci =
    let t = ctx.col_tbl.(ci) in
    let col = ctx.chunks.(t).Chunk.cols.(ctx.col_off.(ci)) in
    let phys = phys_of slab t in
    match col.Chunk.data with
    | Chunk.Strings s ->
        Some ((fun i -> s.Chunk.codes.(phys i) + 1), Array.length s.Chunk.dict + 1)
    | Chunk.Ints a ->
        let nn = not_null_fn col in
        let lo = ref max_int and hi = ref min_int and seen = ref false in
        for i = 0 to n - 1 do
          let p = phys i in
          if nn p then begin
            seen := true;
            if a.(p) < !lo then lo := a.(p);
            if a.(p) > !hi then hi := a.(p)
          end
        done;
        if not !seen then Some ((fun _ -> 0), 1)
        else begin
          let lo = !lo in
          let range = !hi - lo + 2 in
          if range <= max 65536 ((4 * n) + 1) then
            Some
              ( (fun i ->
                  let p = phys i in
                  if nn p then a.(p) - lo + 1 else 0),
                range )
          else None
        end
    | _ -> None
  in
  let dense = lazy (
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | ci :: rest -> ( match dense_code ci with Some c -> go (c :: acc) rest | None -> None)
    in
    match go [] kcis with
    | None -> None
    | Some codes ->
        let total = List.fold_left (fun acc (_, r) -> acc * r) 1 codes in
        if total > 0 && total <= 1 lsl 21 then Some (codes, total) else None)
  in
  (* single dense key: monomorphic loops over the raw code arrays, no
     per-row closures or option boxing. [register] is only called once per
     distinct group, so the hot path is array reads and one branch. *)
  let single_dense =
    match kcis with
    | [ ci ] -> (
        let t = ctx.col_tbl.(ci) in
        let col = ctx.chunks.(t).Chunk.cols.(ctx.col_off.(ci)) in
        let m = map_of slab t in
        let scan_register (idx : int array) i c =
          let g = Vec.length first in
          idx.(c) <- g;
          gids.(i) <- g;
          Vec.push first i;
          if want_rows then begin
            let cell = Vec.create () in
            Vec.push cell i;
            Vec.push grows cell
          end
        in
        match col.Chunk.data with
        | Chunk.Strings str when Array.length str.Chunk.dict + 1 <= 1 lsl 21 ->
            let codes = str.Chunk.codes in
            let idx = Array.make (Array.length str.Chunk.dict + 1) (-1) in
            (match m with
            | None ->
                for i = 0 to n - 1 do
                  let c = codes.(i) + 1 in
                  let g = idx.(c) in
                  if g >= 0 then begin
                    gids.(i) <- g;
                    if want_rows then Vec.push (Vec.unsafe_get grows g) i
                  end
                  else scan_register idx i c
                done
            | Some m ->
                for i = 0 to n - 1 do
                  let c = codes.(m.(i)) + 1 in
                  let g = idx.(c) in
                  if g >= 0 then begin
                    gids.(i) <- g;
                    if want_rows then Vec.push (Vec.unsafe_get grows g) i
                  end
                  else scan_register idx i c
                done);
            true
        | Chunk.Ints a -> (
            let mask = match col.Chunk.nulls with None -> [||] | Some b -> b in
            (* min/max scan over live physical rows, nulls excluded *)
            let lo = ref max_int and hi = ref min_int and seen = ref false in
            (match m with
            | None ->
                if Array.length mask = 0 then begin
                  seen := n > 0;
                  for i = 0 to n - 1 do
                    if a.(i) < !lo then lo := a.(i);
                    if a.(i) > !hi then hi := a.(i)
                  done
                end
                else
                  for i = 0 to n - 1 do
                    if not mask.(i) then begin
                      seen := true;
                      if a.(i) < !lo then lo := a.(i);
                      if a.(i) > !hi then hi := a.(i)
                    end
                  done
            | Some m ->
                for i = 0 to n - 1 do
                  let p = m.(i) in
                  if Array.length mask = 0 || not mask.(p) then begin
                    seen := true;
                    if a.(p) < !lo then lo := a.(p);
                    if a.(p) > !hi then hi := a.(p)
                  end
                done);
            let lo, range = if !seen then (!lo, !hi - !lo + 2) else (0, 1) in
            if range <= max 65536 ((4 * n) + 1) && range <= 1 lsl 21 then begin
              let idx = Array.make range (-1) in
              (match m with
              | None ->
                  if Array.length mask = 0 then
                    for i = 0 to n - 1 do
                      let c = a.(i) - lo + 1 in
                      let g = idx.(c) in
                      if g >= 0 then begin
                        gids.(i) <- g;
                        if want_rows then Vec.push (Vec.unsafe_get grows g) i
                      end
                      else scan_register idx i c
                    done
                  else
                    for i = 0 to n - 1 do
                      let c = if mask.(i) then 0 else a.(i) - lo + 1 in
                      let g = idx.(c) in
                      if g >= 0 then begin
                        gids.(i) <- g;
                        if want_rows then Vec.push (Vec.unsafe_get grows g) i
                      end
                      else scan_register idx i c
                    done
              | Some m ->
                  for i = 0 to n - 1 do
                    let p = m.(i) in
                    let c =
                      if Array.length mask > 0 && mask.(p) then 0 else a.(p) - lo + 1
                    in
                    let g = idx.(c) in
                    if g >= 0 then begin
                      gids.(i) <- g;
                      if want_rows then Vec.push (Vec.unsafe_get grows g) i
                    end
                    else scan_register idx i c
                  done);
              true
            end
            else false)
        | _ -> false)
    | _ -> false
  in
  (if single_dense then ()
  else
  match Lazy.force dense with
  | Some (codes, total) ->
      let idx = Array.make total (-1) in
      let combined i =
        let c = ref 0 in
        List.iter (fun (f, r) -> c := (!c * r) + f i) codes;
        !c
      in
      for i = 0 to n - 1 do
        let c = combined i in
        enter (fun c -> if idx.(c) >= 0 then Some idx.(c) else None) i c;
        if idx.(c) < 0 then idx.(c) <- gids.(i)
      done
  | None -> (
      match kcis with
      | [ ci ] ->
          let f = fetcher ctx slab ci in
          let tbl : int Row_table.Scalar.t = Row_table.Scalar.create 64 in
          for i = 0 to n - 1 do
            let v = f i in
            (match Row_table.Scalar.find_opt tbl v with
            | Some g ->
                gids.(i) <- g;
                if want_rows then Vec.push (Vec.unsafe_get grows g) i
            | None ->
                let g = Vec.length first in
                Row_table.Scalar.replace tbl v g;
                gids.(i) <- g;
                Vec.push first i;
                if want_rows then begin
                  let cell = Vec.create () in
                  Vec.push cell i;
                  Vec.push grows cell
                end)
          done
      | kcis ->
          let fs = Array.of_list (List.map (fetcher ctx slab) kcis) in
          let tbl : int Row_table.t = Row_table.create 64 in
          for i = 0 to n - 1 do
            let key = Array.map (fun f -> f i) fs in
            (match Row_table.find_opt tbl key with
            | Some g ->
                gids.(i) <- g;
                if want_rows then Vec.push (Vec.unsafe_get grows g) i
            | None ->
                let g = Vec.length first in
                Row_table.replace tbl key g;
                gids.(i) <- g;
                Vec.push first i;
                if want_rows then begin
                  let cell = Vec.create () in
                  Vec.push cell i;
                  Vec.push grows cell
                end)
          done));
  (gids, Vec.to_array first, grows)

(* --- eager aggregate kernels ------------------------------------------------- *)

(* A slot admits an eager kernel when its per-group value can be computed by
   a typed accumulator whose result provably matches Aggregate.compute_iter:
   COUNT( * ) (group size), and non-DISTINCT COUNT/SUM/AVG/MIN/MAX over a
   typed column. Each kernel is one column-at-a-time loop over the slab's
   logical rows in ascending order — the row engine's exact accumulation
   order, so float sums see the same addition sequence. The loop bodies are
   specialised on (map, null mask) so the hot path runs without per-row
   closure calls; an absent mask is the empty array sentinel, and so is an
   absent [gids] when every row is in group 0 (no GROUP BY). *)
type eager = { run : unit -> unit; value : int -> Value.t }

let[@inline] gid (gids : int array) i = if Array.length gids = 0 then 0 else gids.(i)

let eager_of ctx (slab : slab) ~ngroups ~(gcount : int array) ~(gids : int array)
    ((func, distinct, arg) : Ast.agg_func * bool * Ast.agg_arg) : eager option =
  let n = slab.n in
  if distinct then None
  else
    match (func, arg) with
    | Ast.Count, Ast.Star ->
        Some { run = (fun () -> ()); value = (fun g -> Value.Int gcount.(g)) }
    | (Ast.Count | Ast.Sum | Ast.Avg | Ast.Min | Ast.Max), Ast.Arg (Ast.Col c) -> (
        match Compiled.resolve_opt ctx.headers c with
        | None -> None
        | Some ci -> (
            let t = ctx.col_tbl.(ci) in
            let col = ctx.chunks.(t).Chunk.cols.(ctx.col_off.(ci)) in
            let m = map_of slab t in
            let mask = match col.Chunk.nulls with None -> [||] | Some b -> b in
            let nncnt = Array.make ngroups 0 in
            match (func, col.Chunk.data) with
            | Ast.Count, (Chunk.Ints _ | Chunk.Floats _) ->
                let run () =
                  match m with
                  | None ->
                      if Array.length mask = 0 then
                        for i = 0 to n - 1 do
                          let g = gid gids i in
                          nncnt.(g) <- nncnt.(g) + 1
                        done
                      else
                        for i = 0 to n - 1 do
                          if not mask.(i) then begin
                            let g = gid gids i in
                            nncnt.(g) <- nncnt.(g) + 1
                          end
                        done
                  | Some m ->
                      for i = 0 to n - 1 do
                        let p = m.(i) in
                        if Array.length mask = 0 || not mask.(p) then begin
                          let g = gid gids i in
                          nncnt.(g) <- nncnt.(g) + 1
                        end
                      done
                in
                Some { run; value = (fun g -> Value.Int nncnt.(g)) }
            | Ast.Count, Chunk.Strings s ->
                let codes = s.Chunk.codes in
                let run () =
                  match m with
                  | None ->
                      for i = 0 to n - 1 do
                        if codes.(i) >= 0 then begin
                          let g = gid gids i in
                          nncnt.(g) <- nncnt.(g) + 1
                        end
                      done
                  | Some m ->
                      for i = 0 to n - 1 do
                        if codes.(m.(i)) >= 0 then begin
                          let g = gid gids i in
                          nncnt.(g) <- nncnt.(g) + 1
                        end
                      done
                in
                Some { run; value = (fun g -> Value.Int nncnt.(g)) }
            | Ast.Sum, Chunk.Ints a ->
                let isum = Array.make ngroups 0 in
                let run () =
                  match m with
                  | None ->
                      if Array.length mask = 0 then
                        for i = 0 to n - 1 do
                          let g = gid gids i in
                          nncnt.(g) <- nncnt.(g) + 1;
                          isum.(g) <- isum.(g) + a.(i)
                        done
                      else
                        for i = 0 to n - 1 do
                          if not mask.(i) then begin
                            let g = gid gids i in
                            nncnt.(g) <- nncnt.(g) + 1;
                            isum.(g) <- isum.(g) + a.(i)
                          end
                        done
                  | Some m ->
                      for i = 0 to n - 1 do
                        let p = m.(i) in
                        if Array.length mask = 0 || not mask.(p) then begin
                          let g = gid gids i in
                          nncnt.(g) <- nncnt.(g) + 1;
                          isum.(g) <- isum.(g) + a.(p)
                        end
                      done
                in
                Some
                  {
                    run;
                    value =
                      (fun g -> if nncnt.(g) = 0 then Value.Null else Value.Int isum.(g));
                  }
            | (Ast.Sum | Ast.Avg), Chunk.Floats a ->
                let fsum = Array.make ngroups 0.0 in
                let run () =
                  match m with
                  | None ->
                      if Array.length mask = 0 then
                        for i = 0 to n - 1 do
                          let g = gid gids i in
                          nncnt.(g) <- nncnt.(g) + 1;
                          fsum.(g) <- fsum.(g) +. a.(i)
                        done
                      else
                        for i = 0 to n - 1 do
                          if not mask.(i) then begin
                            let g = gid gids i in
                            nncnt.(g) <- nncnt.(g) + 1;
                            fsum.(g) <- fsum.(g) +. a.(i)
                          end
                        done
                  | Some m ->
                      for i = 0 to n - 1 do
                        let p = m.(i) in
                        if Array.length mask = 0 || not mask.(p) then begin
                          let g = gid gids i in
                          nncnt.(g) <- nncnt.(g) + 1;
                          fsum.(g) <- fsum.(g) +. a.(p)
                        end
                      done
                in
                let value =
                  if func = Ast.Sum then fun g ->
                    if nncnt.(g) = 0 then Value.Null else Value.Float fsum.(g)
                  else fun g ->
                    if nncnt.(g) = 0 then Value.Null
                    else Value.Float (fsum.(g) /. float_of_int nncnt.(g))
                in
                Some { run; value }
            | Ast.Avg, Chunk.Ints a ->
                let fsum = Array.make ngroups 0.0 in
                let run () =
                  match m with
                  | None ->
                      if Array.length mask = 0 then
                        for i = 0 to n - 1 do
                          let g = gid gids i in
                          nncnt.(g) <- nncnt.(g) + 1;
                          fsum.(g) <- fsum.(g) +. float_of_int a.(i)
                        done
                      else
                        for i = 0 to n - 1 do
                          if not mask.(i) then begin
                            let g = gid gids i in
                            nncnt.(g) <- nncnt.(g) + 1;
                            fsum.(g) <- fsum.(g) +. float_of_int a.(i)
                          end
                        done
                  | Some m ->
                      for i = 0 to n - 1 do
                        let p = m.(i) in
                        if Array.length mask = 0 || not mask.(p) then begin
                          let g = gid gids i in
                          nncnt.(g) <- nncnt.(g) + 1;
                          fsum.(g) <- fsum.(g) +. float_of_int a.(p)
                        end
                      done
                in
                Some
                  {
                    run;
                    value =
                      (fun g ->
                        if nncnt.(g) = 0 then Value.Null
                        else Value.Float (fsum.(g) /. float_of_int nncnt.(g)));
                  }
            | (Ast.Min | Ast.Max), Chunk.Ints a ->
                let lt = func = Ast.Min in
                let best = Array.make ngroups 0 in
                let hit g v =
                  if nncnt.(g) = 0 then best.(g) <- v
                  else if (if lt then v < best.(g) else v > best.(g)) then best.(g) <- v;
                  nncnt.(g) <- nncnt.(g) + 1
                in
                let run () =
                  match m with
                  | None ->
                      if Array.length mask = 0 then
                        for i = 0 to n - 1 do
                          hit (gid gids i) a.(i)
                        done
                      else
                        for i = 0 to n - 1 do
                          if not mask.(i) then hit (gid gids i) a.(i)
                        done
                  | Some m ->
                      for i = 0 to n - 1 do
                        let p = m.(i) in
                        if Array.length mask = 0 || not mask.(p) then hit (gid gids i) a.(p)
                      done
                in
                Some
                  {
                    run;
                    value =
                      (fun g -> if nncnt.(g) = 0 then Value.Null else Value.Int best.(g));
                  }
            | (Ast.Min | Ast.Max), Chunk.Floats a ->
                let lt = func = Ast.Min in
                let best = Array.make ngroups 0.0 in
                (* Value.compare on floats is Stdlib.compare *)
                let hit g v =
                  if nncnt.(g) = 0 then best.(g) <- v
                  else if
                    (if lt then compare (v : float) best.(g) < 0
                     else compare (v : float) best.(g) > 0)
                  then best.(g) <- v;
                  nncnt.(g) <- nncnt.(g) + 1
                in
                let run () =
                  match m with
                  | None ->
                      if Array.length mask = 0 then
                        for i = 0 to n - 1 do
                          hit (gid gids i) a.(i)
                        done
                      else
                        for i = 0 to n - 1 do
                          if not mask.(i) then hit (gid gids i) a.(i)
                        done
                  | Some m ->
                      for i = 0 to n - 1 do
                        let p = m.(i) in
                        if Array.length mask = 0 || not mask.(p) then hit (gid gids i) a.(p)
                      done
                in
                Some
                  {
                    run;
                    value =
                      (fun g -> if nncnt.(g) = 0 then Value.Null else Value.Float best.(g));
                  }
            | (Ast.Min | Ast.Max), Chunk.Strings st ->
                let lt = func = Ast.Min in
                let codes = st.Chunk.codes and vals = st.Chunk.vals in
                let best = Array.make ngroups "" in
                let hit g p =
                  if codes.(p) >= 0 then begin
                    let v = vals.(p) in
                    if nncnt.(g) = 0 then best.(g) <- v
                    else if
                      (if lt then compare (v : string) best.(g) < 0
                       else compare (v : string) best.(g) > 0)
                    then best.(g) <- v;
                    nncnt.(g) <- nncnt.(g) + 1
                  end
                in
                let run () =
                  match m with
                  | None ->
                      for i = 0 to n - 1 do
                        hit (gid gids i) i
                      done
                  | Some m ->
                      for i = 0 to n - 1 do
                        hit (gid gids i) m.(i)
                      done
                in
                Some
                  {
                    run;
                    value =
                      (fun g -> if nncnt.(g) = 0 then Value.Null else Value.String best.(g));
                  }
            | _ -> None))
    | _ -> None

(* --- select-body execution ---------------------------------------------------- *)

type task = {
  steps : step array;
  projections : Ast.projection list;
  group_by : Ast.expr list;
  having : Ast.expr option;
}

(* The grouped tail: replicates select_tail's grouped path over the slab,
   with eager typed accumulators when every slot admits one, and the exact
   lazy compute_iter evaluation otherwise. With [weights], logical row [i]
   stands for [weights.(i)] rows of its group ({!count_slab}), and every
   slot is COUNT( * ). *)
let run_grouped ?weights ctx (slab : slab) (task : task)
    (projections : (Ast.expr * string) list) (out_headers : header array) : result_set =
  let n = slab.n in
  let kcis =
    List.map
      (fun e ->
        plain_expr e;
        match e with
        | Ast.Col c -> (
            match Compiled.resolve_opt ctx.headers c with
            | Some ci -> ci
            | None -> fallback ())
        | _ -> fallback ())
      task.group_by
  in
  (* HAVING legitimately contains aggregates; only subqueries fall back *)
  Option.iter (fun h -> if not (no_subquery h) then fallback ()) task.having;
  (* compile HAVING first, then projections: slot registration order must
     match the row engine's *)
  let slots = Compiled.make_slots () in
  let compile e =
    Compiled.compile ~subquery:no_subquery_fn ~agg:slots ~headers:ctx.headers ~outer:[] e
  in
  let chaving = Option.map compile task.having in
  let cps = Array.of_list (List.map (fun (e, _) -> compile e) projections) in
  let slot_arr = Array.of_list (Compiled.slots slots) in
  let spec_arr = Array.of_list (Compiled.specs slots) in
  let nslots = Array.length slot_arr in
  let single_group = kcis = [] in
  let gids, first, grows =
    (* we need ngroups before building accumulators, so: group first without
       row lists, decide eagerness, and only re-collect row lists when some
       slot needs them. Grouping is deterministic, so the second pass (over
       the same data) yields identical ids. An aggregate query without
       GROUP BY is one big group and needs no grouping pass, nor a group id
       per row: [gids] is then the empty sentinel of {!gid}. *)
    if single_group then ([||], [| (if n > 0 then 0 else -1) |], Vec.create ())
    else group_ids ctx slab kcis ~want_rows:false
  in
  let ngroups = Array.length first in
  let gcount = Array.make ngroups 0 in
  let eager_slots =
    let rec go k acc =
      if k >= nslots then Some (List.rev acc)
      else
        match eager_of ctx slab ~ngroups ~gcount ~gids spec_arr.(k) with
        | Some e -> go (k + 1) (e :: acc)
        | None -> None
    in
    go 0 []
  in
  let values_of : int -> Value.t Lazy.t array =
    match eager_slots with
    | Some eagers ->
        (match weights with
        | Some w -> Array.iteri (fun i c -> gcount.(gid gids i) <- gcount.(gid gids i) + c) w
        | None ->
            if single_group then gcount.(0) <- n
            else
              for i = 0 to n - 1 do
                let g = gids.(i) in
                gcount.(g) <- gcount.(g) + 1
              done);
        List.iter (fun (e : eager) -> e.run ()) eagers;
        let eagers = Array.of_list eagers in
        fun g -> Array.map (fun (e : eager) -> Lazy.from_val (e.value g)) eagers
    | None ->
        (* generic path: per-group row lists + Aggregate.compute_iter with
           argument closures evaluated over a scratch row *)
        assert (weights = None);
        let grows =
          if single_group then begin
            let all = Vec.create () in
            let cell = Vec.create () in
            for i = 0 to n - 1 do
              Vec.push cell i
            done;
            Vec.push all cell;
            all
          end
          else if Vec.length grows > 0 then grows
          else begin
            let _, _, grows = group_ids ctx slab kcis ~want_rows:true in
            grows
          end
        in
        let scratch = Array.make (Array.length ctx.headers) Value.Null in
        let fill_of k =
          match spec_arr.(k) with
          | _, _, Ast.Star -> []
          | _, _, Ast.Arg e ->
              List.map
                (fun c ->
                  match Compiled.resolve_opt ctx.headers c with
                  | Some ci -> (ci, fetcher ctx slab ci)
                  | None -> fallback ())
                (Ast.expr_columns e)
        in
        let fills = Array.init nslots fill_of in
        let compute_slot k g =
          let sl = slot_arr.(k) in
          let grows = Vec.unsafe_get grows g in
          let gn = Vec.length grows in
          match sl.Compiled.arg with
          | None ->
              Aggregate.compute sl.Compiled.func ~distinct:sl.Compiled.distinct
                ~star:sl.Compiled.star ~nrows:gn []
          | Some c ->
              let fill = fills.(k) in
              Aggregate.compute_iter sl.Compiled.func ~distinct:sl.Compiled.distinct
                ~star:sl.Compiled.star ~nrows:gn ~iter:(fun f ->
                  Vec.iter
                    (fun i ->
                      List.iter (fun (ci, fc) -> scratch.(ci) <- fc i) fill;
                      f (c scratch))
                    grows)
        in
        fun g -> Array.init nslots (fun k -> lazy (compute_slot k g))
  in
  (* representative row per group: the group's first source row, with just
     the columns HAVING/projections actually read (fresh array per group —
     lazy slot forcing must not observe a reused buffer) *)
  let rep_cols =
    let tbl = Hashtbl.create 16 in
    let add e =
      List.iter
        (fun c ->
          match Compiled.resolve_opt ctx.headers c with
          | Some ci -> Hashtbl.replace tbl ci ()
          | None -> ())
        (Ast.expr_columns e)
    in
    List.iter (fun (e, _) -> add e) projections;
    Option.iter add task.having;
    Hashtbl.fold (fun ci () acc -> (ci, fetcher ctx slab ci) :: acc) tbl []
  in
  let width = Array.length ctx.headers in
  let out = Vec.create () in
  for g = 0 to ngroups - 1 do
    let representative = Array.make width Value.Null in
    let fi = first.(g) in
    if fi >= 0 then List.iter (fun (ci, f) -> representative.(ci) <- f fi) rep_cols;
    Compiled.set_group slots (values_of g);
    let keep =
      match chaving with None -> true | Some c -> Eval.is_truthy (c representative)
    in
    if keep then Vec.push out (Array.map (fun c -> c representative) cps)
  done;
  { chead = out_headers; crows = out }

(* The table whose columns a grouped body over two tables reads, when the
   body is a join count: every aggregate is COUNT( * ), the group keys are
   columns, and they and every other column read come from one table.
   [Some None]: no column is read. *)
let count_shape ctx (task : task) (projections : (Ast.expr * string) list) =
  let counts_only e =
    no_subquery e
    && Ast.fold_expr
         (fun ok e -> ok && match e with Ast.Agg _ -> e = Ast.count_star | _ -> true)
         true e
  in
  let exprs = task.group_by @ List.map fst projections @ Option.to_list task.having in
  if
    Array.length task.steps <> 2
    || (not (List.for_all counts_only exprs))
    || not (List.for_all (function Ast.Col _ -> true | _ -> false) task.group_by)
  then None
  else
    let table_of c =
      match Compiled.resolve_opt ctx.headers c with Some ci -> ctx.col_tbl.(ci) | None -> -1
    in
    match List.sort_uniq compare (List.concat_map Ast.expr_columns exprs |> List.map table_of) with
    | [] -> Some None
    | [ t ] when t >= 0 -> Some (Some t)
    | _ -> None

(* Run one recognised select body (no ORDER BY handling): the WHERE-filtered
   join pipeline plus either a plain column projection or the grouped tail.
   A join count ({!count_shape}) counts by key instead of joining. *)
let run_body ?pool db (task : task) : result_set =
  ignore db;
  let ctx = ctx_of_steps pool task.steps in
  let projections = Compiled.expand_projections ctx.headers task.projections in
  let any_agg =
    List.exists (fun (e, _) -> has_aggregate e) projections
    || (match task.having with Some h -> has_aggregate h | None -> false)
  in
  let out_headers =
    Array.of_list
      (List.map (fun ((_, name) : _ * string) -> { alias = None; name }) projections)
  in
  if task.group_by = [] && not any_agg then begin
    let slab = build_slab ctx task.steps in
    (match task.having with Some _ -> fallback () | None -> ());
    List.iter (fun (e, _) -> plain_expr e) projections;
    let proj = projection_cols ctx projections in
    { chead = out_headers;
      crows = materialize ctx slab proj ~order:None ~start:0 ~take:slab.n }
  end
  else
    match count_shape ctx task projections with
    | Some gt ->
        let slab, weights = count_slab ctx task.steps ~gt in
        run_grouped ~weights ctx slab task projections out_headers
    | None -> run_grouped ctx (build_slab ctx task.steps) task projections out_headers

(* Full ungrouped queries including ORDER BY + LIMIT/OFFSET: sort keys come
   straight from the slab's typed columns ({!Key_sort}), only the surviving
   window is materialised. The caller has declined grouped bodies. *)
let run_query ?pool db (task : task) ~(order_by : (Ast.expr * Ast.order_dir) list)
    ~(limit : int option) ~(offset : int option) : result_set =
  ignore db;
  let ctx = ctx_of_steps pool task.steps in
  let projections = Compiled.expand_projections ctx.headers task.projections in
  List.iter (fun (e, _) -> plain_expr e) projections;
  let out_headers =
    Array.of_list
      (List.map (fun ((_, name) : _ * string) -> { alias = None; name }) projections)
  in
  let proj = projection_cols ctx projections in
  let nproj = Array.length proj in
  (* resolve order keys against the visible output first (as sort_slice
     does), then as hidden source columns (the row engine's hidden
     projection trick resolves them against the source headers) *)
  let keys =
    List.filter_map
      (fun (e, dir) ->
        plain_expr e;
        match e with
        | Ast.Lit (Ast.Int pos) when pos >= 1 && pos <= nproj -> Some (proj.(pos - 1), dir)
        | Ast.Lit _ -> None (* constant key: every comparison is 0 *)
        | Ast.Col c -> (
            match Compiled.resolve_opt out_headers c with
            | Some j -> Some (proj.(j), dir)
            | None -> (
                match Compiled.resolve_opt ctx.headers c with
                | Some ci -> Some (ci, dir)
                | None -> fallback ()))
        | _ -> fallback ())
      order_by
  in
  let slab = build_slab ctx task.steps in
  let n = slab.n in
  let order =
    if keys = [] then None
    else begin
      let gathered ci : Key_sort.key =
        let t = ctx.col_tbl.(ci) in
        let col = ctx.chunks.(t).Chunk.cols.(ctx.col_off.(ci)) in
        let phys = phys_of slab t in
        let shared = map_of slab t = None in
        let gather_f : 'a. 'a array -> 'a array =
         fun a -> if shared then a else Array.init n (fun i -> a.(phys i))
        in
        let nulls () =
          match col.Chunk.nulls with
          | None -> None
          | Some m -> Some (gather_f m)
        in
        match col.Chunk.data with
        | Chunk.Ints a -> Key_sort.K_int (gather_f a, nulls ())
        | Chunk.Floats a -> Key_sort.K_float (gather_f a, nulls ())
        | Chunk.Strings s ->
            let m =
              if Array.exists (fun c -> c < 0) s.Chunk.codes then
                Some (Array.init n (fun i -> s.Chunk.codes.(phys i) < 0))
              else None
            in
            Key_sort.K_string (gather_f s.Chunk.vals, m)
        | Chunk.Boxed ->
            let f = fetcher ctx slab ci in
            Key_sort.K_val (Array.init n f)
      in
      let cmps =
        Array.of_list
          (List.map
             (fun (ci, dir) ->
               let c = Key_sort.compare_fn (gathered ci) in
               match dir with Ast.Asc -> c | Ast.Desc -> fun a b -> -c a b)
             keys)
      in
      let nk = Array.length cmps in
      let cmp a b =
        let rec go i =
          if i >= nk then compare (a : int) b
          else
            let c = cmps.(i) a b in
            if c <> 0 then c else go (i + 1)
        in
        go 0
      in
      let wanted =
        match limit with
        | None -> None
        | Some l ->
            let k = max 0 (Option.value offset ~default:0) + max 0 l in
            if k < n then Some k else None
      in
      Some (Key_sort.sorted ~cmp ~n ~wanted)
    end
  in
  (* replicate Row_vec.slice's clamping over the (possibly top-K-truncated)
     ordered index space before materialising anything *)
  let olen = match order with None -> n | Some o -> Array.length o in
  let start = min (max 0 (Option.value offset ~default:0)) olen in
  let take =
    match limit with None -> olen - start | Some l -> max 0 (min l (olen - start))
  in
  { chead = out_headers; crows = materialize ctx slab proj ~order ~start ~take }

(* --- recognisers / public entry points ---------------------------------------- *)

let task_of_select_plan db (sp : Plan.select_plan) : task =
  if sp.Plan.distinct then fallback ();
  let source = match sp.Plan.source with Some r -> r | None -> fallback () in
  let with_filters, prefix_preds = flatten_rel db source in
  let steps = Array.of_list (List.map fst with_filters) in
  if Array.length steps = 0 then fallback ();
  let ctx0 = ctx_of_steps None steps in
  (* scan-level filters first (innermost first), then predicates above join
     subtrees (inner to outer), then WHERE — the row engine's evaluation
     order *)
  List.iteri
    (fun t (_, sfs) -> List.iter (fun pred -> attach ctx0 steps ~prefix:(t + 1) pred) sfs)
    with_filters;
  List.iter (fun (ptables, pred) -> attach ctx0 steps ~prefix:ptables pred) prefix_preds;
  (match sp.Plan.where with Some w -> attach ctx0 steps w | None -> ());
  {
    steps;
    projections = sp.Plan.projections;
    group_by = sp.Plan.group_by;
    having = sp.Plan.having;
  }

let guard (f : unit -> result_set) : result_set option =
  try Some (f ())
  with Fallback | Compiled.Error _ | Eval.Error _ | Aggregate.Error _ -> None

(* A body with GROUP BY, HAVING or an aggregate. A star never expands to an
   aggregate, so the projections are checked as written. *)
let grouped (sp : Plan.select_plan) =
  sp.Plan.group_by <> [] || Option.is_some sp.Plan.having
  || List.exists
       (function Ast.Proj_expr (e, _) -> has_aggregate e | _ -> false)
       sp.Plan.projections

(* A grouped body is declined before any work: the executor runs it through
   [plan_select] and sorts and slices the groups itself. *)
let plan_query ?pool db (p : Plan.t) : result_set option =
  guard (fun () ->
      if p.Plan.ctes <> [] then fallback ();
      match p.Plan.body with
      | Plan.Plan_select sp when not (grouped sp) ->
          run_query ?pool db (task_of_select_plan db sp) ~order_by:p.Plan.order_by
            ~limit:p.Plan.limit ~offset:p.Plan.offset
      | _ -> fallback ())

let plan_select ?pool db (sp : Plan.select_plan) : result_set option =
  guard (fun () -> run_body ?pool db (task_of_select_plan db sp))
