module Ast = Flex_sql.Ast
module Vec = Row_vec

(* Query evaluation over a Database. The executor plays the role of the
   paper's "existing database": FLEX only parses queries and post-processes
   results, so the engine implements ordinary SQL semantics with no privacy
   awareness.

   Every execution walks a logical plan ({!Plan}): [run] translates the AST
   with {!Plan.of_query}, the service runs {!Optimizer} plans, and
   subqueries inside expressions are planned once per compiled expression.
   Each select body is offered to the {!Columnar} engine first and runs on
   the row pipeline below when it declines. The row pipeline compiles every
   expression once per relation into a closure with column offsets
   pre-resolved ({!Compiled}), rows travel in dynamic-array vectors
   ({!Row_vec}), and joins/grouping/distinct/set-ops share one
   [Value.t array]-keyed hashtable ({!Row_table}). The row-at-a-time seed
   interpreter survives as {!Reference}, the differential-testing oracle:
   both must return identical result sets, values and row order. *)

exception Error = Compiled.Error

let error fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

(* Each column carries an optional relation alias used for qualified
   references. *)
type header = Compiled.header = { alias : string option; name : string }

type result_set = { columns : string list; rows : Value.t array list }

let resolve_opt = Compiled.resolve_opt

(* Internal vectorized relation; converted to the list-of-rows [result_set]
   only at the public boundary. *)
type vrel = { vh : header array; vr : Value.t array Vec.t }

let to_result (r : vrel) =
  { columns = Array.to_list (Array.map (fun h -> h.name) r.vh); rows = Vec.to_list r.vr }

(* --- evaluation environment ---------------------------------------------- *)

type env = {
  db : Database.t;
  ctes : (string * vrel) list;
  (* enclosing query scopes, innermost first: correlated subqueries resolve
     free column references against these *)
  outer : (header array * Value.t array) list;
  (* shared domain pool, handed only to the {!Columnar} engine's morsel
     dispatch; the row pipeline below is sequential. Subqueries inherit it. *)
  pool : Task_pool.t option;
  (* EXPLAIN ANALYZE collection: when set, plan evaluation records one
     {!Plan.Analyze.stat} per operator, keyed by the path scheme shared with
     the plan renderer. [None] (every normal run) costs nothing — no clock
     reads, no table writes. *)
  trace : Plan.Analyze.trace option;
}

(* Equality key pairs (left index, right index) extracted from an ON
   condition; remaining conjuncts are evaluated on the combined row. *)
let split_join_condition lheaders rheaders (e : Ast.expr) =
  let conjuncts = Ast.conjuncts e in
  let try_pair = function
    | Ast.Binop (Ast.Eq, Ast.Col a, Ast.Col b) -> (
      match (resolve_opt lheaders a, resolve_opt rheaders b) with
      | Some li, Some ri -> Some (li, ri)
      | _ -> (
        match (resolve_opt lheaders b, resolve_opt rheaders a) with
        | Some li, Some ri -> Some (li, ri)
        | _ -> None))
    | _ -> None
  in
  List.fold_left
    (fun (keys, rest) c ->
      match try_pair c with
      | Some pair -> (pair :: keys, rest)
      | None -> (keys, c :: rest))
    ([], []) conjuncts

let expand_projections = Compiled.expand_projections

let has_aggregate e =
  Ast.fold_expr (fun acc e -> acc || match e with Ast.Agg _ -> true | _ -> false) false e

(* ORDER BY may reference source columns that are not projected (standard
   SQL). A key is "visible" when it resolves against the output relation
   and needs no hidden-projection trick. *)
let order_key_visible (vh : header array) (e : Ast.expr) =
  (not (has_aggregate e))
  && List.for_all (fun c -> resolve_opt vh c <> None) (Ast.expr_columns e)

(* --- columnar fast path ------------------------------------------------------ *)

(* The columnar engine takes over only in plain top-level evaluation: bound
   CTEs could shadow the base tables it reads, correlated scopes and
   EXPLAIN ANALYZE need the row operators. Accepted queries return
   bit-identical results (enforced by the 3-way differential suite), so the
   fallback to the row body below each gate is a pure perf decision. *)
let columnar_env_ok env =
  !Columnar.enabled && env.ctes = [] && env.outer = [] && env.trace = None

let columnar_rel (r : Columnar.result_set) : vrel =
  { vh = r.chead; vr = r.crows }

(* Select bodies the row pipeline evaluated because the columnar engine
   declined them where it was allowed to run (process-global). *)
let fallbacks = Atomic.make 0

(* Scan-time column pruning (projection pushdown). When a select's source
   joins two or more relations, base-table scans keep only columns whose name
   is mentioned somewhere in the query (including inside subqueries), so
   joined rows stay narrow. Name-based and conservative: a kept name is kept
   in every relation that has it, which preserves unqualified first-match
   resolution exactly. Filter predicates and join conditions contribute to
   the kept-name set, so pushed-down predicates never lose their columns.
   [None] = keep everything: a source without a join (a pushed-down
   [Filter] over a single scan does not narrow anything worth the copy), a
   [*] projection, a NATURAL join. *)
type prune = {
  keep_names : (string, unit) Hashtbl.t;
  keep_whole : (string, unit) Hashtbl.t; (* relations projected via [t.*] *)
}

let prune_of_select_plan (sp : Plan.select_plan) : prune option =
  let rec has_join = function
    | Plan.Join _ -> true
    | Plan.Filter { input; _ } -> has_join input
    | Plan.Scan _ | Plan.Derived _ -> false
  in
  let multi = match sp.source with None -> false | Some rel -> has_join rel in
  if not multi then None
  else begin
    let exception Keep_all in
    let keep_names = Hashtbl.create 32 and keep_whole = Hashtbl.create 4 in
    let add_ref (c : Ast.col_ref) =
      Hashtbl.replace keep_names (String.lowercase_ascii c.column) ()
    in
    let add_expr e = List.iter add_ref (Ast.deep_expr_columns e) in
    try
      List.iter
        (function
          | Ast.Proj_star -> raise Keep_all
          | Ast.Proj_table_star t ->
            Hashtbl.replace keep_whole (String.lowercase_ascii t) ()
          | Ast.Proj_expr (e, _) -> add_expr e)
        sp.projections;
      Option.iter add_expr sp.where;
      List.iter add_expr sp.group_by;
      Option.iter add_expr sp.having;
      let rec walk = function
        | Plan.Scan _ -> ()
        | Plan.Derived { plan; _ } -> List.iter add_ref (Plan.columns_of_plan plan)
        | Plan.Filter { pred; input } ->
          add_expr pred;
          walk input
        | Plan.Join { cond; left; right; _ } ->
          (match cond with
          | Ast.On e -> add_expr e
          | Ast.Using cols ->
            List.iter
              (fun c -> Hashtbl.replace keep_names (String.lowercase_ascii c) ())
              cols
          | Ast.Natural -> raise Keep_all (* needs both sides' full column lists *)
          | Ast.Cond_none -> ());
          walk left;
          walk right
      in
      Option.iter walk sp.source;
      Some { keep_names; keep_whole }
    with Keep_all -> None
  end

let check_arity op (l : vrel) (r : vrel) =
  if Array.length l.vh <> Array.length r.vh then
    error "%s operands have different column counts" op

(* --- table references ----------------------------------------------------- *)

let rel_of_table ~alias ~prune (t : Table.t) : vrel =
  let cols = Table.columns t in
  let keep =
    match prune with
    | None -> None
    | Some p ->
      if Hashtbl.mem p.keep_whole (String.lowercase_ascii alias) then None
      else begin
        let idx = ref [] in
        Array.iteri
          (fun j name -> if Hashtbl.mem p.keep_names name then idx := j :: !idx)
          cols;
        let idx = Array.of_list (List.rev !idx) in
        if Array.length idx = Array.length cols then None else Some idx
      end
  in
  match keep with
  | None ->
    {
      vh = Array.map (fun name -> { alias = Some alias; name }) cols;
      vr = Vec.of_array (Table.rows t);
    }
  | Some idx ->
    {
      vh = Array.map (fun j -> { alias = Some alias; name = cols.(j) }) idx;
      vr =
        Vec.of_array
          (Array.map
             (fun row -> Array.map (fun j -> Array.unsafe_get row j) idx)
             (Table.rows t));
    }

let requalify alias (r : vrel) =
  { r with vh = Array.map (fun h -> { h with alias = Some alias }) r.vh }

(* --- the compiled pipeline ------------------------------------------------- *)

(* [compile_expr env headers ?agg e]: compile [e] once against [headers].
   Each subquery inside [e] is planned once, here, and its plan evaluated per
   row with that row pushed as the innermost scope. Subqueries never trace:
   EXPLAIN ANALYZE paths name operators of the outer plan only. *)
let rec compile_expr env (headers : header array) ?agg (e : Ast.expr) : Compiled.t =
  Compiled.compile
    ~subquery:(fun q ->
      let p = Plan.of_query q in
      fun row ->
        let env = { env with outer = (headers, row) :: env.outer; trace = None } in
        let r = eval_plan env ~path:Plan.Analyze.root_path p in
        (Array.length r.vh, Vec.to_list r.vr))
    ?agg ~headers ~outer:env.outer e

and join env kind ?(build_left = false) (l : vrel) (r : vrel) (cond : Ast.join_cond) : vrel =
  let headers = Array.append l.vh r.vh in
  let common_columns () =
    let rnames = Array.to_list (Array.map (fun h -> h.name) r.vh) in
    Array.to_list (Array.map (fun h -> h.name) l.vh)
    |> List.filter (fun n -> List.mem n rnames)
    |> List.sort_uniq compare
  in
  let keys, residual =
    match cond with
    | Ast.Cond_none -> ([], [])
    | Ast.On e -> split_join_condition l.vh r.vh e
    | Ast.Using _ | Ast.Natural ->
      let cols = match cond with Ast.Using cols -> cols | _ -> common_columns () in
      let pairs =
        List.map
          (fun c ->
            let cr = { Ast.table = None; column = c } in
            match (resolve_opt l.vh cr, resolve_opt r.vh cr) with
            | Some li, Some ri -> (li, ri)
            | _ -> error "USING column %s not present on both sides" c)
          cols
      in
      (pairs, [])
  in
  (* residual conjuncts compiled once against the combined row *)
  let residuals = List.map (compile_expr env headers) residual in
  let residual_ok combined =
    List.for_all (fun c -> Eval.is_truthy (c combined)) residuals
  in
  let lw = Array.length l.vh and rw = Array.length r.vh in
  let null_row n = Array.make n Value.Null in
  (* Build/probe orientation. The engine's historical shape probes the left
     relation against a hash table built on the right; the optimizer's
     cost model may flip that ([build_left]) when the left input is the
     estimated-smaller one. Either way output columns stay [left ++ right];
     with [build_left] the output row order follows the probe (right)
     relation, which is why optimized plans are compared as multisets. The
     nested-loop path has no build side and ignores the flag. *)
  let bl = build_left && kind <> Ast.Cross && keys <> [] in
  let probe_v = if bl then r.vr else l.vr in
  let build_v = if bl then l.vr else r.vr in
  let nb = Vec.length build_v in
  let bmatched = Array.make nb false in
  let pad_probe =
    if bl then kind = Ast.Right || kind = Ast.Full else kind = Ast.Left || kind = Ast.Full
  in
  let pad_build =
    if bl then kind = Ast.Left || kind = Ast.Full else kind = Ast.Right || kind = Ast.Full
  in
  let combine : Value.t array -> Value.t array -> Value.t array =
    if bl then fun prow brow -> Array.append brow prow
    else fun prow brow -> Array.append prow brow
  in
  let pad_probe_row =
    if bl then fun prow -> Array.append (null_row lw) prow
    else fun prow -> Array.append prow (null_row rw)
  in
  let pad_build_row =
    if bl then fun brow -> Array.append brow (null_row rw)
    else fun brow -> Array.append (null_row lw) brow
  in
  (* [probe emit]: stream the join output probe row by probe row. [emit
     prow push] pushes every match for [prow] in build order and returns
     whether any matched. *)
  let probe (emit : Value.t array -> (Value.t array -> unit) -> bool) :
      Value.t array Vec.t =
    let out = Vec.create () in
    Vec.iter
      (fun prow ->
        let matched = emit prow (Vec.push out) in
        if (not matched) && pad_probe then Vec.push out (pad_probe_row prow))
      probe_v;
    out
  in
  let out =
    match (kind, keys) with
    | Ast.Cross, _ | _, [] ->
      (* Nested loop; used for cross joins and non-equality conditions. A Cross
         join can still carry equality keys (AST built directly): they must
         hold as ordinary SQL equalities, not drop every row. *)
      let keys_ok lrow rrow =
        List.for_all
          (fun (li, ri) ->
            match Value.sql_equal lrow.(li) rrow.(ri) with
            | Some true -> true
            | Some false | None -> false)
          keys
      in
      probe (fun lrow push ->
          let matched = ref false in
          for ri = 0 to nb - 1 do
            let rrow = Vec.unsafe_get build_v ri in
            let ok =
              match cond with
              | Ast.Cond_none -> true
              | _ -> residual_ok (Array.append lrow rrow) && keys_ok lrow rrow
            in
            if ok then begin
              matched := true;
              bmatched.(ri) <- true;
              push (Array.append lrow rrow)
            end
          done;
          !matched)
    | _, keys ->
      (* Hash join on the equality keys: key columns pre-extracted into int
         arrays, build side bucketed in a keyed table. Build-side indices are
         appended in scan order, so matches come out in the right relation's
         row order. *)
      let pks = Array.of_list (List.map (if bl then snd else fst) keys) in
      let bks = Array.of_list (List.map (if bl then fst else snd) keys) in
      let nk = Array.length pks in
      if nk = 1 then begin
      (* single key column (the common case): scalar-keyed table, no per-row
         key array; when the build column holds only small ints (typical id
         join keys), an unboxed int-keyed table cuts hashing cost further *)
      let pk = pks.(0) and bk = bks.(0) in
      let all_small_int =
        let ok = ref true in
        Vec.iter
          (fun rrow ->
            let v = rrow.(bk) in
            if not (Value.is_null v || Row_table.small_int_key v) then ok := false)
          build_v;
        !ok
      in
      (* [iter_candidates v f] applies [f] to the build-side row indices whose
         key equals [v], in the right relation's row order. *)
      let iter_candidates : Value.t -> (int -> unit) -> unit =
        if all_small_int then begin
          let lo = ref max_int and hi = ref min_int and nkeys = ref 0 in
          Vec.iter
            (fun rrow ->
              match rrow.(bk) with
              | Value.Int k ->
                incr nkeys;
                if k < !lo then lo := k;
                if k > !hi then hi := k
              | _ -> ())
            build_v;
          let lo = !lo and hi = !hi in
          let range = if !nkeys = 0 then 0 else hi - lo + 1 in
          if range > 0 && range <= max 1024 (8 * nb) then begin
            (* dense id keys: counting-sort buckets, no hashing at all.
               [starts] is the exclusive prefix sum of per-key counts;
               [items] holds build row indices grouped by key, in row order. *)
            let starts = Array.make (range + 1) 0 in
            Vec.iter
              (fun rrow ->
                match rrow.(bk) with
                | Value.Int k -> starts.(k - lo + 1) <- starts.(k - lo + 1) + 1
                | _ -> ())
              build_v;
            for i = 1 to range do
              starts.(i) <- starts.(i) + starts.(i - 1)
            done;
            let items = Array.make !nkeys 0 in
            let fill = Array.sub starts 0 range in
            Vec.iteri
              (fun ri rrow ->
                match rrow.(bk) with
                | Value.Int k ->
                  let b = k - lo in
                  items.(fill.(b)) <- ri;
                  fill.(b) <- fill.(b) + 1
                | _ -> ())
              build_v;
            fun v f ->
              match Row_table.int_key_of v with
              | Some k when k >= lo && k <= hi ->
                for p = starts.(k - lo) to starts.(k - lo + 1) - 1 do
                  f items.(p)
                done
              | _ -> ()
          end
          else begin
            (* sparse int keys: unboxed int-keyed hashtable *)
            let tbl : int Vec.t Row_table.Int_key.t =
              Row_table.Int_key.create (max 16 nb)
            in
            Vec.iteri
              (fun ri rrow ->
                match rrow.(bk) with
                | Value.Int k -> (
                  match Row_table.Int_key.find_opt tbl k with
                  | Some cell -> Vec.push cell ri
                  | None ->
                    let cell = Vec.create () in
                    Vec.push cell ri;
                    Row_table.Int_key.replace tbl k cell)
                | _ -> ())
              build_v;
            fun v f ->
              match Row_table.int_key_of v with
              | None -> ()
              | Some k -> (
                match Row_table.Int_key.find_opt tbl k with
                | None -> ()
                | Some cell -> Vec.iter f cell)
          end
        end
        else begin
          let tbl : int Vec.t Row_table.Scalar.t =
            Row_table.Scalar.create (max 16 nb)
          in
          Vec.iteri
            (fun ri rrow ->
              let v = rrow.(bk) in
              if not (Value.is_null v) then
                match Row_table.Scalar.find_opt tbl v with
                | Some cell -> Vec.push cell ri
                | None ->
                  let cell = Vec.create () in
                  Vec.push cell ri;
                  Row_table.Scalar.replace tbl v cell)
            build_v;
          fun v f ->
            match Row_table.Scalar.find_opt tbl v with
            | None -> ()
            | Some cell -> Vec.iter f cell
        end
      in
      probe (fun prow push ->
          let matched = ref false in
          let v = prow.(pk) in
          (* NULL keys never match *)
          if not (Value.is_null v) then
            iter_candidates v (fun ri ->
                let combined = combine prow (Vec.unsafe_get build_v ri) in
                if residual_ok combined then begin
                  matched := true;
                  bmatched.(ri) <- true;
                  push combined
                end);
          !matched)
    end
    else begin
      (* [extract_into k ks row] fills [k]; false when any key column is NULL
         (NULL keys never match). *)
      let extract_into (k : Value.t array) ks (row : Value.t array) =
        let rec go i =
          i >= nk
          ||
          let v = row.(Array.unsafe_get ks i) in
          (not (Value.is_null v))
          && begin
               k.(i) <- v;
               go (i + 1)
             end
        in
        go 0
      in
      let tbl : int Vec.t Row_table.t = Row_table.create (max 16 nb) in
      let scratch = Array.make nk Value.Null in
      Vec.iteri
        (fun ri rrow ->
          if extract_into scratch bks rrow then
            match Row_table.find_opt tbl scratch with
            | Some cell -> Vec.push cell ri
            | None ->
              let cell = Vec.create () in
              Vec.push cell ri;
              Row_table.replace tbl (Array.copy scratch) cell)
        build_v;
      probe (fun prow push ->
          let matched = ref false in
          (if extract_into scratch pks prow then
             match Row_table.find_opt tbl scratch with
             | None -> ()
             | Some candidates ->
               Vec.iter
                 (fun ri ->
                   let combined = combine prow (Vec.unsafe_get build_v ri) in
                   if residual_ok combined then begin
                     matched := true;
                     bmatched.(ri) <- true;
                     push combined
                   end)
                 candidates);
          !matched)
    end
  in
  if pad_build then
    Vec.iteri
      (fun ri rrow -> if not bmatched.(ri) then Vec.push out (pad_build_row rrow))
      build_v;
  { vh = headers; vr = out }

(* --- select evaluation ----------------------------------------------------- *)

(* The select pipeline after the source relation is materialised: WHERE
   filter, projection or grouping/aggregation, HAVING, DISTINCT. *)
and select_tail env (source : vrel) ~(on_where : (int -> unit) option)
    ~(where : Ast.expr option)
    ~(projections : Ast.projection list) ~(group_by : Ast.expr list)
    ~(having : Ast.expr option) ~distinct : vrel =
  let filtered =
    match where with
    | None -> source.vr
    | Some pred ->
      let cp = compile_expr env source.vh pred in
      let f = Vec.filter (fun row -> Eval.is_truthy (cp row)) source.vr in
      (match on_where with Some cb -> cb (Vec.length f) | None -> ());
      f
  in
  let projections = expand_projections source.vh projections in
  let any_agg =
    List.exists (fun (e, _) -> has_aggregate e) projections
    || (match having with Some h -> has_aggregate h | None -> false)
  in
  let out_headers =
    Array.of_list (List.map (fun (_, name) -> { alias = None; name }) projections)
  in
  let rows =
    if group_by = [] && not any_agg then begin
      (* plain projection *)
      let cps =
        Array.of_list (List.map (fun (e, _) -> compile_expr env source.vh e) projections)
      in
      Vec.map (fun row -> Array.map (fun c -> c row) cps) filtered
    end
    else begin
      (* grouped path; an aggregate query without GROUP BY is a single group *)
      let kcs = Array.of_list (List.map (compile_expr env source.vh) group_by) in
      let in_order : Value.t array Vec.t Vec.t = Vec.create () in
      (if Array.length kcs = 0 then
         (* no GROUP BY: every row (possibly none) forms the single group *)
         Vec.push in_order filtered
       else if Array.length kcs = 1 then begin
         (* single grouping key: scalar-keyed table, no per-row key array *)
         let kc = kcs.(0) in
         let groups : Value.t array Vec.t Row_table.Scalar.t =
           Row_table.Scalar.create 64
         in
         Vec.iter
           (fun row ->
             let key = kc row in
             match Row_table.Scalar.find_opt groups key with
             | Some cell -> Vec.push cell row
             | None ->
               let cell = Vec.create () in
               Vec.push cell row;
               Row_table.Scalar.replace groups key cell;
               Vec.push in_order cell)
           filtered
       end
       else begin
         let groups : Value.t array Vec.t Row_table.t = Row_table.create 64 in
         Vec.iter
           (fun row ->
             let key = Array.map (fun c -> c row) kcs in
             match Row_table.find_opt groups key with
             | Some cell -> Vec.push cell row
             | None ->
               let cell = Vec.create () in
               Vec.push cell row;
               Row_table.replace groups key cell;
               Vec.push in_order cell)
           filtered
       end);
      (* [compute_slot sl grows n]: one aggregate over one group, streaming
         argument values straight out of the group *)
      let compute_slot (sl : Compiled.agg_slot) (grows : Value.t array Vec.t) n =
        match sl.Compiled.arg with
        | None ->
          Aggregate.compute sl.Compiled.func ~distinct:sl.Compiled.distinct
            ~star:sl.Compiled.star ~nrows:n []
        | Some c ->
          Aggregate.compute_iter sl.Compiled.func ~distinct:sl.Compiled.distinct
            ~star:sl.Compiled.star ~nrows:n
            ~iter:(fun f -> Vec.iter (fun row -> f (c row)) grows)
      in
      let src_width = Array.length source.vh in
      (* HAVING and projections compiled once; aggregate results flow
         through {!Compiled.agg_slots}, set per group *)
      let slots = Compiled.make_slots () in
      let chaving = Option.map (compile_expr env source.vh ~agg:slots) having in
      let cps =
        Array.of_list
          (List.map (fun (e, _) -> compile_expr env source.vh ~agg:slots e) projections)
      in
      let slot_list = Array.of_list (Compiled.slots slots) in
      let out = Vec.create () in
      Vec.iter
        (fun grows ->
          let n = Vec.length grows in
          let representative =
            if n > 0 then Vec.unsafe_get grows 0 else Array.make src_width Value.Null
          in
          (* slot values lazily, so aggregates behind a failed HAVING are
             never computed (matching the interpreter's on-demand memo) *)
          let values =
            Array.map
              (fun (sl : Compiled.agg_slot) -> lazy (compute_slot sl grows n))
              slot_list
          in
          Compiled.set_group slots values;
          let keep =
            match chaving with None -> true | Some c -> Eval.is_truthy (c representative)
          in
          if keep then Vec.push out (Array.map (fun c -> c representative) cps))
        in_order;
      out
    end
  in
  let rows = if distinct then Row_table.dedupe_rows rows else rows in
  { vh = out_headers; vr = rows }

(* --- set operations --------------------------------------------------------- *)

and set_op_rel (op : Plan.set_op) ~all (l : vrel) (r : vrel) : vrel =
  match op with
  | Plan.Union ->
    check_arity "UNION" l r;
    let out = Vec.create () in
    Vec.iter (Vec.push out) l.vr;
    Vec.iter (Vec.push out) r.vr;
    { vh = l.vh; vr = (if all then out else Row_table.dedupe_rows out) }
  | Plan.Except ->
    check_arity "EXCEPT" l r;
    if all then begin
      (* bag difference *)
      let counts = Row_table.counts_of r.vr in
      let rows =
        Vec.filter
          (fun row ->
            match Row_table.find_opt counts row with
            | Some c when !c > 0 ->
              decr c;
              false
            | _ -> true)
          l.vr
      in
      { vh = l.vh; vr = rows }
    end
    else begin
      let right = Row_table.counts_of r.vr in
      let rows =
        Row_table.dedupe_rows l.vr |> Vec.filter (fun row -> not (Row_table.mem right row))
      in
      { vh = l.vh; vr = rows }
    end
  | Plan.Intersect ->
    check_arity "INTERSECT" l r;
    let counts = Row_table.counts_of r.vr in
    if all then begin
      let rows =
        Vec.filter
          (fun row ->
            match Row_table.find_opt counts row with
            | Some c when !c > 0 ->
              decr c;
              true
            | _ -> false)
          l.vr
      in
      { vh = l.vh; vr = rows }
    end
    else begin
      let rows =
        Row_table.dedupe_rows l.vr |> Vec.filter (fun row -> Row_table.mem counts row)
      in
      { vh = l.vh; vr = rows }
    end

(* --- full queries ------------------------------------------------------------ *)

and bind_cte env ~name ~columns (r : vrel) : env =
  let r =
    if columns = [] then r
    else begin
      if List.length columns <> Array.length r.vh then
        error "CTE %s column list arity mismatch" name;
      {
        r with
        vh =
          Array.of_list
            (List.map (fun n -> { alias = None; name = String.lowercase_ascii n }) columns);
      }
    end
  in
  { env with ctes = (String.lowercase_ascii name, r) :: env.ctes }

(* Decorate-sort-undecorate, hidden-column strip, and OFFSET/LIMIT slice —
   the tail every full query runs through. [visible] is the projected width
   before hidden order keys were appended. *)
and sort_slice env (r : vrel) ~(order_by : (Ast.expr * Ast.order_dir) list)
    ~(limit : int option) ~(offset : int option) ~visible : vrel =
  let r =
    if order_by = [] then r
    else begin
      (* decorate-sort-undecorate with order keys precomputed
         through compiled expressions into per-key columns, then classified
         into typed arrays ({!Key_sort}) so comparisons run over unboxed
         ints/floats/strings. Sorting permutes indices, with the original
         index as the final tiebreak — a total order that reproduces
         [stable_sort] ties behaviour exactly. Under LIMIT, a bounded top-K
         heap selection replaces the full sort. *)
      let nkeys = List.length order_by in
      let dirs = Array.of_list (List.map snd order_by) in
      let keyfns =
        Array.of_list
          (List.map
             (fun (e, _) ->
               match e with
               | Ast.Lit (Ast.Int pos) when pos >= 1 && pos <= visible ->
                 fun (row : Value.t array) -> row.(pos - 1)
               | e -> compile_expr env r.vh e)
             order_by)
      in
      let n = Vec.length r.vr in
      let kcmps =
        Array.map
          (fun f ->
            Key_sort.compare_fn
              (Key_sort.of_values (Array.init n (fun i -> f (Vec.unsafe_get r.vr i)))))
          keyfns
      in
      let cmp a b =
        let rec go i =
          if i >= nkeys then compare (a : int) b
          else
            let c = kcmps.(i) a b in
            let c = match dirs.(i) with Ast.Asc -> c | Ast.Desc -> -c in
            if c <> 0 then c else go (i + 1)
        in
        go 0
      in
      let order =
        (* only the first OFFSET + LIMIT rows survive the slice below, so
           under a LIMIT that keeps fewer rows than exist, select instead of
           sorting everything *)
        let wanted =
          match limit with
          | None -> None
          | Some l ->
            let k = max 0 (Option.value offset ~default:0) + max 0 l in
            if k < n then Some k else None
        in
        Key_sort.sorted ~cmp ~n ~wanted
      in
      { r with vr = Vec.of_array (Array.map (fun i -> Vec.unsafe_get r.vr i) order) }
    end
  in
  (* strip hidden order columns *)
  let r =
    if Array.length r.vh = visible then r
    else
      { vh = Array.sub r.vh 0 visible; vr = Vec.map (fun row -> Array.sub row 0 visible) r.vr }
  in
  let vr = Vec.slice r.vr ~offset:(Option.value offset ~default:0) ~limit in
  { r with vr }

(* --- logical-plan evaluation ------------------------------------------------- *)

(* [traced env ~path f] wraps one plan operator's evaluation: when the env
   carries a trace, it records output cardinality and inclusive elapsed time
   at [path]; otherwise it is exactly [f ()]. [rows_in] is a cell the
   callback fills once its input relation is materialised (the input
   cardinality is unknowable before [f] runs). *)
and traced env ~path ?rows_in (f : unit -> vrel) : vrel =
  match env.trace with
  | None -> f ()
  | Some tr ->
    let t0 = Flex_obs.Clock.now_ns () in
    let r = f () in
    let rows_in = match rows_in with Some cell -> !cell | None -> -1 in
    Plan.Analyze.record tr ~path ~rows_in ~rows_out:(Vec.length r.vr)
      (Flex_obs.Clock.elapsed_ns t0);
    r

and eval_rel env ~prune ~path (r : Plan.rel) : vrel =
  match r with
  | Plan.Scan { table; alias } ->
    traced env ~path (fun () ->
        match List.assoc_opt (String.lowercase_ascii table) env.ctes with
        | Some r -> requalify alias r
        | None -> (
          match Database.find_opt env.db table with
          | Some t -> rel_of_table ~alias ~prune t
          | None -> error "unknown table %s" table))
  | Plan.Derived { plan; alias } ->
    traced env ~path (fun () ->
        requalify alias (eval_plan env ~path:(Plan.Analyze.derived_path path) plan))
  | Plan.Filter { pred; input } ->
    let rows_in = ref (-1) in
    traced env ~path ~rows_in (fun () ->
        let i = eval_rel env ~prune ~path:(Plan.Analyze.input_path path) input in
        rows_in := Vec.length i.vr;
        let cp = compile_expr env i.vh pred in
        { i with vr = Vec.filter (fun row -> Eval.is_truthy (cp row)) i.vr })
  | Plan.Join { kind; cond; build_left; left; right } ->
    traced env ~path (fun () ->
        let l = eval_rel env ~prune ~path:(Plan.Analyze.left_path path) left in
        let r = eval_rel env ~prune ~path:(Plan.Analyze.right_path path) right in
        join env kind ~build_left l r cond)

and eval_select_plan env ~path (sp : Plan.select_plan) : vrel =
  if not (columnar_env_ok env) then eval_select_plan_row env ~path sp
  else
    match Columnar.plan_select ?pool:env.pool env.db sp with
    | Some r -> columnar_rel r
    | None ->
      Atomic.incr fallbacks;
      eval_select_plan_row env ~path sp

and eval_select_plan_row env ~path (sp : Plan.select_plan) : vrel =
  let rows_in = ref (-1) in
  traced env ~path ~rows_in (fun () ->
      let source =
        match sp.source with
        | None -> { vh = [||]; vr = Vec.of_list [ [||] ] } (* FROM-less SELECT *)
        | Some rel ->
          eval_rel env ~prune:(prune_of_select_plan sp) ~path:(Plan.Analyze.source_path path) rel
      in
      rows_in := Vec.length source.vr;
      let on_where =
        match env.trace with
        | None -> None
        | Some tr ->
          Some
            (fun n ->
              (* rows surviving WHERE; the filter is fused into the pipeline,
                 so it gets no independent timing (NaN) *)
              Plan.Analyze.record tr ~path:(Plan.Analyze.where_path path) ~rows_out:n Float.nan)
      in
      select_tail env source ~on_where ~where:sp.where ~projections:sp.projections
        ~group_by:sp.group_by ~having:sp.having ~distinct:sp.distinct)

and eval_plan_body env ~path (b : Plan.body_plan) : vrel =
  match b with
  | Plan.Plan_select sp -> eval_select_plan env ~path sp
  | Plan.Plan_set { op; all; left; right } ->
    traced env ~path (fun () ->
        let l = eval_plan_body env ~path:(Plan.Analyze.left_path path) left in
        let r = eval_plan_body env ~path:(Plan.Analyze.right_path path) right in
        set_op_rel op ~all l r)

and eval_plan env ~path (p : Plan.t) : vrel =
  match
    if columnar_env_ok env && p.ctes = [] then Columnar.plan_query ?pool:env.pool env.db p
    else None
  with
  | Some r -> columnar_rel r
  | None -> eval_plan_row env ~path p

and eval_plan_row env ~path (p : Plan.t) : vrel =
  traced env ~path (fun () ->
      let env, _ =
        List.fold_left
          (fun (env, i) (name, columns, body) ->
            ( bind_cte env ~name ~columns
                (eval_plan env ~path:(Plan.Analyze.cte_path path i) body),
              i + 1 ))
          (env, 0) p.ctes
      in
      let body_path = Plan.Analyze.body_path path in
      let r = eval_plan_body env ~path:body_path p.body in
      let visible = Array.length r.vh in
      (* When an order key does not resolve against the output relation,
         re-evaluate the select with the key appended as a hidden projection,
         sort, and strip the extra columns. Not available under DISTINCT,
         where SQL itself requires order keys to be projected. *)
      let r, order_by =
        if p.order_by = [] || List.for_all (fun (e, _) -> order_key_visible r.vh e) p.order_by
        then (r, p.order_by)
        else
          match p.body with
          | Plan.Plan_select sp when not sp.distinct ->
            let hidden = ref [] in
            let order_by =
              List.mapi
                (fun i (e, dir) ->
                  if order_key_visible r.vh e then (e, dir)
                  else begin
                    let name = Fmt.str "_ord%d" i in
                    hidden := Ast.Proj_expr (e, Some name) :: !hidden;
                    (Ast.Col { Ast.table = None; column = name }, dir)
                  end)
                p.order_by
            in
            (* re-evaluates the select with hidden keys appended; trace stats
               at the same paths are overwritten — re-evaluation wins *)
            let extended =
              eval_select_plan env ~path:body_path
                { sp with projections = sp.projections @ List.rev !hidden }
            in
            (extended, order_by)
          | _ -> (r, p.order_by)
      in
      if p.order_by <> [] then
        traced env ~path:(Plan.Analyze.sort_path path) (fun () ->
            sort_slice env r ~order_by ~limit:p.limit ~offset:p.offset ~visible)
      else sort_slice env r ~order_by ~limit:p.limit ~offset:p.offset ~visible)

(* --- public API ----------------------------------------------------------------- *)

let columnar_fallbacks () = Atomic.get fallbacks

let run_plan ?pool db (p : Plan.t) : result_set =
  to_result (eval_plan { db; ctes = []; outer = []; pool; trace = None } ~path:Plan.Analyze.root_path p)

let run ?pool db (q : Ast.query) : result_set = run_plan ?pool db (Plan.of_query q)

let run_plan_analyzed ?pool db (p : Plan.t) : result_set * Plan.Analyze.trace =
  let trace = Plan.Analyze.create () in
  let r =
    to_result
      (eval_plan { db; ctes = []; outer = []; pool; trace = Some trace }
         ~path:Plan.Analyze.root_path p)
  in
  (r, trace)

let plan_of ~optimize ?metrics q = if optimize then Optimizer.plan ?metrics q else Plan.of_query q

let explain_analyze ?pool ?(optimize = true) ?metrics ?(show_rows = true) db (q : Ast.query) :
    string * result_set =
  let p = plan_of ~optimize ?metrics q in
  let r, trace = run_plan_analyzed ?pool db p in
  (Plan.render_analyzed ~show_rows ~trace p, r)

let run_sql ?pool ?(optimize = false) ?metrics db sql : (result_set, string) result =
  match Flex_sql.Parser.parse sql with
  | Stdlib.Error e -> Stdlib.Error e
  | Stdlib.Ok q -> (
    match run_plan ?pool db (plan_of ~optimize ?metrics q) with
    | r -> Stdlib.Ok r
    | exception Error msg -> Stdlib.Error ("execution error: " ^ msg)
    | exception Eval.Error msg -> Stdlib.Error ("evaluation error: " ^ msg)
    | exception Aggregate.Error msg -> Stdlib.Error ("aggregation error: " ^ msg))

let run_sql_exn ?pool ?optimize ?metrics db sql =
  match run_sql ?pool ?optimize ?metrics db sql with
  | Stdlib.Ok r -> r
  | Stdlib.Error e -> error "%s" e
