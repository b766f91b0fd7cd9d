module Ast = Flex_sql.Ast

(* SQL aggregate functions over a group's values. NULLs are skipped, matching
   standard semantics; a star-count counts rows including NULLs. *)

exception Error of string

let error fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

let non_null values = List.filter (fun v -> not (Value.is_null v)) values

let floats_of name values =
  List.map
    (fun v ->
      match Value.to_float v with
      | Some f -> f
      | None -> error "%s over non-numeric value %a" name Value.pp v)
    values

let sum_value values =
  let all_int = List.for_all (function Value.Int _ -> true | _ -> false) values in
  if all_int then
    Value.Int
      (List.fold_left
         (fun acc v -> match v with Value.Int i -> acc + i | _ -> acc)
         0 values)
  else Value.Float (List.fold_left ( +. ) 0.0 (floats_of "SUM" values))

let median_value values =
  let fs = List.sort compare (floats_of "MEDIAN" values) in
  let a = Array.of_list fs in
  let n = Array.length a in
  if n = 0 then Value.Null
  else if n mod 2 = 1 then Value.Float a.(n / 2)
  else Value.Float ((a.((n / 2) - 1) +. a.(n / 2)) /. 2.0)

let stddev_value values =
  let fs = floats_of "STDDEV" values in
  let n = List.length fs in
  if n < 2 then Value.Null
  else begin
    let mean = List.fold_left ( +. ) 0.0 fs /. float_of_int n in
    let ss = List.fold_left (fun acc f -> acc +. ((f -. mean) *. (f -. mean))) 0.0 fs in
    Value.Float (sqrt (ss /. float_of_int (n - 1)))
  end

(* [compute func ~distinct ~star ~nrows values]: [values] are the evaluated
   argument values over the group's rows (ignored when [star]). DISTINCT
   keeps each value's first occurrence under the engines' key equality, so
   [COUNT(DISTINCT x)] counts the non-NULL groups of [GROUP BY x]. *)
let compute (func : Ast.agg_func) ~distinct ~star ~nrows values =
  let args () =
    let vs = non_null values in
    if distinct then Row_table.dedupe_values vs else vs
  in
  match func with
  | Ast.Count -> if star then Value.Int nrows else Value.Int (List.length (args ()))
  | Ast.Sum -> ( match args () with [] -> Value.Null | vs -> sum_value vs)
  | Ast.Avg -> (
    match args () with
    | [] -> Value.Null
    | vs ->
      let fs = floats_of "AVG" vs in
      Value.Float (List.fold_left ( +. ) 0.0 fs /. float_of_int (List.length fs)))
  | Ast.Min -> (
    match non_null values with
    | [] -> Value.Null
    | v :: vs -> List.fold_left (fun acc v -> if Value.compare v acc < 0 then v else acc) v vs)
  | Ast.Max -> (
    match non_null values with
    | [] -> Value.Null
    | v :: vs -> List.fold_left (fun acc v -> if Value.compare v acc > 0 then v else acc) v vs)
  | Ast.Median -> median_value (non_null values)
  | Ast.Stddev -> stddev_value (non_null values)

(* Streaming variant of [compute] for the executor's vectorized group path:
   [iter f] must apply [f] to the argument values in row order. The common
   non-distinct aggregates fold in one pass with no intermediate list;
   DISTINCT, MEDIAN and STDDEV need the whole collection and fall back to
   [compute]. *)
let compute_iter (func : Ast.agg_func) ~distinct ~star ~nrows
    ~(iter : (Value.t -> unit) -> unit) =
  let fallback () =
    let acc = ref [] in
    iter (fun v -> acc := v :: !acc);
    compute func ~distinct ~star ~nrows (List.rev !acc)
  in
  if star || distinct then fallback ()
  else
    match func with
    | Ast.Count ->
      let n = ref 0 in
      iter (fun v -> if not (Value.is_null v) then incr n);
      Value.Int !n
    | Ast.Sum ->
      (* mirror [sum_value]: all-Int groups sum exactly, otherwise as floats *)
      let n = ref 0 and all_int = ref true and isum = ref 0 and fsum = ref 0.0 in
      iter (fun v ->
          if not (Value.is_null v) then begin
            incr n;
            match v with
            | Value.Int i -> isum := !isum + i
            | _ -> all_int := false
          end);
      if !n = 0 then Value.Null
      else if !all_int then Value.Int !isum
      else begin
        (* second pass for the float view keeps the error behaviour and
           summation order of [floats_of] *)
        iter (fun v ->
            if not (Value.is_null v) then
              match Value.to_float v with
              | Some f -> fsum := !fsum +. f
              | None -> error "SUM over non-numeric value %a" Value.pp v);
        Value.Float !fsum
      end
    | Ast.Avg ->
      let n = ref 0 and fsum = ref 0.0 in
      iter (fun v ->
          if not (Value.is_null v) then
            match Value.to_float v with
            | Some f ->
              incr n;
              fsum := !fsum +. f
            | None -> error "AVG over non-numeric value %a" Value.pp v);
      if !n = 0 then Value.Null else Value.Float (!fsum /. float_of_int !n)
    | Ast.Min ->
      let best = ref Value.Null in
      iter (fun v ->
          if not (Value.is_null v) then
            if Value.is_null !best || Value.compare v !best < 0 then best := v);
      !best
    | Ast.Max ->
      let best = ref Value.Null in
      iter (fun v ->
          if not (Value.is_null v) then
            if Value.is_null !best || Value.compare v !best > 0 then best := v);
      !best
    | Ast.Median | Ast.Stddev -> fallback ()
