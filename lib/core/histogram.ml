module Value = Flex_engine.Value
module Database = Flex_engine.Database
module Table = Flex_engine.Table
module Executor = Flex_engine.Executor
module Row_table = Flex_engine.Row_table

(* Histogram bin enumeration (paper §4): when every GROUP BY key is drawn
   from a public, finite domain, FLEX returns a row for *every* possible bin
   (missing bins get a noisy zero), so the presence or absence of a bin
   reveals nothing. *)

let max_bins = 20_000

(* Positions of group-key and aggregate columns in the output row. *)
let partition_columns (a : Elastic.analysis) =
  let keys = ref [] and aggs = ref [] in
  List.iteri
    (fun i spec ->
      match spec with
      | Elastic.Group_key_col { origin; _ } -> keys := (i, origin) :: !keys
      | Elastic.Aggregate_col _ -> aggs := i :: !aggs)
    a.columns;
  (List.rev !keys, List.rev !aggs)

(* Bin labels are enumerable when every key column originates in a public
   table (so its value domain is itself non-protected). *)
let enumerable cat (a : Elastic.analysis) =
  let keys, _ = partition_columns a in
  a.is_histogram && keys <> []
  && List.for_all
       (fun (_, origin) ->
         match origin with
         | Some (attr : Elastic.attr) -> cat.Elastic.is_public attr.table
         | None -> false)
       keys

(* A bin per key of the join's equality ([Row_table]): [1] and [1.0] are one
   bin, labelled by the first occurrence. *)
let distinct_column_values db (attr : Elastic.attr) =
  match Database.find_opt db attr.table with
  | Some t when Table.column_index t attr.column <> None ->
    Table.column_values t attr.column |> Array.to_list
    |> List.filter (fun v -> not (Value.is_null v))
    |> Row_table.dedupe_values |> Option.some
  | _ -> None

(* Extend [result] with all missing bins, each with zero aggregates (noise is
   added afterwards by the mechanism, uniformly over all rows). Returns None
   when enumeration is not possible (protected or unbounded labels). *)
let enumerate cat db (a : Elastic.analysis) (result : Executor.result_set) :
    Executor.result_set option =
  if not (enumerable cat a) then None
  else begin
    let keys, aggs = partition_columns a in
    let domains =
      List.map
        (fun (i, origin) ->
          match origin with
          | Some attr -> (
            match distinct_column_values db attr with
            | Some vs -> (i, vs)
            | None -> (i, []))
          | None -> (i, []))
        keys
    in
    if List.exists (fun (_, vs) -> vs = []) domains then None
    else begin
      let total = List.fold_left (fun acc (_, vs) -> acc * List.length vs) 1 domains in
      if total > max_bins then None
      else begin
        let ncols = List.length result.columns in
        let existing = Row_table.create 256 in
        List.iter
          (fun row ->
            let key = Array.of_list (List.map (fun (i, _) -> row.(i)) keys) in
            Row_table.replace existing key ())
          result.rows;
        (* cartesian product of label domains, in domain order *)
        let rec combos = function
          | [] -> [ [] ]
          | (i, vs) :: rest ->
            let tails = combos rest in
            List.concat_map (fun v -> List.map (fun t -> (i, v) :: t) tails) vs
        in
        let missing =
          combos domains
          |> List.filter (fun combo ->
               not (Row_table.mem existing (Array.of_list (List.map snd combo))))
          |> List.map (fun combo ->
               let row = Array.make ncols Value.Null in
               List.iter (fun (i, v) -> row.(i) <- v) combo;
               List.iter (fun i -> row.(i) <- Value.Int 0) aggs;
               row)
        in
        Some { result with rows = result.rows @ missing }
      end
    end
  end
