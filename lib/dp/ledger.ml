(* Multi-analyst budget ledger over an append-only journal.

   Journal format: one tab-separated record per line, floats as %.17g (which
   round-trips every finite double exactly, so replayed sums are
   bit-identical to the sums the live process computed):

     analyst\t<name>\t<epsilon_limit>\t<delta_limit>
     spend\t<name>\t<epsilon>\t<delta>\t<label>

   Write protocol: journal line ([Journal.append]: flush, and fsync when
   [sync]) -> in-memory charge -> acknowledge. A crash can therefore lose an
   acknowledgement but never a granted spend, which is the conservative
   direction for privacy accounting. *)

type entry =
  | Register of { analyst : string; epsilon : float; delta : float }
  | Spend of { analyst : string; epsilon : float; delta : float; label : string }

type error =
  | Unknown_analyst of string
  | Already_registered of { analyst : string; epsilon : float; delta : float }
  | Exhausted of {
      analyst : string;
      requested_epsilon : float;
      requested_delta : float;
      remaining_epsilon : float;
      remaining_delta : float;
    }
  | Invalid_limits of Budget.invalid
  | Bad_name of string

let pp_error ppf = function
  | Unknown_analyst a -> Fmt.pf ppf "unknown analyst %S (no Hello/registration)" a
  | Already_registered { analyst; epsilon; delta } ->
    Fmt.pf ppf "analyst %S already registered with budget (eps=%g, delta=%g)" analyst
      epsilon delta
  | Exhausted { analyst; requested_epsilon; requested_delta; remaining_epsilon; remaining_delta } ->
    Fmt.pf ppf
      "budget exhausted for %S: requested (eps=%g, delta=%g), remaining (eps=%g, delta=%g)"
      analyst requested_epsilon requested_delta remaining_epsilon remaining_delta
  | Invalid_limits i -> Budget.pp_invalid ppf i
  | Bad_name a -> Fmt.pf ppf "bad analyst name %S (must be non-empty, no tabs/newlines)" a

let error_to_string e = Fmt.str "%a" pp_error e

type t = {
  journal : Journal.t option;
  budgets : (string, Budget.t) Hashtbl.t;
  lock : Mutex.t;
}

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* --- journal lines -------------------------------------------------------- *)

let float_str = Float_text.to_string

(* labels travel on one tab-separated line; whitespace flattens to spaces *)
let clean_label label =
  String.map (function '\t' | '\n' | '\r' -> ' ' | c -> c) label

let line_of_entry = function
  | Register { analyst; epsilon; delta } ->
    String.concat "\t" [ "analyst"; analyst; float_str epsilon; float_str delta ]
  | Spend { analyst; epsilon; delta; label } ->
    String.concat "\t"
      [ "spend"; analyst; float_str epsilon; float_str delta; clean_label label ]

let entry_of_line line =
  match String.split_on_char '\t' line with
  | [ "analyst"; name; e; d ] -> (
    match (float_of_string_opt e, float_of_string_opt d) with
    | Some epsilon, Some delta -> Ok (Register { analyst = name; epsilon; delta })
    | _ -> Error "malformed analyst record")
  | "spend" :: name :: e :: d :: rest -> (
    match (float_of_string_opt e, float_of_string_opt d) with
    | Some epsilon, Some delta ->
      Ok (Spend { analyst = name; epsilon; delta; label = String.concat "\t" rest })
    | _ -> Error "malformed spend record")
  | _ -> Error "not an analyst or spend record"

(* --- state updates --------------------------------------------------------- *)

let apply_entry budgets = function
  | Register { analyst; epsilon; delta } ->
    if not (Hashtbl.mem budgets analyst) then
      Hashtbl.replace budgets analyst (Budget.create ~epsilon ~delta)
  | Spend { analyst; epsilon; delta; label } -> (
    match Hashtbl.find_opt budgets analyst with
    | None -> Fmt.invalid_arg "Ledger: journal spend for unregistered analyst %S" analyst
    | Some b -> Budget.charge ~label b ~epsilon ~delta)

let record t entry =
  Option.iter (fun j -> Journal.append j (line_of_entry entry)) t.journal;
  apply_entry t.budgets entry

(* --- lifecycle ------------------------------------------------------------- *)

let make journal budgets = { journal; budgets; lock = Mutex.create () }

let open_ ?sync path =
  let budgets = Hashtbl.create 16 in
  let journal = Journal.open_ ?sync path ~decode:entry_of_line (apply_entry budgets) in
  make (Some journal) budgets

let in_memory () = make None (Hashtbl.create 16)

let close t = with_lock t (fun () -> Option.iter Journal.close t.journal)
let path t = Option.map Journal.path t.journal

(* --- operations ------------------------------------------------------------ *)

let name_ok name =
  name <> "" && not (String.exists (function '\t' | '\n' | '\r' -> true | _ -> false) name)

let register t ~analyst ~epsilon ~delta =
  if not (name_ok analyst) then Error (Bad_name analyst)
  else
    match Budget.check ~epsilon ~delta with
    | Error i -> Error (Invalid_limits i)
    | Ok () ->
      with_lock t (fun () ->
          match Hashtbl.find_opt t.budgets analyst with
          | Some b ->
            let limit_e, limit_d = Budget.limit b in
            (* silently idempotent only for the identical registration *)
            if limit_e = epsilon && limit_d = delta then Ok ()
            else Error (Already_registered { analyst; epsilon = limit_e; delta = limit_d })
          | None ->
            record t (Register { analyst; epsilon; delta });
            Ok ())

(* The one admission decision [spend] and [check_spend] share, taken under
   the lock: the analyst's budget when it can afford the cost, the typed
   refusal otherwise. O(1): [Budget] keeps running totals. *)
let decide t ~analyst ~epsilon ~delta =
  if
    (not (Float.is_finite epsilon)) || epsilon < 0.0 || (not (Float.is_finite delta))
    || delta < 0.0
  then Error (Invalid_limits { Budget.field = "epsilon/delta cost"; value = epsilon })
  else
    match Hashtbl.find_opt t.budgets analyst with
    | None -> Error (Unknown_analyst analyst)
    | Some b when Budget.can_afford b ~epsilon ~delta -> Ok b
    | Some b ->
      let remaining_epsilon, remaining_delta = Budget.remaining b in
      Error
        (Exhausted
           {
             analyst;
             requested_epsilon = epsilon;
             requested_delta = delta;
             remaining_epsilon;
             remaining_delta;
           })

let spend t ~analyst ~epsilon ~delta ~label =
  with_lock t (fun () ->
      match decide t ~analyst ~epsilon ~delta with
      | Error e -> Error e
      | Ok b ->
        record t (Spend { analyst; epsilon; delta; label = clean_label label });
        Ok (Budget.remaining b))

let check_spend t ~analyst ~epsilon ~delta =
  with_lock t (fun () -> Result.map ignore (decide t ~analyst ~epsilon ~delta))

(* --- inspection ------------------------------------------------------------ *)

let find t analyst f =
  with_lock t (fun () -> Option.map f (Hashtbl.find_opt t.budgets analyst))

let spent t ~analyst = find t analyst Budget.spent_basic
let remaining t ~analyst = find t analyst Budget.remaining

let spends t ~analyst = Option.value ~default:0 (find t analyst Budget.spends)

let analysts t =
  with_lock t (fun () ->
      Hashtbl.fold (fun a _ acc -> a :: acc) t.budgets [] |> List.sort compare)

type summary = {
  analyst : string;
  epsilon_limit : float;
  delta_limit : float;
  epsilon_spent : float;
  delta_spent : float;
  remaining_epsilon : float;
  remaining_delta : float;
  spend_count : int;
}

let summary_of analyst b =
  let epsilon_limit, delta_limit = Budget.limit b in
  let epsilon_spent, delta_spent = Budget.spent_basic b in
  let remaining_epsilon, remaining_delta = Budget.remaining b in
  {
    analyst;
    epsilon_limit;
    delta_limit;
    epsilon_spent;
    delta_spent;
    remaining_epsilon;
    remaining_delta;
    spend_count = Budget.spends b;
  }

let summary t ~analyst = find t analyst (summary_of analyst)

let summaries t =
  with_lock t (fun () ->
      Hashtbl.fold (fun analyst b acc -> summary_of analyst b :: acc) t.budgets []
      |> List.sort compare)

let pp_summary ppf s =
  Fmt.pf ppf "%-16s eps %10.6g / %-10.6g delta %10.4g / %-10.4g (%d queries)" s.analyst
    s.epsilon_spent s.epsilon_limit s.delta_spent s.delta_limit s.spend_count

let summaries_of_file path =
  let budgets = Hashtbl.create 16 in
  Journal.iter path ~decode:entry_of_line (apply_entry budgets);
  summaries (make None budgets)
