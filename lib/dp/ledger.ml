(* Multi-analyst budget ledger over an append-only journal.

   Journal format: one tab-separated record per line, floats as %.17g (which
   round-trips every finite double exactly, so replayed sums are
   bit-identical to the sums the live process computed):

     analyst\t<name>\t<epsilon_limit>\t<delta_limit>
     spend\t<name>\t<epsilon>\t<delta>\t<label>

   Write protocol: journal line -> flush (-> fsync when [sync]) -> in-memory
   charge -> acknowledge. A crash can therefore lose an acknowledgement but
   never a granted spend, which is the conservative direction for privacy
   accounting. A crash mid-append leaves a torn final line; replay drops it
   (it was never acknowledged). *)

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
  mutable oc : out_channel option;
  journal_path : string option;
  sync : bool;
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
    | Some epsilon, Some delta -> Some (Register { analyst = name; epsilon; delta })
    | _ -> None)
  | "spend" :: name :: e :: d :: rest -> (
    match (float_of_string_opt e, float_of_string_opt d) with
    | Some epsilon, Some delta ->
      Some (Spend { analyst = name; epsilon; delta; label = String.concat "\t" rest })
    | _ -> None)
  | _ -> None

(* Replay, streaming: [f] sees each entry in file order and only the
   current line is held. A torn final line is tolerated: a malformed line
   ends replay if it is the last one (crash mid-append), and is a
   corruption error otherwise. Returns the length in bytes of the prefix
   replayed, which leaves out a torn final line. *)
let iter_file path f =
  if not (Sys.file_exists path) then 0
  else
    In_channel.with_open_bin path (fun ic ->
        let rec go () =
          let start = In_channel.pos ic in
          match In_channel.input_line ic with
          | None -> start
          | Some line when String.trim line = "" -> go ()
          | Some line -> (
            match entry_of_line line with
            | Some e ->
              f e;
              go ()
            | None ->
              if Option.is_some (In_channel.input_line ic) then
                Fmt.invalid_arg "Ledger: corrupt journal %s: %S" path line
              else start)
        in
        Int64.to_int (go ()))

let ends_in_newline path len =
  len = 0
  || In_channel.with_open_bin path (fun ic ->
         In_channel.seek ic (Int64.of_int (len - 1));
         In_channel.input_char ic = Some '\n')

(* --- state updates --------------------------------------------------------- *)

let apply_entry t = function
  | Register { analyst; epsilon; delta } ->
    if not (Hashtbl.mem t.budgets analyst) then
      Hashtbl.replace t.budgets analyst (Budget.create ~epsilon ~delta)
  | Spend { analyst; epsilon; delta; label } -> (
    match Hashtbl.find_opt t.budgets analyst with
    | None -> Fmt.invalid_arg "Ledger: journal spend for unregistered analyst %S" analyst
    | Some b -> Budget.charge ~label b ~epsilon ~delta)

let append t entry =
  match t.oc with
  | None -> ()
  | Some oc ->
    output_string oc (line_of_entry entry ^ "\n");
    flush oc;
    if t.sync then Unix.fsync (Unix.descr_of_out_channel oc)

(* --- lifecycle ------------------------------------------------------------- *)

let make ~path ~sync =
  {
    oc = None;
    journal_path = path;
    sync;
    budgets = Hashtbl.create 16;
    lock = Mutex.create ();
  }

let open_ ?(sync = false) path =
  let t = make ~path:(Some path) ~sync in
  let replayed = iter_file path (apply_entry t) in
  (* The next append must start a line of its own, or it would merge with
     the last one and be lost on the next replay: cut off a torn record
     replay skipped, and end with a newline a complete final record that
     lost only its newline (replay counted that one, so it stays). *)
  if Sys.file_exists path then Unix.truncate path replayed;
  let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path in
  if not (ends_in_newline path replayed) then begin
    output_string oc "\n";
    flush oc
  end;
  t.oc <- Some oc;
  t

let in_memory () = make ~path:None ~sync:false

let close t =
  with_lock t (fun () ->
      match t.oc with
      | None -> ()
      | Some oc ->
        close_out oc;
        t.oc <- None)

let path t = t.journal_path

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
            let entry = Register { analyst; epsilon; delta } in
            append t entry;
            apply_entry t entry;
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
        let entry = Spend { analyst; epsilon; delta; label = clean_label label } in
        append t entry;
        apply_entry t entry;
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
  let t = make ~path:(Some path) ~sync:false in
  ignore (iter_file path (apply_entry t));
  summaries t
