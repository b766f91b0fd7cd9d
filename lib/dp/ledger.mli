(** Crash-safe, multi-analyst privacy-budget ledger.

    A {!Budget.t} per analyst, backed by an append-only journal file: every
    registration and every granted spend is written (and flushed) to the
    journal {e before} it takes effect in memory, so a killed process can be
    restarted with [open_] and resume with exactly the remaining budgets it
    had granted — replay folds the same floating-point additions in the same
    order, so the totals are bit-identical, and a grant can never be lost
    (the journal may at worst record a spend whose answer was never
    delivered, which only errs on the safe side of the privacy accounting).

    Each analyst's totals are running sums kept in journal order, so a
    spent total equals a left fold of that analyst's journaled costs, bit
    for bit, live and after replay. (Costs that are not powers of two can
    differ in the last bits from a fold in any other order.) Every
    operation on one analyst is O(1) whatever its history, and replay is
    O(n) in the journal's length.

    All operations are serialised by an internal mutex; [spend] is an atomic
    check-journal-charge, so concurrent spenders can never jointly exceed a
    budget and the journal total always equals the sum of granted requests
    exactly. *)

type t

type error =
  | Unknown_analyst of string
  | Already_registered of { analyst : string; epsilon : float; delta : float }
      (** re-registration with different limits; carries the existing ones *)
  | Exhausted of {
      analyst : string;
      requested_epsilon : float;
      requested_delta : float;
      remaining_epsilon : float;
      remaining_delta : float;
    }
  | Invalid_limits of Budget.invalid
  | Bad_name of string  (** empty, or contains tab/newline *)

val pp_error : error Fmt.t
val error_to_string : error -> string

(** {2 Lifecycle} *)

val open_ : ?sync:bool -> string -> t
(** Replay the journal at the given path and open it for appending, under
    the {!Journal} discipline: the file is created when absent, a torn final
    line from a crash mid-append is cut off, and interior corruption raises
    [Invalid_argument]. [sync] additionally fsyncs after every append
    (default: flush only). *)

val in_memory : unit -> t
(** A ledger with no journal — for tests and ephemeral servers. *)

val close : t -> unit
val path : t -> string option

(** {2 Operations} *)

val register : t -> analyst:string -> epsilon:float -> delta:float -> (unit, error) result
(** Admit an analyst with total budget limits. Idempotent when the limits
    match the existing registration exactly. *)

val spend :
  t ->
  analyst:string ->
  epsilon:float ->
  delta:float ->
  label:string ->
  (float * float, error) result
(** Atomically charge an analyst; [Ok (remaining_epsilon, remaining_delta)]
    on grant, [Error (Exhausted _)] without any state change when the budget
    cannot afford the request. *)

val check_spend :
  t -> analyst:string -> epsilon:float -> delta:float -> (unit, error) result
(** The decision {!spend} would take now, with nothing journaled or charged:
    the same affordability test and the same [Exhausted] error. Spending only
    grows, so a cost refused here would be refused by a later [spend] too;
    [spend] remains the gate that grants. *)

(** {2 Inspection} *)

val spent : t -> analyst:string -> (float * float) option
val remaining : t -> analyst:string -> (float * float) option
val spends : t -> analyst:string -> int
(** Granted spends; 0 for an unknown analyst. *)

val analysts : t -> string list

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

val summary : t -> analyst:string -> summary option
(** One analyst's limits, spend, remaining budget and spend count, read in
    one critical section, so they always agree with each other. *)

val summaries : t -> summary list
val pp_summary : summary Fmt.t

(** {2 Replay without opening for append} *)

val summaries_of_file : string -> summary list
(** What [flex_cli budget] prints: the replay of [open_], which only reads
    the file ({!Journal.iter}). *)
