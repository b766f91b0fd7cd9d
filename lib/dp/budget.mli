(** Privacy-budget accounting (paper §4.3): basic sequential composition with
    a hard limit, plus the strong-composition cost report.

    An accountant keeps running totals, not its charges: the spend count,
    the sums of ε and δ and the largest ε. Every operation below is O(1)
    whatever the history. The sums are accumulated in charge order, so they
    equal a left fold of the charges in the order they were made, bit for
    bit; for costs that are not powers of two this can differ in the last
    bits from a fold in any other order. *)

type charge = { epsilon : float; delta : float; label : string }

type t

exception
  Exhausted of {
    requested : charge;
    remaining_epsilon : float;
    remaining_delta : float;
  }

type invalid = { field : string; value : float }
(** A rejected budget parameter: which field and the offending value. *)

exception Invalid_budget of invalid

val pp_invalid : invalid Fmt.t

val check : epsilon:float -> delta:float -> (unit, invalid) result
(** Budget limits must be positive and finite; zero, negative, NaN and
    infinite values are configuration errors, not budgets. *)

val create : epsilon:float -> delta:float -> t
(** A fresh accountant with the given total budget.
    @raise Invalid_budget on non-positive or non-finite [epsilon]/[delta]. *)

val create_checked : epsilon:float -> delta:float -> (t, invalid) result
(** Like {!create}, with the validation error as data — the form a service
    boundary wants. *)

val charge : ?label:string -> t -> epsilon:float -> delta:float -> unit
(** Record a mechanism invocation; raises {!Exhausted} if the basic-composition
    total would exceed the limit. Costs must be finite and non-negative (a
    zero-delta charge is fine: pure-epsilon mechanisms exist). *)

val can_afford : t -> epsilon:float -> delta:float -> bool
(** Whether {!charge} would accept this cost now: each spent total plus the
    cost is within its limit, with an absolute tolerance of [1e-12]. *)

val spends : t -> int
(** Number of charges accepted so far. *)

val spent_basic : t -> float * float
(** Total [(epsilon, delta)] under basic composition. *)

val spent_strong : ?delta_slack:float -> t -> float * float
(** Total under the strong composition theorem (Dwork–Rothblum–Vadhan),
    from the spend count k, the largest ε and the summed δ, with
    [delta_slack] added to the delta term (default [1e-9]). *)

val remaining : t -> float * float

val limit : t -> float * float
(** The total [(epsilon, delta)] the accountant was created with. *)

val pp : t Fmt.t
