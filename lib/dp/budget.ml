(* Privacy-budget accounting (paper §4.3). FLEX does not prescribe a strategy;
   we provide the standard ones: basic (sequential) composition and the strong
   composition theorem of Dwork, Rothblum and Vadhan. *)

type charge = { epsilon : float; delta : float; label : string }

(* Both compositions need only these running totals, so no charge is kept.
   The sums accumulate in charge order: a ledger replaying its journal adds
   the same floats in the same order as the live process did, so the totals
   are bit-identical between the two. *)
type t = {
  epsilon_limit : float;
  delta_limit : float;
  mutable count : int;
  mutable epsilon_sum : float;
  mutable delta_sum : float;
  mutable epsilon_max : float;
}

exception Exhausted of { requested : charge; remaining_epsilon : float; remaining_delta : float }

type invalid = { field : string; value : float }

exception Invalid_budget of invalid

let pp_invalid ppf { field; value } =
  Fmt.pf ppf "invalid budget: %s = %g (must be positive and finite)" field value

(* A budget that is zero, negative, NaN or infinite is never what the caller
   meant: eps <= 0 yields unbounded noise scales, a non-finite limit disables
   accounting entirely. Catch it at construction with a typed error. *)
let check ~epsilon ~delta =
  if not (Float.is_finite epsilon && epsilon > 0.0) then
    Error { field = "epsilon"; value = epsilon }
  else if not (Float.is_finite delta && delta > 0.0) then
    Error { field = "delta"; value = delta }
  else Ok ()

let create_checked ~epsilon ~delta =
  match check ~epsilon ~delta with
  | Error e -> Error e
  | Ok () ->
    Ok
      {
        epsilon_limit = epsilon;
        delta_limit = delta;
        count = 0;
        epsilon_sum = 0.0;
        delta_sum = 0.0;
        epsilon_max = 0.0;
      }

let create ~epsilon ~delta =
  match create_checked ~epsilon ~delta with
  | Ok t -> t
  | Error e -> raise (Invalid_budget e)

let spends t = t.count
let spent_basic t = (t.epsilon_sum, t.delta_sum)

(* Strong composition (DRV'10): k mechanisms, each (e, d)-DP, compose to
   (e', k*d + delta_slack)-DP with
     e' = e * sqrt(2k ln(1/delta_slack)) + k * e * (exp(e) - 1).
   Heterogeneous charges are handled conservatively by using the max epsilon
   and the summed deltas. *)
let spent_strong ?(delta_slack = 1e-9) t =
  if t.count = 0 then (0.0, 0.0)
  else
    let k = float_of_int t.count and emax = t.epsilon_max in
    let e' =
      (emax *. sqrt (2.0 *. k *. log (1.0 /. delta_slack)))
      +. (k *. emax *. (exp emax -. 1.0))
    in
    (e', t.delta_sum +. delta_slack)

let remaining t =
  ( Float.max 0.0 (t.epsilon_limit -. t.epsilon_sum),
    Float.max 0.0 (t.delta_limit -. t.delta_sum) )

let limit t = (t.epsilon_limit, t.delta_limit)

let can_afford t ~epsilon ~delta =
  t.epsilon_sum +. epsilon <= t.epsilon_limit +. 1e-12
  && t.delta_sum +. delta <= t.delta_limit +. 1e-12

let charge ?(label = "query") t ~epsilon ~delta =
  if epsilon < 0.0 || delta < 0.0 || not (Float.is_finite epsilon && Float.is_finite delta)
  then invalid_arg "Budget.charge: cost must be finite and non-negative";
  if can_afford t ~epsilon ~delta then begin
    t.count <- t.count + 1;
    t.epsilon_sum <- t.epsilon_sum +. epsilon;
    t.delta_sum <- t.delta_sum +. delta;
    t.epsilon_max <- Float.max t.epsilon_max epsilon
  end
  else
    let re, rd = remaining t in
    raise
      (Exhausted
         { requested = { epsilon; delta; label }; remaining_epsilon = re; remaining_delta = rd })

let pp ppf t =
  Fmt.pf ppf "budget: spent (eps=%g, delta=%g) of (eps=%g, delta=%g) over %d queries"
    t.epsilon_sum t.delta_sum t.epsilon_limit t.delta_limit t.count
