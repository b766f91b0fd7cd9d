(** Round-trip text for doubles, without [Printf].

    [to_string f] is byte-for-byte [Printf.sprintf "%.17g" f] for every
    double (property-tested against it), at a fraction of the cost: an
    integral value below 1e15 goes through [string_of_int] ([-0.0] keeps its
    ["-0"]), and anything else through the C [caml_format_float] primitive
    that [Printf]'s [%.17g] calls underneath, without the format
    interpreter. It is the number text of the budget ledger's journal, the
    release-store key and every JSON number the service writes. *)

val to_string : float -> string
