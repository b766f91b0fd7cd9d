external format_float : string -> float -> string = "caml_format_float"

(* Below 1e15 an integral double has at most 15 digits, fewer than the 17
   significant digits %.17g keeps, so C prints it in full with no exponent
   or fraction: exactly its integer's decimal text. *)
let to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then
    if f = 0.0 && Float.sign_bit f then "-0" else string_of_int (int_of_float f)
  else format_float "%.17g" f
