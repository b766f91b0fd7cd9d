(** Minimal JSON for the line-delimited wire protocol — the container ships
    no JSON library, and the protocol needs only scalars, arrays and
    objects. Every value encodes to a single line (control characters are
    escaped), and [of_string (to_string v) = Ok v] for all values whose
    numbers are finite (property-tested). *)

type t =
  | Null
  | Bool of bool
  | Num of float  (** integral values print without a fractional part *)
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** One line, no trailing newline. Non-finite numbers encode as [null]
    (JSON has no representation for them). *)

val number_string : float -> string
(** How [Num] prints: byte-for-byte [Printf.sprintf "%.17g"], which renders
    integral values without a fractional part and round-trips doubles
    exactly ({!Flex_dp.Float_text.to_string}). *)

val max_depth : int
(** The deepest nesting of arrays and objects {!of_string} accepts (256). *)

val of_string : string -> (t, string) result
(** Decode one document. A container opened more than {!max_depth} levels
    deep is an [Error] naming the limit, so hostile nesting costs time
    linear in the input and never exhausts the stack. *)

val of_string_exn : string -> t
(** @raise Failure with a position-carrying message. *)

(** {2 Accessors} (shallow, total) *)

val mem : string -> t -> t option
(** Object member lookup; [None] on non-objects. *)

val to_str : t -> string option
val to_num : t -> float option
val to_int : t -> int option
val to_bool : t -> bool option
val to_list : t -> t list option

(** {2 Required fields} (for decoders) *)

val get_str : string -> t -> (string, string) result
(** [get_str key j] is the string member [key] of object [j], or an error
    naming [key] when it is missing or not a string; likewise below. *)

val get_num : string -> t -> (float, string) result
val get_int : string -> t -> (int, string) result
val get_bool : string -> t -> (bool, string) result

val str : string -> t
val num : float -> t
val int : int -> t
val bool : bool -> t
