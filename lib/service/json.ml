(* Hand-rolled JSON, sufficient for the wire protocol: encoder emits one
   line; recursive-descent parser accepts standard JSON (with \uXXXX escapes
   decoded to UTF-8) nested at most [max_depth] containers deep. Numbers are
   doubles; %.17g text round-trips every finite double exactly. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* --- encoding -------------------------------------------------------------- *)

let escape_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* %.17g text, which prints an integral value below 1e17 with neither a
   fraction nor an exponent *)
let number_string = Flex_dp.Float_text.to_string

let rec encode b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Num f ->
    if Float.is_finite f then Buffer.add_string b (number_string f)
    else Buffer.add_string b "null"
  | Str s -> escape_string b s
  | List vs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        encode b v)
      vs;
    Buffer.add_char b ']'
  | Obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        escape_string b k;
        Buffer.add_char b ':';
        encode b v)
      fields;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  encode b v;
  Buffer.contents b

(* --- decoding -------------------------------------------------------------- *)

exception Parse of string

(* Deep enough for every document the service writes (flight span trees,
   registry snapshots, journal lines), shallow enough that the recursion
   stays a few frames: a line of brackets is refused at its 257th bracket,
   so a decode costs time linear in the line's length. *)
let max_depth = 256

type parser_state = { src : string; mutable pos : int }

let error p fmt = Printf.ksprintf (fun m -> raise (Parse (Printf.sprintf "%s at offset %d" m p.pos))) fmt

let peek p = if p.pos < String.length p.src then Some p.src.[p.pos] else None

let skip_ws p =
  while
    p.pos < String.length p.src
    && match p.src.[p.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    p.pos <- p.pos + 1
  done

let expect p c =
  match peek p with
  | Some c' when c' = c -> p.pos <- p.pos + 1
  | Some c' -> error p "expected %c, found %c" c c'
  | None -> error p "expected %c, found end of input" c

let literal p word value =
  let n = String.length word in
  if p.pos + n <= String.length p.src && String.sub p.src p.pos n = word then begin
    p.pos <- p.pos + n;
    value
  end
  else error p "invalid literal"

(* encode one code point as UTF-8 *)
let add_utf8 b cp =
  if cp < 0x80 then Buffer.add_char b (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end

let hex4 p =
  if p.pos + 4 > String.length p.src then error p "truncated \\u escape";
  let s = String.sub p.src p.pos 4 in
  p.pos <- p.pos + 4;
  match int_of_string_opt ("0x" ^ s) with
  | Some v -> v
  | None -> error p "bad \\u escape %S" s

let parse_string p =
  expect p '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek p with
    | None -> error p "unterminated string"
    | Some '"' -> p.pos <- p.pos + 1
    | Some '\\' ->
      p.pos <- p.pos + 1;
      (match peek p with
      | None -> error p "unterminated escape"
      | Some c ->
        p.pos <- p.pos + 1;
        (match c with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          let cp = hex4 p in
          (* surrogate pair *)
          let cp =
            if cp >= 0xD800 && cp <= 0xDBFF && p.pos + 6 <= String.length p.src
               && p.src.[p.pos] = '\\' && p.src.[p.pos + 1] = 'u'
            then begin
              p.pos <- p.pos + 2;
              let lo = hex4 p in
              if lo >= 0xDC00 && lo <= 0xDFFF then
                0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
              else begin
                add_utf8 b cp;
                lo
              end
            end
            else cp
          in
          add_utf8 b cp
        | c -> error p "bad escape \\%c" c));
      go ()
    | Some c ->
      p.pos <- p.pos + 1;
      Buffer.add_char b c;
      go ()
  in
  go ();
  Buffer.contents b

let is_num_char = function '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false

(* A token is the longest run of [is_num_char]. A plain integer token (an
   optional sign and 1 to 15 digits) is exact in a double, so it is summed
   in place; any other token goes through [float_of_string], which decides
   what it accepts. *)
let parse_number p =
  let src = p.src and n = String.length p.src in
  let start = p.pos in
  let digits_from =
    if start < n && (src.[start] = '-' || src.[start] = '+') then start + 1 else start
  in
  let i = ref digits_from and v = ref 0 in
  while !i < n && match src.[!i] with '0' .. '9' -> true | _ -> false do
    v := (!v * 10) + (Char.code src.[!i] - Char.code '0');
    incr i
  done;
  let digits = !i - digits_from in
  if digits >= 1 && digits <= 15 && not (!i < n && is_num_char src.[!i]) then begin
    p.pos <- !i;
    (* negated, not multiplied: "-0" is -0.0 *)
    Num (if src.[start] = '-' then -.float_of_int !v else float_of_int !v)
  end
  else begin
    while p.pos < n && is_num_char src.[p.pos] do
      p.pos <- p.pos + 1
    done;
    let s = String.sub src start (p.pos - start) in
    match float_of_string_opt s with
    | Some f -> Num f
    | None -> error p "bad number %S" s
  end

(* [depth] counts the containers around the value being parsed *)
let rec parse_value p depth =
  skip_ws p;
  match peek p with
  | None -> error p "unexpected end of input"
  | Some 'n' -> literal p "null" Null
  | Some 't' -> literal p "true" (Bool true)
  | Some 'f' -> literal p "false" (Bool false)
  | Some '"' -> Str (parse_string p)
  | Some ('[' | '{') when depth >= max_depth ->
    error p "nesting deeper than %d levels" max_depth
  | Some '[' ->
    p.pos <- p.pos + 1;
    skip_ws p;
    if peek p = Some ']' then begin
      p.pos <- p.pos + 1;
      List []
    end
    else begin
      let rec items acc =
        let v = parse_value p (depth + 1) in
        skip_ws p;
        match peek p with
        | Some ',' ->
          p.pos <- p.pos + 1;
          items (v :: acc)
        | Some ']' ->
          p.pos <- p.pos + 1;
          List.rev (v :: acc)
        | _ -> error p "expected , or ] in array"
      in
      List (items [])
    end
  | Some '{' ->
    p.pos <- p.pos + 1;
    skip_ws p;
    if peek p = Some '}' then begin
      p.pos <- p.pos + 1;
      Obj []
    end
    else begin
      let field () =
        skip_ws p;
        let k = parse_string p in
        skip_ws p;
        expect p ':';
        let v = parse_value p (depth + 1) in
        (k, v)
      in
      let rec fields acc =
        let f = field () in
        skip_ws p;
        match peek p with
        | Some ',' ->
          p.pos <- p.pos + 1;
          fields (f :: acc)
        | Some '}' ->
          p.pos <- p.pos + 1;
          List.rev (f :: acc)
        | _ -> error p "expected , or } in object"
      in
      Obj (fields [])
    end
  | Some _ -> parse_number p

let of_string s =
  let p = { src = s; pos = 0 } in
  match parse_value p 0 with
  | v ->
    skip_ws p;
    if p.pos <> String.length s then Error (Printf.sprintf "trailing input at offset %d" p.pos)
    else Ok v
  | exception Parse m -> Error m

let of_string_exn s =
  match of_string s with Ok v -> v | Error m -> failwith ("Json.of_string: " ^ m)

(* --- accessors ------------------------------------------------------------- *)

let mem key = function Obj fields -> List.assoc_opt key fields | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_num = function Num f -> Some f | _ -> None

let to_int = function
  | Num f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_bool = function Bool b -> Some b | _ -> None
let to_list = function List vs -> Some vs | _ -> None

let required kind conv key j =
  match Option.bind (mem key j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or non-%s field %S" kind key)

let get_str = required "string" to_str
let get_num = required "number" to_num
let get_int = required "integer" to_int
let get_bool = required "boolean" to_bool

let str s = Str s
let num f = Num f
let int i = Num (float_of_int i)
let bool b = Bool b
