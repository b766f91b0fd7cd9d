(* Order statistics over run samples. *)

(* A growable float buffer: latencies are appended from the hot loop. *)
module Vec = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.0; len = 0 }

  let push v x =
    if v.len = Array.length v.data then begin
      let bigger = Array.make (2 * v.len) 0.0 in
      Array.blit v.data 0 bigger 0 v.len;
      v.data <- bigger
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let length v = v.len
  let to_array v = Array.sub v.data 0 v.len

  let concat vs =
    let out = create () in
    List.iter (fun v -> for i = 0 to v.len - 1 do push out v.data.(i) done) vs;
    out
end

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of a sorted array; 0 when empty. *)
let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let percentile a p = percentile_sorted (sorted a) p
let sum a = Array.fold_left ( +. ) 0.0 a
let mean a = if Array.length a = 0 then 0.0 else sum a /. float_of_int (Array.length a)

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then 0.0
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* First and third quartile exactly as Python's
   [statistics.quantiles(values, n=4)] (the default "exclusive" method), so
   the spreads printed here match a recomputation in Python. *)
let quartiles a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then (0.0, 0.0)
  else if n = 1 then (s.(0), s.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)
