type t = {
  name : string;
  start_ns : float;
  mutable end_ns : float; (* 0. = still open *)
  mutable rev_children : t list;
  lock : Mutex.t; (* the root's mutex, shared by the whole tree *)
}

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let root ?(start_ns = Clock.now_ns ()) name =
  { name; start_ns; end_ns = 0.0; rev_children = []; lock = Mutex.create () }

let enter ?(start_ns = Clock.now_ns ()) parent name =
  let child = { name; start_ns; end_ns = 0.0; rev_children = []; lock = parent.lock }
  in
  with_lock parent (fun () -> parent.rev_children <- child :: parent.rev_children);
  child

let finish ?(end_ns = Clock.now_ns ()) t =
  with_lock t (fun () -> if t.end_ns = 0.0 then t.end_ns <- end_ns)

let timed parent name f =
  match parent with
  | None -> f None
  | Some p ->
    let child = enter p name in
    Fun.protect ~finally:(fun () -> finish child) (fun () -> f (Some child))

type view = { name : string; start_ns : float; duration_ns : float; children : view list }

let view t =
  let rec snap (s : t) =
    {
      name = s.name;
      start_ns = s.start_ns;
      duration_ns = (if s.end_ns = 0.0 then 0.0 else Float.max 0.0 (s.end_ns -. s.start_ns));
      children = List.rev_map snap s.rev_children;
    }
  in
  with_lock t (fun () -> snap t)

let rec find v path =
  match path with
  | [] -> Some v
  | name :: rest -> (
    match List.find_opt (fun c -> c.name = name) v.children with
    | Some c -> find c rest
    | None -> None)

let duration_of v path = match find v path with Some s -> s.duration_ns | None -> 0.0

let to_json v =
  let b = Buffer.create 256 in
  let rec go v =
    Buffer.add_string b
      (Printf.sprintf "{\"name\":\"%s\",\"start_ns\":%s,\"duration_ns\":%s,\"children\":["
         (Textenc.json_escape v.name) (Textenc.number v.start_ns) (Textenc.number v.duration_ns));
    List.iteri
      (fun i c ->
        if i > 0 then Buffer.add_char b ',';
        go c)
      v.children;
    Buffer.add_string b "]}"
  in
  go v;
  Buffer.contents b
