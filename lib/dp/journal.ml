(* Append-only journal of one record per line; see the .mli for the
   discipline. *)

type t = { path : string; sync : bool; mutable oc : out_channel option }

let open_append path = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path

(* How replay found the end of the file. *)
type tail =
  | Ends_line  (* empty, or the last line ends in a newline *)
  | Unterminated  (* the last line, a record or blank, has no newline *)
  | Torn of int  (* the last line did not decode; it starts at this offset *)

(* Streaming: [f] sees each record in file order and only the current line
   is held. An undecodable line ends replay if it is the last one (a crash
   mid-append, never acknowledged) and is corruption otherwise. *)
let replay path ~decode f =
  if not (Sys.file_exists path) then Ends_line
  else
    In_channel.with_open_bin path (fun ic ->
        let rec go tail =
          let start = pos_in ic in
          match In_channel.input_line ic with
          | None -> tail
          | Some line -> (
            let tail =
              if pos_in ic > start + String.length line then Ends_line else Unterminated
            in
            if String.trim line = "" then go tail
            else
              match decode line with
              | Ok r ->
                f r;
                go tail
              | Error msg ->
                if Option.is_some (In_channel.input_line ic) then
                  Fmt.invalid_arg "corrupt journal %s: %s in %S" path msg line
                else Torn start)
        in
        go Ends_line)

let iter path ~decode f = ignore (replay path ~decode f)

let open_ ?(sync = false) path ~decode f =
  let tail = replay path ~decode f in
  (* The next append must start a line of its own, or it would merge with
     the last one and both would be lost on the next replay. *)
  (match tail with Torn offset -> Unix.truncate path offset | _ -> ());
  let oc = open_append path in
  if tail = Unterminated then begin
    output_char oc '\n';
    flush oc
  end;
  { path; sync; oc = Some oc }

let write_line oc line =
  output_string oc line;
  output_char oc '\n'

let commit t oc =
  flush oc;
  if t.sync then Unix.fsync (Unix.descr_of_out_channel oc)

let append t line =
  match t.oc with
  | None -> ()
  | Some oc ->
    write_line oc line;
    commit t oc

let close t =
  match t.oc with
  | None -> ()
  | Some oc ->
    close_out oc;
    t.oc <- None

let rewrite t lines =
  let tmp = t.path ^ ".compact" in
  let oc = open_out_gen [ Open_trunc; Open_creat; Open_wronly; Open_binary ] 0o644 tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Seq.iter (write_line oc) lines;
      commit t oc);
  Sys.rename tmp t.path;
  close t;
  t.oc <- Some (open_append t.path)

let path t = t.path
