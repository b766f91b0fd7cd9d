(** An append-only journal of one record per line: the file discipline the
    budget ledger and the release store share. The record format is the
    caller's; this module owns the file.

    Write protocol: {!append} writes the record and its newline and flushes
    (and fsyncs, when opened with [sync]) before it returns, and the caller
    acts on the record only after that. A crash can therefore leave at most
    one damaged line, the last one, and only ever as a record that was never
    acknowledged. Replay streams the file in order, skips blank lines, cuts
    off an undecodable last line (a torn append), and refuses an undecodable
    line anywhere else as corruption.

    A journal does no locking: its owner serialises {!append}, {!rewrite}
    and {!close}. *)

type t

val open_ :
  ?sync:bool -> string -> decode:(string -> ('a, string) result) -> ('a -> unit) -> t
(** Replay the journal at the given path, passing each decoded record to the
    callback in file order, then open it for appending; the file is created
    when absent. Before the first append, an undecodable last line is cut off
    the file, and a last record that decoded but lost its newline gets the
    newline back, so every append starts a line of its own. [sync] fsyncs
    every {!append} and {!rewrite} (default: flush only), and the journal's
    directory once opened, so a file this call created survives an OS
    crash.
    @raise Invalid_argument naming the file when a line other than the last
    does not decode. *)

val iter : string -> decode:(string -> ('a, string) result) -> ('a -> unit) -> unit
(** The replay of {!open_} without opening for append: the file is only
    read, never cut or repaired, and a missing file has no records. *)

val append : t -> string -> unit
(** Write one record (a line without its newline) and its newline, flush,
    and fsync under [sync]. Does nothing after {!close}. *)

val rewrite : t -> string Seq.t -> unit
(** Replace the journal with these records, atomically: they are written to
    a temporary file beside it, flushed (and fsynced under [sync]) and
    renamed over it, and under [sync] the directory is fsynced after the
    rename, so a crash leaves either the old journal or the new one whole.
    Later appends go to the new file. *)

val close : t -> unit
val path : t -> string
