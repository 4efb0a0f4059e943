(** A minimal JSON representation: enough to emit the bench reports and
    Chrome traces, and to re-parse them in tests, without pulling a
    JSON package into the dependency cone. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string

val output : out_channel -> t -> unit
val write_file : string -> t -> unit

(** Strict parser for the subset we emit (no trailing garbage).
    Returns [Error msg] with a character offset on malformed input. *)
val parse : string -> (t, string) result

val member : string -> t -> t option
