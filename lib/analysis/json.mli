(** The one JSON writer behind every artifact [boost] prints or writes:
    lint findings, resilience certificates, cache statistics and
    exploration statistics. Object members keep their order, and every
    string, keys included, goes through one escaper. *)

type t = Bool of bool | Int of int | String of string | List of t list | Obj of (string * t) list

val compact : t -> string
(** One line, no whitespace: [{"a":1,"b":[true]}]. *)

val pretty : t -> string
(** Two-space indentation, one member or element per line, [": "] after
    keys, a final newline; empty objects and lists print as [{}] and [[]]. *)
