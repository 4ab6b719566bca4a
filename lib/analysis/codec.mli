(** Compact text codec for the persistent analysis cache.

    The strings and integers the lint, pcert and manifest payloads are
    built from, in a prefix encoding with no lookahead. Strings use OCaml [%S]
    escaping, so encoded payloads never contain raw newlines and envelope
    files stay line-structured. Decoders raise {!Corrupt} on any malformed
    input; the cache layer turns that into a quarantined entry, never a
    crash. *)

exception Corrupt of string

type cursor
(** A read position over an immutable payload string. *)

val cursor : string -> cursor
val peek : cursor -> char
val next : cursor -> char
val expect : cursor -> char -> unit

val string_out : Buffer.t -> string -> unit
val string_in : cursor -> string

val int_out : Buffer.t -> int -> unit
val int_in : cursor -> int
