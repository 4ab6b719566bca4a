(** Sets of process indices (endpoints, failed sets). *)

include Set.S with type elt = int

val pp : Format.formatter -> t -> unit
val to_value : t -> Ioa.Value.t
(** Canonical {!Ioa.Value} set encoding, for embedding into component states. *)

val of_value : Ioa.Value.t -> t
