module type S = sig
  type t

  val leq : t -> t -> bool
  val join : t -> t -> t
  val widen : t -> t -> t
  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end
