(** The lattice signature every abstract domain plugs into.

    The analyzer is a classic abstract interpreter: abstract values form a
    join-semilattice with a widening operator, transfer functions are
    monotone, and {!Fixpoint} iterates a constraint system to a
    post-fixpoint. Domains here are finite-height in practice ({!Vset} caps
    its cardinality, {!Interval} widens to ∞), so [widen] may coincide with
    [join]; the solver still routes late updates through [widen] so an
    unbounded domain added later terminates too. *)

module type S = sig
  type t

  val leq : t -> t -> bool
  (** Partial order: [leq a b] iff [a] describes a subset of what [b]
      describes. *)

  val join : t -> t -> t
  (** Least upper bound (or a sound upper bound where exact lub is not
      representable). *)

  val widen : t -> t -> t
  (** [widen old next] — an upper bound of both that guarantees
      stabilization along any ascending chain. Called with [leq old next]. *)

  val equal : t -> t -> bool

  val pp : Format.formatter -> t -> unit
end
