(** Generic worklist fixpoint solver with delayed widening.

    Solves a finite constraint system over any {!Lattice.S}: unknowns are
    integers [0..n-1], each with a monotone right-hand side reading the
    current assignment. Iteration is chaotic with an explicit worklist; an
    unknown updated more than three times routes further growth through
    [widen], so unbounded-height domains still stabilize. *)

type stats = {
  iterations : int;  (** Right-hand-side evaluations performed. *)
  widenings : int;  (** Updates that went through [widen]. *)
}

module Make (L : Lattice.S) : sig
  val solve :
    n:int ->
    bot:L.t ->
    rhs:(get:(int -> L.t) -> int -> L.t) ->
    dependents:(int -> int list) ->
    L.t array * stats
  (** [rhs ~get u] must include every contribution to unknown [u] (seeds
      and flow edges); [dependents u] lists the unknowns whose right-hand
      sides read [u] (requeued when [u] grows). The result is a
      post-fixpoint: [leq (rhs ~get u) (get u)] for every [u]. *)
end
