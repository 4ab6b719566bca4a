(** Abstract configurations: the independent-attribute abstraction of
    {!Model.State.t}.

    Each component of the concrete state is abstracted separately — process
    program states and service object values by {!Vset}, each inv/resp
    buffer by a {!Vset} of whole-queue encodings paired with a length
    {!Interval} (the observable-buffer cardinality domain), decisions and
    inputs by an optional-value lattice. The [failed] set is deliberately
    absent: reachability ({!Reach}) indexes its constraint system by the
    failed set, the powerset-capped-by-f domain, so each abstract
    configuration describes the non-failure components only.

    The concretization of [St a] is the set of concrete states whose every
    component is described by the corresponding abstract component; [Bot]
    describes no state. An element of a failure-free G(C) vertex set (paper
    Fig. 3) concretizes from the solution at the ∅ unknown — see DESIGN.md. *)

type abuf = {
  items : Vset.t;  (** Whole queues, each encoded as a [Value.List]. *)
  len : Interval.t;  (** Queue length; kept exact while [items] is finite. *)
}

type asvc = { value : Vset.t; inv : abuf array; resp : abuf array }

type dopt = { may_none : bool; values : Vset.t }
(** Abstraction of ['a option]: [may_none] admits [None], [values] the
    possible payloads. *)

type st = {
  procs : Vset.t array;
  svcs : asvc array;
  decisions : dopt array;
  inputs : dopt array;
}

type t = Bot | St of st

include Lattice.S with type t := t

val bot : t
val of_state : Model.State.t -> t
(** Exact singleton abstraction ([failed] dropped). *)

val buf_of_queue : Ioa.Value.t list -> abuf
val buf_make : items:Vset.t -> len:Interval.t -> abuf
(** Renormalizes: a finite [items] recomputes [len] as the hull of the
    concrete lengths. *)

val buf_top : len:Interval.t -> abuf

val dopt_none : dopt
val dopt_of : Ioa.Value.t option -> dopt
val dopt_leq : dopt -> dopt -> bool
val dopt_join : dopt -> dopt -> dopt
