(** Bounded value-set domain over {!Ioa.Value.t}.

    The control/decision lattice for per-process program states, service
    object values and buffer contents: a finite set of concrete values up to
    {!cap} elements, then [Top] (any value). Finite height cap+1, so
    widening is plain join; precision degrades to [Top] instead of
    diverging. [Bot] is the empty set. *)

type t = Top | Set of Ioa.Value.t list  (** Sorted, duplicate-free. *)

include Lattice.S with type t := t

val cap : int
(** Cardinality bound before collapsing to [Top] (24). *)

val bot : t
val top : t
val is_top : t -> bool
val singleton : Ioa.Value.t -> t
val of_list : Ioa.Value.t list -> t
val add : Ioa.Value.t -> t -> t
val mem : Ioa.Value.t -> t -> bool
(** [mem _ Top] is true. *)

val elements : t -> Ioa.Value.t list option
(** [None] on [Top]. *)

val cardinal : t -> int option

val map : (Ioa.Value.t -> Ioa.Value.t) -> t -> t
(** Pointwise image, [Top]-preserving, re-capped. *)

val concat_map : (Ioa.Value.t -> t) -> t -> t
(** Union of images; any [Top] image collapses the result. *)
