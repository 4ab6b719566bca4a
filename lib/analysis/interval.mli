(** Natural-number intervals with an infinite upper bound.

    The cardinality domain for crash counts and observable buffer lengths:
    [Range (lo, hi)] abstracts every n with lo ≤ n ≤ hi, where hi may be
    [Inf]. Height is unbounded through [hi], so {!widen} jumps unstable
    upper bounds to [Inf] (and unstable lower bounds to 0). *)

type bound = Fin of int | Inf

type t = Bot | Range of int * bound

include Lattice.S with type t := t

val bot : t
val zero : t
val range : int -> int -> t
(** [range lo hi] — both inclusive; [Bot] when [hi < lo]. *)

val unbounded : int -> t
(** [unbounded lo] is [lo, ∞). *)

val mem : int -> t -> bool

val add : t -> int -> t
(** Shift both bounds by a constant, saturating the lower bound at 0. *)

val stretch : t -> int -> t
(** [stretch t k] widens the upper bound by [k] (models pushes that may
    coalesce: the length grows by 0..k). *)

val pred : t -> t
(** Abstract decrement (a pop): lower bound drops by one (saturating at 0),
    upper bound drops by one when finite and positive. *)

val hull : int list -> t
(** Convex hull of a finite sample, [Bot] on []. *)
