(** Abstract reachability over the failed-set powerset.

    The constraint system has one unknown per failed set F with
    [|F| ≤ max_faults] — the powerset-capped-by-f domain of the crash
    adversary. Its value abstracts every concrete configuration reachable
    in a context where exactly F has crashed:

    - the seed unknown (F = ∅) starts from the initialized state;
    - task edges close each unknown under its own {!Transfer} posts;
    - crash edges flow A(F ∖ {i}) into A(F) unchanged — [fail_i] only moves
      the failed set, which the unknown index carries (the abstract
      configuration deliberately omits it, see {!Astate}).

    Solved with {!Fixpoint} over {!Astate}; the failure-free solution
    over-approximates the vertex set of G(C) (paper Fig. 3). *)

type info = {
  failed : Spec.Iset.t;
  astate : Astate.t;
  decides : (int * Ioa.Value.t) list;
      (** Decide events possible in this context (post-fixpoint pass). *)
  decide_havoc : bool;  (** Imprecision admits arbitrary decide events. *)
  real : bool array;  (** Per task index: the real action may fire. *)
}

type t = {
  sys : Model.System.t;
  max_faults : int;
  infos : info array;  (** Index 0 is the seed, the empty failed set. *)
  incidents : Transfer.incident list;  (** Deduplicated by code × subject. *)
  stats : Fixpoint.stats;
}

val analyze : ?max_faults:int -> ?inputs:Ioa.Value.t list -> Model.System.t -> t
(** From the initialized system. [max_faults] defaults to 1; [inputs] to the
    binary staircase convention [i mod 2]. *)

val seed_info : t -> info

val may_decided_values : t -> Vset.t
(** Every value any process may have decided, seed context. *)

val proven_blank : t -> bool
(** No decide event is abstractly reachable in the seed context — the
    static counterpart of a [Valence.Blank] root (sound: abstract absence
    implies concrete absence). *)

val never_decides : t -> int list
(** Processes provably unable to emit any decide event, seed context. *)

val dead_tasks : t -> (int * Model.Task.t) list
(** Tasks whose real action fires in no context, with their indices. *)

val crash_interval : t -> Interval.t
(** Hull of the crash counts covered by the constraint system. *)
