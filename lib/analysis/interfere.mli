(** The static interference relation over tasks.

    Two tasks interfere when one's may-write footprint overlaps the other's
    may-read-or-write footprint ({!Footprint}); otherwise they are
    independent, and independence is sound for commutation: independent
    tasks commute — same final state, applicability preserved either way —
    at every configuration within the [max_crashes] bound, under either
    policy. The relation over-approximates non-commutation, so any pair
    {!Engine.Commute.check_disjoint} finds concretely non-commuting is
    flagged interfering. [boost lint] prints the relation and its
    [static-race] check ({!races}) audits it against the paper's Lemma 8
    discipline (DESIGN.md §3.9). *)

type t

val analyze : ?reach:Reach.t -> ?max_crashes:int -> Model.System.t -> t
(** Compute all task footprints once. [max_crashes] defaults to the process
    count (fully conservative); pass the exploration's fault bound to
    sharpen crash-bit reads. [reach] enables the process-step refinement
    (see {!Footprint.of_task}). *)

val footprint : t -> Model.Task.t -> Footprint.t
(** Raises [Invalid_argument] for a task not in the system. *)

val interferes : t -> Model.Task.t -> Model.Task.t -> bool
(** Symmetric; a task always interferes with itself. *)

val independent : t -> Model.Task.t -> Model.Task.t -> bool

val static_participants : t -> Model.Task.t -> Model.System.participant list
(** Union of {!Model.System.participants} over every action the task can
    take in any configuration. *)

type race = { e : Model.Task.t; e' : Model.Task.t; component : Footprint.component }

val races : t -> race list
(** Task pairs sharing a written component while their static participant
    sets are disjoint — conflicts outside the paper's Lemma 8 discipline
    (tasks with disjoint participants must commute). Expected empty for
    well-wired systems; any hit marks an interface breach. *)

val independent_pairs : t -> int * int
(** [(independent, total)] over unordered distinct task pairs. *)

val pp_summary : Format.formatter -> t -> unit
(** Per-task footprints and the independence census. *)
