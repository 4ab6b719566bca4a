(** The static interference relation over tasks.

    Two tasks interfere when one's may-write footprint overlaps the other's
    may-read-or-write footprint ({!Footprint}); otherwise they are
    independent, and independence is sound for commutation: independent
    tasks commute — same final state, applicability preserved either way —
    at every configuration within the [max_crashes] bound, under either
    policy. The relation over-approximates non-commutation, so any pair
    {!Engine.Commute.check_disjoint} finds concretely non-commuting is
    flagged interfering; the converse direction is what the partial-order
    reduction in {!Chaos.Explore} exploits (swapping adjacent independent
    steps preserves the run's verdict, DESIGN.md §3.9).

    [crash_interferes] is the same question against the adversary's
    [fail_pid] input, whose footprint writes only the pid's crash bit: a
    task not reading that bit behaves identically on both sides of the
    crash delivery. *)

type t

val analyze : ?reach:Reach.t -> ?max_crashes:int -> Model.System.t -> t
(** Compute all task footprints once. [max_crashes] defaults to the process
    count (fully conservative); pass the exploration's fault bound to
    sharpen crash-bit reads. [reach] enables the process-step refinement
    (see {!Footprint.of_task}). *)

val max_crashes : t -> int

val footprint : t -> Model.Task.t -> Footprint.t
(** Raises [Invalid_argument] for a task not in the system. *)

val interferes : t -> Model.Task.t -> Model.Task.t -> bool
(** Symmetric; a task always interferes with itself. *)

val independent : t -> Model.Task.t -> Model.Task.t -> bool

val crash_interferes : t -> pid:int -> Model.Task.t -> bool
(** Whether the task may observe [pid]'s crash bit (so delivering [fail_pid]
    across it is not a provable no-op swap). *)

val net_interferes : t -> Footprint.net_op -> Model.Task.t -> bool
(** Whether the task's footprint clashes with the delivery's
    ({!Footprint.of_net_op}): an omission interferes exactly with the tasks
    touching its target response buffer, a topology change with the
    service-output turns whose [blocked] gate reads the partition state.
    Independence is sound for commutation — the slid-past task neither
    observes the mutated buffer (including its vacuousness) nor changes it,
    so both orders reach the same configuration. *)

val net_independent : t -> Footprint.net_op -> Model.Task.t -> bool

val net_net_interferes : Footprint.net_op -> Footprint.net_op -> bool
(** Two deliveries clash iff they touch a shared component: omissions on the
    same (service, endpoint) buffer, or two topology changes. Needs no task
    analysis, hence no [t]. *)

val net_crash_interferes : Footprint.net_op -> pid:int -> bool
(** Always false — no net delivery touches a crash bit — kept as the third
    leg of the relation so the soundness battery audits it like the rest. *)

val static_participants : t -> Model.Task.t -> Model.System.participant list
(** Union of {!Model.System.participants} over every action the task can
    take in any configuration. *)

type race = { e : Model.Task.t; e' : Model.Task.t; component : Footprint.component }

val races : t -> race list
(** Task pairs sharing a written component while their static participant
    sets are disjoint — conflicts outside the paper's Lemma 8 discipline
    (tasks with disjoint participants must commute). Expected empty for
    well-wired systems; any hit marks an interface breach. *)

val pp_race : Format.formatter -> race -> unit

val independent_pairs : t -> int * int
(** [(independent, total)] over unordered distinct task pairs. *)

val pp_summary : Format.formatter -> t -> unit
(** Per-task footprints and the independence census. *)
