(** Systematic fault-schedule exploration: enumerate crash placements up to
    [max_faults] failures across a bounded step space and run each candidate
    under the monitored runner, stopping at the first violation.

    Bounds are explicit and truncation is reported, never silent: the report
    carries the full enumeration-space size versus the number of schedules
    actually examined, the runs that hit the step budget undecided, and any
    monitor that declined to decide. *)

type config = {
  max_faults : int;  (** Enumerate 0, 1, ..., [max_faults] faults. *)
  horizon : int;  (** Fault steps drawn from [0, horizon). *)
  stride : int;  (** Step-grid granularity. *)
  budget : int;  (** Maximum schedules to run. *)
  max_steps : int;  (** Per-run step bound. *)
  kinds : Schedule.kind list;
      (** Fault kinds the budget lattice ranges over. [[Crash_k]] reproduces
          the crash-only enumeration of the earlier engine exactly (pinned
          by the differential in test_chaos_net.ml). *)
  degrade : bool;
      (** Annotate each violation with the live guarantee vector
          ({!Degrade.describe}) at the violating prefix's end, and run the
          degrade-aware default monitor family
          ([Monitor.defaults ~degrade:true ()]) whenever the caller passes
          no explicit [monitors]. Off by default. *)
}

val default_config : Model.System.t -> config
(** 1 fault, horizon twice the task count, stride 1, 1024 schedules,
    20_000 steps, crash faults only, no degrade annotation. *)

type violation = {
  schedule : Schedule.t;
  monitor : string;
  reason : string;
  proven : bool;
  exec : Model.Exec.t;  (** The violating prefix. *)
  steps : int;
      (** The violating run's step count (>= the exec length: skipped and
          vacuous turns advance the step clock without appending an event);
          the shrinker clamps fault references to this range. *)
  degraded_to : string option;
      (** With [config.degrade]: the live guarantee vector at the end of the
          violating prefix, pretty-printed. [None] otherwise, keeping
          crash-only reports byte-identical to the degrade-off runs. *)
}

val violation_of :
  degrade:bool -> Model.System.t -> Schedule.t -> Runner.result -> violation option
(** What a run under [schedule] says: [Some] violation iff it stopped on
    one, with [degraded_to] filled ({!Degrade.describe} of the violating
    prefix) iff [degrade]. Every violation record is built here: by the
    explorers, the seeded driver, the shrinker and the workload engine's
    shots. *)

val pp_violation : Format.formatter -> violation -> unit

type report = {
  examined : int;
  space : int;
      (** Full enumeration-space size for the config ({!space_size}:
          [max_int] when saturated). *)
  truncated : bool;  (** Enumeration budget hit before exhausting the space. *)
  wall_truncated : bool;
      (** The caller's [stop] thunk fired before the enumeration finished
          and no violation had been found: the report is a partial,
          wall-clock-truncated view of the space. *)
  step_budget_hits : int;  (** Runs ending undecided at [max_steps]. *)
  monitor_truncations : int;
  undelivered_crashes : int;
  undelivered_net : int;
      (** Net faults / partition starts scheduled beyond executed ranges. *)
  vacuous_net_faults : int;
      (** Delivered net faults that found an empty buffer (no-ops). *)
  dedup_hits : int;
      (** Schedules pruned by configuration fingerprint ({!run_par} with
          dedup): counted as examined — their verdict is inherited from an
          equivalent already-run configuration. Always 0 for {!run}. The
          count depends on the visited cache's evictions and, above one
          domain, on timing, so no printed report shows it: [boost chaos]
          writes it only to its [--prune-stats-out] file. *)
  violation : violation option;
}

val empty_report : space:int -> report
(** Nothing examined yet, out of [space] candidates. *)

val of_run :
  degrade:bool -> ?inherited:int -> Model.System.t -> Schedule.t -> Runner.result -> report
(** One run's contribution to a report: [examined] 1, a step-budget hit iff
    it stopped at [Budget], its monitor truncations plus [inherited]
    (default 0: those a pruned run inherits from its recorded twin), its
    undelivered and vacuous fault counts, a dedup hit iff it was [Pruned],
    and its {!violation_of}. [space] is 0 and neither truncation flag is
    set. *)

val add : report -> report -> report
(** [add acc run] sums [run]'s counters ([examined], [step_budget_hits],
    [monitor_truncations], [undelivered_crashes], [undelivered_net],
    [vacuous_net_faults], [dedup_hits]) into [acc]; [acc]'s violation
    stands if it has one, else [run]'s. [space] and the truncation flags
    are [acc]'s. {!merge} and the seeded driver both count runs by folding
    this over {!of_run}; {!run} counts on its own, being the oracle they
    are checked against. *)

val schedules : Model.System.t -> config -> Schedule.t Seq.t
(** The lazy candidate stream: by fault count, then fault-site subsets, then
    step assignments, all lexicographic. Fault sites are drawn per kind in
    [config.kinds] order — crashes per pid, silences per service,
    drop/dup/delay per (service, endpoint), isolate-one-pid partitions per
    pid — so with [kinds = [Crash_k]] the stream coincides with the old
    crash-only enumeration. Every candidate uses the silencing adversary
    ({!Schedule.make}'s default). *)

val space_size : Model.System.t -> config -> int
(** The number of candidates {!schedules} enumerates, saturating at
    [max_int] when the true count exceeds it. *)

val run :
  ?monitors:Monitor.t list ->
  ?config:config ->
  ?stop:(unit -> bool) ->
  Model.System.t ->
  report
(** The plain sequential explorer: single-domain, no dedup, no shared
    prefix, first violation in enumeration order wins. No command runs it;
    it is the trusted oracle {!run_par} is differentially tested against.
    [stop] is polled once per candidate; once it returns true the scan ends
    immediately and the report is marked [wall_truncated]. *)

(** {1 The explorer}

    {!run_par} is the one explorer the chaos driver runs, at every domain
    count. It streams the candidate enumeration in blocks of ranks
    (enumeration indices): each block goes through {!Analysis.Pool}, whose
    domains take the lowest rank not yet handed out from one shared atomic
    counter, and the block's records are {!merge}d into the report over
    every earlier rank. Counters are summed over ranks at most the winning
    rank, and the winning violation is the rank-least one, so the report
    is identical to {!run}'s regardless of interleaving, and a violation
    ends the scan after its block. Memory stays bounded by one block,
    whatever the space size. The one field that differs from {!run}'s is
    [dedup_hits].

    With [dedup] (default on), each run fingerprints its configuration at
    schedule activation ({!Fingerprint.key}: round-robin cursor, observable
    history, exact state); a configuration whose continuation was already
    proven quiescent by a lasso run is pruned and inherits that run's whole
    continuation: its verdict and the monitor truncations its suffix
    recorded, which the pruned run adds to its own up to activation. The
    visited set is {!Fingerprint.Visited}, a fixed-size lock-free cache: an
    eviction costs a later hit, never a wrong prune. The report therefore
    equals {!run}'s in every field but [dedup_hits], which depends on which
    twin of a reconverging pair ran first and on evictions. Exploration
    always runs the round-robin interleaving, where a run's continuation is
    a function of cursor and state; seeded chaos mode never dedups.

    Every candidate resumes from the shared fault-free stem
    ({!Runner.prefix}) at its first fault's step: before it, each candidate
    coincides with the fault-free run. *)

type run_record = {
  rank : int;  (** Enumeration index of the candidate schedule. *)
  run : report;  (** Its {!of_run}. *)
}
(** One run's result, the unit {!merge} operates on. *)

val merge :
  ?wall:bool -> ?into:report -> space:int -> scheduled:int -> run_record list -> report
(** Deterministic, order-insensitive merge: any shuffling of the records
    yields the identical report. The winning violation is the rank-least
    one (each rank is dealt once, so it is unique), and the records at
    ranks at most the winner's are {!add}ed, in any order, to [into] (or to
    {!empty_report}). [scheduled] is the number of ranks dealt out so far,
    i.e. [min budget space] once the last block is dealt. With [wall]
    (default false) and no winning violation, the report is marked
    [wall_truncated] and [examined] counts the records actually produced.
    [into], if given, is the merged report over every rank below this
    block's, none of which violated. *)

val run_par :
  ?monitors:Monitor.t list ->
  ?config:config ->
  ?domains:int ->
  ?dedup:bool ->
  ?stop:(unit -> bool) ->
  Model.System.t ->
  report
(** [domains] defaults to 1 (same pool, no spawned domains);
    [dedup] defaults to true. [stop] is polled before each rank, as
    {!run} polls it before each candidate. Without [monitors], runs check
    the default family, degrade-aware when [config.degrade]. *)
