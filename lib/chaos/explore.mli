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

val pp_violation : Format.formatter -> violation -> unit

type report = {
  examined : int;
  space : int;  (** Full enumeration-space size for the config. *)
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
          equivalent already-run configuration. Always 0 for {!run}. *)
  static_prunes : int;
      (** Schedules skipped without any concrete execution because the
          abstract-interpretation oracle ({!Analysis.Prune.clean_from})
          proved them infeasible as violations: every fault lands at or
          after the certified quiescence step (net faults additionally
          require the empty-buffer certificate), so the run provably ends
          in a clean lasso. Counted as examined. Always 0 for {!run} and
          for {!run_par} without [static_prune]. *)
  por_prunes : int;
      (** Schedules skipped by partial-order reduction ({!run_par} with
          [por]): their fault placement differs from a lower-ranked
          schedule's only by sliding deliveries (crash, omission, or a
          partition's begin/heal pair) past task slots that are statically
          independent of them ({!Analysis.Interfere}), so the lower-ranked
          run provably reaches the same verdict. Counted as examined.
          Always 0 for {!run}. *)
  violation : violation option;
}

val schedules : Model.System.t -> config -> Schedule.t Seq.t
(** The lazy candidate stream: by fault count, then fault-site subsets, then
    step assignments, all lexicographic. Fault sites are drawn per kind in
    [config.kinds] order — crashes per pid, silences per service,
    drop/dup/delay per (service, endpoint), isolate-one-pid partitions per
    pid — so with [kinds = [Crash_k]] the stream coincides with the old
    crash-only enumeration. Every candidate uses the silencing adversary
    ({!Schedule.make}'s default). *)

val space_size : Model.System.t -> config -> int

val run :
  ?monitors:Monitor.t list ->
  ?config:config ->
  ?stop:(unit -> bool) ->
  Model.System.t ->
  report
(** The sequential explorer — the trusted oracle the parallel engine is
    differentially tested against. Single-domain, no dedup, first violation
    in enumeration order wins. [stop] is polled once per candidate; once it
    returns true the scan ends immediately and the report is marked
    [wall_truncated]. *)

(** {1 Parallel exploration}

    {!run_par} distributes the same candidate enumeration over OCaml 5
    domains ({!Analysis.Pool}): each domain takes the lowest rank
    (enumeration index) not yet handed out from one shared atomic counter,
    each rank's record lands in a rank-indexed slot, and the records are
    merged deterministically — counters are summed
    over ranks at most the winning rank, and the winning violation is the
    rank-least (then lexicographically least) one, so the merged report is
    identical run-to-run regardless of interleaving, and identical to {!run}
    whenever dedup is off.

    With [dedup] (default on), each run fingerprints its configuration at
    schedule activation ({!Fingerprint.key}: round-robin cursor, observable
    history, exact state); a configuration whose continuation was already
    proven quiescent by a lasso run is pruned and inherits that verdict.
    Pruning preserves verdicts, [examined], [space], [truncated],
    [step_budget_hits] and [undelivered_crashes] exactly; only
    [monitor_truncations] can undercount (a pruned run's suffix truncations
    are not re-counted). Dedup is disabled automatically under [Seeded]
    interleaving, where runs are not cursor×state deterministic. *)

type run_record = {
  rank : int;  (** Enumeration index of the candidate schedule. *)
  budget_hit : bool;
  truncations : int;
  undelivered : int;
  undelivered_n : int;
  vacuous : int;
  deduped : bool;
  statically_pruned : bool;
      (** Skipped by the static infeasibility oracle; the clean-lasso
          counters were recorded without executing the run. *)
  por_pruned : bool;
      (** Skipped by partial-order reduction: an equivalent lower-ranked
          schedule represents this run's verdict. *)
  parent : int option;
      (** The rank whose record this one's counters are inherited from:
          the slid-earlier equivalent for POR prunes, rank 0 (the
          fault-free run, for monitor truncations) for net-bearing static
          prunes, [None] otherwise. Resolved — transitively, for chains of
          slides — once every rank has run, before {!merge}. *)
  found : violation option;
}
(** One run's result, the unit {!merge} operates on. *)

val merge : ?wall:bool -> space:int -> scheduled:int -> run_record list -> report
(** Deterministic, order-insensitive merge: any shuffling of the records
    yields the identical report. [scheduled] is the number of ranks dealt
    out, i.e. [min budget space]. With [wall] (default false) and no winning
    violation, the report is marked [wall_truncated] and [examined] counts
    the records actually produced. *)

val run_par :
  ?monitors:Monitor.t list ->
  ?config:config ->
  ?domains:int ->
  ?dedup:bool ->
  ?static_prune:bool ->
  ?por:bool ->
  ?stop:(unit -> bool) ->
  Model.System.t ->
  report
(** [domains] defaults to 1 (same pool, no spawned domains);
    [dedup] defaults to true.

    With [static_prune] (default false), the abstract-interpretation oracle
    {!Analysis.Prune.clean_from} certifies a quiescence step Q once per
    exploration; silencing candidates whose faults all land at steps ≥ Q
    are then skipped without concrete execution, recording exactly the
    counters their run would have produced (clean lasso, all faults
    delivered). Net-bearing candidates additionally require the
    certificate's [buffers_empty] (post-Q omission deliveries provably
    vacuous, partitions never blocking) and a per-schedule check that the
    delivery tail — a partition heals half a horizon past its begin — fits
    the step budget; silences always disqualify. The report is
    byte-identical to the unpruned one except that [monitor_truncations]
    can undercount (like dedup) and [static_prunes] counts the skips. The
    oracle only engages under the convention it certifies: default
    monitors (degrade-aware when [config.degrade]), round-robin
    interleaving, and a step budget large enough that no pruned run could
    have hit [Budget]; otherwise every candidate runs concretely.

    With [por] (default false), candidates whose fault placement is
    non-canonical — some delivery (a crash, an omission, or a partition's
    begin/heal pair sliding together) can slide one grid notch earlier
    across task slots that provably ignore its footprint (the static
    interference relation, {!Analysis.Interfere}, sharpened by the
    config's fault bound; see DESIGN.md §3.12 for the net-fault rows and
    the partition-boundary and degrade refinements) — are skipped: an
    equivalent schedule of strictly lower rank runs the same task slots to
    the same verdict. Violations, [examined], [space] and [truncated]
    match the un-reduced oracle exactly (a violating schedule's canonical
    form violates at lower rank, so the rank-least winner is never
    pruned); the per-run counters are inherited from the slid parent's
    record, so they too match wherever the parent itself ran concretely.
    Engages under the same convention: default monitors (degrade-aware
    when [config.degrade]), round-robin interleaving, sufficient step
    budget — with a per-schedule delivery-tail check for net-bearing
    candidates. Composes freely with [dedup], [static_prune], [degrade]
    and [domains]. *)
