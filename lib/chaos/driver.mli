(** The chaos engine's front door: explore (systematically or by seeded
    random walks), monitor, shrink, and render the result through the
    impossibility engine's witness vocabulary.

    A minimized f-termination violation becomes an
    {!Engine.Counterexample.Non_termination} witness (with the schedule's
    crashed pids as the failed set and [proven] tracking whether a lasso
    was found); agreement/validity violations map to their witnesses
    likewise, so chaos findings print exactly like the Theorem 2/9/10
    refutations. *)

type mode =
  | Systematic of Explore.config
  | Seeded of {
      seed : int;
      runs : int;  (** Seeds [seed], [seed+1], ... are tried in order. *)
      max_faults : int;
      horizon : int;
      max_steps : int;
      kinds : Schedule.kind list;
          (** Fault kinds the random generator may draw; see
              {!Rand.schedule}. *)
      degrade : bool;
          (** Annotate violations with the live guarantee vector, as
              {!Explore.config.degrade} does for systematic mode. *)
    }

type outcome =
  | Passed
  | Violated of {
      original : Explore.violation;
      minimized : Explore.violation option;  (** When shrinking was enabled. *)
      shrink_stats : Shrink.stats option;
      witness : Engine.Counterexample.witness option;
          (** Rendering of the final (minimized if available) violation;
          [None] for properties outside the engine's vocabulary
          (k-agreement, linearizability), which are reported directly. *)
      replayed : bool option;
          (** Seeded mode only: the violating seed was re-run and produced
          the identical event sequence. *)
    }

type report = {
  mode : mode;
  examined : int;
  space : int;
  truncated : bool;
  wall_truncated : bool;
      (** The wall-clock budget ([stop] returning true) cut the run short
          before a violation was found; reported as
          ["truncated: wall-clock"]. *)
  step_budget_hits : int;
  monitor_truncations : int;
  undelivered_crashes : int;
  undelivered_net : int;
      (** Network faults / partition starts scheduled beyond executed
          ranges, summed over runs. *)
  vacuous_net_faults : int;
      (** Delivered network faults that found an empty buffer and mutated
          nothing, summed over runs. *)
  dedup_hits : int;
      (** Schedules pruned by configuration fingerprint (systematic mode
          through {!Explore.run_par} with [dedup]; 0 otherwise). *)
  static_prunes : int;
      (** Schedules skipped by the abstract-interpretation infeasibility
          oracle (systematic mode with [static_prune]; 0 otherwise). *)
  por_prunes : int;
      (** Schedules skipped by partial-order reduction (systematic mode
          with [por]; 0 otherwise). *)
  outcome : outcome;
}

val witness_of_violation : Explore.violation -> Engine.Counterexample.witness option

val run :
  ?monitors:Monitor.t list ->
  ?shrink:bool ->
  ?domains:int ->
  ?dedup:bool ->
  ?static_prune:bool ->
  ?por:bool ->
  ?stop:(unit -> bool) ->
  mode ->
  Model.System.t ->
  report
(** [shrink] defaults to true. [domains] (default 1) > 1, [static_prune]
    (default false) or [por] (default false) routes systematic exploration
    through {!Explore.run_par} with [dedup] (default true); otherwise the
    sequential {!Explore.run} path is kept, byte-identical to the
    pre-parallel engine. Seeded mode ignores all four.

    [stop] (default never) is the wall-clock budget: polled between
    candidate schedules in every mode; once it returns true no further
    schedule starts, and the partial report carries
    [wall_truncated = true] unless a violation had already been found.
    Shrinking of an already-found violation is not interrupted. *)

val pp_report : Format.formatter -> report -> unit
