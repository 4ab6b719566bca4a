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
          with [dedup]; 0 otherwise). {!pp_report} does not print it: it
          depends on cache evictions and domain timing, while every printed
          line is the same with or without dedup at every domain count. *)
  outcome : outcome;
}

val run :
  ?monitors:Monitor.t list ->
  ?shrink:bool ->
  ?domains:int ->
  ?dedup:bool ->
  ?stop:(unit -> bool) ->
  mode ->
  Model.System.t ->
  report
(** [monitors] defaults to {!Monitor.defaults}, degrade-aware when the
    mode's [degrade] is set; the runs and the shrinker all check that one
    family. [shrink] defaults to true. Systematic exploration runs
    {!Explore.run_par} on [domains] (default 1) domains, with [dedup]
    (default true); its report equals the plain sequential
    {!Explore.run}'s in every field but [dedup_hits]. Seeded mode ignores
    both.

    [stop] (default never) is the wall-clock budget: polled between
    candidate schedules in every mode; once it returns true no further
    schedule starts, and the partial report carries
    [wall_truncated = true] unless a violation had already been found.
    Shrinking of an already-found violation is not interrupted. *)

val pp_report : Format.formatter -> report -> unit
