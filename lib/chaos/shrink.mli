(** Delta-debug a failing fault schedule to a minimal one.

    Greedy fixpoint over structural reductions — drop a fault (cheapest
    kinds first: a duplication before a drop before a delay before a crash
    before a silencing, a partition last), downgrade the silencing
    adversary to the helpful one, drop a per-task override, weaken a fault
    in place (shorten a delay's lag, heal a partition earlier, merge a
    partition block into the residual block), pull a crash earlier, and
    clamp fault steps or heal points referencing steps beyond the
    violating run's executed range back into it — keeping a reduction iff
    re-running the shrunk schedule still violates the {e same} monitor.
    Every candidate is re-validated ({!Schedule.validate}) after mutation
    and skipped when the mutation broke a well-formedness invariant. The
    result is 1-minimal: no single remaining reduction preserves the
    violation. Each kept reduction is read through {!Explore.violation_of},
    with [degrade] set iff the violation carries a [degraded_to], so the
    minimized violation's annotation describes its own prefix.

    Pass the same [monitors]/[max_steps]/[interleave]/[inputs] the
    violation was found with; in particular, seeded-random violations
    shrink under their own interleaving (fault delivery never consumes
    randomness, so removing faults does not shift the task stream). *)

type stats = { candidates : int; runs : int }

val shrink :
  ?monitors:Monitor.t list ->
  ?max_steps:int ->
  ?interleave:Runner.interleave ->
  ?inputs:Ioa.Value.t list ->
  Model.System.t ->
  Explore.violation ->
  Explore.violation * stats
