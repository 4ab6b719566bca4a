(** The monitored chaos run: drive a system under a compiled fault schedule,
    checking safety monitors per step and liveness monitors at the end.

    The task order is either the fair round-robin (with lasso detection:
    once the schedule is {!Schedule.fully_active}, a repeated
    (cursor, state) pair proves the run cycles forever, turning liveness
    verdicts into proofs) or a seeded-random interleaving with exact replay
    (the same seed reproduces the identical execution; asserted in tests). *)

type interleave =
  | Round_robin
  | Seeded of int  (** Uniform random task choice from this seed. *)

type stop =
  | Violation of { monitor : string; reason : string; proven : bool }
      (** [proven] is true for safety violations (the prefix is the witness)
          and for liveness violations established at a lasso; false when the
          evidence is only budget-bounded. *)
  | Lasso of { period : int }  (** All monitors passed; run provably cycles. *)
  | Budget  (** All monitors passed within the step budget. *)
  | Pruned
      (** The [on_active] probe recognized the configuration at schedule
          activation as already explored: the run was cut short, inheriting
          the recorded run's verdict. Only produced when a probe is given. *)

type result = {
  exec : Model.Exec.t;  (** The violating prefix, or the full bounded run. *)
  steps : int;
  stop : stop;
  monitor_truncations : (string * Monitor.category * string) list;
      (** Monitors that declined to decide, with reasons — reported, never
          silently dropped. *)
  undelivered_crashes : int;
      (** Crashes scheduled beyond the executed step range. *)
  undelivered_net : int;
      (** Net faults / partition starts scheduled beyond the executed
          range. *)
  vacuous_net_faults : int;
      (** Delivered net faults that found an empty buffer and mutated
          nothing; they leave no event in the execution. *)
}

val pp_stop : Format.formatter -> stop -> unit

val default_inputs : Model.System.t -> Ioa.Value.t list
(** Binary inputs [i mod 2], the staircase convention used elsewhere. *)

type prefix
(** The shared fault-free round-robin prefix of an exploration: every
    candidate under the silencing adversary without overrides behaves
    identically until the step of its first fault, whatever the fault's
    kind: no delivery is due, so the cursor equals the step; no partition
    has begun; and no silence is active, while without a failure no dummy
    action is enabled for the default preference to pick (§2.1.3). Built
    once with {!val-prefix} and passed to {!run}, which then resumes each
    candidate at its first fault's step instead of re-executing the common
    stem. Immutable after construction; safe to share across domains. *)

val prefix :
  ?monitors:Monitor.t list ->
  ?max_steps:int ->
  steps:int ->
  Model.System.t ->
  prefix
(** Walk the fault-free round-robin execution up to [steps] steps,
    performing the same per-step safety-monitor checks as {!run} and
    snapshotting every prefix. The walk stops early at a safety violation or
    at [max_steps]; runs whose first fault lands at or past the stop end
    identically and inherit the recorded outcome. Must be built with the
    same [monitors] and [max_steps] the runs it serves use, and serve only
    runs on {!default_inputs} — resuming is unsound otherwise. *)

val run :
  ?monitors:Monitor.t list ->
  ?max_steps:int ->
  ?interleave:interleave ->
  ?inputs:Ioa.Value.t list ->
  ?on_active:
    (step:int -> cursor:int -> truncations:int -> Model.Exec.t -> [ `Continue | `Prune ]) ->
  ?prefix:prefix ->
  schedule:Schedule.t ->
  Model.System.t ->
  result
(** Defaults: {!Monitor.defaults}, 20_000 steps, [Round_robin], binary
    inputs.

    [on_active], if given, is called exactly once, at the first [Round_robin]
    step where the compiled schedule is {!Schedule.fully_active} — the point
    from which the continuation is a deterministic function of the cursor and
    the state. [cursor] is already reduced mod the task count;
    [truncations] counts the monitor truncations recorded so far. Returning
    [`Prune] stops the run immediately with {!Pruned} and {e without}
    evaluating end-of-run monitors: the caller asserts it has already
    examined an equivalent configuration. Never called under [Seeded]
    interleaving. Without the argument, behaviour is byte-identical to the
    probe-free runner.

    [prefix] is consulted only under [Round_robin], and only for schedules
    whose own prefix provably coincides with the shared one (at least one
    fault, silencing adversary, no overrides; the faults sorted by step, as
    {!Schedule.make} leaves them); it changes the cost, never the
    result. *)
