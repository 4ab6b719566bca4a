(** Property monitors checked while a chaos run unfolds.

    Safety monitors ({!Step}) are evaluated after every step whose event is
    {!val-relevant} — for the consensus conditions that means decision
    events, so monitoring is O(1) on non-deciding steps. Liveness monitors
    ({!End}) are evaluated when the run ends: at a lasso (the verdict is
    then {e proven} — the detected cycle repeats forever) or at the step
    budget (bounded evidence only).

    A monitor may also report {!Truncated} when it declined to decide (e.g.
    a history too long for the exponential linearizability search); runs
    surface truncations instead of silently passing. *)

type category =
  | Monitor_budget  (** The monitor's own budget gave out (e.g. a history too
                        long for the exponential linearizability search). *)
  | Adversary  (** The adversary's damage voided the verdict (stolen
                   responses, unhealed partitions). *)

val category_name : category -> string
(** ["monitor-budget"] | ["adversary"] — the machine-readable tag. *)

type verdict =
  | Pass
  | Fail of string  (** Why, human-readable. *)
  | Truncated of category * string
      (** The monitor declined to decide; the category says whether its own
          budget or the adversary's damage is to blame. *)

type phase = Step | End

type t = {
  name : string;
  phase : phase;
  relevant : Model.Event.t -> bool;
      (** [Step] monitors are re-checked only after events matching this. *)
  check : Model.System.t -> Model.Exec.t -> verdict;
}

val agreement : ?k:int -> ?degrade:bool -> unit -> t
(** At most [k] (default 1) distinct decided values, checked per step. With
    [degrade], decisions made across an active partition are held to the
    degraded scope instead: only mutually-reachable deciders (transitively,
    at the later decision) must agree — per-partition-block agreement while
    unhealed, full agreement among post-heal decisions. Identical to the
    plain check on executions without partitions. *)

val validity : t
(** Every decided value is some process's input, checked per step. *)

val per_process_agreement : t
(** No process decides two different values, checked per step. *)

val f_termination : ?degrade:bool -> unit -> t
(** Modified termination (§2.2.4): at the end of the run, every nonfaulty
    process that received an input has decided. Both variants read the
    damage standing at the end of the run from {!Degrade.of_exec}, so a
    partition healed inside the run excuses nothing.

    Without [degrade], a run with message-drop faults or an unhealed
    partition yields {!Truncated} rather than charging the protocol for the
    adversary's theft; duplications, delays and healed partitions still
    enforce termination (degradation must be graceful once the network
    recovers).

    With [degrade], drop victims lose their termination guarantee; an
    unhealed partition waives fully isolated processes and, where a network
    service carries the protocol, any separated process. Everyone else must
    decide: a stall there is a [Fail] carrying the degraded vector, not a
    truncation. Crash-only verdicts are the same either way. *)

val linearizability : ?max_history:int -> ?degrade:bool -> unit -> t
(** Every service retaining a sequential spec ({!Model.Service.t}[.seq])
    has a linearizable history ({!Model.Linearize.check}: the return-order
    certificate, and the exponential search only where it fails). Histories
    longer than [max_history] (default 240 events) yield {!Truncated} with
    category [Monitor_budget], certified or not: the bound guards the
    search, and holding every history to it keeps the verdicts independent
    of the certificate. Runs with buffer-mutating network faults
    (drop/dup/delay) yield {!Truncated} with category [Adversary], their
    histories no longer reflecting what the service did. With [degrade],
    only the mutated services are skipped (reported as an [Adversary]
    truncation) — every untouched service is still checked. *)

val fd_completeness : output:(Model.State.t -> pid:int -> Spec.Iset.t) -> unit -> t
(** ◇P strong completeness at end of run: every crashed process is suspected
    by every alive process, where [output s ~pid] reads a process's current
    suspect set out of the protocol state. {!Truncated} while a partition is
    unhealed. Opt-in (not part of {!defaults}); wire [output] to the
    protocol's accessor, e.g. [Protocols.Fd_network.output_of]. *)

val fd_accuracy : output:(Model.State.t -> pid:int -> Spec.Iset.t) -> unit -> t
(** ◇P eventual accuracy at end of run: no alive process is still suspected
    by an alive process. Unhealed partitions waive the verdict ({!Truncated})
    — ◇P tolerates finitely many false suspicions until the network heals.
    Opt-in, like {!fd_completeness}. *)

val defaults : ?k:int -> ?degrade:bool -> unit -> t list
(** All of the above; with [degrade], the degrade-aware variants of
    agreement, f-termination and linearizability. *)

val safety : ?k:int -> ?degrade:bool -> unit -> t list
(** The [Step] subset. *)

val check_phase :
  t list -> phase:phase -> ?event:Model.Event.t -> Model.System.t -> Model.Exec.t ->
  (string * string) option * (string * category * string) list
(** Run the monitors of [phase] (filtered by [event] relevance for [Step]):
    the first failure as [(name, reason)], plus all truncations with their
    categories. *)
