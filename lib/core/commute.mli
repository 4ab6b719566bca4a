(** Commutation of tasks with disjoint participants (paper Lemma 8, Claim 2
    and the case analyses of Claims 4–5).

    If [participants(e, s) ∩ participants(e', s) = ∅] then the two tasks
    commute: [e'(e(s)) = e(e'(s))]. The Lemma 8 proof leans on this and on
    specific commuting cases inside a shared service (perform vs. buffer
    access, read vs. read, enqueue vs. dequeue of different buffers). This
    module verifies those facts mechanically over an explored G(C) — it is
    the empirical counterpart of the claims, and a regression net for the
    canonical service semantics. *)

type violation = {
  vertex : int;
  e : Model.Task.t;
  e' : Model.Task.t;
  reason : string;
}

val pp_violation : Format.formatter -> violation -> unit

type mismatch =
  | Diverged  (** Both orders defined but [e'(e(s)) <> e(e'(s))]. *)
  | Lost of string  (** One order lost applicability midway. *)

val commute_at :
  ?policy:Model.System.policy ->
  Model.System.t -> Model.State.t -> Model.Task.t -> Model.Task.t ->
  (unit, mismatch) result
(** The state-level commutation check both {!check_disjoint} and the static
    independence tests (the footprint suites' differentials) share:
    apply the tasks in both orders from [s] under [policy] (default: prefer
    real) and compare the final states. *)

val check_disjoint : Valence.t -> violation list
(** For every explored vertex and every ordered pair of applicable tasks with
    disjoint participants, check [e'(e(s)) = e(e'(s))]. Returns all
    violations (expected: none). *)

val check_hook_intersection : Valence.t -> Hook.t -> (unit, string) result
(** Claims 1–2 at a hook: [e ≠ e'] and the participants of [e] and [e']
    intersect (otherwise the endpoint states would be equal, contradicting
    their opposite valences). *)

val shared_participant :
  Model.System.t -> Model.State.t -> Model.Task.t -> Model.Task.t ->
  Model.System.participant option
(** A participant common to both tasks' next actions at the state, if any. *)
