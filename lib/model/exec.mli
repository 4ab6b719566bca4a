(** Executions of the complete system.

    An execution records the start state and, per step, the scheduling label
    (environment input or task turn), the action taken, and the resulting
    state. Task labels are what the impossibility engine replays when it
    appends "essentially the same" fragment after a similar state
    (Lemmas 6–7). *)

module Value = Ioa.Value

type label =
  | L_init of int * Value.t  (** Environment delivered [init(v)_i]. *)
  | L_fail of int  (** Environment delivered [fail_i]. *)
  | L_task of Task.t  (** The task that got this turn. *)
  | L_net of { service : string; endpoint : int; kind : Event.net_kind }
      (** The network adversary mutated a response buffer. *)
  | L_partition of int list list  (** A partition came into effect. *)
  | L_heal of int list list  (** The matching partition healed. *)

type step = { label : label; event : Event.t; state : State.t }

type t = { start : State.t; rev_steps : step list }

val init : State.t -> t
val last_state : t -> State.t
val length : t -> int
val steps : t -> step list
(** Steps oldest-first. *)

val events : t -> Event.t list
val labels : t -> label list

val task_labels : t -> Task.t list
(** The task sequence of the execution (environment inputs omitted). *)

val is_failure_free : t -> bool
(** No [L_fail] label. *)

val append_init : System.t -> t -> int -> Value.t -> t

val initialized : System.t -> Value.t list -> t
(** The initialization [init(v0)_0, init(v1)_1, ...] from the system's
    initial state, one input per listed process. *)

val append_fail : System.t -> t -> int -> t

val append_net :
  System.t -> t -> service:string -> endpoint:int -> kind:Event.net_kind -> t option
(** One network-adversary buffer mutation; [None] iff the fault is vacuous
    in the final state (see {!System.apply_net}) — vacuous faults leave no
    trace in the execution. *)

val append_partition : t -> int list list -> t
(** Records the partition event; the state is unchanged — blocking is
    enforced by the chaos scheduler, not the transition relation. *)

val append_heal : t -> int list list -> t

val append_task : ?policy:System.policy -> System.t -> t -> Task.t -> t option
(** One turn of a task from the final state; [None] iff not applicable. *)

val replay_tasks : ?policy:System.policy -> System.t -> t -> Task.t list -> t option
(** Apply a task sequence; [None] if some task is inapplicable at its turn. *)

val decide_events : t -> (int * Value.t) list
(** All [decide(v)_i] events, in order. *)

val obs_fingerprint : t -> int
(** Fingerprint of the monitor-observable event history: invocations,
    performs, computes, responses, decisions, inits, and network-adversary
    events (net faults, partitions, heals — the recovery-aware monitors
    waive verdicts based on them), in order. [Fail], internal and dummy
    events are excluded, so executions differing only in crash placement or
    no-op turns can share a fingerprint. Together with
    {!State.hash} of the final state this keys the chaos explorer's
    cross-run dedup ([Chaos.Fingerprint]). O(length): folded over the
    history on each call. *)

val strip : t -> keep:(step -> bool) -> Task.t list
(** The task sequence of steps satisfying [keep] — used to build the γ′ of
    Lemmas 6–7 (drop failed processes' steps and all dummy steps). *)

val pp : Format.formatter -> t -> unit
(** Prints the event sequence. *)
