(** Schedulers: fair and adversarial drivers for the complete system.

    A scheduler produces, per step, either an environment input (a failure)
    or a task turn. The built-in schedulers implement the executions used in
    the paper's proofs: round-robin over all tasks (the fairness witness of
    Fig. 3 and Lemmas 6–7), and seeded-random scheduling for stress tests. *)

type decision =
  | Do_task of Task.t
  | Do_fail of int
  | Stop

type t = step:int -> State.t -> decision
(** Schedulers may close over mutable cursor state. *)

type outcome =
  | Stopped  (** [stop_when] became true. *)
  | Scheduler_stop  (** The scheduler returned [Stop]. *)
  | Quiescent
      (** A full round of task attempts changed nothing (every task disabled
          or spinning on dummy/no-op steps). *)
  | Budget  (** [max_steps] reached. *)

val pp_outcome : Format.formatter -> outcome -> unit

val run :
  ?policy:System.policy ->
  ?stop_when:(State.t -> bool) ->
  max_steps:int ->
  System.t ->
  Exec.t ->
  t ->
  Exec.t * outcome
(** Drive the system. Disabled tasks are skipped (they still consume a step
    of budget). Quiescence is detected only by {!round_robin}-style
    schedulers that report it via [Stop]; generic runs end by [stop_when] or
    budget. *)

val round_robin :
  ?faults:(int * int) list ->
  ?quiesce:bool ->
  System.t ->
  t
(** Cycle through all tasks of the system in their fixed order, forever.
    [faults] is a list of [(step, pid)]: before the given step index, deliver
    [fail_pid]. With [quiesce] (default true), returns [Stop] after a full
    cycle in which no task changed the state — for terminated protocols this
    is the fair-execution fixpoint. *)

val random :
  seed:int ->
  ?fail_prob:float ->
  ?max_failures:int ->
  System.t ->
  t
(** Pick uniformly among all tasks each step; with probability [fail_prob]
    (default 0) fail a random alive process instead, up to [max_failures]. *)
