(** Dynamic guarantee-vector degradation.

    Folds the adversary events of an execution (crashes, buffer-mutating
    network faults, partitions and heals) into a damage summary {!t}, and
    maps it — through {!Analysis.Guarantee.of_service} — to the {e live}
    vector: the static composed vector with every component the damage has
    voided knocked down, and restored where the damage has healed. The
    degrade-aware monitors ({!Monitor.defaults} with [~degrade:true]) consult
    it instead of waiving liveness wholesale; [boost chaos --degrade]
    surfaces it as the [degraded to] report field and the [--witness-out]
    trajectory. *)

type t = {
  crashed : Spec.Iset.t;
  dropped : (string * int) list;  (** (service id, endpoint) stolen responses. *)
  mutated : string list;  (** Services with any drop/dup/delay buffer mutation. *)
  active : int list list list;  (** Unhealed partitions' block lists, oldest first. *)
  was_partitioned : bool;
}

val empty : t
val absorb : t -> Model.Event.t -> t
(** One event's damage; events other than crashes, buffer mutations,
    partitions and heals leave it unchanged. The workload engine, which
    keeps damage across consensus shots without one backing execution,
    feeds it the events of its fault timeline directly. *)

val of_exec : Model.Exec.t -> t
(** The damage standing at the end of the execution, folded oldest-first:
    a partition healed inside the run is no longer active. *)

val fold : ('a -> t -> Model.Exec.step -> 'a) -> 'a -> Model.Exec.t -> 'a
(** Oldest-first over the execution's steps, each seen with the damage
    standing after it. *)

val uncrash : t -> int -> t
(** Crash-recovery, the one update no adversary event maps to: a crashed
    replica caught up and rejoined (a protocol-layer act of the workload
    engine), restoring what its crash had knocked down. *)

val separated : t -> int -> int -> bool
(** Whether an active (unhealed) partition puts the two pids in different
    blocks ({!Model.Event.separates}, the rule the schedule compiler uses
    too). *)

val partition_active : t -> bool
val drop_victims : t -> Spec.Iset.t
val dropped : t -> service:string -> bool
val mutated : t -> service:string -> bool

val has_network_service : Model.System.t -> int -> bool
(** Whether some network-type service covers the pid (its packet flow is the
    one a partition gates). *)

val live_vector : Model.System.t -> t -> Analysis.Gvector.t

val describe : Model.System.t -> Model.Exec.t -> string
(** The live vector at the end of the execution, pretty-printed. *)

val trajectory :
  Model.System.t ->
  Model.Exec.t ->
  Analysis.Gvector.t * (int * Model.Event.t * Analysis.Gvector.t) list
(** The static baseline vector, then one entry per step at which the live
    vector changed: (1-based step position, the adversary event, the vector
    after it). Heals that restore the full vector appear as entries equal to
    the baseline. *)
