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
val of_exec : Model.Exec.t -> t

(** {2 Direct builders}

    The workload engine maintains a damage summary across consensus shots
    without a single backing execution; these build it event by event.
    [uncrash] is the one with no adversary-event counterpart: crash-recovery
    (a crashed replica catching up and rejoining) is a protocol-layer act,
    and restores the live vector the crash had knocked down. *)

val crash : t -> int -> t
val uncrash : t -> int -> t
val partition : t -> int list list -> t
val heal : t -> int list list -> t
val mutate : t -> service:string -> endpoint:int -> kind:Model.Event.net_kind -> t

val separated : t -> int -> int -> bool
(** Whether an active (unhealed) partition puts the two pids in different
    blocks — same residual-block semantics as the schedule compiler: pids in
    no listed block share an implicit residual block. *)

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
