(** Herlihy's universal construction, one-shot form — the §1 motivation for
    studying consensus ("an atomic object of any sequential type can be
    implemented in a wait-free manner using consensus objects").

    Each process publishes one operation of an arbitrary deterministic
    sequential type in its own register, then drives a sequence of
    multi-valued consensus objects, one per slot: slot t's consensus decides
    {e whose} operation commits at position t; every process reads the
    winner's register, applies the operation to its local replica, and — when
    its own operation commits — outputs the operation's response via
    [decide]. Because every replica applies the same operations in the same
    slot order, the implemented object is linearizable; because slot winners
    are always still-proposing processes, each process commits within n
    slots, so with wait-free slot consensus the construction is wait-free.

    The workload engine ({!Workload}) runs this construction multi-shot:
    its replicas apply each committed batch and catch up after a crash
    through {!Workload.Replica.apply_cmd} and {!Workload.Replica.catch_up}. *)

open Ioa

val register_id : int -> string
val slot_id : int -> string

val system : obj:Spec.Seq_type.t -> ops:Value.t list -> Model.System.t
(** [system ~obj ~ops] builds the n-process system ([n = length ops])
    implementing [obj]; process i's published operation is [List.nth ops i],
    delivered to it via [init] (any [init] input just triggers the published
    op, keeping the harness uniform). The response each process records via
    [decide] is [obj]'s response to its own operation at its commit point. *)

val log_of : Model.State.t -> pid:int -> int list
(** The commit log (winning pids in slot order) as known to [pid]. *)
