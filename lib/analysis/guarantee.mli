(** Static guarantee-vector typing of services and systems.

    {!of_service} assigns every service constructor a {!Gvector.t} keyed on
    its class (§2.1: register / atomic / failure-oblivious / general), its
    resilience [f] and endpoint count; {!compose} walks a system's service
    table and takes the meet — plus a union-find pass over endpoint coverage
    for the scope component. {!gaps} compares a protocol's registered claim
    ({!claim}, see {!Protocols.Registry}) against the composed vector: a
    non-empty result is a {e guarantee gap}, the static explanation of a
    Thm 2/9/10 refutation. The typing is deliberately conservative: a
    well-typed claim is supported by composition alone; a gap means the
    composition typing cannot certify the claim, not necessarily that every
    execution refutes it. *)

val of_service : Model.Service.t -> Gvector.t
(** The static vector of one service. Registers are per-object-ordered,
    fresh, dup-safe; atomic objects totally ordered but dup-unsafe;
    failure-oblivious services eventually-recent (queued delivery), with
    total order only for the broadcast type; general services expose failure
    visibility (perfect: [Vis_failures]; ◇P: [Vis_eventual]). The
    termination component is [wait-free] iff [f ≥ |J|−1], else
    [crashes(f)]. Scope is [1] (a single service spans its own endpoints). *)

val compose : Model.System.t -> Gvector.t
(** Meet over all services, with scope = number of coverage islands among
    the processes and order restricted to spec-carrying services (the ones
    linearizability checks). *)

val islands : ?linked:(int -> int -> bool) -> Model.System.t -> int
(** Connected components of the process set under "shares a service", where
    two endpoints of a service count as joined only if [linked] holds of
    them (default: always; [Chaos.Degrade] passes "no active partition
    separates them"). *)

type resilience = Crashes of int | Wait_free

type claim = {
  agreement : int option;  (** The k the chaos battery holds the protocol to. *)
  termination : resilience option;  (** Claimed crash resilience, if any. *)
  linearizable : bool;
  scales : bool;  (** The claim quantifies over all n (checked at a probe size too). *)
}

val no_claim : claim
(** Claims nothing; {!gaps} is empty against it. *)

type gap = { component : string; theorem : string; claimed : string; supported : string }

val gaps : claim:claim -> Model.System.t -> gap list
(** Scope / termination / order checks of [claim] against [compose sys]. *)

val scaling_gaps : claim:claim -> Model.System.t -> gap list
(** The Thm 10 visibility check, evaluated on a probe-size instance of a
    [scales] claim: a crash-surviving claim needs either an oblivious
    coordinator of matching resilience connected to all processes or a
    failure-aware service connected to all processes. Empty for claims that
    survive no crashes. *)

val term_of_resilience : resilience -> Gvector.termination
val resilience_to_string : resilience -> string
