(** Static may-read/may-write footprints per task.

    The concrete configuration ({!Model.State.t}) decomposes into components:
    per-process program states and decision slots, per-process crash bits
    (the failed set, bit by bit), and per-service object values and
    per-endpoint inv/resp buffers. A task's footprint names every component
    its transition — real {e or} dummy branch, enabledness tests included —
    may read or write, for any configuration reachable with at most
    [max_crashes] total failures.

    Footprints are derived from the task semantics the same way the
    {!Transfer} functions are: structurally from the system's wiring
    (endpoint sets, service classes), optionally refined by probing the
    per-process [step] functions over a solved {!Reach} abstraction (the
    refinement narrows a process task's may-invoke service set and its
    may-decide bit; imprecision falls back to the structural answer, so the
    result is always an over-approximation).

    Two tasks whose footprints do not write-overlap are {e independent}:
    they commute in every described configuration, under either policy
    (DESIGN.md §3.9 connects this to paper Lemma 8). [boost lint] prints
    the footprints and the independence census, and audits them with its
    [static-race] check ({!races}). *)

type component =
  | Pstate of int  (** Program state of process [i]. *)
  | Decision of int  (** Decision slot of process [i]. *)
  | Crash_bit of int  (** Membership of [i] in the failed set. *)
  | Svc_value of int  (** Object value of the service at position [k]. *)
  | Svc_inv of int * int  (** Invocation buffer of service [k], endpoint [i]. *)
  | Svc_resp of int * int  (** Response buffer of service [k], endpoint [i]. *)
  | Net_topology
      (** The cross-block delivery state (active partitions and their
          heals). Not part of {!Model.State.t} — it lives in the compiled
          chaos schedule — but service-output turns read it (the [blocked]
          gate) and partition/heal deliveries write it. *)

module Cset : Set.S with type elt = component

type t = { reads : Cset.t; writes : Cset.t }

val of_system : ?reach:Reach.t -> ?max_crashes:int -> Model.System.t -> t array
(** One footprint per entry of [sys.tasks], indexed by task position.
    [max_crashes] (default: the process count, fully conservative) bounds
    the failures in the configurations described; at most [f] crashes make
    an f-resilient service's silencing threshold statically dead, shrinking
    the crash-bit read set. [reach] enables the process-step refinement. *)

val independent : t -> t -> bool
(** Neither writes a component the other reads or writes. *)

type race = { e : Model.Task.t; e' : Model.Task.t; component : component }

val races : Model.System.t -> t array -> race list
(** Over {!of_system}'s array: task pairs sharing a written component while
    their static participants (the union of {!Model.System.participants}
    over every action a task can take) are disjoint — conflicts outside the
    paper's Lemma 8 discipline. Any hit marks an interface breach. *)

val pp_component : Format.formatter -> component -> unit

val pp_summary : Model.System.t -> max_crashes:int -> Format.formatter -> t array -> unit
(** Per-task footprints, then the independence census over task pairs. *)
