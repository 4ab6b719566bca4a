(** Service descriptors for the complete system (paper §2.2.2).

    A descriptor names a service, fixes its endpoint set J, its resilience
    level f and its class in the paper's hierarchy, and carries the unified
    executable {!Spec.General_type.t} obtained through the §5.1/§6.1
    embeddings. The class tag is what the similarity definitions of §3.5 and
    §6.3 dispatch on (K, K1, K2, R). *)


type cls =
  | Register  (** Canonical reliable (wait-free) read/write register. *)
  | Atomic  (** Canonical f-resilient atomic object (Fig. 1). *)
  | Oblivious  (** Canonical f-resilient failure-oblivious service (Fig. 4). *)
  | General  (** Canonical f-resilient general service (Fig. 8). *)

type t = {
  id : string;  (** Unique service index [k] (or [r] for registers). *)
  endpoints : int array;  (** J, sorted ascending. *)
  resilience : int;  (** f. *)
  cls : cls;
  gtype : Spec.General_type.t;
  seq : Spec.Seq_type.t option;
      (** For {!Register}/{!Atomic} services, the sequential type the
          canonical automaton was built from (before determinization) —
          retained so observers ({!Linearize}-based monitors) can check
          histories against the original specification. [None] for
          oblivious/general services, which have no sequential spec. *)
  coalesce : bool;
      (** Deduplicate a response equal to the current buffer tail when
          pushing (keeps spontaneous-output services finite-state; documented
          substitution, DESIGN.md §6). *)
}

val atomic : id:string -> endpoints:int list -> f:int -> Spec.Seq_type.t -> t
(** An f-resilient atomic object. The sequential type is determinized
    (§3.1). *)

val register : id:string -> endpoints:int list -> Spec.Seq_type.t -> t
(** A reliable register: wait-free, [f = |J| − 1]. *)

val oblivious : id:string -> endpoints:int list -> f:int -> Spec.Service_type.t -> t
val general : ?coalesce:bool -> id:string -> endpoints:int list -> f:int -> Spec.General_type.t -> t

val is_wait_free : t -> bool
(** [f ≥ |J| − 1] (§2.1.3). *)

val endpoint_pos : t -> int -> int option
(** Position of a process in the endpoint array, if connected. *)

val failed_endpoints : t -> Spec.Iset.t -> Spec.Iset.t
(** The failures visible to this service: [failed ∩ J]. *)

val connected_to_all : t -> n:int -> bool
(** Whether J = {0, ..., n−1} — the Theorem 10 connectivity requirement for
    general services. *)
