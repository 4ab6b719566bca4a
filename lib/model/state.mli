(** Global states of the complete system C (paper §2.2.3).

    A state packs the local state of every process, the state of every
    service (value + per-endpoint invocation/response buffers), the set of
    failed processes, and the decisions recorded so far (the paper's
    technical assumption that a [decide(v)_i] output records [v] in the state
    of [P_i], §2.2.1).

    States are immutable; all updates copy. Equality and ordering are
    structural, which is what the exploration engines memoize on. Each state
    and each service carries its hash, computed once by {!make} or
    {!make_svc} and kept current by every update: a state's hash is a sum
    of one salted, mixed part per component (process value, service,
    decision, input, failed set), so an update costs the hash of the
    component it replaces, not a walk of the whole configuration. The
    records are private: build them with {!make}, {!make_svc} and
    {!svc_with_value}, and change them only through the updaters below. *)

open Ioa

type svc = private {
  value : Value.t;  (** The service value [val]. *)
  inv_bufs : Value.t list array;
      (** [inv_buffer(i)], indexed by endpoint {e position} in the service's
          endpoint list; head = oldest. *)
  resp_bufs : Value.t list array;  (** [resp_buffer(i)], same indexing. *)
  svc_hash : int;  (** Cached hash of the three fields above. *)
}

type t = private {
  procs : Value.t array;  (** Process program states, indexed by pid. *)
  svcs : svc array;  (** Service states, indexed by service position. *)
  failed : Spec.Iset.t;  (** Failed processes. *)
  decisions : Value.t option array;  (** Recorded decision per process. *)
  inputs : Value.t option array;  (** init(v) received per process. *)
  hash : int;  (** Cached hash of the five fields above; read it with {!hash}. *)
}

val make :
  procs:Value.t array ->
  svcs:svc array ->
  failed:Spec.Iset.t ->
  decisions:Value.t option array ->
  inputs:Value.t option array ->
  t
(** Builds a state and hashes it from scratch. The arrays are taken over,
    not copied: the caller must not mutate them afterwards. *)

val make_svc :
  value:Value.t -> inv_bufs:Value.t list array -> resp_bufs:Value.t list array -> svc
(** Builds a service state and hashes it from scratch; arrays are taken
    over as in {!make}. *)

val svc_with_value : svc -> Value.t -> svc
(** Replaces the service value. *)

val equal : t -> t -> bool
(** Structural equality. Physically equal states are equal; states whose
    cached hashes differ are unequal; only the rest pay for {!compare}. *)

val compare : t -> t -> int
(** A total structural order on states, independent of the cached hash.
    Components the two states share physically are not walked. *)

val hash : t -> int
(** The cached hash, non-negative: O(1). [equal s1 s2] implies
    [hash s1 = hash s2]. Well mixed in its low bits, which [Hashtbl] uses;
    the chaos explorer's visited sets and every state-keyed table hash
    with it. *)

module Tbl : Hashtbl.S with type key = t
(** Hash tables keyed on states (the vertices of G(C)). *)

module Cursor_tbl : Hashtbl.S with type key = int * t
(** Hash tables keyed on a round-robin cursor and a state: the lasso
    detectors' seen-sets. *)

val pp : Format.formatter -> t -> unit

val with_proc : t -> int -> Value.t -> t
(** Functional update of one process state. *)

val with_svc : t -> int -> svc -> t
val with_decision : t -> int -> Value.t -> t
val with_input : t -> int -> Value.t -> t
val with_failed : t -> Spec.Iset.t -> t

val svc_push_inv : svc -> pos:int -> Value.t -> svc
(** Appends an invocation at the tail of [inv_buffer] at endpoint position
    [pos]. *)

val svc_pop_inv : svc -> pos:int -> (Value.t * svc) option
val svc_push_resp : ?coalesce:bool -> svc -> pos:int -> Value.t -> svc
(** Appends a response; with [coalesce] (default false), appending a response
    equal to the current tail is a no-op (used to keep spontaneous
    failure-detector output buffers finite — see DESIGN.md §6). *)

val svc_pop_resp : svc -> pos:int -> (Value.t * svc) option

val svc_drop_resp : svc -> pos:int -> svc option
(** Discards the head response at endpoint position [pos] (omission fault);
    [None] when the buffer is empty — the fault is vacuous. *)

val svc_dup_resp : svc -> pos:int -> svc option
(** Re-enqueues a copy of the head response at the tail (duplication fault);
    [None] when the buffer is empty. *)

val svc_delay_resp : svc -> pos:int -> lag:int -> svc option
(** Moves the head response [lag] positions back in the buffer, clamped to
    the buffer length (delay/reordering fault); [None] when the mutation
    would leave the buffer unchanged (empty, singleton, or [lag <= 0]). *)

val decided_pairs : t -> (int * Value.t) list
(** All [(pid, v)] with a recorded decision. *)

val decided_values : t -> Value.t list
(** Distinct decided values, sorted. *)
