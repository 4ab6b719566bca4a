(** Actions of the complete system, as recorded in executions and traces.

    [Init] and [Fail] are environment inputs; [Decide] is the external
    output; the rest are the hidden communication and internal actions of C
    (§2.2.3). [Dummy] records which task took a dummy step. *)

module Value = Ioa.Value

type net_kind =
  | Drop  (** Discard the head response at the target endpoint. *)
  | Duplicate  (** Re-enqueue a copy of the head response at the tail. *)
  | Delay of int  (** Move the head response [lag] positions back. *)

type t =
  | Init of int * Value.t  (** [init(v)_i]. *)
  | Fail of int  (** [fail_i]. *)
  | Invoke of int * string * Value.t  (** [a_{i,k}]: process output. *)
  | Respond of int * string * Value.t  (** [b_{i,k}]: service output. *)
  | Decide of int * Value.t  (** [decide(v)_i]. *)
  | Proc_internal of int  (** An internal step of P_i. *)
  | Perform of string * int  (** [perform_{i,k}]. *)
  | Compute of string * string  (** [compute_{g,k}]. *)
  | Dummy of Task.t  (** A dummy step of the given task. *)
  | Net of { service : string; endpoint : int; kind : net_kind }
      (** A network-adversary buffer mutation at [service]'s response buffer
          for [endpoint] (omission/duplication/delay faults; delivered by the
          chaos engine's schedules, never produced by task transitions). *)
  | Partition of int list list
      (** The network adversary split the processes into the given blocks
          (§6.3 connectivity weakening); processes not listed share one
          implicit residual block. *)
  | Heal of int list list  (** The matching partition healed. *)

val equal : t -> t -> bool
val pp_blocks : Format.formatter -> int list list -> unit

val separates : int list list -> int -> int -> bool
(** Whether a partition into these blocks puts the two pids in different
    blocks; pids in no listed block share one implicit residual block. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val is_external : t -> bool
(** [Init], [Fail] and [Decide] — the visible interface of C. *)

val is_dummy : t -> bool

val to_ioa : t -> Ioa.Action.t
(** The {!Ioa.Action} rendering of this action, matching
    {!Services.Sig_names}; used when cross-validating the system layer
    against generic canonical automata. *)
