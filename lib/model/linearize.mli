(** Linearizability checking of service histories against sequential types
    (Herlihy–Wing [12], adapted to the canonical objects' pipelined FIFO
    semantics).

    A history is the sequence of invocation and response events observed at
    one service during an execution. The checker searches for a
    linearization: an interleaving-consistent order of operation "takes
    effect" points such that (a) each operation linearizes between its
    invocation and its response, (b) operations of one endpoint linearize in
    invocation order (the canonical object's per-endpoint FIFO buffers), and
    (c) the resulting sequential behaviour is allowed by the type's δ —
    including nondeterministic δ, where any resolution may justify the
    history. Pending operations at the end of the history may or may not
    have taken effect.

    Canonical atomic objects are linearizable by construction (their val and
    buffers ARE the linearization); this module is the independent observer
    that verifies it from histories alone, and the tool users get for
    checking their own object implementations. *)

open Ioa

type event =
  | Call of { endpoint : int; op : Value.t }
  | Return of { endpoint : int; resp : Value.t }

val history : Exec.t -> service:string -> event list
(** Project an execution onto one service's invocation/response events. *)

val check : Spec.Seq_type.t -> event list -> bool
(** Whether the history is linearizable with respect to the type. Complete
    backtracking search with memoization; exponential worst case, intended
    for test-sized histories. *)

(** {2 Incremental frontier}

    Windowed checking for long histories: the subset construction over
    search configurations. A configuration is the residual search state
    between windows — per-endpoint pending queues (invoked, not yet
    linearized), per-endpoint inflight queues (linearized, response not yet
    returned) and the object value. [advance] pushes a whole set of
    configurations through one window of events, returning {e every}
    reachable end configuration; a history is linearizable iff iterating
    [advance] over any partition of it into windows, starting from
    [init_configs], never yields the empty frontier. Equivalent to [check]
    on the concatenation (the window boundary is only a memo boundary), which
    the tests pin. *)

type config
(** An opaque search configuration. *)

val init_configs : Spec.Seq_type.t -> config list
(** One empty-queue configuration per initial value of the type. *)

val advance :
  ?max_nodes:int -> Spec.Seq_type.t -> config list -> event list -> config list option
(** All configurations reachable from the given frontier after consuming the
    event window, deduplicated. [Some []] means no linearization survives —
    the history is non-linearizable. [None] means the [?max_nodes] search
    budget (default 200k nodes) was exhausted: the verdict is unknown and
    the caller must report a truncation, not a pass. *)
