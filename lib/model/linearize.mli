(** Linearizability checking of service histories against sequential types
    (Herlihy–Wing [12], adapted to the canonical objects' pipelined FIFO
    semantics).

    A history is the sequence of invocation and response events observed at
    one service during an execution. It is linearizable when some order of
    operation "takes effect" points exists such that (a) each operation
    linearizes between its invocation and its response, (b) operations of
    one endpoint linearize in invocation order (the canonical object's
    per-endpoint FIFO buffers), and (c) the resulting sequential behaviour
    is allowed by the type's δ — including nondeterministic δ, where any
    resolution may justify the history. Pending operations at the end of
    the history may or may not have taken effect.

    {!check} is certificate first and search second. The {e return-order
    certificate} ({!cert}, {!certify}) linearizes each operation at its own
    [Return] and replays δ once, in linear time; when it holds it is a
    proof. It is sound but not complete (a history can be linearizable
    although its return order is no witness), so when it fails {!check}
    runs {!search}, the exhaustive memoized search, which decides. The
    verdict is always {!search}'s; only its price changes.

    Canonical atomic objects are linearizable by construction (their val and
    buffers ARE the linearization); this module is the independent observer
    that verifies it from histories alone, and the tool users get for
    checking their own object implementations. Their responses mostly leave
    in the order the operations were applied, so the certificate mostly
    holds; it fails when one endpoint's response is overtaken by another
    endpoint's later operation. *)

open Ioa

type event =
  | Call of { endpoint : int; op : Value.t }
  | Return of { endpoint : int; resp : Value.t }

val history : Exec.t -> service:string -> event list
(** Project an execution onto one service's invocation/response events. *)

val check : Spec.Seq_type.t -> event list -> bool
(** Whether the history is linearizable with respect to the type: the
    return-order certificate over the whole history, and {!search} only if
    it fails. Equal to {!search} on every history (the tests pin it);
    linear in the history when the certificate holds, exponential in the
    worst case when it does not. *)

val search : Spec.Seq_type.t -> event list -> bool
(** The exhaustive oracle: backtracking search over every linearization,
    memoized on (position, pending, inflight, value); exponential worst
    case. *)

(** {2 Return-order certificate}

    Each operation takes effect at its own [Return], as its endpoint's
    oldest unreturned call, applied through the type's δ to one replay value
    that starts at the type's first initial value; a nondeterministic δ
    takes its first outcome whose response is the returned one. Calls that
    never return never take effect. Every point lies inside its operation's
    interval and per-endpoint order is FIFO, so if the replay reproduces
    every response the history is linearizable. The certificate is
    incremental: feed it the history one event at a time, in order. *)

type cert
(** The certificate's state: per-endpoint unreturned calls and the replay
    value. Mutable; one per history. *)

val cert : Spec.Seq_type.t -> cert
(** An empty certificate, its replay value the type's first initial value. *)

val certify : cert -> event -> bool
(** Extend the certificate by one event; [false] if the return order cannot
    explain it (a [Return] with no unreturned call at its endpoint, or whose
    response δ does not give). After [false] the certificate is spent. *)

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
