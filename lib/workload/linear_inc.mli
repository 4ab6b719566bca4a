(** Incremental (windowed) linearizability checking for long histories.

    {!Model.Linearize.check} takes the whole history at once, and its search
    fallback re-searches all of it; at workload scale (millions of events)
    that is unusable. This monitor consumes the history one event at a time
    and checks it window by window, certificate first and search second.

    {b Certificate.} Each window is first run through the shared
    return-order certificate, {!Model.Linearize.certify}, which carries its
    state across windows: each operation is linearized at its own [Return]
    and δ is replayed once, so the check is linear in the window and runs
    no search. The engine delivers responses in commit-log order, so on its
    histories the certificate holds.

    {b Fallback.} A certificate is sound, not complete: a history can be
    linearizable although its return order is no witness. At the first window
    the certificate cannot explain, it is dropped for the rest of the run,
    and the search frontier is rebuilt from {!Model.Linearize.init_configs}
    by running {!Model.Linearize.advance} over every earlier window, in order,
    under its original number; that window and every later one are then
    searched. The frontier is every search configuration (pending ops,
    linearized ops awaiting their returns, object value) some linearization
    of the events so far can be in; a history is linearizable iff no flush
    ever empties it, for {e any} partition into windows. So the verdict is
    the oracle's: sound by the certificate, complete by the search (modulo an
    explicit node-budget truncation, never a silent pass; a certified window
    cannot truncate).

    {b Retention.} Until a fallback, every certified window's events are kept
    as an array, so the rebuild can replay them; the fallback frees them. *)

type verdict =
  | Ok
  | Violation of string  (** Non-linearizable; names the failing window. *)
  | Truncated of string  (** Node budget exhausted; verdict unknown. *)

type t

val create : ?max_nodes:int -> ?soft_outstanding:int -> ?hard_buffer:int -> Spec.Seq_type.t -> t
(** [max_nodes] (default 200k) bounds each window's search; [soft_outstanding]
    (default 4) is the flush policy's near-quiescence threshold — after a
    fallback, the frontier carried across a boundary grows roughly factorially
    in the calls that straddle it, so this must stay small; [hard_buffer]
    (default 2048) forces a flush regardless. *)

val record : t -> Model.Linearize.event -> unit
(** Append one history event (in real-time order). No-op after a verdict. *)

val tick : t -> verdict
(** Flush the buffered window if the policy allows (few outstanding calls, or
    the buffer hit its hard cap); otherwise keep buffering. *)

val flush : t -> verdict
(** Force a flush of whatever is buffered. *)

val finish : t -> verdict
(** Final flush at end of run; the returned verdict is the history's. *)

val verdict : t -> verdict

val windows : t -> int

val certified : t -> int
(** Windows the certificate closed; [certified + searched = windows], and the
    certified ones are a prefix of the run. *)

val searched : t -> int
(** Windows the search closed: every window from the certificate's first
    failure on. *)

val events : t -> int
val max_window : t -> int
val max_frontier : t -> int
(** The largest frontier any search left, the rebuild's included; the
    number of initial values while nothing was searched. *)

val outstanding : t -> int
(** Calls without a matching return so far — the concurrency the next flush
    will carry across the boundary. *)
