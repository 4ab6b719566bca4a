(** Configuration fingerprints for cross-run deduplication.

    The systematic explorer walks the same configuration graph [G(C)] the
    paper's Fig. 3 path construction does: each monitored run is a path, and
    distinct fault schedules frequently {e reconverge} — once a schedule is
    fully active (all crashes delivered, all silences on), the remainder of a
    round-robin run is a deterministic function of the round-robin cursor and
    the global state. A [key] names that residual computation:

    - the round-robin cursor position (mod task count),
    - the observable event history so far ({!Model.Exec.obs_fingerprint},
      folded once per key — what end-of-run monitors such as linearizability can distinguish),
    - the exact global state ({!Model.State.t}, compared structurally, with
      its cached {!Model.State.hash} as its hash).

    Two runs reaching equal keys have identical continuations and identical
    monitor verdicts, so the second can be pruned. The state is stored and
    compared exactly — only the observable-history component is probabilistic
    (63-bit). *)

type key

val key : cursor:int -> Model.Exec.t -> key
(** [key ~cursor exec] fingerprints the configuration reached by [exec] with
    the round-robin cursor at [cursor] (already reduced mod task count). *)

val equal : key -> key -> bool
(** Exact on cursor and state; fingerprint-exact on observable history. *)

val hash : key -> int

(** The visited cache: a fixed array of slots, each an [Atomic.t] holding at
    most one immutable entry, so domains share it without locks
    (state-space caching: Godefroid, Holzmann & Pirottin, CAV 1992). A key
    lives in the slot its {!hash} selects, and adding a key overwrites
    whatever the slot held. An eviction only loses a future hit, never
    admits a wrong prune: {!find} answers only for a key {!equal} to the
    stored one. Each entry carries the recorded run's suffix length (steps
    from the key to its proven-quiescent lasso), which callers use to guard
    pruning against step-budget cutoffs, and the monitor truncations that
    suffix recorded, which a pruned twin inherits. Both are functions of the
    key: the runner's lasso table starts at activation, where the key is
    taken. *)
module Visited : sig
  type t

  val create : ?slots:int -> unit -> t
  (** [slots] (at least 1) defaults to 64, the largest count whose
      entries keep the register-vote all-kinds sweep's peak heap within
      10% of an explorer without a cache (EXPERIMENTS.md, "One streaming
      explorer"). *)

  val find : t -> key -> (int * int) option
  (** The recorded suffix length and suffix truncation count, if the slot
      for this key holds this very configuration. *)

  val add : t -> key -> suffix_steps:int -> suffix_truncations:int -> unit
  (** Record a configuration whose continuation ran [suffix_steps] steps to a
      proven-quiescent end, recording [suffix_truncations] monitor
      truncations on the way (end-of-run checks included). Overwrites the
      key's slot. *)
end
