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

(** Sharded visited table, safe for concurrent use from multiple domains.
    Each shard is an independent mutex-guarded hash table; keys map to the
    recorded run's suffix length (steps from the key to its proven-quiescent
    lasso), which callers use to guard pruning against step-budget cutoffs,
    and to the monitor truncations that suffix recorded, which a pruned twin
    inherits. *)
module Visited : sig
  type t

  val create : ?shards:int -> unit -> t
  (** Default 64 shards. *)

  val find : t -> key -> (int * int) option
  (** The recorded suffix length and suffix truncation count, if this
      configuration was seen. *)

  val add : t -> key -> suffix_steps:int -> suffix_truncations:int -> unit
  (** Record a configuration whose continuation ran [suffix_steps] steps to a
      proven-quiescent end, recording [suffix_truncations] monitor
      truncations on the way (end-of-run checks included). Keeps the entry
      with the largest suffix on duplicate insert. *)

  val size : t -> int
end
