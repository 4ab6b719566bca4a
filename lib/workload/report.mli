(** The serve report: counters, latency percentiles, recovery times and the
    run outcome, rendered deterministically (no wall-clock), so a seeded run
    replays byte-for-byte. *)

type outcome =
  | Served
  | Degraded of string
  | Shot_violation of {
      monitor : string;
      reason : string;
      shot : int;
      witness : string;
      minimized : string;
      candidates : int;
      runs : int;
    }
  | Lin_violation of string
  | Stalled of string
  | Inconsistent of string

type t = {
  proto : string;
  n : int;
  f : int;
  obj_name : string;
  clients : int;
  ops : int;
  seed : int;
  mutable outcome : outcome;
  mutable ticks : int;
  mutable offered : int;
  mutable completed : int;
  mutable retries : int;
  mutable resubmissions : int;
  mutable failovers : int;
  mutable lost_in_crash : int;
  mutable stale_responses : int;
  mutable shots : int;
  mutable shots_decided : int;
  mutable shots_stalled : int;
  mutable committed : int;
  mutable duplicate_commits : int;
  mutable duplicate_applications : int;
  mutable crash_faults : int;
  mutable net_faults : int;
  mutable partitions : int;
  mutable heals : int;
  mutable rejoins : int;
  mutable catch_up_replayed : int;
  mutable recovery_times : int list;
  mutable degraded_ticks : int;
  mutable final_vector : string option;
  mutable latencies : int list;
  mutable lin : Linear_inc.verdict;
  mutable lin_windows : int;
  mutable lin_certified : int;
  mutable lin_searched : int;
  mutable lin_events : int;
  mutable lin_max_window : int;
  mutable lin_max_frontier : int;
  mutable oracle_pinned : bool option;
}

val create :
  proto:string -> n:int -> f:int -> obj_name:string -> clients:int -> ops:int -> seed:int -> t

val exit_code : t -> int
(** 0 for [Served]/[Degraded], 1 for every violation class. *)

val pp_outcome : Format.formatter -> outcome -> unit

val latency_summary : t -> int * int * int * int
(** (p50, p95, p99, max) in ticks, nearest-rank. *)

val percentile : int array -> float -> int
(** Nearest-rank percentile over a sorted array (exposed for
    [perfbench/]). *)

val render : t -> string
