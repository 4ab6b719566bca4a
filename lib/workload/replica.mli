(** One replica of the long-lived replicated object.

    A replica's volatile state — object value, position in the commit log,
    and the (client, seq) idempotency table — is lost on crash and rebuilt
    by {e catch-up}: replaying the commit log from the start at a bounded
    rate per tick ({!catch_up}, which runs {!apply_cmd} on each entry).
    Because replay runs the identical deterministic apply (duplicates
    skipped by the same rule), a caught-up replica is byte-equal to one that never crashed;
    the engine asserts this cross-replica consistency at end of run. *)

open Ioa

type status = Up | Down of { rejoin_at : int } | Recovering

module Tbl : Hashtbl.S with type key = int * int
(** Keyed by {!Cmd.key}. *)

type t = {
  id : int;
  obj : Spec.Seq_type.t;
  mutable status : status;
  mutable value : Value.t;
  mutable applied : int;
  mutable dedup : Value.t Tbl.t;
  mutable duplicates_skipped : int;
  mutable crashes : int;
  mutable crashed_at : int;
  mutable replayed : int;
}

val create : id:int -> obj:Spec.Seq_type.t -> t
val is_up : t -> bool

val apply_cmd : t -> Cmd.t -> [ `Applied of Value.t | `Duplicate of Value.t ]
(** Apply one commit-log entry; [`Duplicate] re-reads the cached response
    without touching the object (exactly-once). *)

val crash : t -> tick:int -> rejoin_at:int -> unit
val start_recovery : t -> unit

val catch_up : ?len:int -> t -> log:Cmd.t array -> rate:int -> [ `Caught_up | `Recovering ]
(** Replay up to [rate] of the log's first [len] entries (default: all of
    them), so a caller whose log array has spare capacity passes its live
    length instead of a copy; [`Caught_up] flips the replica to [Up] once
    all [len] are applied. *)
