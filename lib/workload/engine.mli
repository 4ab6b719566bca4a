(** The multi-shot RSM workload engine.

    A long-lived replicated object served on top of the §1 universal
    construction's shape: client commands are batched, each batch is
    committed by one {e consensus shot} — a monitored {!Chaos.Runner} run of
    the chosen registry protocol, with the shot system built once and its
    execution state recycled between shots — and every up replica applies the
    batch in commit order ({!Replica.apply_cmd}).

    It is a robustness testbed, not just a throughput rig: a fault timeline
    (explicit {!Chaos.Schedule} or drawn from the seed) injects mid-traffic —
    crashes take replicas down (their queued commands die, clients fail over,
    and the crash also lands mid-shot so the protocol sees it in flight);
    crashed replicas rejoin by replaying the commit log at a bounded rate;
    drops/dups/delays/silences are rebased into the next shot's step space
    ({!Chaos.Schedule.with_step});
    partitions gate consensus at the engine level, degrading service (ops
    queue, sessions retry, {!Chaos.Degrade} tracks the live vector) instead
    of stalling, until the heal. Client sessions are retry-with-timeout-and-
    backoff with idempotent resubmission; replicas' (client, seq) tables make
    application exactly-once, re-checked independently at end of run. The
    whole client-visible history feeds the incremental linearizability
    monitor ({!Linear_inc}). Responses reach clients in commit-log order:
    each batch's responses are queued in log order and recorded as [Return]s
    at the next tick in that order, and the second delivery of a duplicate
    commit is stale, so it records none. The monitor relies on this: its
    linear-time certificate linearizes each operation at its [Return], so
    on this engine the return order {e is} the commit order and no window
    needs the exhaustive search (a reordering would stay correct, through
    the search fallback, but lose the speed; the tests pin [searched 0]).
    Safety violations inside a shot abort the run
    and are minimized through {!Chaos.Shrink} to a 1-minimal witness;
    in-shot liveness misses are treated as stalls and absorbed by retry.

    Fully deterministic: the same config (seed included) reproduces the
    identical report byte-for-byte. *)

type config = {
  proto : string;
  params : Protocols.Registry.params;
  obj_name : string;
  clients : int;
  ops : int;
  rate : int;
  batch : int;
  pipeline : int;
  timeout : int;
  rejoin_after : int;
  catch_up_rate : int;
  seed : int;
  schedule : Chaos.Schedule.t option;
  kinds : Chaos.Schedule.kind list;
  max_faults : int;
  max_ticks : int option;
  shot_max_steps : int;
  lin_max_nodes : int;
  lin_soft : int;
  lin_hard : int;
  pin_oracle : bool;
  shrink : bool;
}

val default_config : ?proto:string -> unit -> config
(** direct, n=3 f=1, counter object, 12 clients, 200 ops, no faults. *)

val obj_of_name : string -> (Spec.Seq_type.t, string) result

val eligible : Protocols.Registry.entry -> Protocols.Registry.params -> bool
(** Whether the protocol claims single-value agreement (k = 1): the engine
    commits batches on the decided bit, so anything weaker cannot serve. *)

val run : config -> Report.t
(** Raises [Invalid_argument] on an unknown protocol, an ineligible
    protocol, or an unknown object name. *)
