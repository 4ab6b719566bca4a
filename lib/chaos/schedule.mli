(** First-class fault schedules (paper §2.1.3 made data).

    A fault schedule is the adversary's plan, reified: which [fail_i] inputs
    to deliver and when, which services to (attempt to) silence from which
    step, which network faults to inject into which response buffers, which
    partitions to impose and when to heal them, and how to resolve the
    real-vs-dummy nondeterminism per task. It compiles to a
    {!Model.System.policy} plus a delivery clock that {!Runner} consults
    turn by turn, so any existing protocol runs under it unchanged.

    Silencing is an {e attempt}: preferring a service's dummy actions only
    has effect once the model enables them, i.e. once more than [f]
    endpoints of the f-resilient service have failed (§2.1.3). Network
    faults are likewise attempts — a drop on an empty buffer is vacuous and
    leaves no trace. In failure-free executions every crash/silence-only
    schedule is behaviourally empty. *)

type fault =
  | Crash of { step : int; pid : int }
      (** Deliver [fail_pid] at the first scheduling turn ≥ [step]. *)
  | Silence of { step : int; service : string }
      (** From step [step] on, prefer the dummy actions of this service. *)
  | Drop of { step : int; service : string; endpoint : int }
      (** Discard the head response buffered at [service] for [endpoint]
          (message omission). *)
  | Duplicate of { step : int; service : string; endpoint : int }
      (** Re-enqueue a copy of the head response at the tail. *)
  | Delay of { step : int; service : string; endpoint : int; lag : int }
      (** Push the head response [lag] positions back in the buffer. *)
  | Partition of { step : int; blocks : int list list; heal_at : int }
      (** From the first turn ≥ [step] until the first turn ≥ [heal_at],
          split the processes into [blocks] (processes not listed form one
          implicit residual block) and hold back cross-block delivery — the
          §6.3 reading where a service stops being connected to processes it
          cannot reach. Heals are delivered as events, making degradation
          graceful rather than terminal. *)

(** {1 Fault kinds}

    The explorer's fault-budget lattice ranges over an explicit kind set. *)

type kind = Crash_k | Silence_k | Drop_k | Dup_k | Delay_k | Partition_k

val all_kinds : kind list
val kind_of_fault : fault -> kind
val kind_to_string : kind -> string
val pp_kind : Format.formatter -> kind -> unit

val parse_kinds : string -> (kind list, string) result
(** Comma-separated kind names ("crash,drop,partition"; "duplicate" is
    accepted for "dup"), deduplicated, order-preserving. Errors on unknown
    names and on the empty list, naming the accepted kinds. *)

type t = {
  faults : fault list;  (** Sorted by step (stable for equal steps). *)
  default_pref : Model.System.pref;
      (** Baseline resolution for tasks not covered by a silence or an
          override. [Prefer_dummy] is the paper's adversary. *)
  overrides : (Model.Task.t * Model.System.pref) list;
      (** Per-task resolutions, taking precedence over silences and the
          default. *)
}

val crash : step:int -> pid:int -> fault
val silence : step:int -> service:string -> fault
val drop : step:int -> service:string -> endpoint:int -> fault
val duplicate : step:int -> service:string -> endpoint:int -> fault
val delay : step:int -> service:string -> endpoint:int -> lag:int -> fault
val partition : step:int -> blocks:int list list -> heal_at:int -> fault

val step : fault -> int
(** The nominal step a fault is scheduled at (a partition's begin). *)

val make :
  ?default_pref:Model.System.pref ->
  ?overrides:(Model.Task.t * Model.System.pref) list ->
  fault list ->
  t
(** [default_pref] defaults to [Prefer_dummy] (the silencing adversary). *)

val empty : t
val equal : t -> t -> bool

val compare_fault : fault -> fault -> int
(** Kind-ranked: crashes < silences < drops < duplicates < delays <
    partitions; within a kind, by step then payload. The shrinker walks
    candidates in this order, so it gives up a duplication before it weakens
    a partition. *)

val compare : t -> t -> int
(** A total order consistent with {!equal}: faults lexicographically (by
    kind, step, target), then the default adversary (silencing first — the
    enumeration default), then overrides. Used by the parallel explorer's
    merge to break ties deterministically, so reports are run-to-run
    stable. *)

val map_steps : (int -> int) -> t -> t
(** Rebase every fault's step (and partition heal edge) through the given
    monotone map, re-sorting. Heal edges are kept strictly after their
    onset, so a valid schedule stays valid. The workload engine uses this to
    translate engine-tick fault times into shot-local scheduler steps. *)

val crashes : t -> (int * int) list
(** The [(step, pid)] crash placements, in schedule order. *)

val n_crashes : t -> int
val crashed_pids : t -> int list

val n_faults : t -> int
(** Total fault count, all kinds — the budget the explorer's lattice is
    graded by. *)

val net_faults : t -> fault list
(** The network faults (drop/dup/delay/partition), in schedule order. *)

val is_crash_only : t -> bool

val pp : Format.formatter -> t -> unit

val to_string : t -> string
(** Round-trips through {!parse}: a comma-separated fault spec, e.g.
    ["crash@0:1,drop@4:net01:1,partition@2:0|1.2:9"], prefixed with
    ["helpful,"] when [default_pref] is [Prefer_real]. Overrides are not
    representable in the string form. *)

val parse : string -> (t, string) result
(** Accepts comma/space-separated tokens: [crash@STEP:PID] (or the shorthand
    [STEP:PID]), [silence@STEP:SERVICE], [drop@STEP:SERVICE:ENDPOINT],
    [dup@STEP:SERVICE:ENDPOINT], [delay@STEP:SERVICE:ENDPOINT:LAG],
    [partition@STEP:BLOCKS:HEAL] with BLOCKS pids joined by ['.'] and blocks
    by ['|'] (e.g. [partition@2:0|1.2:9]), and the adversary markers
    [helpful] / [silencing]. Every number is plain decimal digits. Lines
    starting with ['#'] are ignored, so [--witness-out] files with
    trajectory annotations round-trip. *)

val validate : Model.System.t -> t -> (unit, string) result
(** Check pids are in range, silenced services exist, net-fault endpoints
    belong to their service, delay lags are ≥ 1, and partition blocks are
    nonempty, disjoint, in range, and heal after they start. *)

(** {1 Compilation} *)

type delivery =
  | Deliver_fail of int
  | Deliver_net of { service : string; endpoint : int; kind : Model.Event.net_kind }
  | Deliver_partition of { blocks : int list list; heal_at : int }
  | Deliver_heal of int list list
      (** What {!due} hands the driver at a scheduling turn. Heal deliveries
          are synthesized from [Partition] faults at compile time. *)

type compiled
(** A schedule instantiated against a system: a step-sorted delivery queue
    (crashes, net faults, partition starts and their synthesized heals),
    silence activation steps resolved to service positions, active-partition
    intervals, and the policy closure. Mutable (deliveries are consumed);
    compile afresh per run. *)

val compile : t -> Model.System.t -> compiled
(** Raises [Invalid_argument] if {!validate} fails. *)

val policy : compiled -> Model.System.policy
(** Resolution order: override, then active silence, then default. The
    policy is step-dependent through {!due}: silences activate once the
    schedule has been driven past their step. *)

val due : compiled -> step:int -> delivery option
(** The delivery for this scheduling turn, if any (consumes it). Also
    advances the schedule's clock, activating silences and partition
    intervals. Call once per turn. *)

val undelivered : compiled -> int
(** Crashes never delivered (scheduled beyond the step budget). *)

val undelivered_net : compiled -> int
(** Net faults and partition starts never delivered. *)

val fully_active : compiled -> step:int -> bool
(** No pending deliveries and every silence activated — from here on the
    compiled schedule is memoryless (all partitions healed, the policy
    frozen), so (cursor, state) repetition under a deterministic task order
    proves a lasso. *)

val separated : compiled -> int -> int -> bool
(** Whether an unhealed partition currently (at the compiled clock)
    separates the two pids into different blocks. *)

val blocked : compiled -> Model.System.t -> Model.State.t -> Model.Task.t -> bool
(** Whether an active partition holds this task back: a service-output turn
    whose endpoint's head response crossed a block boundary (for network
    packets, judged by the sender in the payload; for other services, only
    when the endpoint is isolated from every other endpoint). {!Runner}
    gives a blocked task's turn away. *)
