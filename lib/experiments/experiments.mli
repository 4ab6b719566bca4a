(** The reproduction experiments E1–E13 (see DESIGN.md §4).

    Each experiment returns rows pairing the paper's claim ("expected") with
    what the engine measured; [ok] is the per-row verdict. The [all] battery
    is what `boost experiments` prints and EXPERIMENTS.md records. *)

type row = {
  experiment : string;  (** Experiment id, e.g. ["E5"]. *)
  label : string;  (** Instance description. *)
  expected : string;  (** The paper's claim for this instance. *)
  measured : string;  (** What the engine produced. *)
  ok : bool;
}

val pp_table : Format.formatter -> row list -> unit

val random_consensus_runs :
  sys:Model.System.t ->
  inputs:int list ->
  seeds:int ->
  max_failures:int ->
  k:int ->
  (int * Model.Properties.report) list
(** Runs seeds [0 .. seeds-1] from the given inputs under
    {!Model.Scheduler.random} (crash probability 0.02, at most
    [max_failures] crashes) until termination or 60,000 steps, and returns
    each seed whose run broke the specification — k-agreement, validity,
    termination, or a process deciding twice — with its final report.
    Empty means every run passed. *)

val e1_canonical_objects : unit -> row list
(** Fig. 1 / Thm. 11: canonical atomic objects satisfy their sequential types
    and the consensus axioms under adversarial schedules. *)

val e2_bivalent_initialization : unit -> row list
(** Lemma 4: the staircase of the Theorem 2 target contains a bivalent
    initialization. *)

val e3_hook_search : unit -> row list
(** Fig. 3 / Lemma 5: the path construction finds a hook; the brute-force
    oracle agrees. *)

val e4_similarity_commutation : unit -> row list
(** Lemma 8 machinery: hook endpoints are k-similar for the pivot service;
    disjoint-participant tasks commute over the whole explored graph. *)

val e5_theorem2 : unit -> row list
(** Theorem 2: refutation witnesses for atomic-object boosting candidates,
    and non-refutation at the resilience boundary. *)

val e6_kset_boosting : unit -> row list
(** §4: k-set-consensus boosting succeeds under failure injection. *)

val e7_theorem9_tob : unit -> row list
(** §5.2/Theorem 9: TOB total order holds; TOB-based boosting is refuted. *)

val e8_failure_detectors : unit -> row list
(** §6.2: P accuracy/completeness; ◇P stabilization. *)

val e9_fd_boosting : unit -> row list
(** §6.3: consensus for any number of failures from 1-resilient 2-process
    perfect detectors; the emulated n-process detector is perfect. *)

val e10_theorem10 : unit -> row list
(** Theorem 10: all-connected general services cannot boost. *)

val e11_flp_instance : unit -> row list
(** The FLP-flavoured register-only instances (f = 0 heritage results). *)

val e12_message_passing : unit -> row list
(** The TR [2] / FLP setting: consensus candidates over the reliable network
    service are refuted on termination (safe variant) or agreement (live
    variant). *)

val counter_history : Model.Exec.t -> Model.Linearize.event list
(** The client history of a universal-counter run: one [increment] call per
    initialized process, then one return per decide event carrying that
    process's counter response, in execution order. *)

val e13_universal : unit -> row list
(** §1's universality claim: a wait-free linearizable counter from consensus
    slots and registers, validated under adversarial runs — each run must
    terminate and its {!counter_history} pass {!Model.Linearize.check}. *)

val all : unit -> row list
(** The full battery, in order. *)
