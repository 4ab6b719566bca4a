(** Protocol lints over the abstract reachability solution.

    Each finding is a proven or honestly-qualified fact about the protocol
    as a transition system, surfaced before any concrete run:

    - [error] findings break assumptions the exact engine ({!Engine.Graph},
      {!Engine.Valence}) silently relies on (§3.1: total deterministic step
      functions, non-empty δ relations, endpoint discipline) or make the
      protocol statically vacuous ([blank-protocol]: no reachable decide —
      the [Valence.Blank] anomaly caught without materializing G(C));
    - [warning] findings are almost certainly protocol bugs ([dead-decide]:
      a process provably never decides failure-free; [over-resilient]: a
      resilience claim exceeding the endpoint count; [static-race]: two
      tasks share a written state component yet can never share a
      participant, stepping outside the Lemma 8 commutation discipline —
      see {!Footprint.races});
    - [info] findings are interface observations ([dead-task],
      [not-connected-to-all], [wait-free-claim], [decide-outside-inputs])
      whose severity depends on intent.

    Findings are deterministic and sorted (severity, code, subject), one per
    line under {!pp} — machine-readable by design; {!exit_code} maps them to
    a shell status. *)

type severity = Error | Warning | Info

type finding = { code : string; severity : severity; subject : string; detail : string }

type report = {
  findings : finding list;
  reach : Reach.t;
  footprints : Footprint.t array;  (** {!Footprint.of_system}, by task position. *)
}

val analyze :
  ?max_faults:int ->
  ?inputs:Ioa.Value.t list ->
  ?gaps:Guarantee.gap list ->
  Model.System.t ->
  report
(** [max_faults] (default 1) bounds the crashes in the contexts analyzed,
    footprints included. [gaps] (from {!Guarantee.gaps} against the
    protocol's registered claim) are folded in as [guarantee-gap] findings at [Info] severity — expected
    paper-explanations for the boosting protocols, not defects. *)

val severity_name : severity -> string
(** ["error"] / ["warning"] / ["info"] — the JSON rendering. *)

val pp_severity : Format.formatter -> severity -> unit
val pp_finding : Format.formatter -> finding -> unit
(** One line: [SEVERITY[code] subject: detail]. *)

val pp : Format.formatter -> report -> unit
(** All findings, one per line, then the per-task footprint summary and
    independence census ({!Footprint.pp_summary}), then a summary line with
    the crash-count interval covered and solver statistics. *)

val json_of_finding : protocol:string -> finding -> Json.t
(** One finding as a JSON object with members protocol, severity, rule,
    subject and message, in that order — the machine-readable shape behind
    [boost lint --json]. *)

val exit_code : report -> int
(** 0 when no finding is worse than [Info]; 1 otherwise. *)

val sort_for_artifact : (string * finding) list -> (string * finding) list
(** Artifact ordering: (protocol, severity, code, subject) — a total,
    input-order-independent sort, so the [lint --all --json] artifact is
    diff-stable across parallel runs and cache replays. *)

val encode_findings : Buffer.t -> finding list -> unit

val decode_findings : Codec.cursor -> finding list
(** Raises {!Codec.Corrupt} on malformed input. *)
