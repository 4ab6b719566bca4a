(** Resilience certificates: per-protocol lint verdicts quantified over an
    (n, f) window.

    The paper's results are parameterized — Thm 2/9/10 refute boosting for
    {e all} n and every f above the composed services' resilience — and a
    certificate is the static layer's matching artifact: the verdict at
    every point of a parameter window, plus the derived
    universally-quantified view. Findings byte-identical at every point are
    [stable] (quantify verbatim); findings whose (rule, severity, subject)
    key recurs at every point while the detail embeds the parameters (tob's
    guarantee-gap names f+1 and f) are [everywhere] keys.

    Authority is concrete: {!disagreements} re-lints fresh at each point and
    compares byte-for-byte, so certification can never outrun what concrete
    instantiation reproduces. *)

type point = {
  pn : int;
  pf : int;
  findings : Lint.finding list;  (** In {!Lint.analyze}'s sorted order. *)
  code : int;  (** {!Lint.exit_code} at this point. *)
}

type t = {
  protocol : string;
  family : string;  (** {!Structhash.family} over the window — cache key. *)
  max_faults : int;  (** The analysis fault bound used at every point. *)
  points : point list;  (** Sorted by (n, f). *)
  stable : Lint.finding list;  (** Byte-identical at every point. *)
  everywhere : (string * Lint.severity * string) list;
      (** (rule, severity, subject) present at every point with varying
          detail; disjoint from the keys [stable] covers. *)
}

val make :
  protocol:string -> family:string -> max_faults:int -> point list -> t
(** Sorts the points and derives [stable]/[everywhere]. *)

val window : t -> (int * int) * (int * int)
(** [((n_lo, f_lo), (n_hi, f_hi))] hull of the points. *)

val disagreements :
  t -> fresh:(n:int -> f:int -> Lint.finding list * int) -> (int * int) list
(** Points where a fresh concrete lint differs from the stored verdict —
    findings compared byte-for-byte, exit codes exactly. Empty means the
    certificate is validated. *)

val encode : Buffer.t -> t -> unit
(** Persists protocol, family, max_faults and points; the quantified view
    is re-derived on decode. *)

val decode : Codec.cursor -> t
(** Raises {!Codec.Corrupt} on malformed input. *)

val pp : Format.formatter -> t -> unit

val json : t -> Json.t
(** An object with members certificate, family, max_faults, window (n and f
    ranges), stable, everywhere and points — findings in
    {!Lint.json_of_finding}'s shape. *)
