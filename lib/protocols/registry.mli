(** The shared protocol table.

    One name → constructor registry serving the CLI ([boost lint], [boost
    chaos], ...), the benchmark and the test-suites, so they all enumerate
    the same protocols under the same names instead of each re-listing the
    lookup. Construction is parameterized by the common knob set
    ({!params}); protocols ignore the knobs they do not have. *)

type params = {
  n : int;  (** Process count (where configurable). *)
  f : int;  (** Service resilience level (where configurable). *)
  groups : int;  (** k-set: group count (= the k of k-agreement). *)
  group_size : int;  (** k-set: processes per group. *)
}

val default_params : params
(** [n = 2; f = 0; groups = 2; group_size = 2] — the CLI defaults. *)

type entry = {
  name : string;  (** CLI name, e.g. ["register-wait"]. *)
  doc : string;
  build : params -> Model.System.t;
  min_n : int;
      (** The smallest [n] [build] accepts; the shared {!params} ranges
          cover everything else. *)
  k_of : params -> int;  (** Agreement width (1 except for k-set). *)
  claims : params -> Analysis.Guarantee.claim;
      (** What the protocol is held to by the chaos battery, for the static
          [guarantee-gap] pass. The boosting entries (tob, kset, fd-boost)
          register their over-claim deliberately; everyone else claims no
          more than the composed service vector supports. *)
}

val all : entry list
(** In CLI listing order. Names are unique. *)

val names : string list

val find : string -> entry option

val check_params : entry -> params -> (unit, string) result
(** Whether [build] accepts the parameters beyond their shared ranges
    (n ≥ 1, f ≥ 0, groups and group size ≥ 1): [Error] names the protocol's
    own bound. *)

val gaps : entry -> params -> Model.System.t -> Analysis.Guarantee.gap list
(** The guarantee-gap pass behind [boost lint]: the registered claim against
    the composed vector, plus — for claims quantified over all n — the
    Thm 10 connectivity check at a larger probe size. *)

val lint_key : Analysis.Structhash.t -> max_faults:int -> string -> string
(** The presentation cache key for a rendered lint report: full structural
    hash, analysis parameters, and the claim digest. *)

val claim_digest : entry -> params -> string
(** Digest of everything a lint result depends on beyond the system itself:
    the registered claim and, when it scales, the identity of the probe
    system the scaling gaps run against. *)

type lint_result = {
  name : string;
  human : string;  (** The rendered report, margin 78, trailing newline. *)
  findings : Analysis.Lint.finding list;
  code : int;  (** {!Analysis.Lint.exit_code} of the report. *)
  hash : Analysis.Structhash.t option;  (** Computed iff a cache was given. *)
}

val lint : ?cache:Analysis.Cache.t -> ?max_faults:int -> entry -> params -> lint_result
(** The single lint pipeline behind every CLI path (sequential, parallel,
    cached, cold): build, hash (when caching), consult the cache — a lint
    hit replays the rendered report — else analyze cold and store the
    report.
    [max_faults] defaults to 1. Thread-safe under a shared [cache]. *)

val manifest : unit -> (string * Analysis.Structhash.t) list
(** Structural hashes of the whole fleet at {!default_params} — the
    recorded side of {!Analysis.Cache.diff}. *)

(** {1 Parameterized certification ([boost lint --param])} *)

val param_window : (int * int) list
(** The default (n, f) window: n ∈ \{2,3,4\} × f ∈ \{0,1,2\} — every
    resilient registry protocol's full f ≤ resilience range plus the
    over-budget points, whose degraded verdicts certificates record rather
    than hide. *)

val family_key : ?window:(int * int) list -> ?max_faults:int -> entry -> string
(** The parameterized cache key ({!Analysis.Structhash.family}): every
    window point's presentation lint key folded into one digest. Any
    behavioral or claim change at any grid point moves it. *)

val certify :
  ?cache:Analysis.Cache.t ->
  ?window:(int * int) list ->
  ?max_faults:int ->
  entry ->
  Analysis.Cert.t
(** Build (or replay — one pcert hit covers the whole window) the
    protocol's resilience certificate. Certification is concrete by
    construction: every point's findings come from the ordinary lint
    pipeline at that instantiation; with a cache, the per-point lint
    entries populate too. [max_faults] defaults to 1. *)

val cert_disagreements :
  ?max_faults:int -> entry -> Analysis.Cert.t -> (int * int) list
(** Validate against fresh cache-less concrete lints at every stored
    point, byte-for-byte ({!Analysis.Cert.disagreements}); empty means
    validated. *)
