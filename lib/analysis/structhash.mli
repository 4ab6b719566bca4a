(** Canonical structural hash of a system's analysis-relevant identity.

    One hash, [full], is computed per system: everything the analyses and
    their rendered reports can depend on, including service identifiers, the
    service-array order and the declared type names. Every cache entry is
    keyed by it, so a renamed or service-permuted system is simply a
    different system and is re-analyzed — rendered reports print service
    ids, so a renamed twin must never replay its donor's output.

    Behavior is hashed by {e probing}, not by inspecting closures: a bounded
    breadth-first walk over each process's reachable local states (driven by
    [step], [on_init] over the seed input alphabet, and [on_response] over
    each connected service's declared response alphabet) and over each
    service's reachable type values (driven by [delta_inv] across every
    invocation × endpoint × a bounded family of failed-sets, and
    [delta_glob] across the declared global tasks). Every transition's
    observable outcome is folded into the hash, so any behavioral change a
    bounded analysis could see moves the hash; hash-equal units may still
    differ beyond the probe bound, which costs at most a spurious cache hit
    on behavior no analysis in this repository reaches. Probe caps are
    folded into the hash themselves, so a capped walk never collides with an
    uncapped one. *)

val analyzer_version : int
(** Salts every hash and every cache envelope: bump it whenever the
    transfer functions, the abstract domains or the probing scheme change,
    and every existing cache entry self-invalidates. *)

type t = { full : int }

val system : Model.System.t -> t

val key : t -> string
(** The [full] hash as a 16-hex-digit string — filename-safe. *)

val hex : int -> string

val probe_inputs : Ioa.Value.t list
(** The seed input alphabet the process probe drives [on_init] over — the
    binary staircase convention {!Reach.analyze} defaults to. *)

val mix_tokens : string list -> int
(** FNV-1a fold of a token list — for callers composing cache keys that
    include non-system inputs (claims, parameter tuples). *)

val family : string list -> string
(** Parameterized hashing: fold a whole (n, f) window's per-instantiation
    keys (plus any parameter tokens) into one filename-safe digest — the
    key a cross-parameter cache entry (resilience certificate) lives
    under. Any behavioral change at any grid point moves it. *)
