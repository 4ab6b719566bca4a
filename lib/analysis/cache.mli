(** Persistent on-disk analysis cache, keyed by {!Structhash}.

    Layout: one file per entry under the cache directory (default
    [_boost_cache/]), named [<kind>-<key>.entry]. Every file opens with a
    one-line versioned envelope header

    {v boost-cache <envelope version> <analyzer version> <kind> <key> v}

    so entries self-invalidate when either the envelope format or the
    analyzer (via {!Structhash.analyzer_version}) changes — a mismatched
    header counts as [stale] and the entry is dropped. Files that fail the
    header or payload decode are quarantined: renamed to [*.corrupt],
    counted, and never consulted again. Writes go through a tempfile in the
    same directory plus an atomic rename, so concurrent readers (parallel
    lint domains, concurrent CI jobs sharing a directory) never observe a
    half-written entry. Cache failures of any kind degrade to a miss; the
    cache can make an analysis faster, never wrong and never crash it. *)

val envelope_version : int
val default_dir : string

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable stale : int;
  mutable corrupt : int;
  mutable writes : int;
}

type t = { dir : string; lock : Mutex.t; stats : stats }

val open_ : dir:string -> t
(** Creates the directory (and parents) if absent. All operations on the
    returned handle are thread-safe. *)

val store : t -> kind:string -> key:string -> string -> unit
(** Atomic write; failures are swallowed (the entry is simply not cached,
    and its tempfile is removed). *)

(** {1 Maintenance} *)

val clear : dir:string -> int
(** Remove every cache file ([.entry], [.corrupt], [.tmp]); returns the
    count removed. *)

val entries : dir:string -> (string * int * int) list
(** Entries on disk grouped by kind: (kind, count, total bytes), sorted. *)

val corrupt_count : dir:string -> int

(** {1 Statistics} *)

val pp_stats : Format.formatter -> t -> unit

val stats_json : t -> Json.t
(** Counters plus a ["kinds"] object — the on-disk census grouped by
    envelope kind in sorted order, the same grouping [boost cache status]
    prints. *)

(** {1 The fleet manifest} *)

val write_manifest : t -> (string * Structhash.t) list -> unit

val read_manifest : t -> (string * Structhash.t) list option
(** Manifest reads do not count toward hit/miss statistics: they are
    bookkeeping around the analyses, not analysis reuse. *)

(** {1 The Goblint-style diff pass} *)

type change =
  | Unchanged  (** Same [full] hash — every cache entry replays. *)
  | Changed
      (** Different [full] hash — re-analysis required. A consistent
          service rename or a permuted service array lands here too. *)
  | Added  (** No recorded entry. *)

type change_report = { changes : (string * change) list; removed : string list }

val diff : (string * Structhash.t) list -> (string * Structhash.t) list -> change_report
(** [diff old_manifest manifest] — per-protocol change classification plus
    the names present before and gone now. *)

val pp_change : Format.formatter -> change -> unit

(** {1 Typed accessors} *)

type lint_entry = { human : string; findings : Lint.finding list; code : int }
(** A rendered lint report: the exact human text (margin 78), the findings
    for JSON re-emission, and the exit code. Keyed by the caller-built
    presentation key ([full] hash + parameters + claim digest). *)

val lint_store : t -> key:string -> lint_entry -> unit
val lint_find : t -> key:string -> lint_entry option

val pcert_store : t -> key:string -> Cert.t -> unit
(** Resilience certificates, keyed by {!Structhash.family} over the whole
    (n, f) window — one entry replays an entire parameter sweep. *)

val pcert_find : t -> key:string -> Cert.t option
