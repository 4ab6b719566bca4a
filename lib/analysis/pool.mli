(** The one domain pool behind every [-j]: indices [0 … n-1] handed out
    lowest first from a shared atomic counter, on
    [min jobs (Domain.recommended_domain_count ()) n] domains (the caller's
    included). Results land in index order whichever domain ran what, so a
    deterministic [f] gives a deterministic array. *)

val map : ?stop:(unit -> bool) -> jobs:int -> int -> (int -> 'a) -> 'a option array
(** [map ?stop ~jobs n f] is [[| Some (f 0); …; Some (f (n-1)) |]], computed
    in parallel. [stop] is polled before each index; once it answers [true]
    no further index is handed out and the slots not yet run stay [None].
    If [f] raises, no further index is handed out, every spawned domain is
    joined, and the first exception is re-raised with its backtrace. *)
