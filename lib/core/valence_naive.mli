(** Reference valence computation, by per-vertex forward reachability.

    Quadratic in the graph size where {!Valence.analyze} is linear — kept as
    the independent oracle for the SCC-condensation implementation
    ({!Lemma_check.scc_vs_naive}). *)

val verdicts : Graph.t -> Valence.verdict array
(** [verdicts g] computes, for every vertex, the set of decision values
    reachable by failure-free extensions, by a fresh BFS per vertex. *)
