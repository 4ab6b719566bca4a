(** Hooks and the Fig. 3 path construction (paper §3.4, Lemma 5).

    A hook is the execution pattern of Fig. 2: from an execution α, one
    applicable task [e] leads to a 0-valent extension, while a second task
    [e'] followed by the same [e] leads to a 1-valent extension. Lemma 5
    proves every system satisfying the consensus conditions has one; the
    impossibility engine {e finds} one — or, failing that, returns the
    bivalence-preserving schedule whose existence refutes termination. *)

type t = {
  base : int;  (** Vertex of α. *)
  e : Model.Task.t;  (** The hook task. *)
  e' : Model.Task.t;
  alpha0 : int;  (** Vertex of e(α). *)
  mid : int;  (** Vertex of e'(α). *)
  alpha1 : int;  (** Vertex of e(e'(α)). *)
  v0 : Valence.verdict;  (** Valence of [alpha0]; [alpha1] has the opposite. *)
  base_path : Model.Task.t list;  (** Task path from the root to [base]. *)
}

val pp : Format.formatter -> t -> unit

type search =
  | Hook of t
  | Unbounded of Model.Task.t list
      (** The Fig. 3 construction kept extending a bivalent execution past
          the budget: the returned prefix of a bivalence-preserving schedule
          is (bounded) evidence of non-termination. *)
  | Not_bivalent  (** The root of the analyzed graph is not bivalent. *)
  | Inexact  (** The graph is incomplete, so valences are not exact. *)

val pp_result : Format.formatter -> search -> unit

val find : Valence.t -> search
(** The Fig. 3 round-robin path construction, followed by the Lemma 5 scan
    when it terminates. A constructed bivalent path longer than 10,000
    steps is reported [Unbounded]. *)

val find_brute : Valence.t -> t option
(** Exhaustive hook search over all vertices and task pairs — the
    cross-check oracle for {!find}. [base_path] is a BFS path from the
    root. *)

val check : Valence.t -> t -> (unit, string) result
(** Verifies the definitional hook conditions against the analysis. *)
