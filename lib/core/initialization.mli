(** Initializations and the bivalent-initialization lemma (paper §3.2,
    Lemma 4).

    An initialization is a finite execution containing exactly one
    [init(v)_i] per process and nothing else. Lemma 4's proof walks the
    "staircase" α_0, ..., α_n where α_i gives input 1 to the first [i]
    processes and 0 to the rest, and locates a bivalent one. This module
    materializes that scan, analyzing the full G(C) of each initialization. *)

open Ioa

type entry = {
  inputs : Value.t list;  (** Input vector, process 0 first. *)
  analysis : Valence.t;  (** Valence analysis of the initialization's G(C). *)
  verdict : Valence.verdict;  (** Verdict of the initialization itself. *)
}

val staircase : ?max_states:int -> Model.System.t -> entry list
(** The n+1 Lemma-4 initializations α_0 … α_n, in order. *)

val all_binary : ?max_states:int -> Model.System.t -> entry list
(** All 2^n binary initializations (for small n; raises if n > 16). *)

val find_bivalent : ?max_states:int -> Model.System.t -> entry option
(** The first bivalent entry of the staircase, as Lemma 4 produces it. *)

val staircase_flip : entry list -> (entry * entry) option
(** Over the entries {!staircase} computed, when no entry is bivalent: the
    consecutive pair (α_i 0-valent, α_{i+1} 1-valent or bivalent) that the
    Lemma 4 argument turns into a contradiction. [None] if a bivalent entry
    exists first. *)

val pp_entry : Format.formatter -> entry -> unit
