(** The sound infeasibility oracle for the chaos explorer.

    {!clean_from} certifies a {e quiescence step} Q for a system under the
    exploration convention (round-robin interleaving, default monitors,
    silencing adversary): the fault-free round-robin execution is frozen
    from step Q on — no state change and no decide event, verified
    concretely over a full task cycle — and the frozen state is closed under
    every crash pattern of at most [max_faults] processes, under {e both}
    preference resolutions, proven by the {!Reach} fixpoint
    ({!Reach.frozen}); moreover every initialized process has decided there,
    so [f-termination] holds at any lasso.

    Consequently any crash-only silencing schedule whose crashes all land at
    steps ≥ Q yields a run that provably terminates in a clean lasso with
    every crash delivered: the explorer can skip it without concrete
    execution, recording the same per-run counters the run would have
    produced. The certificate additionally reports whether every response
    buffer is empty at the frozen state ([buffers_empty]); when it is,
    post-Q {e network} deliveries are absorbed too — a drop/dup/delay finds
    an empty buffer (provably vacuous, no event, no waiver) and a partition
    can never block an output turn, so its begin/heal pair merely decorates
    the same clean lasso. Prune only on proven infeasibility: when any
    certificate step fails, the answer is [None] and everything runs
    concretely. *)

type cert = {
  quiescent_from : int;  (** The certified quiescence step Q. *)
  buffers_empty : bool;
      (** Every service response buffer is empty at the frozen state, so the
          certificate extends to post-Q omission and partition deliveries. *)
}

val clean_from :
  ?max_faults:int ->
  inputs:Ioa.Value.t list ->
  horizon:int ->
  Model.System.t ->
  cert option
(** The certificate, if one exists with Q < [horizon] (fault steps range
    over [0, horizon), so a later Q prunes nothing). [max_faults] defaults
    to 1 and must cover the explorer's maximum crash count. *)
