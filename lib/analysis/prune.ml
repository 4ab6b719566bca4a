module System = Model.System
module State = Model.State

type cert = { quiescent_from : int; buffers_empty : bool }

let clean_from ?(max_faults = 1) ~inputs ~horizon (sys : System.t) =
  if horizon <= 0 then None
  else begin
    let tasks = sys.System.tasks in
    let nt = Array.length tasks in
    let limit = horizon + nt in
    (* Concrete fault-free round-robin walk — the exact (singleton-domain)
       simulation of every crash-only candidate's shared stem. No failures,
       so no dummy action is enabled and the policy cannot bite (§2.1.3). *)
    let s = ref (System.initialize sys inputs) in
    let last_bad = ref (-1) in
    for t = 0 to limit - 1 do
      match System.transition sys !s tasks.(t mod nt) with
      | None -> ()
      | Some (ev, s') ->
        let changed = not (State.equal s' !s) in
        let decide = match ev with Model.Event.Decide _ -> true | _ -> false in
        if changed || decide then last_bad := t;
        s := s'
    done;
    let q = !last_bad + 1 in
    (* Q < horizon or nothing can be pruned; Q + nt ≤ limit then holds, so a
       full task cycle after Q was observed silent — determinism freezes the
       fault-free run forever. *)
    if q >= horizon then None
    else if
      (* f-termination must hold at the frozen state: every initialized
         process has decided (crashed ones are exempt a fortiori). *)
      not
        (Array.for_all2
           (fun inp dec -> inp = None || dec <> None)
           !s.State.inputs !s.State.decisions)
    then None
    else
      (* Crash closure: under every failed superset within max_faults, and
         under both preference resolutions, no task can change the state or
         emit a decide event. Proven by the fixpoint, not sampled. *)
      let r = Reach.analyze_from ~max_faults !s sys in
      if Reach.frozen r then
        (* Checked concretely on the frozen state: with every response buffer
           empty, post-Q omission deliveries (drop/dup/delay) are provably
           vacuous — they mutate nothing and leave no event — and post-Q
           partitions can never block an output turn ([blocked] is false on
           an empty buffer), so the frozen lasso absorbs them too. *)
        let buffers_empty =
          Array.for_all
            (fun (svc : State.svc) -> Array.for_all (fun buf -> buf = []) svc.State.resp_bufs)
            !s.State.svcs
        in
        Some { quiescent_from = q; buffers_empty }
      else None
  end
