type mode =
  | Systematic of Explore.config
  | Seeded of {
      seed : int;
      runs : int;
      max_faults : int;
      horizon : int;
      max_steps : int;
      kinds : Schedule.kind list;
      degrade : bool;
    }

type outcome =
  | Passed
  | Violated of {
      original : Explore.violation;
      minimized : Explore.violation option;
      shrink_stats : Shrink.stats option;
      witness : Engine.Counterexample.witness option;
      replayed : bool option;
    }

type report = {
  mode : mode;
  examined : int;
  space : int;
  truncated : bool;
  wall_truncated : bool;
  step_budget_hits : int;
  monitor_truncations : int;
  undelivered_crashes : int;
  undelivered_net : int;
  vacuous_net_faults : int;
  dedup_hits : int;
  static_prunes : int;
  por_prunes : int;
  outcome : outcome;
}

let witness_of_violation (v : Explore.violation) =
  match v.Explore.monitor with
  | "agreement" | "per-process agreement" ->
    Some (Engine.Counterexample.Agreement_violation v.Explore.exec)
  | "validity" -> Some (Engine.Counterexample.Validity_violation v.Explore.exec)
  | "f-termination" ->
    Some
      (Engine.Counterexample.Non_termination
         {
           exec = v.Explore.exec;
           failed = Schedule.crashed_pids v.Explore.schedule;
           proven = v.Explore.proven;
         })
  | _ -> None (* k-agreement, linearizability: no engine constructor; reported directly. *)

let violated ?monitors ?max_steps ?interleave ~shrink sys original =
  let minimized, shrink_stats =
    if shrink then
      let m, st = Shrink.shrink ?monitors ?max_steps ?interleave sys original in
      Some m, Some st
    else None, None
  in
  let minimized =
    (* The shrinker carries the original's damage annotation through [with];
       recompute it on the minimized prefix, whose damage may be smaller. *)
    match original.Explore.degraded_to with
    | None -> minimized
    | Some _ ->
      Option.map
        (fun (m : Explore.violation) ->
          { m with Explore.degraded_to = Some (Degrade.describe sys m.Explore.exec) })
        minimized
  in
  let final = Option.value minimized ~default:original in
  Violated
    { original; minimized; shrink_stats; witness = witness_of_violation final; replayed = None }

let run ?monitors ?(shrink = true) ?(domains = 1) ?(dedup = true)
    ?(static_prune = false) ?(por = false) ?(stop = fun () -> false) mode sys =
  match mode with
  | Systematic config ->
    let r =
      (* One domain keeps the trusted sequential path, byte-identical to the
         pre-parallel engine; more domains (or either static oracle) go
         through the deduplicated shared-counter explorer. The explorer gets
         the caller's monitors verbatim — its static oracles key on the
         caller not overriding the (degrade-aware) defaults. *)
      if domains <= 1 && not static_prune && not por then
        Explore.run ?monitors ~config ~stop sys
      else
        Explore.run_par ?monitors ~config ~domains ~dedup ~static_prune ~por ~stop sys
    in
    let shrink_monitors =
      (* The shrinker must judge candidates by the same family the explorer
         ran, or a degrade-aware violation could "vanish" while minimizing. *)
      match monitors with
      | Some _ -> monitors
      | None ->
        if config.Explore.degrade then Some (Monitor.defaults ~degrade:true ()) else None
    in
    let outcome =
      match r.Explore.violation with
      | None -> Passed
      | Some v ->
        violated ?monitors:shrink_monitors ~max_steps:config.Explore.max_steps ~shrink sys v
    in
    {
      mode;
      examined = r.Explore.examined;
      space = r.Explore.space;
      truncated = r.Explore.truncated;
      wall_truncated = r.Explore.wall_truncated;
      step_budget_hits = r.Explore.step_budget_hits;
      monitor_truncations = r.Explore.monitor_truncations;
      undelivered_crashes = r.Explore.undelivered_crashes;
      undelivered_net = r.Explore.undelivered_net;
      vacuous_net_faults = r.Explore.vacuous_net_faults;
      dedup_hits = r.Explore.dedup_hits;
      static_prunes = r.Explore.static_prunes;
      por_prunes = r.Explore.por_prunes;
      outcome;
    }
  | Seeded { seed; runs; max_faults; horizon; max_steps; kinds; degrade } ->
    let monitors =
      (* Same degrade-aware defaulting as the systematic path; the seeded
         engine never engages the static oracles, so nothing keys on None. *)
      match monitors with
      | Some _ -> monitors
      | None -> if degrade then Some (Monitor.defaults ~degrade:true ()) else None
    in
    let step_budget_hits = ref 0 and monitor_truncations = ref 0 in
    let undelivered = ref 0 and undelivered_n = ref 0 and vacuous = ref 0 in
    let wall = ref false in
    let rec go i =
      if i >= runs then None, runs
      else if stop () then begin
        wall := true;
        None, i
      end
      else begin
        let seed_i = seed + i in
        let r, schedule =
          Rand.run ~seed:seed_i ~max_faults ~horizon ~kinds ?monitors ~max_steps sys
        in
        monitor_truncations := !monitor_truncations + List.length r.Runner.monitor_truncations;
        undelivered := !undelivered + r.Runner.undelivered_crashes;
        undelivered_n := !undelivered_n + r.Runner.undelivered_net;
        vacuous := !vacuous + r.Runner.vacuous_net_faults;
        match r.Runner.stop with
        | Runner.Violation { monitor; reason; proven } ->
          ( Some
              (seed_i,
               Explore.
                 { schedule; monitor; reason; proven; exec = r.Runner.exec;
                   steps = r.Runner.steps;
                   degraded_to =
                     (if degrade then Some (Degrade.describe sys r.Runner.exec)
                      else None) }),
            i + 1 )
        | Runner.Lasso _ | Runner.Pruned -> go (i + 1)
        | Runner.Budget ->
          incr step_budget_hits;
          go (i + 1)
      end
    in
    let found, examined = go 0 in
    let outcome =
      match found with
      | None -> Passed
      | Some (seed_i, v) ->
        let interleave = Rand.interleave ~seed:seed_i in
        (* Exact replay: the same seed must reproduce the identical trace. *)
        let replay, _ =
          Rand.run ~seed:seed_i ~max_faults ~horizon ~kinds ?monitors ~max_steps sys
        in
        let replayed =
          List.equal Model.Event.equal
            (Model.Exec.events v.Explore.exec)
            (Model.Exec.events replay.Runner.exec)
        in
        (match violated ?monitors ~max_steps ~interleave ~shrink sys v with
        | Violated x -> Violated { x with replayed = Some replayed }
        | o -> o)
    in
    {
      mode;
      examined;
      space = runs;
      truncated = false;
      wall_truncated = !wall;
      step_budget_hits = !step_budget_hits;
      monitor_truncations = !monitor_truncations;
      undelivered_crashes = !undelivered;
      undelivered_net = !undelivered_n;
      vacuous_net_faults = !vacuous;
      dedup_hits = 0;
      static_prunes = 0;
      por_prunes = 0;
      outcome;
    }

let pp_mode ppf = function
  | Systematic c ->
    Format.fprintf ppf
      "systematic exploration (≤%d fault(s) of {%a}, horizon %d, stride %d)"
      c.Explore.max_faults
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
         Schedule.pp_kind)
      c.Explore.kinds c.Explore.horizon c.Explore.stride
  | Seeded { seed; runs; max_faults; kinds; _ } ->
    Format.fprintf ppf "seeded chaos (seed %d, %d run(s), ≤%d fault(s) of {%a})" seed runs
      max_faults
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
         Schedule.pp_kind)
      kinds

let pp_report ppf r =
  Format.fprintf ppf "@[<v>%a@," pp_mode r.mode;
  Format.fprintf ppf "examined %d of %d candidate schedule(s)%s%s@," r.examined r.space
    (if r.truncated then " — TRUNCATED: enumeration budget hit before exhausting the space"
     else "")
    (if r.wall_truncated then " — truncated: wall-clock" else "");
  if r.dedup_hits > 0 then
    Format.fprintf ppf "%d schedule(s) pruned by configuration fingerprint@," r.dedup_hits;
  if r.static_prunes > 0 then
    Format.fprintf ppf "%d schedule(s) statically pruned (proven clean, never executed)@,"
      r.static_prunes;
  if r.por_prunes > 0 then
    Format.fprintf ppf
      "%d schedule(s) pruned by partial-order reduction (verdict inherited from the \
       canonical fault placement)@,"
      r.por_prunes;
  if r.step_budget_hits > 0 then
    Format.fprintf ppf
      "%d run(s) hit the step budget undecided — liveness verdicts there are bounded evidence only@,"
      r.step_budget_hits;
  if r.monitor_truncations > 0 then
    Format.fprintf ppf "%d monitor check(s) truncated@," r.monitor_truncations;
  if r.undelivered_crashes > 0 then
    Format.fprintf ppf "%d scheduled crash(es) fell beyond the executed step range@,"
      r.undelivered_crashes;
  if r.undelivered_net > 0 then
    Format.fprintf ppf
      "%d scheduled network fault(s) fell beyond the executed step range@,"
      r.undelivered_net;
  if r.vacuous_net_faults > 0 then
    Format.fprintf ppf "%d delivered network fault(s) found an empty buffer (vacuous)@,"
      r.vacuous_net_faults;
  (match r.outcome with
  | Passed -> Format.fprintf ppf "all monitors passed@]"
  | Violated { original; minimized; shrink_stats; witness; replayed } ->
    Format.fprintf ppf "%a@," Explore.pp_violation original;
    (match minimized, shrink_stats with
    | Some m, Some st ->
      Format.fprintf ppf "minimized to [%a] after %d candidate(s), %d re-run(s)@,"
        Schedule.pp m.Explore.schedule st.Shrink.candidates st.Shrink.runs;
      Format.fprintf ppf "minimal schedule: %s@," (Schedule.to_string m.Explore.schedule);
      (match m.Explore.degraded_to with
      | Some vec -> Format.fprintf ppf "minimal damage degrades to %s@," vec
      | None -> ())
    | _ -> ());
    (match replayed with
    | Some true -> Format.fprintf ppf "seed replay: identical trace reproduced@,"
    | Some false -> Format.fprintf ppf "seed replay: MISMATCH (nondeterminism bug!)@,"
    | None -> ());
    (match witness with
    | Some w -> Format.fprintf ppf "witness: %a@]" Engine.Counterexample.pp_witness w
    | None -> Format.fprintf ppf "@]"))
