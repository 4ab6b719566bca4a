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

let violated ~monitors ?max_steps ?interleave ~shrink sys original =
  let minimized, shrink_stats =
    if shrink then
      let m, st = Shrink.shrink ~monitors ?max_steps ?interleave sys original in
      Some m, Some st
    else None, None
  in
  let final = Option.value minimized ~default:original in
  Violated
    { original; minimized; shrink_stats; witness = witness_of_violation final; replayed = None }

let report_of mode (r : Explore.report) outcome =
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
    outcome;
  }

let run ?monitors ?(shrink = true) ?(domains = 1) ?(dedup = true) ?(stop = fun () -> false)
    mode sys =
  let monitors =
    (* Resolved once, so the runs and the shrinker judge by the same family:
       a degrade-aware violation must not "vanish" while minimizing. *)
    match monitors with
    | Some ms -> ms
    | None ->
      let degrade =
        match mode with Systematic c -> c.Explore.degrade | Seeded s -> s.degrade
      in
      Monitor.defaults ~degrade ()
  in
  match mode with
  | Systematic config ->
    let r = Explore.run_par ~monitors ~config ~domains ~dedup ~stop sys in
    report_of mode r
      (match r.Explore.violation with
      | None -> Passed
      | Some v -> violated ~monitors ~max_steps:config.Explore.max_steps ~shrink sys v)
  | Seeded { seed; runs; max_faults; horizon; max_steps; kinds; degrade } ->
    let rand_run seed = Rand.run ~seed ~max_faults ~horizon ~kinds ~monitors ~max_steps sys in
    let rec go i acc =
      if i >= runs || Option.is_some acc.Explore.violation then acc
      else if stop () then { acc with Explore.wall_truncated = true }
      else
        let r, schedule = rand_run (seed + i) in
        go (i + 1) (Explore.add acc (Explore.of_run ~degrade sys schedule r))
    in
    let r = go 0 (Explore.empty_report ~space:runs) in
    report_of mode r
      (match r.Explore.violation with
      | None -> Passed
      | Some v -> (
        (* The violating run is the last one examined. *)
        let seed_i = seed + r.Explore.examined - 1 in
        let interleave = Rand.interleave ~seed:seed_i in
        (* Exact replay: the same seed must reproduce the identical trace. *)
        let replay, _ = rand_run seed_i in
        let replayed =
          List.equal Model.Event.equal
            (Model.Exec.events v.Explore.exec)
            (Model.Exec.events replay.Runner.exec)
        in
        match violated ~monitors ~max_steps ~interleave ~shrink sys v with
        | Violated x -> Violated { x with replayed = Some replayed }
        | o -> o))

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
  let saturated = match r.mode with Systematic _ -> r.space = max_int | Seeded _ -> false in
  Format.fprintf ppf "examined %d of %s%d candidate schedule(s)%s%s%s@," r.examined
    (if saturated then "≥" else "")
    r.space
    (if saturated then " (space count saturated)" else "")
    (if r.truncated then " — TRUNCATED: enumeration budget hit before exhausting the space"
     else "")
    (if r.wall_truncated then " — truncated: wall-clock" else "");
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
