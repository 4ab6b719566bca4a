type config = {
  max_faults : int;
  horizon : int;
  stride : int;
  budget : int;
  max_steps : int;
  kinds : Schedule.kind list;
  degrade : bool;
}

let default_config (sys : Model.System.t) =
  {
    max_faults = 1;
    horizon = 2 * Array.length sys.Model.System.tasks;
    stride = 1;
    budget = 1_024;
    max_steps = 20_000;
    kinds = [ Schedule.Crash_k ];
    degrade = false;
  }

type violation = {
  schedule : Schedule.t;
  monitor : string;
  reason : string;
  proven : bool;
  exec : Model.Exec.t;
  steps : int;
  degraded_to : string option;
}

let degraded_to_of cfg sys exec =
  if cfg.degrade then Some (Degrade.describe sys exec) else None

let pp_violation ppf v =
  Format.fprintf ppf "@[<v 2>%s violated (%s) under schedule [%a]:@,%s@]" v.monitor
    (if v.proven then "proven" else "bounded evidence")
    Schedule.pp v.schedule v.reason;
  match v.degraded_to with
  | None -> ()
  | Some vec -> Format.fprintf ppf "@,degraded to %s" vec

type report = {
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
  violation : violation option;
}

let grid cfg = List.init ((cfg.horizon + cfg.stride - 1) / cfg.stride) (fun i -> i * cfg.stride)

let rec choose k lst =
  (* k-subsets of [lst], lexicographic, as a lazy sequence. *)
  if k = 0 then Seq.return []
  else
    match lst with
    | [] -> Seq.empty
    | x :: rest ->
      Seq.append
        (Seq.map (fun c -> x :: c) (choose (k - 1) rest))
        (fun () -> choose k rest ())

let rec tuples k points =
  (* k-tuples over [points] (crash steps per chosen pid), lexicographic. *)
  if k = 0 then Seq.return []
  else
    Seq.flat_map
      (fun tl -> Seq.map (fun p -> p :: tl) (List.to_seq points))
      (fun () -> tuples (k - 1) points ())

(* Fault-site templates: one per (kind, target) pair; the step grid
   instantiates them. Crash templates come first, in pid order, so with
   [kinds = [Crash_k]] the candidate stream is exactly the crash-only
   enumeration of the earlier engine — the invariant the pinned differential
   in test_chaos_net.ml protects. *)
let templates (sys : Model.System.t) cfg =
  let n = Model.System.n_processes sys in
  let service_endpoints =
    Array.to_list sys.Model.System.services
    |> List.concat_map (fun (c : Model.Service.t) ->
           List.map
             (fun ep -> c.Model.Service.id, ep)
             (Array.to_list c.Model.Service.endpoints))
  in
  let heal_of step = step + max 1 (cfg.horizon / 2) in
  List.concat_map
    (function
      | Schedule.Crash_k -> List.init n (fun pid step -> Schedule.crash ~step ~pid)
      | Schedule.Silence_k ->
        Array.to_list sys.Model.System.services
        |> List.map (fun (c : Model.Service.t) step ->
               Schedule.silence ~step ~service:c.Model.Service.id)
      | Schedule.Drop_k ->
        List.map
          (fun (service, endpoint) step -> Schedule.drop ~step ~service ~endpoint)
          service_endpoints
      | Schedule.Dup_k ->
        List.map
          (fun (service, endpoint) step -> Schedule.duplicate ~step ~service ~endpoint)
          service_endpoints
      | Schedule.Delay_k ->
        List.map
          (fun (service, endpoint) step -> Schedule.delay ~step ~service ~endpoint ~lag:1)
          service_endpoints
      | Schedule.Partition_k ->
        (* Isolate-one-pid splits — the coarsest §6.3-meaningful partitions;
           finer block structures are reachable by stacking several. Heal at
           half a horizon later, so degradation is graceful within the
           explored window. *)
        if n < 2 then []
        else
          List.init n (fun pid step ->
              Schedule.partition ~step ~blocks:[ [ pid ] ] ~heal_at:(heal_of step)))
    cfg.kinds

let schedules sys cfg =
  let points = grid cfg in
  let tmpls = templates sys cfg in
  let of_size k =
    Seq.flat_map
      (fun subset ->
        Seq.map
          (fun steps ->
            Schedule.make (List.map2 (fun tmpl step -> tmpl step) subset (List.rev steps)))
          (tuples k points))
      (choose k tmpls)
  in
  Seq.flat_map of_size (Seq.init (cfg.max_faults + 1) Fun.id)

let space_size sys cfg =
  let g = List.length (grid cfg) in
  let t = List.length (templates sys cfg) in
  let rec binom n k = if k = 0 || k = n then 1 else binom (n - 1) (k - 1) + binom (n - 1) k in
  let rec pow b e = if e = 0 then 1 else b * pow b (e - 1) in
  let rec sum k acc =
    if k > cfg.max_faults || k > t then acc else sum (k + 1) (acc + (binom t k * pow g k))
  in
  sum 0 0

(* Callers that pass no monitors get the default family matching the
   config's degrade flag, so `--degrade` composes with the static oracles:
   the oracles engage whenever the caller supplied nothing custom, and the
   degrade-aware verdict sensitivity (partition state at decide events) is
   encoded in the POR dependence instead of disengaging the reduction. *)
let effective_monitors cfg = function
  | Some ms -> ms
  | None -> Monitor.defaults ~degrade:cfg.degrade ()

let run ?monitors ?interleave ?inputs ?config ?(stop = fun () -> false)
    (sys : Model.System.t) =
  let cfg = match config with Some c -> c | None -> default_config sys in
  let monitors = effective_monitors cfg monitors in
  let space = space_size sys cfg in
  let examined = ref 0 in
  let step_budget_hits = ref 0 in
  let monitor_truncations = ref 0 in
  let undelivered_crashes = ref 0 in
  let undelivered_net = ref 0 in
  let vacuous = ref 0 in
  let rec scan seq =
    match seq () with
    | Seq.Nil -> None, false, false
    | Seq.Cons (schedule, rest) ->
      if stop () then None, false, true
      else if !examined >= cfg.budget then None, true, false
      else begin
        incr examined;
        let r =
          Runner.run ~monitors ?interleave ?inputs ~max_steps:cfg.max_steps ~schedule sys
        in
        monitor_truncations := !monitor_truncations + List.length r.Runner.monitor_truncations;
        undelivered_crashes := !undelivered_crashes + r.Runner.undelivered_crashes;
        undelivered_net := !undelivered_net + r.Runner.undelivered_net;
        vacuous := !vacuous + r.Runner.vacuous_net_faults;
        match r.Runner.stop with
        | Runner.Violation { monitor; reason; proven } ->
          Some
            { schedule; monitor; reason; proven; exec = r.Runner.exec;
              steps = r.Runner.steps;
              degraded_to = degraded_to_of cfg sys r.Runner.exec },
          false, false
        | Runner.Lasso _ | Runner.Pruned -> scan rest
        | Runner.Budget ->
          incr step_budget_hits;
          scan rest
      end
  in
  let violation, truncated, wall_truncated = scan (schedules sys cfg) in
  {
    examined = !examined;
    space;
    truncated;
    wall_truncated;
    step_budget_hits = !step_budget_hits;
    monitor_truncations = !monitor_truncations;
    undelivered_crashes = !undelivered_crashes;
    undelivered_net = !undelivered_net;
    vacuous_net_faults = !vacuous;
    dedup_hits = 0;
    static_prunes = 0;
    por_prunes = 0;
    violation;
  }

(* --- parallel exploration --- *)

type run_record = {
  rank : int;
  budget_hit : bool;
  truncations : int;
  undelivered : int;
  undelivered_n : int;
  vacuous : int;
  deduped : bool;
  statically_pruned : bool;
  por_pruned : bool;
  parent : int option;
  found : violation option;
}

type partial = run_record list

let compare_found v1 v2 =
  let c = Schedule.compare v1.schedule v2.schedule in
  if c <> 0 then c
  else
    let c = String.compare v1.monitor v2.monitor in
    if c <> 0 then c
    else
      let c = String.compare v1.reason v2.reason in
      if c <> 0 then c else Bool.compare v1.proven v2.proven

let merge ?(wall = false) ~space ~scheduled partials =
  let records = List.concat partials in
  (* The winner is the enumeration-least violation: minimal rank, then the
     lexicographically least schedule. A pure function of the record
     multiset, so merging is order- and partition-insensitive. *)
  let winner =
    List.fold_left
      (fun best r ->
        match r.found with
        | None -> best
        | Some v -> (
          match best with
          | None -> Some (r.rank, v)
          | Some (br, bv) ->
            if r.rank < br || (r.rank = br && compare_found v bv < 0) then Some (r.rank, v)
            else best))
      None records
  in
  (* Sequential semantics stop scanning at the first violation: counters
     beyond the winning rank are not part of the report. *)
  let keep r = match winner with None -> true | Some (br, _) -> r.rank <= br in
  let kept = List.filter keep records in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 kept in
  let wall_truncated = wall && winner = None in
  {
    examined =
      (match winner with
      | Some (br, _) -> br + 1
      | None -> if wall_truncated then List.length records else scheduled);
    space;
    truncated = (not wall_truncated) && winner = None && scheduled < space;
    wall_truncated;
    step_budget_hits = sum (fun r -> if r.budget_hit then 1 else 0);
    monitor_truncations = sum (fun r -> r.truncations);
    undelivered_crashes = sum (fun r -> r.undelivered);
    undelivered_net = sum (fun r -> r.undelivered_n);
    vacuous_net_faults = sum (fun r -> r.vacuous);
    dedup_hits = sum (fun r -> if r.deduped then 1 else 0);
    static_prunes = sum (fun r -> if r.statically_pruned then 1 else 0);
    por_prunes = sum (fun r -> if r.por_pruned then 1 else 0);
    violation = Option.map snd winner;
  }

let rec note_best best rank =
  let cur = Atomic.get best in
  if rank < cur && not (Atomic.compare_and_set best cur rank) then note_best best rank

(* --- partial-order reduction over fault placements ---

   Two schedules are equivalent when one is obtained from the other by
   sliding a fault delivery one grid notch earlier past task slots that are
   statically independent of it: crashes slide past tasks blind to the pid's
   crash bit ({!Analysis.Interfere.crash_interferes}), omission deliveries
   (drop/dup/delay) past tasks not touching their target response buffer,
   and topology changes (a partition's begin and synthesized heal — both
   slide together) past tasks whose [blocked] gate never consults the
   partition state ({!Analysis.Interfere.net_interferes}, DESIGN.md §3.12).
   The slid-past tasks neither observe nor disturb the delivery's footprint,
   so both runs execute the same task slots with the same outcomes, reach
   the same configuration once the window closes, and the compiled schedules
   agree from there on — the verdicts coincide. The enumeration orders
   schedules lexicographically by fault step, so the earliest-delivery form
   of every equivalence class has the least rank: a schedule from which some
   fault can still slide is non-canonical and is skipped, its verdict
   inherited from the lower-ranked form. Violating schedules are never the
   skipped side (their canonical form violates too, at lower rank), so the
   rank-least merged violation — and with it [examined] and [truncated] —
   matches the unreduced oracle exactly; the remaining counters are copied
   from the parent record after the workers join.

   Two refinements keep the sliding sound beyond the crash-only case:

   - When the schedule contains any partition, window tasks additionally
     must not read the topology component at all: a window task executes
     one wall step later in the canonical form, and [Schedule.separated]
     is keyed on nominal wall steps, so a task straddling some OTHER
     partition's begin/heal boundary could change its blocked status.
     Topology-blind tasks cannot.

   - Under [degrade], the degraded-agreement monitor grades decide events
     by the partitions active at their wall step, so in partition-bearing
     schedules window tasks must also not write a decision. All other
     default monitors are placement-insensitive across a sound slide. *)

type por_ctx = {
  crash_dep : bool array array;  (* pid -> task index -> interferes *)
  omis_dep : ((int * int) * bool array) list;  (* (svc pos, endpoint pid) *)
  topo_dep : bool array;
  decide_dep : bool array;
  svc_pos : (string * int) list;
}

let por_deps cfg (sys : Model.System.t) =
  (* All dependence rows, precomputed eagerly (workers share this read-only;
     the footprints are sharpened by the exploration's own fault bound). *)
  let inter = Analysis.Interfere.analyze ~max_crashes:cfg.max_faults sys in
  let tasks = sys.Model.System.tasks in
  let crash_dep =
    Array.init (Model.System.n_processes sys) (fun pid ->
        Array.map (fun tk -> Analysis.Interfere.crash_interferes inter ~pid tk) tasks)
  in
  let svc_pos =
    Array.to_list sys.Model.System.services
    |> List.map (fun (c : Model.Service.t) ->
           c.Model.Service.id, Model.System.service_pos sys c.Model.Service.id)
  in
  let omis_dep =
    Array.to_list sys.Model.System.services
    |> List.concat_map (fun (c : Model.Service.t) ->
           let svc = Model.System.service_pos sys c.Model.Service.id in
           Array.to_list c.Model.Service.endpoints
           |> List.map (fun endpoint ->
                  ( (svc, endpoint),
                    Array.map
                      (fun tk ->
                        Analysis.Interfere.net_interferes inter
                          (Analysis.Footprint.Omission { svc; endpoint })
                          tk)
                      tasks )))
  in
  let topo_dep =
    Array.map
      (fun tk -> Analysis.Interfere.net_interferes inter Analysis.Footprint.Topology tk)
      tasks
  in
  let decide_dep =
    Array.map
      (fun tk ->
        let fp = Analysis.Interfere.footprint inter tk in
        Analysis.Footprint.Cset.exists
          (function Analysis.Footprint.Decision _ -> true | _ -> false)
          fp.Analysis.Footprint.writes)
      tasks
  in
  { crash_dep; omis_dep; topo_dep; decide_dep; svc_pos }

let slide_fault stride = function
  | Schedule.Crash { step; pid } -> Schedule.crash ~step:(step - stride) ~pid
  | Schedule.Drop { step; service; endpoint } ->
    Schedule.drop ~step:(step - stride) ~service ~endpoint
  | Schedule.Duplicate { step; service; endpoint } ->
    Schedule.duplicate ~step:(step - stride) ~service ~endpoint
  | Schedule.Delay { step; service; endpoint; lag } ->
    Schedule.delay ~step:(step - stride) ~service ~endpoint ~lag
  | Schedule.Partition { step; blocks; heal_at } ->
    (* Both deliveries slide, keeping the template's heal offset — the slid
       form is the same fault site instantiated one grid notch earlier. *)
    Schedule.partition ~step:(step - stride) ~blocks ~heal_at:(heal_at - stride)
  | Schedule.Silence _ -> invalid_arg "slide_fault: silence"

let por_slide ~ctx ~stride ~degrade ~max_steps ~n_tasks (s : Schedule.t) =
  (* Only the enumeration's own shape is eligible (silencing default, no
     overrides) — same convention as the static-prune oracle. Silences are
     excluded: a policy flip is keyed to fixed wall steps the slide would
     cross, and no footprint covers it. *)
  if
    s.Schedule.overrides <> []
    || s.Schedule.default_pref <> Model.System.Prefer_dummy
    || List.exists (function Schedule.Silence _ -> true | _ -> false) s.Schedule.faults
  then None
  else begin
    let faults = Array.of_list s.Schedule.faults in
    let has_partition =
      Array.exists (function Schedule.Partition _ -> true | _ -> false) faults
    in
    (* The delivery sequence, mirroring [Schedule.deliveries] exactly: one
       entry per crash/omission, a begin/heal pair per partition, stably
       sorted by nominal step. Actual delivery steps then bunch up one per
       step: d_k = max(nominal_k, d_{k-1}+1). *)
    let ds =
      Array.to_list faults
      |> List.mapi (fun fi f -> fi, f)
      |> List.concat_map (fun (fi, f) ->
             match f with
             | Schedule.Crash { step; _ }
             | Schedule.Drop { step; _ }
             | Schedule.Duplicate { step; _ }
             | Schedule.Delay { step; _ } -> [ step, fi ]
             | Schedule.Partition { step; heal_at; _ } -> [ step, fi; heal_at, fi ]
             | Schedule.Silence _ -> [])
      |> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b)
      |> Array.of_list
    in
    let nd = Array.length ds in
    if nd = 0 then None
    else begin
      let actual = Array.make nd 0 in
      let prev = ref (-1) in
      Array.iteri
        (fun k (at, _) ->
          let d = max at (!prev + 1) in
          actual.(k) <- d;
          prev := d)
        ds;
      (* Every delivery — and with it every slide window — must land strictly
         inside the step budget, or the budget cut could fall between the two
         runs' windows and their counters diverge. (Implied by the engagement
         precondition for crash-only schedules; partitions heal half a
         horizon late, so it bites.) *)
      if actual.(nd - 1) >= max_steps then None
      else begin
        let dep_row fi =
          match faults.(fi) with
          | Schedule.Crash { pid; _ } -> ctx.crash_dep.(pid)
          | Schedule.Drop { service; endpoint; _ }
          | Schedule.Duplicate { service; endpoint; _ }
          | Schedule.Delay { service; endpoint; _ } ->
            List.assoc (List.assoc service ctx.svc_pos, endpoint) ctx.omis_dep
          | Schedule.Partition _ -> ctx.topo_dep
          | Schedule.Silence _ -> assert false
        in
        (* Delivery k can slide from nominal step [at] to [at - stride] iff
           the window stays clear of other deliveries (prev delivered
           strictly before at - stride, next scheduled strictly after at)
           and every task slot in [at - stride, at) — cursor u - k, k
           deliveries having happened — is independent of the fault (plus
           the partition refinements above). *)
        let window_clear k row =
          let at, _ = ds.(k) in
          at - stride >= 0
          && (k = 0 || actual.(k - 1) < at - stride)
          && (k + 1 >= nd || fst ds.(k + 1) > at)
          &&
          let ok = ref true in
          for u = at - stride to at - 1 do
            let i = (u - k) mod n_tasks in
            if
              row.(i)
              || (has_partition
                 && (ctx.topo_dep.(i) || (degrade && ctx.decide_dep.(i))))
            then ok := false
          done;
          !ok
        in
        let movable fi =
          let row = dep_row fi in
          let all = ref true and any = ref false in
          Array.iteri
            (fun k (_, fi') ->
              if fi' = fi then begin
                any := true;
                if not (window_clear k row) then all := false
              end)
            ds;
          !any && !all
        in
        let rec first fi =
          if fi >= Array.length faults then None
          else if movable fi then Some fi
          else first (fi + 1)
        in
        match first 0 with
        | None -> None
        | Some fi ->
          Some
            (Schedule.make
               (List.mapi
                  (fun i f -> if i = fi then slide_fault stride f else f)
                  (Array.to_list faults)))
      end
    end
  end

let run_par ?monitors ?interleave ?inputs ?config ?(domains = 1) ?(dedup = true)
    ?(static_prune = false) ?(por = false)
    ?(stop = fun () -> false) (sys : Model.System.t) =
  let cfg = match config with Some c -> c | None -> default_config sys in
  let space = space_size sys cfg in
  let candidates = Array.of_seq (Seq.take (max 0 cfg.budget) (schedules sys cfg)) in
  let scheduled = Array.length candidates in
  let n_tasks = Array.length sys.Model.System.tasks in
  (* The static oracles key on the caller NOT overriding the monitor family
     (their soundness arguments cover the defaults, degrade-aware or not);
     the runs themselves always get the effective family. *)
  let eff_monitors = effective_monitors cfg monitors in
  let quiescence =
    (* The abstract-interpretation infeasibility oracle: a certified step Q
       from which every silencing schedule whose faults all land at or past
       Q provably ends in a clean lasso with all faults delivered. Engaged
       only under the exact convention the certificate covers — default
       monitors, round-robin interleaving — and only when the step budget
       provably accommodates the longest pruned crash-only run (activation +
       crash deliveries + one full silent cycle), so a concrete twin could
       never have hit [Budget]; net-bearing schedules re-check their own
       delivery tail against the budget below. *)
    if
      static_prune && monitors = None
      && (match interleave with Some (Runner.Seeded _) -> false | _ -> true)
      && cfg.horizon + cfg.max_faults + n_tasks + 2 <= cfg.max_steps
    then
      Analysis.Prune.clean_from ~max_faults:cfg.max_faults
        ~inputs:(match inputs with Some l -> l | None -> Runner.default_inputs sys)
        ~horizon:cfg.horizon sys
    else None
  in
  let por_dep =
    (* Engaged under the same convention as the quiescence oracle: default
       monitors (the swap argument needs monitors whose placement
       sensitivity the dependence rows encode), deterministic round-robin
       interleaving, and a step budget that provably accommodates the
       longest pruned crash-only run ([por_slide] re-checks net-bearing
       delivery tails per schedule). *)
    if
      por && monitors = None
      && (match interleave with Some (Runner.Seeded _) -> false | _ -> true)
      && cfg.horizon + cfg.max_faults + n_tasks + 2 <= cfg.max_steps
    then Some (por_deps cfg sys)
    else None
  in
  let rank_of =
    (* Enumeration rank by printed schedule, for resolving a slid parent to
       the record whose counters the pruned twin inherits. Sliding any fault
       one grid notch earlier strictly lowers the enumeration rank, so every
       parent of a scheduled candidate is itself scheduled. *)
    match por_dep with
    | None -> None
    | Some _ ->
      let h = Hashtbl.create (max 16 (2 * scheduled)) in
      Array.iteri (fun i s -> Hashtbl.replace h (Schedule.to_string s) i) candidates;
      Some h
  in
  let por_parent schedule =
    match por_dep, rank_of with
    | Some ctx, Some ranks -> (
      match
        por_slide ~ctx ~stride:cfg.stride ~degrade:cfg.degrade ~max_steps:cfg.max_steps
          ~n_tasks schedule
      with
      | None -> None
      | Some parent -> Hashtbl.find_opt ranks (Schedule.to_string parent))
    | _ -> None
  in
  let prunable (s : Schedule.t) =
    match quiescence with
    | None -> false
    | Some cert ->
      let q = cert.Analysis.Prune.quiescent_from in
      (* Silencing schedules with every fault at or past Q; the empty
         schedule is never pruned (it has rank 0, and concrete prefix
         violations must keep dominating the rank-least merge). Net faults
         additionally need the empty-buffer certificate (post-Q omissions
         provably vacuous, partitions never blocking) and a step budget
         that provably absorbs their delivery tail plus one silent cycle —
         a partition heals half a horizon past its begin, beyond what the
         engagement precondition covers for crashes. *)
      s.Schedule.overrides = []
      && s.Schedule.default_pref = Model.System.Prefer_dummy
      && s.Schedule.faults <> []
      && List.for_all
           (function
             | Schedule.Crash { step; _ } -> step >= q
             | Schedule.Drop { step; _ } | Schedule.Duplicate { step; _ }
             | Schedule.Delay { step; _ } | Schedule.Partition { step; _ } ->
               cert.Analysis.Prune.buffers_empty && step >= q
             (* A silence flips the adversary's policy, outside what the
                certificate's frozen-state closure covers. *)
             | Schedule.Silence _ -> false)
           s.Schedule.faults
      && (Schedule.is_crash_only s
         ||
         let last, count =
           List.fold_left
             (fun (last, count) f ->
               match f with
               | Schedule.Partition { heal_at; _ } -> max last heal_at, count + 2
               | Schedule.Crash { step; _ }
               | Schedule.Drop { step; _ }
               | Schedule.Duplicate { step; _ }
               | Schedule.Delay { step; _ }
               | Schedule.Silence { step; _ } -> max last step, count + 1)
             (0, 0) s.Schedule.faults
         in
         last + count + n_tasks + 2 <= cfg.max_steps)
  in
  let dedup =
    (* Sound only under the deterministic round-robin interleaving. *)
    dedup && match interleave with Some (Runner.Seeded _) -> false | _ -> true
  in
  let prefix =
    (* The shared fault-free stem: every crash-only candidate under the
       silencing adversary replays this prefix up to its first crash
       (net-bearing candidates run whole; {!Runner.resumable} gates). Built
       once, read-only across domains. *)
    match interleave with
    | Some (Runner.Seeded _) -> None
    | _ when scheduled = 0 -> None
    | _ ->
      Some
        (Runner.prefix ~monitors:eff_monitors ?inputs ~max_steps:cfg.max_steps
           ~steps:(min (max 0 (cfg.horizon - 1)) cfg.max_steps)
           sys)
  in
  let visited = Fingerprint.Visited.create () in
  let best = Atomic.make max_int in
  let clean rank =
    {
      rank;
      budget_hit = false;
      truncations = 0;
      undelivered = 0;
      undelivered_n = 0;
      vacuous = 0;
      deduped = false;
      statically_pruned = false;
      por_pruned = false;
      parent = None;
      found = None;
    }
  in
  let run_one rank =
    (* Ranks at or past the best violating rank cannot affect the merged
       report; skipping them is the early-exit that makes the search stop. *)
    if rank >= Atomic.get best then None
    else
      let schedule = candidates.(rank) in
      if prunable schedule then begin
        (* Proven clean lasso: all faults delivered, no violation — exactly
           what the concrete run would have recorded. Post-Q omissions land
           on certified-empty buffers, hence the analytic vacuous count; a
           net-bearing pruned run's monitor truncations equal the fault-free
           (rank 0) run's — same histories, no net events — and are copied
           from that record once the workers join. *)
        let crash_only = Schedule.is_crash_only schedule in
        let omissions =
          List.length
            (List.filter
               (function
                 | Schedule.Drop _ | Schedule.Duplicate _ | Schedule.Delay _ -> true
                 | _ -> false)
               schedule.Schedule.faults)
        in
        Some
          {
            (clean rank) with
            vacuous = (if crash_only then 0 else omissions);
            statically_pruned = true;
            parent = (if crash_only then None else Some 0);
          }
      end
      else
        match por_parent schedule with
        | Some parent ->
          (* Non-canonical: a fault slides earlier past provably independent
             task slots, so a lower-ranked equivalent schedule reproduces
             this run's verdict and per-run counters. Kept records at ranks
             ≤ the winner are clean (a violating schedule's canonical form
             wins first); the counters are copied from the parent chain once
             the workers join. *)
          Some { (clean rank) with por_pruned = true; parent = Some parent }
        | None ->
          let keyed = ref None in
          let on_active =
            if dedup then
              Some
                (fun ~step ~cursor exec ->
                  let key = Fingerprint.key ~cursor exec in
                  match Fingerprint.Visited.find visited key with
                  | Some suffix when step + suffix <= cfg.max_steps -> `Prune
                  | _ ->
                    keyed := Some (key, step);
                    `Continue)
            else None
          in
          let r =
            Runner.run ~monitors:eff_monitors ?interleave ?inputs ~max_steps:cfg.max_steps
              ?on_active ?prefix ~schedule sys
          in
          let base =
            {
              (clean rank) with
              truncations = List.length r.Runner.monitor_truncations;
              undelivered = r.Runner.undelivered_crashes;
              undelivered_n = r.Runner.undelivered_net;
              vacuous = r.Runner.vacuous_net_faults;
            }
          in
          Some
            (match r.Runner.stop with
            | Runner.Violation { monitor; reason; proven } ->
              note_best best rank;
              {
                base with
                found =
                  Some
                    { schedule; monitor; reason; proven; exec = r.Runner.exec;
                      steps = r.Runner.steps;
                      degraded_to = degraded_to_of cfg sys r.Runner.exec };
              }
            | Runner.Lasso _ ->
              (* Only proven-quiescent clean runs seed the visited table: a
                 pruned twin would provably replay this suffix to the same
                 verdict (its step budget permitting — hence the suffix guard
                 above). Budget-bounded clean runs are never recorded, so a
                 cutoff at a different point can never be inherited. *)
              (match !keyed with
              | Some (key, act) ->
                Fingerprint.Visited.add visited key ~suffix_steps:(r.Runner.steps - act)
              | None -> ());
              base
            | Runner.Budget -> { base with budget_hit = true }
            | Runner.Pruned -> { base with deduped = true })
  in
  (* Wall-clock budget expired: the pool hands out no further rank and the
     records so far merge into a wall-truncated report. *)
  let wall_stopped = Atomic.make false in
  let stop () = stop () && (Atomic.set wall_stopped true; true) in
  let records =
    Array.map Option.join (Analysis.Pool.map ~stop ~jobs:domains scheduled run_one)
  in
  (* Resolve inherited counters now that every parent's record exists: a
     net-bearing statically pruned record adopts the fault-free rank-0 run's
     monitor truncations, and a POR-pruned record adopts the counters of its
     slid parent (following chains of slides to the concrete — or statically
     pruned, or deduped — source). A missing parent can only mean the run was
     wall-truncated or the parent's rank sat past the best violation — in
     either case the child record is not part of the merged report's kept
     set, so the zero claims stand harmlessly. *)
  Array.iteri
    (fun i -> function
      | Some ({ statically_pruned = true; parent = Some p; _ } as r) -> (
        match records.(p) with
        | Some pr when (not pr.statically_pruned) && not pr.por_pruned ->
          records.(i) <- Some { r with truncations = pr.truncations }
        | _ -> ())
      | _ -> ())
    records;
  let memo = Hashtbl.create 16 in
  let rec source r =
    if not r.por_pruned then r
    else
      match r.parent with
      | None -> r
      | Some p -> (
        match Hashtbl.find_opt memo p with
        | Some s -> s
        | None ->
          let s = match records.(p) with Some pr -> source pr | None -> r in
          Hashtbl.replace memo p s;
          s)
  in
  let resolve r =
    let s = source r in
    if s == r then r
    else
      {
        r with
        budget_hit = s.budget_hit;
        truncations = s.truncations;
        undelivered = s.undelivered;
        undelivered_n = s.undelivered_n;
        vacuous = s.vacuous;
      }
  in
  merge ~wall:(Atomic.get wall_stopped) ~space ~scheduled
    [ List.filter_map (Option.map resolve) (Array.to_list records) ]
