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

let violation_of ~degrade sys schedule (r : Runner.result) =
  match r.Runner.stop with
  | Runner.Violation { monitor; reason; proven } ->
    Some
      {
        schedule;
        monitor;
        reason;
        proven;
        exec = r.Runner.exec;
        steps = r.Runner.steps;
        degraded_to = (if degrade then Some (Degrade.describe sys r.Runner.exec) else None);
      }
  | Runner.Lasso _ | Runner.Budget | Runner.Pruned -> None

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
  violation : violation option;
}

let empty_report ~space =
  {
    examined = 0;
    space;
    truncated = false;
    wall_truncated = false;
    step_budget_hits = 0;
    monitor_truncations = 0;
    undelivered_crashes = 0;
    undelivered_net = 0;
    vacuous_net_faults = 0;
    dedup_hits = 0;
    violation = None;
  }

let of_run ~degrade ?(inherited = 0) sys schedule (r : Runner.result) =
  {
    examined = 1;
    space = 0;
    truncated = false;
    wall_truncated = false;
    step_budget_hits = (match r.Runner.stop with Runner.Budget -> 1 | _ -> 0);
    monitor_truncations = List.length r.Runner.monitor_truncations + inherited;
    undelivered_crashes = r.Runner.undelivered_crashes;
    undelivered_net = r.Runner.undelivered_net;
    vacuous_net_faults = r.Runner.vacuous_net_faults;
    dedup_hits = (match r.Runner.stop with Runner.Pruned -> 1 | _ -> 0);
    violation = violation_of ~degrade sys schedule r;
  }

let add a b =
  {
    a with
    examined = a.examined + b.examined;
    step_budget_hits = a.step_budget_hits + b.step_budget_hits;
    monitor_truncations = a.monitor_truncations + b.monitor_truncations;
    undelivered_crashes = a.undelivered_crashes + b.undelivered_crashes;
    undelivered_net = a.undelivered_net + b.undelivered_net;
    vacuous_net_faults = a.vacuous_net_faults + b.vacuous_net_faults;
    dedup_hits = a.dedup_hits + b.dedup_hits;
    violation = (match a.violation with None -> b.violation | found -> found);
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
  (* Saturating: a space past [max_int] reports [max_int]. *)
  let add a b = if a > max_int - b then max_int else a + b in
  let mul a b = if a <> 0 && b > max_int / a then max_int else a * b in
  let g = List.length (grid cfg) in
  let t = List.length (templates sys cfg) in
  let k_max = min cfg.max_faults t in
  (* [binom.(k)] = C(t, k) for k ≤ k_max, by Pascal's rule over t rows. *)
  let binom = Array.make (max 1 (k_max + 1)) 0 in
  binom.(0) <- 1;
  for row = 1 to t do
    for k = min row k_max downto 1 do
      binom.(k) <- add binom.(k) binom.(k - 1)
    done
  done;
  let total = ref 0 and gk = ref 1 in
  for k = 0 to k_max do
    total := add !total (mul binom.(k) !gk);
    gk := mul !gk g
  done;
  !total

(* Callers that pass no monitors get the default family matching the
   config's degrade flag. *)
let effective_monitors cfg = function
  | Some ms -> ms
  | None -> Monitor.defaults ~degrade:cfg.degrade ()

let run ?monitors ?config ?(stop = fun () -> false) (sys : Model.System.t) =
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
        let r = Runner.run ~monitors ~max_steps:cfg.max_steps ~schedule sys in
        monitor_truncations := !monitor_truncations + List.length r.Runner.monitor_truncations;
        undelivered_crashes := !undelivered_crashes + r.Runner.undelivered_crashes;
        undelivered_net := !undelivered_net + r.Runner.undelivered_net;
        vacuous := !vacuous + r.Runner.vacuous_net_faults;
        match violation_of ~degrade:cfg.degrade sys schedule r with
        | Some _ as found -> found, false, false
        | None ->
          (match r.Runner.stop with Runner.Budget -> incr step_budget_hits | _ -> ());
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
    violation;
  }

(* --- parallel exploration --- *)

type run_record = { rank : int; run : report }

let merge ?(wall = false) ?into ~space ~scheduled records =
  (* The winner is the rank-least violation; ranks are claimed once, so it
     is unique. A pure function of the record multiset, so merging is
     order-insensitive. *)
  let winner =
    List.fold_left
      (fun best r ->
        match r.run.violation, best with
        | None, _ -> best
        | Some _, Some w when w.rank < r.rank -> best
        | Some _, _ -> Some r)
      None records
  in
  (* Sequential semantics stop scanning at the first violation: counters
     beyond the winning rank are not part of the report. *)
  let prior = match into with Some r -> r | None -> empty_report ~space in
  let summed =
    List.fold_left
      (fun acc r ->
        match winner with
        | Some w when r.rank > w.rank -> acc
        | _ -> add acc r.run)
      prior records
  in
  let wall_truncated = wall && winner = None in
  {
    summed with
    examined =
      (match winner with
      | Some w -> w.rank + 1
      | None ->
        if wall_truncated then prior.examined + List.length records else scheduled);
    space;
    truncated = (not wall_truncated) && winner = None && scheduled < space;
    wall_truncated;
    violation = Option.bind winner (fun w -> w.run.violation);
  }

(* Ranks dealt to the pool per block. On one domain a block only batches
   the pool call, and a small one keeps the block's records a negligible
   part of the heap; each block on more domains pays a spawn and a join per
   extra domain, which a larger block amortizes. *)
let block_size ~domains = if domains <= 1 then 64 else 1_024

let rec note_best best rank =
  let cur = Atomic.get best in
  if rank < cur && not (Atomic.compare_and_set best cur rank) then note_best best rank

let run_par ?monitors ?config ?(domains = 1) ?(dedup = true) ?(stop = fun () -> false)
    (sys : Model.System.t) =
  let cfg = match config with Some c -> c | None -> default_config sys in
  let space = space_size sys cfg in
  let scheduled = min (max 0 cfg.budget) space in
  let monitors = effective_monitors cfg monitors in
  let prefix =
    (* The shared fault-free stem: every candidate (all use the silencing
       adversary) replays this prefix up to its first fault, so each run
       resumes there. Built once, read-only across domains. *)
    if scheduled = 0 then None
    else
      Some
        (Runner.prefix ~monitors ~max_steps:cfg.max_steps
           ~steps:(min (max 0 (cfg.horizon - 1)) cfg.max_steps)
           sys)
  in
  let visited = Fingerprint.Visited.create () in
  let best = Atomic.make max_int in
  let run_one rank schedule =
    (* Ranks at or past the best violating rank cannot affect the merged
       report; skipping them is the early-exit that makes the search stop. *)
    if rank >= Atomic.get best then None
    else begin
      (* [keyed]: this run's activation key, step and truncation count, to
         record its suffix on a lasso; [inherited]: the recorded suffix's
         truncations a pruned twin adds to its own — the whole continuation
         from an equal key is inherited, counters included. *)
      let keyed = ref None and inherited = ref 0 in
      let on_active =
        if dedup then
          Some
            (fun ~step ~cursor ~truncations exec ->
              let key = Fingerprint.key ~cursor exec in
              match Fingerprint.Visited.find visited key with
              | Some (suffix, suffix_truncs) when step + suffix <= cfg.max_steps ->
                inherited := suffix_truncs;
                `Prune
              | _ ->
                keyed := Some (key, step, truncations);
                `Continue)
        else None
      in
      let r = Runner.run ~monitors ~max_steps:cfg.max_steps ?on_active ?prefix ~schedule sys in
      let run = of_run ~degrade:cfg.degrade ~inherited:!inherited sys schedule r in
      (match r.Runner.stop with
      | Runner.Violation _ -> note_best best rank
      | Runner.Lasso _ -> (
        (* Only proven-quiescent clean runs seed the visited cache: a
           pruned twin would provably replay this suffix to the same
           verdict and counters (its step budget permitting — hence the
           suffix guard above). Budget-bounded clean runs are never
           recorded, so a cutoff at a different point can never be
           inherited. *)
        match !keyed with
        | Some (key, act, at_act) ->
          Fingerprint.Visited.add visited key ~suffix_steps:(r.Runner.steps - act)
            ~suffix_truncations:(List.length r.Runner.monitor_truncations - at_act)
        | None -> ())
      | Runner.Budget | Runner.Pruned -> ());
      Some { rank; run }
    end
  in
  (* Wall-clock budget expired: the pool hands out no further rank and the
     records so far merge into a wall-truncated report. *)
  let wall_stopped = Atomic.make false in
  let stop () = stop () && (Atomic.set wall_stopped true; true) in
  (* The candidate stream, shared by the pool's domains without a lock: a
     domain forces the next node and claims it by swinging the cursor past
     it, retrying if another domain claimed it first. Forcing a node twice is
     harmless, since {!schedules} is pure. *)
  let cursor = Atomic.make (0, schedules sys cfg) in
  let rec next () =
    let ((rank, candidates) as seen) = Atomic.get cursor in
    match candidates () with
    | Seq.Nil -> None
    | Seq.Cons (schedule, rest) ->
      if Atomic.compare_and_set cursor seen (rank + 1, rest) then Some (rank, schedule)
      else next ()
  in
  (* The stream goes through the pool one block of ranks at a time, each
     block's records merged into the report over all earlier ranks; a
     violation ends the scan after its block, since every later rank is
     larger than the winner's. *)
  let rec sweep into base =
    let n = min (block_size ~domains) (scheduled - base) in
    let records =
      Analysis.Pool.map ~stop ~jobs:domains n (fun _ ->
          Option.bind (next ()) (fun (rank, schedule) -> run_one rank schedule))
    in
    let records = List.filter_map Option.join (Array.to_list records) in
    let report =
      merge ~wall:(Atomic.get wall_stopped) ?into ~space ~scheduled:(base + n) records
    in
    if n = 0 || Option.is_some report.violation || report.wall_truncated then report
    else sweep (Some report) (base + n)
  in
  sweep None 0
