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
  found : violation option;
}

let compare_found v1 v2 =
  let c = Schedule.compare v1.schedule v2.schedule in
  if c <> 0 then c
  else
    let c = String.compare v1.monitor v2.monitor in
    if c <> 0 then c
    else
      let c = String.compare v1.reason v2.reason in
      if c <> 0 then c else Bool.compare v1.proven v2.proven

let merge ?(wall = false) ?into ~space ~scheduled records =
  (* The winner is the enumeration-least violation: minimal rank, then the
     lexicographically least schedule. A pure function of the record
     multiset, so merging is order-insensitive. *)
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
  let prior f = match into with Some r -> f r | None -> 0 in
  let sum before f = prior before + List.fold_left (fun acc r -> acc + f r) 0 kept in
  let wall_truncated = wall && winner = None in
  {
    examined =
      (match winner with
      | Some (br, _) -> br + 1
      | None ->
        if wall_truncated then prior (fun r -> r.examined) + List.length records
        else scheduled);
    space;
    truncated = (not wall_truncated) && winner = None && scheduled < space;
    wall_truncated;
    step_budget_hits =
      sum (fun r -> r.step_budget_hits) (fun r -> if r.budget_hit then 1 else 0);
    monitor_truncations = sum (fun r -> r.monitor_truncations) (fun r -> r.truncations);
    undelivered_crashes = sum (fun r -> r.undelivered_crashes) (fun r -> r.undelivered);
    undelivered_net = sum (fun r -> r.undelivered_net) (fun r -> r.undelivered_n);
    vacuous_net_faults = sum (fun r -> r.vacuous_net_faults) (fun r -> r.vacuous);
    dedup_hits = sum (fun r -> r.dedup_hits) (fun r -> if r.deduped then 1 else 0);
    violation = Option.map snd winner;
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
      let truncations = List.length r.Runner.monitor_truncations in
      let base =
        {
          rank;
          budget_hit = false;
          truncations = truncations + !inherited;
          undelivered = r.Runner.undelivered_crashes;
          undelivered_n = r.Runner.undelivered_net;
          vacuous = r.Runner.vacuous_net_faults;
          deduped = false;
          found = None;
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
          (* Only proven-quiescent clean runs seed the visited cache: a
             pruned twin would provably replay this suffix to the same
             verdict and counters (its step budget permitting — hence the
             suffix guard above). Budget-bounded clean runs are never
             recorded, so a cutoff at a different point can never be
             inherited. *)
          (match !keyed with
          | Some (key, act, at_act) ->
            Fingerprint.Visited.add visited key ~suffix_steps:(r.Runner.steps - act)
              ~suffix_truncations:(truncations - at_act)
          | None -> ());
          base
        | Runner.Budget -> { base with budget_hit = true }
        | Runner.Pruned -> { base with deduped = true })
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
