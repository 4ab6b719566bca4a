type outcome =
  | Served
  | Degraded of string  (** Incomplete ops excused by standing damage; the live vector. *)
  | Shot_violation of {
      monitor : string;
      reason : string;
      shot : int;
      witness : string;  (** The injected shot schedule, pre-shrink. *)
      minimized : string;  (** The 1-minimal witness after {!Chaos.Shrink}. *)
      candidates : int;
      runs : int;
    }
  | Lin_violation of string
  | Stalled of string
  | Inconsistent of string

type t = {
  proto : string;
  n : int;
  f : int;
  obj_name : string;
  clients : int;
  ops : int;
  seed : int;
  mutable outcome : outcome;
  mutable ticks : int;
  (* traffic *)
  mutable offered : int;
  mutable completed : int;
  mutable retries : int;
  mutable resubmissions : int;
  mutable failovers : int;
  mutable lost_in_crash : int;
  mutable stale_responses : int;
  (* consensus shots *)
  mutable shots : int;
  mutable shots_decided : int;
  mutable shots_stalled : int;
  mutable committed : int;
  mutable duplicate_commits : int;
  mutable duplicate_applications : int;  (* must stay 0: the exactly-once check *)
  (* faults and recovery *)
  mutable crash_faults : int;
  mutable net_faults : int;
  mutable partitions : int;
  mutable heals : int;
  mutable rejoins : int;
  mutable catch_up_replayed : int;
  mutable recovery_times : int list;  (* newest first *)
  mutable degraded_ticks : int;
  mutable final_vector : string option;
  (* latency *)
  mutable latencies : int list;  (* newest first *)
  (* incremental linearizability *)
  mutable lin : Linear_inc.verdict;
  mutable lin_windows : int;
  mutable lin_certified : int;
  mutable lin_searched : int;
  mutable lin_events : int;
  mutable lin_max_window : int;
  mutable lin_max_frontier : int;
  mutable oracle_pinned : bool option;  (* Some b: the full-oracle pin ran *)
}

let create ~proto ~n ~f ~obj_name ~clients ~ops ~seed =
  {
    proto;
    n;
    f;
    obj_name;
    clients;
    ops;
    seed;
    outcome = Served;
    ticks = 0;
    offered = 0;
    completed = 0;
    retries = 0;
    resubmissions = 0;
    failovers = 0;
    lost_in_crash = 0;
    stale_responses = 0;
    shots = 0;
    shots_decided = 0;
    shots_stalled = 0;
    committed = 0;
    duplicate_commits = 0;
    duplicate_applications = 0;
    crash_faults = 0;
    net_faults = 0;
    partitions = 0;
    heals = 0;
    rejoins = 0;
    catch_up_replayed = 0;
    recovery_times = [];
    degraded_ticks = 0;
    final_vector = None;
    latencies = [];
    lin = Linear_inc.Ok;
    lin_windows = 0;
    lin_certified = 0;
    lin_searched = 0;
    lin_events = 0;
    lin_max_window = 0;
    lin_max_frontier = 0;
    oracle_pinned = None;
  }

let exit_code t =
  match t.outcome with
  | Served | Degraded _ -> 0
  | Shot_violation _ | Lin_violation _ | Stalled _ | Inconsistent _ -> 1

(* Nearest-rank percentile over a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else begin
    let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))
  end

let latency_summary t =
  let a = Array.of_list t.latencies in
  Array.sort Int.compare a;
  let max_l = if Array.length a = 0 then 0 else a.(Array.length a - 1) in
  percentile a 50., percentile a 95., percentile a 99., max_l

let mean_max xs =
  match xs with
  | [] -> 0., 0
  | _ ->
    let sum = List.fold_left ( + ) 0 xs in
    let mx = List.fold_left max min_int xs in
    float_of_int sum /. float_of_int (List.length xs), mx

let pp_outcome ppf = function
  | Served -> Format.fprintf ppf "SERVED"
  | Degraded vec -> Format.fprintf ppf "DEGRADED (standing damage excuses the remainder): %s" vec
  | Shot_violation { monitor; reason; shot; _ } ->
    Format.fprintf ppf "VIOLATION of %s at shot %d: %s" monitor shot reason
  | Lin_violation reason -> Format.fprintf ppf "VIOLATION of linearizability: %s" reason
  | Stalled reason -> Format.fprintf ppf "STALLED: %s" reason
  | Inconsistent reason -> Format.fprintf ppf "REPLICA DIVERGENCE: %s" reason

(* Deterministic rendering: no wall-clock anywhere, so a seeded run replays
   byte-for-byte (same contract as [boost chaos] seeded mode). *)
let render t =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  let p50, p95, p99, lmax = latency_summary t in
  let rec_mean, rec_max = mean_max t.recovery_times in
  Format.fprintf ppf "serve: %s n=%d f=%d obj=%s clients=%d ops=%d seed=%d@." t.proto t.n t.f
    t.obj_name t.clients t.ops t.seed;
  Format.fprintf ppf "outcome: %a@." pp_outcome t.outcome;
  (match t.outcome with
  | Shot_violation { witness; minimized; candidates; runs; _ } ->
    Format.fprintf ppf "  shot schedule: %s@." witness;
    Format.fprintf ppf "  minimized witness: %s (%d candidates, %d runs)@." minimized candidates
      runs
  | _ -> ());
  Format.fprintf ppf
    "traffic: offered %d, completed %d, retried %d (resubmitted %d, failovers %d), \
     lost-in-crash %d, stale %d@."
    t.offered t.completed t.retries t.resubmissions t.failovers t.lost_in_crash
    t.stale_responses;
  Format.fprintf ppf
    "shots: %d (decided %d, stalled %d), committed %d commands, dup-commits %d, applied twice \
     %d@."
    t.shots t.shots_decided t.shots_stalled t.committed t.duplicate_commits
    t.duplicate_applications;
  Format.fprintf ppf "faults: crash %d, net %d, partition %d, heal %d; degraded ticks %d@."
    t.crash_faults t.net_faults t.partitions t.heals t.degraded_ticks;
  Format.fprintf ppf
    "recovery: rejoins %d, catch-up replayed %d entries, rejoin latency mean %.1f max %d@."
    t.rejoins t.catch_up_replayed rec_mean rec_max;
  (match t.final_vector with
  | Some vec -> Format.fprintf ppf "degraded to: %s@." vec
  | None -> ());
  Format.fprintf ppf "latency (ticks): p50 %d p95 %d p99 %d max %d@." p50 p95 p99 lmax;
  (match t.lin with
  | Linear_inc.Ok ->
    Format.fprintf ppf
      "lin-monitor: ok — %d windows (certified %d, searched %d), %d events, max window %d@."
      t.lin_windows t.lin_certified t.lin_searched t.lin_events t.lin_max_window
  | Linear_inc.Violation r -> Format.fprintf ppf "lin-monitor: VIOLATION — %s@." r
  | Linear_inc.Truncated r -> Format.fprintf ppf "lin-monitor: truncated — %s@." r);
  (match t.oracle_pinned with
  | Some true -> Format.fprintf ppf "oracle pin: ok (full Model.Linearize agrees)@."
  | Some false -> Format.fprintf ppf "oracle pin: DISAGREES with Model.Linearize@."
  | None -> ());
  if t.ticks > 0 then
    Format.fprintf ppf "throughput: %.2f ops/tick over %d ticks@."
      (float_of_int t.completed /. float_of_int t.ticks)
      t.ticks;
  Format.pp_print_flush ppf ();
  Buffer.contents buf
