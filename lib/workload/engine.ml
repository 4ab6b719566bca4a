open Ioa
module L = Model.Linearize

(* ------------------------------------------------------------------ *)
(* Configuration                                                      *)
(* ------------------------------------------------------------------ *)

type config = {
  proto : string;
  params : Protocols.Registry.params;
  obj_name : string;  (** "counter" | "register" *)
  clients : int;
  ops : int;
  rate : int;  (** Admissions per tick (open-loop arrival rate). *)
  batch : int;  (** Commands per consensus shot. *)
  pipeline : int;  (** Consensus shots per tick. *)
  timeout : int;  (** Session timeout, ticks. *)
  rejoin_after : int;  (** Ticks a crashed replica stays down before recovering. *)
  catch_up_rate : int;  (** Commit-log entries replayed per tick while recovering. *)
  seed : int;
  schedule : Chaos.Schedule.t option;
      (** Explicit fault timeline (steps are engine ticks); [None] draws one
          from the seed. *)
  kinds : Chaos.Schedule.kind list;
  max_faults : int;
  max_ticks : int option;
  shot_max_steps : int;
  lin_max_nodes : int;
  lin_soft : int;
  lin_hard : int;
  pin_oracle : bool;
  shrink : bool;
}

let default_config ?(proto = "direct") () =
  {
    proto;
    params = { Protocols.Registry.default_params with n = 3; f = 1 };
    obj_name = "counter";
    clients = 12;
    ops = 200;
    rate = 8;
    batch = 16;
    pipeline = 2;
    timeout = 8;
    rejoin_after = 25;
    catch_up_rate = 32;
    seed = 0;
    schedule = None;
    kinds = [];
    max_faults = 0;
    max_ticks = None;
    shot_max_steps = 4000;
    lin_max_nodes = 200_000;
    lin_soft = 4;
    lin_hard = 2048;
    pin_oracle = false;
    shrink = true;
  }

let obj_of_name = function
  | "counter" -> Ok (Spec.Seq_counter.make ())
  | "register" ->
    Ok (Spec.Seq_register.make ~values:(List.init 4 Value.int) ~initial:(Value.int 0))
  | other -> Error (Printf.sprintf "unknown object %S (expected counter or register)" other)

(* Serve eligibility: the engine commits batches on the decided bit, so the
   protocol must actually claim single-value agreement (that is what the tob
   run then refutes under its Thm 9 fault). *)
let eligible (entry : Protocols.Registry.entry) params =
  entry.Protocols.Registry.k_of params = 1
  && (entry.Protocols.Registry.claims params).Analysis.Guarantee.agreement = Some 1

(* ------------------------------------------------------------------ *)
(* Engine state                                                       *)
(* ------------------------------------------------------------------ *)

type state = {
  cfg : config;
  sys : Model.System.t;  (* the shot system, built once and reused *)
  monitors : Chaos.Monitor.t list;  (* the shot monitors, likewise *)
  obj : Spec.Seq_type.t;
  n : int;
  n_tasks : int;
  report : Report.t;
  replicas : Replica.t array;
  sessions : Session.t array;
  mutable log : Cmd.t array;  (* commit log, grown geometrically *)
  mutable log_len : int;
  mutable pending : (Cmd.t * int) list;  (* FIFO of (command, via-replica) *)
  mutable timeline : Chaos.Schedule.fault list;  (* due-sorted, steps = ticks *)
  mutable stash : Chaos.Schedule.fault list;  (* net/crash faults awaiting a shot *)
  mutable active_partitions : (int list list * int) list;  (* (blocks, heal_at) *)
  mutable damage : Chaos.Degrade.t;
  mutable any_damage : bool;
  mutable deliveries : (int * int * Value.t) list;  (* (client, seq, resp) for next tick *)
  mutable next_client : int;
  mutable consecutive_stalls : int;
  mutable backoff_until : int;
  lin : Linear_inc.t;
  mutable full_history : L.event list;  (* newest first; only with pin_oracle *)
  op_rng : Random.State.t;
  mutable stopped : bool;
}

let log_push st cmd =
  if st.log_len = Array.length st.log then begin
    let bigger = Array.make (max 64 (2 * st.log_len)) cmd in
    Array.blit st.log 0 bigger 0 st.log_len;
    st.log <- bigger
  end;
  st.log.(st.log_len) <- cmd;
  st.log_len <- st.log_len + 1

let log_iter st f =
  for i = 0 to st.log_len - 1 do
    f st.log.(i)
  done

let draw_op st =
  if String.equal st.cfg.obj_name "register" then
    if Random.State.int st.op_rng 2 = 0 then
      Spec.Seq_register.write (Value.int (Random.State.int st.op_rng 4))
    else Spec.Seq_register.read
  else if Random.State.int st.op_rng 4 = 0 then Spec.Seq_counter.read
  else Spec.Seq_counter.increment

let record_event st ev =
  Linear_inc.record st.lin ev;
  if st.cfg.pin_oracle then st.full_history <- ev :: st.full_history

(* First Up replica at or after [from] (mod n); [None] if all are down. *)
let route st ~from =
  let rec go k = if k >= st.n then None
    else
      let r = (from + k) mod st.n in
      if Replica.is_up st.replicas.(r) then Some r else go (k + 1)
  in
  go 0

let up_count st = Array.fold_left (fun k r -> if Replica.is_up r then k + 1 else k) 0 st.replicas

let separated_up_pair st =
  Chaos.Degrade.partition_active st.damage
  && Array.exists
       (fun (a : Replica.t) ->
         Replica.is_up a
         && Array.exists
              (fun (b : Replica.t) ->
                Replica.is_up b && Chaos.Degrade.separated st.damage a.Replica.id b.Replica.id)
              st.replicas)
       st.replicas

(* ------------------------------------------------------------------ *)
(* Fault timeline delivery (engine-level)                             *)
(* ------------------------------------------------------------------ *)

let deliver_faults st ~tick =
  let due, later = List.partition (fun f -> Chaos.Schedule.step f <= tick) st.timeline in
  st.timeline <- later;
  List.iter
    (fun fault ->
      st.any_damage <- true;
      (* A crash of a replica already down is ignored below, and absorbing
         it changes nothing: its pid is still in the damage's crash set. *)
      Option.iter
        (fun e -> st.damage <- Chaos.Degrade.absorb st.damage e)
        (Chaos.Schedule.event fault);
      match fault with
      | Chaos.Schedule.Crash { pid; _ } ->
        let r = st.replicas.(pid) in
        if Replica.is_up r || r.Replica.status = Replica.Recovering then begin
          Replica.crash r ~tick ~rejoin_at:(tick + st.cfg.rejoin_after);
          st.report.Report.crash_faults <- st.report.Report.crash_faults + 1;
          (* The replica's queued-but-uncommitted commands die with it. *)
          let kept, lost = List.partition (fun (_, via) -> via <> pid) st.pending in
          st.pending <- kept;
          st.report.Report.lost_in_crash <-
            st.report.Report.lost_in_crash + List.length lost;
          (* Let the crash also land mid-shot, so the consensus protocol
             sees it in-flight rather than only at shot start. *)
          st.stash <- st.stash @ [ fault ]
        end
      | Chaos.Schedule.Partition { blocks; heal_at; _ } ->
        st.active_partitions <- st.active_partitions @ [ blocks, heal_at ];
        st.report.Report.partitions <- st.report.Report.partitions + 1
      | Chaos.Schedule.(Drop _ | Duplicate _ | Delay _) ->
        st.report.Report.net_faults <- st.report.Report.net_faults + 1;
        st.stash <- st.stash @ [ fault ]
      | Chaos.Schedule.Silence _ -> st.stash <- st.stash @ [ fault ])
    due;
  (* Heals. *)
  let healed, still = List.partition (fun (_, heal_at) -> heal_at <= tick) st.active_partitions in
  st.active_partitions <- still;
  List.iter
    (fun (blocks, _) ->
      st.damage <- Chaos.Degrade.absorb st.damage (Model.Event.Heal blocks);
      st.report.Report.heals <- st.report.Report.heals + 1;
      st.consecutive_stalls <- 0;
      st.backoff_until <- 0)
    healed

let recovery_progress st ~tick =
  Array.iter
    (fun (r : Replica.t) ->
      match r.Replica.status with
      | Replica.Down { rejoin_at } when rejoin_at <= tick -> Replica.start_recovery r
      | _ -> ())
    st.replicas;
  Array.iter
    (fun (r : Replica.t) ->
      if r.Replica.status = Replica.Recovering then begin
        let before = r.Replica.replayed in
        (match Replica.catch_up ~len:st.log_len r ~log:st.log ~rate:st.cfg.catch_up_rate with
        | `Caught_up ->
          st.damage <- Chaos.Degrade.uncrash st.damage r.Replica.id;
          st.report.Report.rejoins <- st.report.Report.rejoins + 1;
          st.report.Report.recovery_times <-
            (tick - r.Replica.crashed_at) :: st.report.Report.recovery_times;
          st.consecutive_stalls <- 0;
          st.backoff_until <- 0
        | `Recovering -> ());
        st.report.Report.catch_up_replayed <-
          st.report.Report.catch_up_replayed + (r.Replica.replayed - before)
      end)
    st.replicas

(* ------------------------------------------------------------------ *)
(* Traffic: deliveries, arrivals, retries                             *)
(* ------------------------------------------------------------------ *)

let deliver_responses st ~tick =
  let due = st.deliveries in
  st.deliveries <- [];
  List.iter
    (fun (client, seq, resp) ->
      match Session.complete st.sessions.(client) ~seq ~tick with
      | Some (latency, _attempts) ->
        st.report.Report.completed <- st.report.Report.completed + 1;
        st.report.Report.latencies <- latency :: st.report.Report.latencies;
        record_event st (L.Return { endpoint = client; resp })
      | None -> st.report.Report.stale_responses <- st.report.Report.stale_responses + 1)
    due

let total_issued st = Array.fold_left (fun k s -> k + s.Session.issued) 0 st.sessions

let busy_sessions st =
  Array.fold_left (fun k s -> if Session.is_free s then k else k + 1) 0 st.sessions

let submit_cmd st session ~tick =
  let op = draw_op st in
  let via =
    match route st ~from:session.Session.home with
    | Some r -> r
    | None -> -1  (* every replica down: the op is invoked but goes nowhere *)
  in
  let cmd = Session.submit session ~op ~tick ~via ~timeout:st.cfg.timeout in
  st.report.Report.offered <- st.report.Report.offered + 1;
  if via >= 0 && via <> session.Session.home then
    st.report.Report.failovers <- st.report.Report.failovers + 1;
  record_event st (L.Call { endpoint = session.Session.id; op });
  if via >= 0 then st.pending <- st.pending @ [ cmd, via ]

let arrivals st ~tick =
  let admitted = ref 0 in
  let issued = ref (total_issued st) in
  let busy = ref (busy_sessions st) in
  let scanned = ref 0 in
  while
    !admitted < st.cfg.rate && !issued < st.cfg.ops && !busy < st.cfg.lin_soft
    && !scanned < Array.length st.sessions
  do
    let s = st.sessions.(st.next_client mod Array.length st.sessions) in
    st.next_client <- st.next_client + 1;
    incr scanned;
    if Session.is_free s then begin
      submit_cmd st s ~tick;
      incr admitted;
      incr issued;
      incr busy;
      scanned := 0
    end
  done

let retries st ~tick =
  Array.iter
    (fun s ->
      if Session.timed_out s ~tick then begin
        let from =
          match Session.outstanding_via s with
          | Some via when via >= 0 -> (via + 1) mod st.n
          | _ -> s.Session.home
        in
        let via = match route st ~from with Some r -> r | None -> -1 in
        let cmd = Session.retry s ~tick ~via ~timeout:st.cfg.timeout in
        st.report.Report.retries <- st.report.Report.retries + 1;
        if via >= 0 then begin
          st.report.Report.resubmissions <- st.report.Report.resubmissions + 1;
          st.pending <- st.pending @ [ cmd, via ]
        end
      end)
    st.sessions

(* ------------------------------------------------------------------ *)
(* Consensus shots                                                    *)
(* ------------------------------------------------------------------ *)

(* The in-shot schedule for one consensus shot: replicas already down crash
   at step 0; stashed timeline faults (mid-traffic crashes, drops, dups,
   delays, silences) are rebased from engine ticks into the shot's own step
   space via {!Chaos.Schedule.with_step}. *)
let shot_schedule st =
  let span = max 1 (3 * st.n_tasks) in
  let stashed = Chaos.Schedule.make st.stash in
  let stash_crashes = Chaos.Schedule.crashed_pids stashed in
  let down_crashes =
    Array.to_list st.replicas
    |> List.filter_map (fun (r : Replica.t) ->
           if (not (Replica.is_up r)) && not (List.mem r.Replica.id stash_crashes) then
             Some (Chaos.Schedule.crash ~step:0 ~pid:r.Replica.id)
           else None)
  in
  let rebased =
    List.map
      (fun f -> Chaos.Schedule.(with_step (1 + (step f mod span)) f))
      stashed.Chaos.Schedule.faults
  in
  st.stash <- [];
  Chaos.Schedule.make (down_crashes @ rebased)

(* Candidate-bit input encoding: registry protocols take binary inputs, so a
   shot elects between (at most) two candidate leader replicas — the two
   lowest Up pids. Process c1 proposes 1, everyone else proposes 0; validity
   guarantees the decided bit names a real candidate. *)
let shot_inputs st =
  let ups =
    Array.to_list st.replicas
    |> List.filter_map (fun (r : Replica.t) ->
           if Replica.is_up r then Some r.Replica.id else None)
  in
  let c1 = match ups with _ :: b :: _ -> Some b | _ -> None in
  let c0 = match ups with a :: _ -> a | [] -> 0 in
  let inputs =
    List.init st.n (fun i -> Value.int (if Some i = c1 then 1 else 0))
  in
  c0, Option.value c1 ~default:c0, inputs

type shot_outcome =
  | Shot_committed of int  (* leader replica *)
  | Shot_stalled
  | Shot_violated of Chaos.Explore.violation * Value.t list

let run_shot st ~schedule ~inputs ~c0 ~c1 =
  let result =
    Chaos.Runner.run ~monitors:st.monitors ~max_steps:st.cfg.shot_max_steps ~inputs
      ~schedule st.sys
  in
  st.report.Report.shots <- st.report.Report.shots + 1;
  let committed_or_stalled exec =
    match Model.Exec.decide_events exec with
    | [] -> Shot_stalled
    | (_, v) :: _ -> Shot_committed (if Value.equal v (Value.int 1) then c1 else c0)
  in
  match Chaos.Explore.violation_of ~degrade:false st.sys schedule result with
  | Some v when not (String.equal v.Chaos.Explore.monitor "f-termination") ->
    Shot_violated (v, inputs)
  | Some _ | None ->
    (* A liveness miss inside one shot is a stall, not corruption: the
       engine's own retry/degrade machinery is the recovery pattern. If
       someone did decide, that decision is still a safe commit (every
       safety monitor passed). *)
    committed_or_stalled result.Chaos.Runner.exec

let commit_batch st ~leader batch =
  List.iter (fun cmd -> log_push st cmd) batch;
  (* Every Up replica applies the batch; the leader's responses are the ones
     sent back to clients. Divergence between replicas is a hard failure. *)
  let leader_r = st.replicas.(leader) in
  let lead_resps =
    List.map
      (fun cmd ->
        match Replica.apply_cmd leader_r cmd with
        | `Applied resp -> resp
        | `Duplicate resp ->
          st.report.Report.duplicate_commits <- st.report.Report.duplicate_commits + 1;
          resp)
      batch
  in
  Array.iter
    (fun (r : Replica.t) ->
      if Replica.is_up r && r.Replica.id <> leader then
        List.iter2
          (fun cmd lead ->
            let resp =
              match Replica.apply_cmd r cmd with `Applied v | `Duplicate v -> v
            in
            if not (Value.equal lead resp) then begin
              st.stopped <- true;
              st.report.Report.outcome <-
                Report.Inconsistent
                  (Format.asprintf "replica %d response %a differs from leader %a for %a"
                     r.Replica.id Value.pp resp Value.pp lead Cmd.pp cmd)
            end)
          batch lead_resps)
    st.replicas;
  st.report.Report.committed <- st.report.Report.committed + List.length batch;
  (* Responses reach clients next tick. *)
  List.iter2
    (fun cmd resp -> st.deliveries <- st.deliveries @ [ cmd.Cmd.client, cmd.Cmd.seq, resp ])
    batch lead_resps

let take_batch st =
  let rec go k acc rest =
    if k = 0 then List.rev acc, rest
    else match rest with [] -> List.rev acc, [] | (cmd, _) :: tl -> go (k - 1) (cmd :: acc) tl
  in
  let batch, rest = go st.cfg.batch [] st.pending in
  st.pending <- rest;
  batch

let shots st ~tick =
  if st.pending = [] then ()
  else if tick < st.backoff_until then ()
  else if separated_up_pair st || st.n - up_count st > st.cfg.params.Protocols.Registry.f then
    (* Consensus cannot safely proceed: degrade (keep queueing, keep
       retrying) instead of stalling the whole engine. *)
    st.report.Report.degraded_ticks <- st.report.Report.degraded_ticks + 1
  else begin
    let launched = ref 0 in
    while (not st.stopped) && !launched < st.cfg.pipeline && st.pending <> [] do
      incr launched;
      let schedule = shot_schedule st in
      let c0, c1, inputs = shot_inputs st in
      let batch = take_batch st in
      match run_shot st ~schedule ~inputs ~c0 ~c1 with
      | Shot_committed leader ->
        st.report.Report.shots_decided <- st.report.Report.shots_decided + 1;
        st.consecutive_stalls <- 0;
        commit_batch st ~leader batch
      | Shot_stalled ->
        st.report.Report.shots_stalled <- st.report.Report.shots_stalled + 1;
        (* The batch goes back to the queue head; back off exponentially. *)
        st.pending <- List.map (fun c -> c, -1) batch @ st.pending;
        st.consecutive_stalls <- st.consecutive_stalls + 1;
        st.backoff_until <- tick + (1 lsl min st.consecutive_stalls 6);
        launched := st.cfg.pipeline
      | Shot_violated (violation, vinputs) ->
        st.stopped <- true;
        let witness = Chaos.Schedule.to_string violation.Chaos.Explore.schedule in
        let minimized, stats =
          if st.cfg.shrink then
            let v, stats =
              Chaos.Shrink.shrink ~monitors:st.monitors
                ~max_steps:st.cfg.shot_max_steps ~inputs:vinputs st.sys violation
            in
            Chaos.Schedule.to_string v.Chaos.Explore.schedule, stats
          else witness, { Chaos.Shrink.candidates = 0; runs = 0 }
        in
        st.report.Report.outcome <-
          Report.Shot_violation
            {
              monitor = violation.Chaos.Explore.monitor;
              reason = violation.Chaos.Explore.reason;
              shot = st.report.Report.shots;
              witness;
              minimized;
              candidates = stats.Chaos.Shrink.candidates;
              runs = stats.Chaos.Shrink.runs;
            }
    done
  end

(* ------------------------------------------------------------------ *)
(* End-of-run checks                                                  *)
(* ------------------------------------------------------------------ *)

let final_checks st =
  (* Cross-replica consistency: every caught-up replica must agree with a
     from-scratch replay of the commit log (the catch-up path itself). *)
  let fresh = Replica.create ~id:(-1) ~obj:st.obj in
  log_iter st (fun cmd -> ignore (Replica.apply_cmd fresh cmd));
  Array.iter
    (fun (r : Replica.t) ->
      if Replica.is_up r && r.Replica.applied = st.log_len then
        if not (Value.equal r.Replica.value fresh.Replica.value) then begin
          st.report.Report.outcome <-
            Report.Inconsistent
              (Format.asprintf "replica %d value %a differs from log replay %a" r.Replica.id
                 Value.pp r.Replica.value Value.pp fresh.Replica.value)
        end)
    st.replicas;
  (* The exactly-once check, re-derived independently of the live dedup
     tables: applications performed by a from-scratch replay minus distinct
     (client, seq) pairs in the log. Zero iff every pair mutated the object
     exactly once no matter how many log entries carried it. *)
  let seen = Replica.Tbl.create 256 in
  log_iter st (fun cmd -> Replica.Tbl.replace seen (Cmd.key cmd) ());
  let applications = st.log_len - fresh.Replica.duplicates_skipped in
  st.report.Report.duplicate_applications <- applications - Replica.Tbl.length seen;
  (* Incremental linearizability: final flush, then the oracle pin. *)
  (match Linear_inc.finish st.lin with
  | Linear_inc.Violation reason ->
    if st.report.Report.outcome = Report.Served then
      st.report.Report.outcome <- Report.Lin_violation reason
  | Linear_inc.Ok | Linear_inc.Truncated _ -> ());
  if st.cfg.pin_oracle then begin
    let oracle = L.search st.obj (List.rev st.full_history) in
    let incremental = Linear_inc.verdict st.lin = Linear_inc.Ok in
    st.report.Report.oracle_pinned <- Some (oracle = incremental)
  end;
  if st.any_damage then
    st.report.Report.final_vector <-
      Some (Analysis.Gvector.to_string (Chaos.Degrade.live_vector st.sys st.damage))

(* ------------------------------------------------------------------ *)
(* The run                                                            *)
(* ------------------------------------------------------------------ *)

let standing_excuse st =
  st.active_partitions <> []
  || Array.exists (fun (r : Replica.t) -> not (Replica.is_up r)) st.replicas
  || st.timeline <> []

let run cfg =
  let entry =
    match Protocols.Registry.find cfg.proto with
    | Some e -> e
    | None -> invalid_arg (Printf.sprintf "Workload.Engine: unknown protocol %S" cfg.proto)
  in
  if not (eligible entry cfg.params) then
    invalid_arg
      (Printf.sprintf
         "Workload.Engine: %s does not claim single-value agreement; serve needs a consensus \
          protocol"
         cfg.proto);
  let obj =
    match obj_of_name cfg.obj_name with
    | Ok obj -> obj
    | Error e -> invalid_arg ("Workload.Engine: " ^ e)
  in
  let sys = entry.Protocols.Registry.build cfg.params in
  let n = Model.System.n_processes sys in
  let est_serving_ticks = max 20 (cfg.ops * 2 / max 1 cfg.rate) in
  let max_ticks =
    match cfg.max_ticks with
    | Some t -> t
    | None -> (10 * cfg.ops / max 1 cfg.rate) + 50 * cfg.rejoin_after + 500
  in
  let timeline =
    match cfg.schedule with
    | Some s -> s.Chaos.Schedule.faults
    | None ->
      if cfg.max_faults = 0 || cfg.kinds = [] then []
      else
        (Chaos.Rand.schedule ~seed:cfg.seed ~max_faults:cfg.max_faults ~silence_prob:0.
           ~horizon:est_serving_ticks ~kinds:cfg.kinds sys)
          .Chaos.Schedule.faults
  in
  let report =
    Report.create ~proto:cfg.proto ~n ~f:cfg.params.Protocols.Registry.f ~obj_name:cfg.obj_name
      ~clients:cfg.clients ~ops:cfg.ops ~seed:cfg.seed
  in
  let st =
    {
      cfg;
      sys;
      monitors = Chaos.Monitor.defaults ();
      obj;
      n;
      n_tasks = Array.length sys.Model.System.tasks;
      report;
      replicas = Array.init n (fun id -> Replica.create ~id ~obj);
      sessions = Array.init cfg.clients (fun id -> Session.create ~id ~home:(id mod n));
      log = [||];
      log_len = 0;
      pending = [];
      timeline =
        List.stable_sort
          (fun a b -> Int.compare (Chaos.Schedule.step a) (Chaos.Schedule.step b))
          timeline;
      stash = [];
      active_partitions = [];
      damage = Chaos.Degrade.empty;
      any_damage = false;
      deliveries = [];
      next_client = 0;
      consecutive_stalls = 0;
      backoff_until = 0;
      lin = Linear_inc.create ~max_nodes:cfg.lin_max_nodes ~soft_outstanding:cfg.lin_soft
          ~hard_buffer:cfg.lin_hard obj;
      full_history = [];
      op_rng = Random.State.make [| cfg.seed; 0xF00D |];
      stopped = false;
    }
  in
  let tick = ref 0 in
  let finished () = st.report.Report.completed >= cfg.ops in
  while (not st.stopped) && (not (finished ())) && !tick < max_ticks do
    deliver_faults st ~tick:!tick;
    recovery_progress st ~tick:!tick;
    deliver_responses st ~tick:!tick;
    arrivals st ~tick:!tick;
    retries st ~tick:!tick;
    shots st ~tick:!tick;
    (match Linear_inc.tick st.lin with
    | Linear_inc.Violation reason ->
      if not st.stopped then begin
        st.stopped <- true;
        st.report.Report.outcome <- Report.Lin_violation reason
      end
    | Linear_inc.Ok | Linear_inc.Truncated _ -> ());
    incr tick
  done;
  st.report.Report.ticks <- !tick;
  if (not st.stopped) && not (finished ()) then begin
    let incomplete = cfg.ops - st.report.Report.completed in
    if standing_excuse st then
      st.report.Report.outcome <-
        Report.Degraded
          (Printf.sprintf "%d ops incomplete under %s" incomplete
             (Analysis.Gvector.to_string (Chaos.Degrade.live_vector st.sys st.damage)))
    else
      st.report.Report.outcome <-
        Report.Stalled
          (Printf.sprintf "%d ops incomplete at tick %d with no standing damage" incomplete
             !tick)
  end;
  (match st.report.Report.outcome with
  | Report.Served | Report.Degraded _ -> final_checks st
  | _ -> ());
  st.report.Report.lin <- Linear_inc.verdict st.lin;
  st.report.Report.lin_windows <- Linear_inc.windows st.lin;
  st.report.Report.lin_certified <- Linear_inc.certified st.lin;
  st.report.Report.lin_searched <- Linear_inc.searched st.lin;
  st.report.Report.lin_events <- Linear_inc.events st.lin;
  st.report.Report.lin_max_window <- Linear_inc.max_window st.lin;
  st.report.Report.lin_max_frontier <- Linear_inc.max_frontier st.lin;
  st.report
