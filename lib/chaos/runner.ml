type interleave = Round_robin | Seeded of int

type stop =
  | Violation of { monitor : string; reason : string; proven : bool }
  | Lasso of { period : int }
  | Budget
  | Pruned

type result = {
  exec : Model.Exec.t;
  steps : int;
  stop : stop;
  monitor_truncations : (string * Monitor.category * string) list;
  undelivered_crashes : int;
  undelivered_net : int;
  vacuous_net_faults : int;
}

let pp_stop ppf = function
  | Violation { monitor; reason; proven } ->
    Format.fprintf ppf "VIOLATION of %s (%s): %s" monitor
      (if proven then "proven" else "bounded evidence")
      reason
  | Lasso { period } -> Format.fprintf ppf "pass (lasso of period %d: provably quiescent)" period
  | Budget -> Format.fprintf ppf "pass (step budget exhausted: bounded evidence)"
  | Pruned ->
    Format.fprintf ppf "pruned (configuration already explored: verdict inherited)"

let default_inputs sys =
  List.init (Model.System.n_processes sys) (fun i -> Ioa.Value.int (i mod 2))

(* The fault-free round-robin prefix, shared across candidate schedules.

   Every schedule under the silencing adversary without overrides behaves
   identically until the step of its first fault: no delivery is due, so
   every turn is the round-robin task at cursor = step; no partition has
   begun, so no turn is held back; and no silence is active, so every task
   resolves by the default [Prefer_dummy] — which cannot bite anyway, since
   no process has failed and no dummy action is enabled (§2.1.3). [prefix]
   walks that common execution once — with the same per-step safety-monitor
   checks a real run performs — and snapshots every prefix, so {!run} can
   resume a candidate at its first fault step instead of re-executing the
   shared stem. Executions are immutable, so the snapshots alias one spine
   and the whole cache is safe to share across domains read-only. *)
type prefix = {
  p_snaps : (Model.Exec.t * (string * Monitor.category * string) list) array;
      (** [p_snaps.(k)]: the execution after [k] fault-free steps, with the
          monitor truncations accumulated so far, newest first. *)
  p_filled : int;  (** Snapshots [0..p_filled] are valid. *)
  p_cut :
    [ `Violation of
      Model.Exec.t * int * string * string * (string * Monitor.category * string) list
    | `Budget of Model.Exec.t * int * (string * Monitor.category * string) list ]
    option;
      (** Why the walk stopped before the requested depth, if it did: a
          safety violation at the recorded step, or the step budget. A run
          whose first crash lands at or past the cut ends identically. *)
}

let prefix ?(monitors = Monitor.defaults ()) ?(max_steps = 20_000) ~steps
    (sys : Model.System.t) =
  let inputs = default_inputs sys in
  let policy = Schedule.policy (Schedule.compile Schedule.empty sys) in
  let tasks = sys.Model.System.tasks in
  let n_tasks = Array.length tasks in
  let steps = max 0 steps in
  let snaps = Array.make (steps + 1) (Model.Exec.init (Model.System.initial_state sys), []) in
  let rec walk exec truncs j =
    snaps.(j) <- (exec, truncs);
    if j >= steps then { p_snaps = snaps; p_filled = j; p_cut = None }
    else if j >= max_steps then
      { p_snaps = snaps; p_filled = j; p_cut = Some (`Budget (exec, j, truncs)) }
    else
      let task = tasks.(j mod n_tasks) in
      match Model.Exec.append_task ~policy sys exec task with
      | None -> walk exec truncs (j + 1)
      | Some exec' -> (
        let event =
          match exec'.Model.Exec.rev_steps with
          | s :: _ -> s.Model.Exec.event
          | [] -> assert false
        in
        let fail, t = Monitor.check_phase monitors ~phase:Monitor.Step ~event sys exec' in
        let truncs = List.rev_append t truncs in
        match fail with
        | Some (monitor, reason) ->
          {
            p_snaps = snaps;
            p_filled = j;
            p_cut = Some (`Violation (exec', j + 1, monitor, reason, truncs));
          }
        | None -> walk exec' truncs (j + 1))
  in
  walk (Model.Exec.initialized sys inputs) [] 0

(* A schedule may resume from the shared prefix only when its own prefix
   provably coincides with it: the same (silencing) adversary and no
   overrides. The deterministic task order is checked at the resume site. *)
let resumable schedule =
  schedule.Schedule.overrides = []
  && schedule.Schedule.default_pref = Model.System.Prefer_dummy

let run ?(monitors = Monitor.defaults ()) ?(max_steps = 20_000) ?(interleave = Round_robin)
    ?inputs ?on_active ?prefix ~schedule (sys : Model.System.t) =
  let inputs = match inputs with Some vs -> vs | None -> default_inputs sys in
  let compiled = Schedule.compile schedule sys in
  let policy = Schedule.policy compiled in
  let tasks = sys.Model.System.tasks in
  let n_tasks = Array.length tasks in
  let rng =
    match interleave with
    | Round_robin -> None
    | Seeded seed -> Some (Random.State.make [| seed; 0x1A7E |])
  in
  let cursor = ref 0 in
  let seen = Model.State.Cursor_tbl.create 16 in
  let truncs = ref [] in  (* newest first, reversed once by [finish] *)
  let vacuous = ref 0 in
  let finish exec steps stop =
    {
      exec;
      steps;
      stop;
      monitor_truncations = List.rev !truncs;
      undelivered_crashes = Schedule.undelivered compiled;
      undelivered_net = Schedule.undelivered_net compiled;
      vacuous_net_faults = !vacuous;
    }
  in
  (* End-of-run: evaluate the liveness monitors; [proven] records whether
     the terminal situation repeats forever (lasso) or merely ran out of
     budget. *)
  let ended exec steps ~proven pass =
    let fail, t = Monitor.check_phase monitors ~phase:Monitor.End sys exec in
    truncs := List.rev_append t !truncs;
    match fail with
    | Some (monitor, reason) -> finish exec steps (Violation { monitor; reason; proven })
    | None -> finish exec steps pass
  in
  let probed = ref false in
  let rec go exec step =
    if step >= max_steps then ended exec step ~proven:false Budget
    else begin
      let active =
        (* Once fully active the schedule is memoryless (no pending crash,
           no future silence activation): under the deterministic task order
           the continuation is a function of (cursor, state) alone. *)
        match interleave with
        | Round_robin -> Schedule.fully_active compiled ~step
        | Seeded _ -> false
      in
      let prune =
        (* The one-shot activation probe: the explorer fingerprints the
           configuration here and may inherit a previously proven verdict. *)
        if active && not !probed then begin
          probed := true;
          match on_active with
          | Some probe ->
            probe ~step ~cursor:(!cursor mod n_tasks) ~truncations:(List.length !truncs)
              exec
            = `Prune
          | None -> false
        end
        else false
      in
      if prune then finish exec step Pruned
      else
      let lasso =
        (* (cursor, state) repetition proves a cycle only once the schedule
           is memoryless and the task order is deterministic. *)
        if active then begin
          let key = !cursor mod n_tasks, Model.Exec.last_state exec in
          let prior = Model.State.Cursor_tbl.find_opt seen key in
          if prior = None then Model.State.Cursor_tbl.replace seen key step;
          Option.map (fun at -> step - at) prior
        end
        else None
      in
      match lasso with
      | Some period -> ended exec step ~proven:true (Lasso { period })
      | None -> (
        match Schedule.due compiled ~step with
        | Some (Schedule.Deliver_fail pid) ->
          go (Model.Exec.append_fail sys exec pid) (step + 1)
        | Some (Schedule.Deliver_net { service; endpoint; kind }) -> (
          match Model.Exec.append_net sys exec ~service ~endpoint ~kind with
          | None ->
            (* Vacuous fault (empty buffer): counted, not recorded. *)
            incr vacuous;
            go exec (step + 1)
          | Some exec -> go exec (step + 1))
        | Some (Schedule.Deliver_partition { blocks; _ }) ->
          go (Model.Exec.append_partition exec blocks) (step + 1)
        | Some (Schedule.Deliver_heal blocks) ->
          go (Model.Exec.append_heal exec blocks) (step + 1)
        | None -> (
          let task =
            match rng with
            | Some rng -> tasks.(Random.State.int rng n_tasks)
            | None ->
              let t = tasks.(!cursor mod n_tasks) in
              incr cursor;
              t
          in
          if Schedule.blocked compiled sys (Model.Exec.last_state exec) task then
            (* An active partition holds this output turn back; the task
               regains its turn after the heal. *)
            go exec (step + 1)
          else
          match Model.Exec.append_task ~policy sys exec task with
          | None -> go exec (step + 1)
          | Some exec' -> (
            let event =
              match exec'.Model.Exec.rev_steps with
              | s :: _ -> s.Model.Exec.event
              | [] -> assert false
            in
            let fail, t =
              Monitor.check_phase monitors ~phase:Monitor.Step ~event sys exec'
            in
            truncs := List.rev_append t !truncs;
            match fail with
            | Some (monitor, reason) ->
              (* A safety violation is witnessed by the prefix itself. *)
              finish exec' (step + 1) (Violation { monitor; reason; proven = true })
            | None -> go exec' (step + 1))))
    end
  in
  let resume =
    (* Resume from the shared fault-free prefix at the first fault's step,
       when the schedule's own prefix provably coincides with it. *)
    match prefix, interleave, schedule.Schedule.faults with
    | Some p, Round_robin, f :: _ when resumable schedule -> Some (p, Schedule.step f)
    | _ -> None
  in
  match resume with
  | None -> go (Model.Exec.initialized sys inputs) 0
  | Some (p, s) -> (
    match p.p_cut with
    | Some (`Violation (exec, v, monitor, reason, tr)) when s >= v ->
      (* The shared prefix violates safety before the first fault can land:
         this run ends exactly there. *)
      truncs := tr;
      finish exec v (Violation { monitor; reason; proven = true })
    | Some (`Budget (exec, b, tr)) when s >= b ->
      truncs := tr;
      ended exec b ~proven:false Budget
    | _ ->
      let k = min s p.p_filled in
      let exec, tr = p.p_snaps.(k) in
      truncs := tr;
      (* [cursor = step] through a fault-free prefix: every turn consumes a
         task, since no delivery is due and no partition holds one back. *)
      cursor := k;
      go exec k)
