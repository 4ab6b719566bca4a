type decision =
  | Do_task of Task.t
  | Do_fail of int
  | Stop
type t = step:int -> State.t -> decision
type outcome = Stopped | Scheduler_stop | Quiescent | Budget

let pp_outcome ppf = function
  | Stopped -> Format.pp_print_string ppf "stopped (goal reached)"
  | Scheduler_stop -> Format.pp_print_string ppf "scheduler stop"
  | Quiescent -> Format.pp_print_string ppf "quiescent"
  | Budget -> Format.pp_print_string ppf "step budget exhausted"

let run ?policy ?(stop_when = fun _ -> false) ~max_steps sys exec sched =
  let rec go exec step =
    if stop_when (Exec.last_state exec) then exec, Stopped
    else if step >= max_steps then exec, Budget
    else
      match sched ~step (Exec.last_state exec) with
      | Stop -> exec, Scheduler_stop
      | Do_fail i -> go (Exec.append_fail sys exec i) (step + 1)
      | Do_task task -> (
        match Exec.append_task ?policy sys exec task with
        | None -> go exec (step + 1)
        | Some exec -> go exec (step + 1))
  in
  go exec 0

let round_robin ?(faults = []) ?(quiesce = true) (sys : System.t) : t =
  let tasks = sys.System.tasks in
  let cursor = ref 0 in
  let pending_faults = ref (List.sort Stdlib.compare faults) in
  (* Quiescence detection: count consecutive turns that left the state
     unchanged; a full silent cycle means fixpoint. *)
  let silent = ref 0 in
  let prev : State.t option ref = ref None in
  fun ~step s ->
    (match !prev with
    | Some s' when State.equal s s' -> incr silent
    | _ -> silent := 0);
    prev := Some s;
    if quiesce && !silent > Array.length tasks then Stop
    else
      match !pending_faults with
      | (at, pid) :: rest when step >= at ->
        pending_faults := rest;
        silent := 0;
        Do_fail pid
      | _ ->
        let t = tasks.(!cursor mod Array.length tasks) in
        incr cursor;
        Do_task t

let random ~seed ?(fail_prob = 0.0) ?(max_failures = 0) (sys : System.t) : t =
  let rng = Random.State.make [| seed |] in
  let tasks = sys.System.tasks in
  let failures = ref 0 in
  fun ~step:_ s ->
    let n = System.n_processes sys in
    let alive =
      List.filter (fun i -> not (Spec.Iset.mem i s.State.failed)) (List.init n Fun.id)
    in
    if
      !failures < max_failures
      && alive <> []
      && Random.State.float rng 1.0 < fail_prob
    then begin
      incr failures;
      Do_fail (List.nth alive (Random.State.int rng (List.length alive)))
    end
    else Do_task tasks.(Random.State.int rng (Array.length tasks))
