module Value = Ioa.Value

type label =
  | L_init of int * Value.t
  | L_fail of int
  | L_task of Task.t
  | L_net of { service : string; endpoint : int; kind : Event.net_kind }
  | L_partition of int list list
  | L_heal of int list list

type step = { label : label; event : Event.t; state : State.t }
type t = { start : State.t; rev_steps : step list }

(* Fingerprint of the monitor-observable event history: the operation flow
   (invocations, performs, computes, responses), decisions, and inits —
   everything the property monitors can distinguish histories by. Fail,
   internal and dummy events are deliberately excluded, so two executions
   that differ only in where a crash landed (or in no-op turns) share a
   fingerprint when their observable behaviour coincides. Order-sensitive;
   a 63-bit FNV-1a fold. *)
let obs_fp_seed = 0x0b5e4

let obs_fp_event h =
  let prime = 0x100000001b3 in
  let combine h x = (h lxor x) * prime in
  let hstr s = combine 0x57 (Hashtbl.hash (s : string)) in
  function
  | Event.Init (i, v) -> combine (combine (combine h 1) i) (Value.hash v)
  | Event.Invoke (i, svc, v) ->
    combine (combine (combine (combine h 2) i) (hstr svc)) (Value.hash v)
  | Event.Respond (i, svc, v) ->
    combine (combine (combine (combine h 3) i) (hstr svc)) (Value.hash v)
  | Event.Decide (i, v) -> combine (combine (combine h 4) i) (Value.hash v)
  | Event.Perform (svc, k) -> combine (combine (combine h 5) (hstr svc)) k
  | Event.Compute (g, k) -> combine (combine (combine h 6) (hstr g)) (hstr k)
  (* Network-adversary events are monitor-observable: the recovery-aware
     monitors waive verdicts based on them, so executions differing only in
     a net fault must not share a fingerprint. Crash-only executions never
     carry these events, keeping crash-only fingerprints unchanged. *)
  | Event.Net { service; endpoint; kind } ->
    let k, lag =
      match kind with Event.Drop -> 1, 0 | Event.Duplicate -> 2, 0 | Event.Delay l -> 3, l
    in
    combine (combine (combine (combine (combine h 7) endpoint) (hstr service)) k) lag
  | Event.Partition blocks ->
    List.fold_left
      (fun h block -> List.fold_left (fun h i -> combine h (i + 1)) (combine h 0xb) block)
      (combine h 8) blocks
  | Event.Heal blocks ->
    List.fold_left
      (fun h block -> List.fold_left (fun h i -> combine h (i + 1)) (combine h 0xb) block)
      (combine h 9) blocks
  | Event.Fail _ | Event.Proc_internal _ | Event.Dummy _ -> h

let init start = { start; rev_steps = [] }
let last_state t = match t.rev_steps with [] -> t.start | { state; _ } :: _ -> state
let length t = List.length t.rev_steps
let steps t = List.rev t.rev_steps
let events t = List.rev_map (fun s -> s.event) t.rev_steps
let labels t = List.rev_map (fun s -> s.label) t.rev_steps

let task_labels t =
  List.filter_map (function { label = L_task e; _ } -> Some e | _ -> None) (steps t)

let is_failure_free t =
  List.for_all (function { label = L_fail _; _ } -> false | _ -> true) t.rev_steps

let push t label event state = { t with rev_steps = { label; event; state } :: t.rev_steps }

let append_init sys t i v =
  let event, state = System.apply_init sys (last_state t) i v in
  push t (L_init (i, v)) event state

let initialized sys inputs =
  List.fold_left
    (fun (t, i) v -> append_init sys t i v, i + 1)
    (init (System.initial_state sys), 0)
    inputs
  |> fst

let append_fail sys t i =
  let event, state = System.apply_fail sys (last_state t) i in
  push t (L_fail i) event state

let append_net sys t ~service ~endpoint ~kind =
  match System.apply_net sys (last_state t) ~service ~endpoint ~kind with
  | None -> None
  | Some (event, state) -> Some (push t (L_net { service; endpoint; kind }) event state)

let append_partition t blocks =
  push t (L_partition blocks) (Event.Partition blocks) (last_state t)

let append_heal t blocks = push t (L_heal blocks) (Event.Heal blocks) (last_state t)

let append_task ?policy sys t task =
  match System.transition ?policy sys (last_state t) task with
  | None -> None
  | Some (event, state) -> Some (push t (L_task task) event state)

let replay_tasks ?policy sys t tasks =
  List.fold_left
    (fun acc task -> Option.bind acc (fun t -> append_task ?policy sys t task))
    (Some t) tasks

let decide_events t =
  List.filter_map
    (function { event = Event.Decide (i, v); _ } -> Some (i, v) | _ -> None)
    (steps t)

let obs_fingerprint t = List.fold_left obs_fp_event obs_fp_seed (events t) land max_int

let strip t ~keep =
  List.filter_map
    (fun s -> match s.label with L_task e when keep s -> Some e | _ -> None)
    (steps t)

let pp ppf t =
  Format.fprintf ppf "@[<hov 2>%a@]"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "@ . ") Event.pp)
    (events t)
