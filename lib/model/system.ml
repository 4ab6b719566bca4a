module Value = Ioa.Value

type t = {
  processes : Process.t array;
  services : Service.t array;
  tasks : Task.t array;
}

let make ~processes ~services =
  let processes = Array.of_list processes in
  let services = Array.of_list services in
  Array.iteri
    (fun i (p : Process.t) ->
      if p.Process.pid <> i then
        invalid_arg (Printf.sprintf "System.make: process at position %d has pid %d" i p.Process.pid))
    processes;
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun (c : Service.t) ->
      if Hashtbl.mem seen c.Service.id then
        invalid_arg ("System.make: duplicate service id " ^ c.Service.id);
      Hashtbl.replace seen c.Service.id ();
      Array.iter
        (fun i ->
          if i < 0 || i >= Array.length processes then
            invalid_arg
              (Printf.sprintf "System.make: service %s endpoint %d out of range" c.Service.id i))
        c.Service.endpoints)
    services;
  let tasks =
    List.concat
      [
        List.init (Array.length processes) (fun i -> Task.Proc i);
        List.concat
          (List.mapi
             (fun svc (c : Service.t) ->
               List.concat_map
                 (fun endpoint ->
                   [ Task.Svc_perform { svc; endpoint }; Task.Svc_output { svc; endpoint } ])
                 (Array.to_list c.Service.endpoints)
               @ List.map
                   (fun glob -> Task.Svc_compute { svc; glob })
                   c.Service.gtype.Spec.General_type.global_tasks)
             (Array.to_list services));
      ]
    |> Array.of_list
  in
  { processes; services; tasks }

let n_processes t = Array.length t.processes

let service_pos t id =
  let rec go i =
    if i >= Array.length t.services then
      invalid_arg ("System.service_pos: unknown service " ^ id)
    else if String.equal t.services.(i).Service.id id then i
    else go (i + 1)
  in
  go 0

let initial_state t =
  let n = Array.length t.processes in
  State.make
    ~procs:(Array.map (fun (p : Process.t) -> p.Process.start) t.processes)
    ~svcs:
      (Array.map
         (fun (c : Service.t) ->
           let m = Array.length c.Service.endpoints in
           State.make_svc
             ~value:(List.hd c.Service.gtype.Spec.General_type.initials)
             ~inv_bufs:(Array.make m []) ~resp_bufs:(Array.make m []))
         t.services)
    ~failed:Spec.Iset.empty ~decisions:(Array.make n None) ~inputs:(Array.make n None)

let apply_init t s i v =
  let p = t.processes.(i) in
  let s = State.with_proc s i (p.Process.on_init s.State.procs.(i) v) in
  Event.Init (i, v), State.with_input s i v

let apply_fail _t s i = Event.Fail i, State.with_failed s (Spec.Iset.add i s.State.failed)

let apply_net t s ~service ~endpoint ~kind =
  let svc = service_pos t service in
  let c = t.services.(svc) in
  match Service.endpoint_pos c endpoint with
  | None -> None
  | Some pos ->
    let updated =
      match kind with
      | Event.Drop -> State.svc_drop_resp s.State.svcs.(svc) ~pos
      | Event.Duplicate -> State.svc_dup_resp s.State.svcs.(svc) ~pos
      | Event.Delay lag -> State.svc_delay_resp s.State.svcs.(svc) ~pos ~lag
    in
    Option.map
      (fun st -> Event.Net { service; endpoint; kind }, State.with_svc s svc st)
      updated

let initialize t vs =
  if List.length vs <> Array.length t.processes then
    invalid_arg "System.initialize: need one input per process";
  List.fold_left
    (fun (s, i) v -> snd (apply_init t s i v), i + 1)
    (initial_state t, 0) vs
  |> fst

type pref = Prefer_real | Prefer_dummy
type policy = Task.t -> pref

let real_policy _ = Prefer_real
let dummy_policy _ = Prefer_dummy

let silence_policy ~silenced task =
  match task with
  | Task.Svc_perform { svc; _ } | Task.Svc_output { svc; _ } | Task.Svc_compute { svc; _ } ->
    if silenced svc then Prefer_dummy else Prefer_real
  | Task.Proc _ -> Prefer_real

let totality_error (c : Service.t) what =
  invalid_arg
    (Printf.sprintf "service %s: %s relation empty (totality violation)" c.Service.id what)

(* Apply a response map to a service state, translating endpoints to buffer
   positions. Responses for endpoints not connected to the service indicate a
   service-type bug and raise. *)
let apply_response_map (c : Service.t) svc_state rmap =
  List.fold_left
    (fun st (j, rs) ->
      match Service.endpoint_pos c j with
      | None ->
        invalid_arg
          (Printf.sprintf "service %s: response for non-endpoint %d" c.Service.id j)
      | Some pos ->
        List.fold_left
          (fun st r -> State.svc_push_resp ~coalesce:c.Service.coalesce st ~pos r)
          st rs)
    svc_state rmap

let proc_transition t s i =
  if Spec.Iset.mem i s.State.failed then Some (Event.Dummy (Task.Proc i), s)
  else
    let p = t.processes.(i) in
    match p.Process.step s.State.procs.(i) with
    | Process.Internal next -> Some (Event.Proc_internal i, State.with_proc s i next)
    | Process.Decide { value; next } ->
      let s = State.with_proc s i next in
      let s =
        (* Record the first decision (§2.2.1 technical assumption). *)
        match s.State.decisions.(i) with
        | None -> State.with_decision s i value
        | Some _ -> s
      in
      Some (Event.Decide (i, value), s)
    | Process.Invoke { service; op; next } -> (
      let svc = service_pos t service in
      let c = t.services.(svc) in
      match Service.endpoint_pos c i with
      | None ->
        invalid_arg
          (Printf.sprintf "process %d invokes %s but is not an endpoint" i service)
      | Some pos ->
        let svc_state = State.svc_push_inv s.State.svcs.(svc) ~pos op in
        let s = State.with_proc s i next in
        Some (Event.Invoke (i, service, op), State.with_svc s svc svc_state))

let dummy_io_enabled (c : Service.t) failed i =
  let failed_c = Service.failed_endpoints c failed in
  Spec.Iset.mem i failed_c || Spec.Iset.cardinal failed_c > c.Service.resilience

let dummy_compute_enabled (c : Service.t) failed =
  let failed_c = Service.failed_endpoints c failed in
  Spec.Iset.cardinal failed_c > c.Service.resilience
  || Array.for_all (fun i -> Spec.Iset.mem i failed) c.Service.endpoints

let perform_transition t s ~pref ~svc ~endpoint:i =
  let c = t.services.(svc) in
  match Service.endpoint_pos c i with
  | None -> None
  | Some pos ->
    let svc_state = s.State.svcs.(svc) in
    let dummy_ok = dummy_io_enabled c s.State.failed i in
    let task = Task.Svc_perform { svc; endpoint = i } in
    let real () =
      match State.svc_pop_inv svc_state ~pos with
      | None -> None
      | Some (a, svc_state) ->
        let failed_c = Service.failed_endpoints c s.State.failed in
        (match
           c.Service.gtype.Spec.General_type.delta_inv a i svc_state.State.value
             ~failed:failed_c
         with
        | [] -> totality_error c "delta_inv"
        | (rmap, value') :: _ ->
          let svc_state = State.svc_with_value svc_state value' in
          let svc_state = apply_response_map c svc_state rmap in
          Some (Event.Perform (c.Service.id, i), State.with_svc s svc svc_state))
    in
    let dummy () = if dummy_ok then Some (Event.Dummy task, s) else None in
    (match pref with
    | Prefer_real -> ( match real () with Some r -> Some r | None -> dummy ())
    | Prefer_dummy -> ( match dummy () with Some r -> Some r | None -> real ()))

let output_transition t s ~pref ~svc ~endpoint:i =
  let c = t.services.(svc) in
  match Service.endpoint_pos c i with
  | None -> None
  | Some pos ->
    let svc_state = s.State.svcs.(svc) in
    let dummy_ok = dummy_io_enabled c s.State.failed i in
    let task = Task.Svc_output { svc; endpoint = i } in
    let real () =
      match State.svc_pop_resp svc_state ~pos with
      | None -> None
      | Some (b, svc_state) ->
        let p = t.processes.(i) in
        let proc_state =
          p.Process.on_response s.State.procs.(i) ~service:c.Service.id b
        in
        let s = State.with_svc s svc svc_state in
        Some (Event.Respond (i, c.Service.id, b), State.with_proc s i proc_state)
    in
    let dummy () = if dummy_ok then Some (Event.Dummy task, s) else None in
    (match pref with
    | Prefer_real -> ( match real () with Some r -> Some r | None -> dummy ())
    | Prefer_dummy -> ( match dummy () with Some r -> Some r | None -> real ()))

let compute_transition t s ~pref ~svc ~glob =
  let c = t.services.(svc) in
  let svc_state = s.State.svcs.(svc) in
  let dummy_ok = dummy_compute_enabled c s.State.failed in
  let task = Task.Svc_compute { svc; glob } in
  let real () =
    let failed_c = Service.failed_endpoints c s.State.failed in
    match
      c.Service.gtype.Spec.General_type.delta_glob glob svc_state.State.value
        ~failed:failed_c
    with
    | [] -> totality_error c "delta_glob"
    | (rmap, value') :: _ ->
      let svc_state = State.svc_with_value svc_state value' in
      let svc_state = apply_response_map c svc_state rmap in
      Some (Event.Compute (c.Service.id, glob), State.with_svc s svc svc_state)
  in
  let dummy () = if dummy_ok then Some (Event.Dummy task, s) else None in
  match pref with
  | Prefer_real -> real ()
  | Prefer_dummy -> ( match dummy () with Some r -> Some r | None -> real ())

let transition ?(policy = real_policy) t s task =
  let pref = policy task in
  match task with
  | Task.Proc i -> proc_transition t s i
  | Task.Svc_perform { svc; endpoint } -> perform_transition t s ~pref ~svc ~endpoint
  | Task.Svc_output { svc; endpoint } -> output_transition t s ~pref ~svc ~endpoint
  | Task.Svc_compute { svc; glob } -> compute_transition t s ~pref ~svc ~glob

let enabled ?policy t s task = Option.is_some (transition ?policy t s task)

type participant = P of int | S of int

let participants ?policy t s task =
  match transition ?policy t s task with
  | None -> []
  | Some (event, _) -> (
    match event with
    | Event.Invoke (i, id, _) -> [ P i; S (service_pos t id) ]
    | Event.Respond (i, id, _) -> [ P i; S (service_pos t id) ]
    | Event.Decide (i, _) | Event.Proc_internal i | Event.Init (i, _) -> [ P i ]
    | Event.Perform (id, _) | Event.Compute (id, _) -> [ S (service_pos t id) ]
    | Event.Fail i -> [ P i ]
    | Event.Dummy (Task.Proc i) -> [ P i ]
    | Event.Dummy (Task.Svc_perform { svc; _ })
    | Event.Dummy (Task.Svc_output { svc; _ })
    | Event.Dummy (Task.Svc_compute { svc; _ }) -> [ S svc ]
    | Event.Net { service; _ } -> [ S (service_pos t service) ]
    | Event.Partition _ | Event.Heal _ -> [])
