module Value = Ioa.Value
module SN = Services.Sig_names

(* --- State packing --- *)

let encode_opt = function
  | None -> Value.str "none"
  | Some v -> Value.pair (Value.str "some") v

let decode_opt v =
  match v with
  | Value.Str "none" -> None
  | Value.Pair (Value.Str "some", x) -> Some x
  | _ -> raise (Value.Type_error "expected option encoding")

let encode_bufs bufs = Value.list (Array.to_list bufs |> List.map Value.list)

let decode_bufs v = Value.to_list v |> List.map Value.to_list |> Array.of_list

let encode_state (s : State.t) =
  Value.list
    [
      Value.list (Array.to_list s.State.procs);
      Value.list
        (Array.to_list s.State.svcs
        |> List.map (fun (svc : State.svc) ->
             Value.triple svc.State.value (encode_bufs svc.State.inv_bufs)
               (encode_bufs svc.State.resp_bufs)));
      Spec.Iset.to_value s.State.failed;
      Value.list (Array.to_list s.State.decisions |> List.map encode_opt);
      Value.list (Array.to_list s.State.inputs |> List.map encode_opt);
    ]

let decode_state (_sys : System.t) v =
  match Value.to_list v with
  | [ procs; svcs; failed; decisions; inputs ] ->
    State.make
      ~procs:(Array.of_list (Value.to_list procs))
      ~svcs:
        (Value.to_list svcs
        |> List.map (fun t ->
             let value, inv, resp = Value.to_triple t in
             State.make_svc ~value ~inv_bufs:(decode_bufs inv)
               ~resp_bufs:(decode_bufs resp))
        |> Array.of_list)
      ~failed:(Spec.Iset.of_value failed)
      ~decisions:(Array.of_list (List.map decode_opt (Value.to_list decisions)))
      ~inputs:(Array.of_list (List.map decode_opt (Value.to_list inputs)))
  | _ -> raise (Value.Type_error "expected packed system state")

(* --- Action dispatch --- *)

(* The task responsible for a locally controlled action, and the policy that
   makes the canonical automaton's real-vs-dummy choice produce it. *)
let task_of_action (sys : System.t) act =
  let svc_pos_opt id =
    let rec go i =
      if i >= Array.length sys.System.services then None
      else if String.equal sys.System.services.(i).Service.id id then Some i
      else go (i + 1)
    in
    go 0
  in
  match SN.as_decide act with
  | Some (i, _) -> Some (Task.Proc i, System.real_policy)
  | None -> (
    match SN.as_invoke act with
    | Some (i, _, _) -> Some (Task.Proc i, System.real_policy)
    | None -> (
      match SN.as_perform act with
      | Some (i, k) ->
        Option.map
          (fun svc -> Task.Svc_perform { svc; endpoint = i }, System.real_policy)
          (svc_pos_opt k)
      | None -> (
        match SN.as_respond act with
        | Some (i, k, _) ->
          Option.map
            (fun svc -> Task.Svc_output { svc; endpoint = i }, System.real_policy)
            (svc_pos_opt k)
        | None -> (
          match SN.as_compute act with
          | Some (g, k) ->
            Option.map
              (fun svc -> Task.Svc_compute { svc; glob = g }, System.real_policy)
              (svc_pos_opt k)
          | None -> (
            match Ioa.Action.name act with
            | "step" -> Some (Task.Proc (Value.to_int (Ioa.Action.arg act)), System.real_policy)
            | "dummy_perform" | "dummy_output" ->
              let i, k = Value.to_pair (Ioa.Action.arg act) in
              Option.map
                (fun svc ->
                  let endpoint = Value.to_int i in
                  ( (if String.equal (Ioa.Action.name act) "dummy_perform" then
                       Task.Svc_perform { svc; endpoint }
                     else Task.Svc_output { svc; endpoint }),
                    System.dummy_policy ))
                (int_of_string_opt (Value.to_str k))
            | "dummy_compute" ->
              let g, k = Value.to_pair (Ioa.Action.arg act) in
              Option.map
                (fun svc -> Task.Svc_compute { svc; glob = Value.to_str g }, System.dummy_policy)
                (int_of_string_opt (Value.to_str k))
            | _ -> None)))))

let automaton (sys : System.t) =
  let n = System.n_processes sys in
  let in_range i = 0 <= i && i < n in
  let classify act =
    match SN.as_init act with
    | Some (i, _) when in_range i -> Some Ioa.Automaton.Input
    | Some _ -> None
    | None -> (
      match SN.as_fail act with
      | Some i when in_range i -> Some Ioa.Automaton.Input
      | Some _ -> None
      | None -> (
        match SN.as_decide act with
        | Some (i, _) when in_range i -> Some Ioa.Automaton.Output
        | Some _ -> None
        | None -> (
          match task_of_action sys act with
          | Some _ -> Some Ioa.Automaton.Internal
          | None -> None)))
  in
  let step packed act =
    let s = decode_state sys packed in
    match SN.as_init act with
    | Some (i, v) when in_range i -> [ encode_state (snd (System.apply_init sys s i v)) ]
    | Some _ -> []
    | None -> (
      match SN.as_fail act with
      | Some i when in_range i -> [ encode_state (snd (System.apply_fail sys s i)) ]
      | Some _ -> []
      | None -> (
        match task_of_action sys act with
        | None -> []
        | Some (task, policy) -> (
          match System.transition ~policy sys s task with
          | Some (event, s') when Ioa.Action.equal (Event.to_ioa event) act ->
            [ encode_state s' ]
          | _ -> [])))
  in
  let lift_task task =
    let enabled packed =
      let s = decode_state sys packed in
      let candidate policy =
        Option.map (fun (event, _) -> Event.to_ioa event) (System.transition ~policy sys s task)
      in
      let real = candidate System.real_policy in
      let dummy = candidate System.dummy_policy in
      match real, dummy with
      | Some a, Some b when not (Ioa.Action.equal a b) -> [ a; b ]
      | Some a, _ -> [ a ]
      | None, Some b -> [ b ]
      | None, None -> []
    in
    Ioa.Task.make ~label:(Task.to_string task)
      ~contains:(fun act ->
        match task_of_action sys act with
        | Some (task', _) -> Task.equal task task'
        | None -> false)
      ~enabled
  in
  Ioa.Automaton.make ~name:"system"
    ~classify
    ~start:[ encode_state (System.initial_state sys) ]
    ~step
    ~tasks:(Array.to_list sys.System.tasks |> List.map lift_task)

let consensus_spec (sys : System.t) ~f =
  let n = System.n_processes sys in
  let endpoints = List.init n Fun.id in
  let k = "spec" in
  let base = Services.Canonical.atomic (Spec.Seq_consensus.make ()) ~endpoints ~f ~k in
  let forward act =
    match SN.as_invoke act with
    | Some (i, k', op) when String.equal k k' && Spec.Op.is "init" op ->
      SN.init i (Spec.Op.arg op)
    | _ -> (
      match SN.as_respond act with
      | Some (i, k', resp) when String.equal k k' && Spec.Op.is "decide" resp ->
        SN.decide i (Spec.Op.arg resp)
      | _ -> act)
  in
  let backward act =
    match SN.as_init act with
    | Some (i, v) -> SN.invoke i k (Spec.Op.v "init" v)
    | None -> (
      match SN.as_decide act with
      | Some (i, v) -> SN.respond i k (Spec.Op.v "decide" v)
      | None -> act)
  in
  Ioa.Rename.apply ~forward ~backward base

let environment ~inputs =
  let n = List.length inputs in
  let input_of = Array.of_list inputs in
  (* State: canonical set of process ids still to initialize. *)
  let start = Value.set_of_list (List.init n Value.int) in
  let classify act =
    match SN.as_init act with
    | Some (i, v) when i < n && Value.equal v input_of.(i) -> Some Ioa.Automaton.Output
    | _ -> None
  in
  let step s act =
    match SN.as_init act with
    | Some (i, v)
      when i < n && Value.equal v input_of.(i) && Value.set_mem (Value.int i) s ->
      [ Value.set_remove (Value.int i) s ]
    | _ -> []
  in
  let task i =
    Ioa.Task.make
      ~label:(Printf.sprintf "env.init[%d]" i)
      ~contains:(fun act ->
        match SN.as_init act with Some (i', _) -> i = i' | None -> false)
      ~enabled:(fun s ->
        if Value.set_mem (Value.int i) s then [ SN.init i input_of.(i) ] else [])
  in
  Ioa.Automaton.make ~name:"environment" ~classify ~start:[ start ] ~step
    ~tasks:(List.init n task)

let closed ~inputs sys =
  Ioa.Compose.compose ~name:"system||env" [ automaton sys; environment ~inputs ]

let closed_spec ~inputs ~f sys =
  Ioa.Compose.compose ~name:"spec||env" [ consensus_spec sys ~f; environment ~inputs ]
