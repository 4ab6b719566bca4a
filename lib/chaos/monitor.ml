type category = Monitor_budget | Adversary

let category_name = function
  | Monitor_budget -> "monitor-budget"
  | Adversary -> "adversary"

type verdict = Pass | Fail of string | Truncated of category * string
type phase = Step | End

type t = {
  name : string;
  phase : phase;
  relevant : Model.Event.t -> bool;
  check : Model.System.t -> Model.Exec.t -> verdict;
}

let on_decide = function Model.Event.Decide _ -> true | _ -> false

let pp_values ppf vs =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",") Ioa.Value.pp)
    vs

(* Degraded-scope agreement: while a partition is in force the composed
   scope component is more than one island, so only decisions whose deciders
   were mutually reachable are held to the same value. Two decisions are
   comparable when, at the later of the two, no active partition separated
   the deciders; comparability is closed transitively (union-find) and each
   class must stay within k values. With no partition ever active there is
   one class and the check coincides with plain agreement. *)
let degraded_agreement_check k exec =
  let ds =
    Degrade.fold
      (fun acc d (st : Model.Exec.step) ->
        match st.Model.Exec.event with
        | Model.Event.Decide (pid, v) -> (pid, v, d) :: acc
        | _ -> acc)
      [] exec
  in
  let ds = Array.of_list (List.rev ds) in
  let m = Array.length ds in
  let parent = Array.init m Fun.id in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  let union i j =
    let ri = find i and rj = find j in
    if ri <> rj then parent.(ri) <- rj
  in
  for j = 0 to m - 1 do
    let pj, _, dj = ds.(j) in
    for i = 0 to j - 1 do
      let pi, _, _ = ds.(i) in
      if not (Degrade.separated dj pi pj) then union i j
    done
  done;
  let worst = ref None in
  for r = 0 to m - 1 do
    if find r = r then begin
      let values = ref [] in
      for i = 0 to m - 1 do
        if find i = r then
          let _, v, _ = ds.(i) in
          if not (List.exists (Ioa.Value.equal v) !values) then values := v :: !values
      done;
      let distinct = List.length !values in
      if distinct > k then
        match !worst with
        | Some (d0, _) when d0 >= distinct -> ()
        | _ -> worst := Some (distinct, List.rev !values)
    end
  done;
  !worst

let agreement ?(k = 1) ?(degrade = false) () =
  {
    name = (if k = 1 then "agreement" else Printf.sprintf "%d-agreement" k);
    phase = Step;
    relevant = on_decide;
    check =
      (fun _sys exec ->
        let s = Model.Exec.last_state exec in
        if Model.Properties.agreement ~k s then Pass
        else if degrade then (
          match degraded_agreement_check k exec with
          | None -> Pass
          | Some (distinct, values) ->
            Fail
              (Format.asprintf
                 "%d distinct decisions %a within one partition scope (allowed: %d)"
                 distinct pp_values values k))
        else
          Fail
            (Format.asprintf "%d distinct decisions %a (allowed: %d)"
               (List.length (Model.State.decided_values s))
               pp_values (Model.State.decided_values s) k));
  }

let validity =
  {
    name = "validity";
    phase = Step;
    relevant = on_decide;
    check =
      (fun _sys exec ->
        let s = Model.Exec.last_state exec in
        if Model.Properties.validity s then Pass
        else Fail (Format.asprintf "decided values %a not all inputs" pp_values (Model.State.decided_values s)));
  }

let per_process_agreement =
  {
    name = "per-process agreement";
    phase = Step;
    relevant = on_decide;
    check =
      (fun _sys exec ->
        if Model.Properties.per_process_agreement exec then Pass
        else Fail "some process emitted two different decide events");
  }

let f_termination ?(degrade = false) () =
  {
    name = "f-termination";
    phase = End;
    relevant = (fun _ -> true);
    check =
      (fun sys exec ->
        let s = Model.Exec.last_state exec in
        if Model.Properties.termination s then Pass
        else
          let d = Degrade.of_exec exec in
          let undecided waived =
            List.filteri
              (fun i input ->
                input <> None
                && (not (Spec.Iset.mem i s.Model.State.failed))
                && s.Model.State.decisions.(i) = None
                && not (waived i))
              (Array.to_list s.Model.State.inputs)
            |> List.length
          in
          let never_decide k =
            Fail (Printf.sprintf "%d nonfaulty initialized process(es) never decide" k)
          in
          if not degrade then
            if d.Degrade.dropped <> [] then
              (* An omitted message may be the decision's only carrier;
                 failing here would charge the protocol for the adversary's
                 theft. Duplications, delays and healed partitions give no
                 such excuse — degradation must be graceful once the network
                 recovers. *)
              Truncated (Adversary, "termination waived: message-drop fault(s) in this run")
            else if Degrade.partition_active d then
              Truncated
                (Adversary, "termination waived: partition still unhealed at end of run")
            else never_decide (undecided (fun _ -> false))
          else
            let n = Array.length s.Model.State.procs in
            let pids = List.init n Fun.id in
            let victims = Degrade.drop_victims d in
            let waived i =
              Spec.Iset.mem i victims
              || (Degrade.partition_active d
                  && ((n > 1
                      && List.for_all (fun j -> j = i || Degrade.separated d i j) pids)
                     || (Degrade.has_network_service sys i
                        && List.exists (fun j -> j <> i && Degrade.separated d i j) pids)))
            in
            let k = undecided waived in
            if k = 0 then Pass
            else if
              d.Degrade.dropped = [] && d.Degrade.mutated = [] && not d.Degrade.was_partitioned
            then
              (* No network damage: word-identical to the plain check, so the
                 crash-only differential stays pinned. *)
              never_decide k
            else
              Fail
                (Printf.sprintf
                   "%d process(es) inside the degraded guarantee never decide (live vector %s)"
                   k
                   (Analysis.Gvector.to_string (Degrade.live_vector sys d))));
  }

let linearizability ?(max_history = 240) ?(degrade = false) () =
  {
    name = "linearizability";
    phase = End;
    relevant = (fun _ -> true);
    check =
      (fun sys exec ->
        let d = Degrade.of_exec exec in
        if (not degrade) && d.Degrade.mutated <> [] then
          (* Buffer mutations detach responses from the operations that
             earned them (a dropped response orphans its invocation, a
             duplicate answers one invocation twice), so the reconstructed
             history no longer reflects what the service did. *)
          Truncated
            (Adversary, "linearizability waived: network fault(s) mutated response buffers")
        else
        (* With [degrade], only the services whose buffers were actually
           mutated lose the check; mutations do not corrupt another
           service's reconstructed history. *)
        let bad = ref None and trunc = ref [] and skipped = ref [] in
        Array.iter
          (fun (c : Model.Service.t) ->
            match c.Model.Service.seq with
            | None -> ()
            | Some seq ->
              if !bad = None then begin
                if Degrade.mutated d ~service:c.Model.Service.id then
                  skipped :=
                    Printf.sprintf "service %s: buffers mutated by the adversary, history skipped"
                      c.Model.Service.id
                    :: !skipped
                else begin
                  let h = Model.Linearize.history exec ~service:c.Model.Service.id in
                  let len = List.length h in
                  if len > max_history then
                    trunc :=
                      Printf.sprintf "service %s: history of %d events > bound %d"
                        c.Model.Service.id len max_history
                      :: !trunc
                  else if not (Model.Linearize.check seq h) then
                    bad :=
                      Some
                        (Printf.sprintf "service %s: history of %d events not linearizable"
                           c.Model.Service.id len)
                end
              end)
          sys.Model.System.services;
        match !bad with
        | Some why -> Fail why
        | None ->
          if !trunc <> [] then
            (* The monitor, not the adversary, gave up: the history outgrew
               the exponential search's budget. *)
            Truncated (Monitor_budget, String.concat "; " (!trunc @ !skipped))
          else if !skipped <> [] then Truncated (Adversary, String.concat "; " !skipped)
          else Pass);
  }

let alive_pids s =
  List.init (Array.length s.Model.State.procs) Fun.id
  |> List.filter (fun i -> not (Spec.Iset.mem i s.Model.State.failed))

let fd_completeness ~output () =
  {
    name = "fd-completeness";
    phase = End;
    relevant = (fun _ -> true);
    check =
      (fun _sys exec ->
        if Degrade.partition_active (Degrade.of_exec exec) then
          Truncated (Adversary, "completeness waived: partition still unhealed at end of run")
        else
          let s = Model.Exec.last_state exec in
          let missing =
            List.concat_map
              (fun i ->
                let suspects = output s ~pid:i in
                Spec.Iset.elements s.Model.State.failed
                |> List.filter (fun j -> not (Spec.Iset.mem j suspects))
                |> List.map (fun j -> i, j))
              (alive_pids s)
          in
          if missing = [] then Pass
          else
            Fail
              (String.concat "; "
                 (List.map
                    (fun (i, j) -> Printf.sprintf "P%d never suspects crashed P%d" i j)
                    missing)));
  }

let fd_accuracy ~output () =
  {
    name = "fd-accuracy";
    phase = End;
    relevant = (fun _ -> true);
    check =
      (fun _sys exec ->
        if Degrade.partition_active (Degrade.of_exec exec) then
          (* ◇P tolerates finitely many false suspicions while a partition
             is in force; only a healed network must converge to accuracy. *)
          Truncated (Adversary, "accuracy waived: partition still unhealed at end of run")
        else
          let s = Model.Exec.last_state exec in
          let alive = alive_pids s in
          let false_suspicions =
            List.concat_map
              (fun i ->
                let suspects = output s ~pid:i in
                List.filter_map
                  (fun j -> if Spec.Iset.mem j suspects then Some (i, j) else None)
                  alive)
              alive
          in
          if false_suspicions = [] then Pass
          else
            Fail
              (String.concat "; "
                 (List.map
                    (fun (i, j) -> Printf.sprintf "P%d still suspects alive P%d" i j)
                    false_suspicions)));
  }

let safety ?k ?(degrade = false) () = [ agreement ?k ~degrade (); validity; per_process_agreement ]

let defaults ?k ?(degrade = false) () =
  safety ?k ~degrade ()
  @ [
      f_termination ~degrade ();
      linearizability ~degrade ();
    ]

let check_phase monitors ~phase ?event sys exec =
  let applicable m =
    m.phase = phase
    && match phase, event with Step, Some e -> m.relevant e | _ -> true
  in
  let fail, truncs =
    List.fold_left
      (fun (fail, truncs) m ->
        if not (applicable m) then fail, truncs
        else
          match fail with
          | Some _ -> fail, truncs
          | None -> (
            match m.check sys exec with
            | Pass -> fail, truncs
            | Fail why -> Some (m.name, why), truncs
            | Truncated (cat, why) -> fail, (m.name, cat, why) :: truncs))
      (None, []) monitors
  in
  fail, List.rev truncs
