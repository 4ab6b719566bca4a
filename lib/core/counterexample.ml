open Ioa

type witness =
  | Agreement_violation of Model.Exec.t
  | Validity_violation of Model.Exec.t
  | Non_termination of { exec : Model.Exec.t; failed : int list; proven : bool }
  | Valence_contradiction of {
      replay : Model.Exec.t;
      decided : int;
      expected : Valence.verdict;
    }
  | Divergence of Model.Task.t list

let pp_witness ppf = function
  | Agreement_violation exec ->
    Format.fprintf ppf "agreement violation after %d steps" (Model.Exec.length exec)
  | Validity_violation exec ->
    Format.fprintf ppf "validity violation after %d steps" (Model.Exec.length exec)
  | Non_termination { exec; failed; proven } ->
    Format.fprintf ppf
      "termination violation%s: fair run of %d steps with failures {%a}, survivors never decide"
      (if proven then " (lasso: provably infinite)" else " (budget-bounded evidence)")
      (Model.Exec.length exec)
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",") Format.pp_print_int)
      failed
  | Valence_contradiction { decided; expected; _ } ->
    Format.fprintf ppf "valence contradiction: decided %d after a %a execution" decided
      Valence.pp_verdict expected
  | Divergence path ->
    Format.fprintf ppf "bivalence-preserving schedule of %d steps (divergence)"
      (List.length path)

let witness_exec = function
  | Agreement_violation exec | Validity_violation exec -> Some exec
  | Non_termination { exec; _ } -> Some exec
  | Valence_contradiction { replay; _ } -> Some replay
  | Divergence _ -> None

type pivot = Pivot_process of int | Pivot_service of int

let pp_pivot ppf = function
  | Pivot_process i -> Format.fprintf ppf "process %d (Lemma 6)" i
  | Pivot_service k -> Format.fprintf ppf "service #%d (Lemma 7)" k

type outcome = Refuted of witness | Not_refuted of string | Out_of_budget of string

let pp_outcome ppf = function
  | Refuted w -> Format.fprintf ppf "REFUTED: %a" pp_witness w
  | Not_refuted why -> Format.fprintf ppf "not refuted: %s" why
  | Out_of_budget why -> Format.fprintf ppf "out of budget: %s" why

type report = {
  staircase : (Value.t list * Valence.verdict) list;
  bivalent_inputs : Value.t list option;
  graph_states : int;
  hook : Hook.t option;
  pivot : pivot option;
  failed_set : int list;
  outcome : outcome;
}

let pp_report ppf r =
  Format.fprintf ppf "@[<v 2>boosting analysis:";
  List.iter
    (fun (inputs, verdict) ->
      Format.fprintf ppf "@,init [%a] -> %a"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";") Value.pp)
        inputs Valence.pp_verdict verdict)
    r.staircase;
  (match r.hook with
  | Some h -> Format.fprintf ppf "@,%a" Hook.pp h
  | None -> ());
  (match r.pivot with
  | Some p -> Format.fprintf ppf "@,pivot: %a" pp_pivot p
  | None -> ());
  if r.failed_set <> [] then
    Format.fprintf ppf "@,failed set J = {%a}"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",") Format.pp_print_int)
      r.failed_set;
  Format.fprintf ppf "@,%a@]" pp_outcome r.outcome

(* Execution reaching a graph vertex: initialization followed by a BFS task
   path. *)
let exec_to_vertex sys inputs analysis vertex =
  let g = Valence.graph analysis in
  match Graph.path_between g ~src:(Graph.root g) ~dst:vertex with
  | None -> None
  | Some tasks -> Model.Exec.replay_tasks sys (Model.Exec.initialized sys inputs) tasks

(* The survivors' decision predicate used as the fair run's goal. *)
let survivor_decided in_j (s : Model.State.t) =
  Array.to_list s.Model.State.decisions
  |> List.mapi (fun i d -> i, d)
  |> List.exists (fun (i, d) -> (not (in_j i)) && Option.is_some d)

(* γ′ of Lemmas 6–7: drop environment inputs, dummy steps, and all steps of
   failed processes. Service perform/output steps for failed endpoints only
   happen as dummies under the silencing policy, so dropping dummies covers
   them. *)
let gamma_prime exec ~from_length ~in_j =
  let steps = Model.Exec.steps exec in
  let suffix = List.filteri (fun idx _ -> idx >= from_length) steps in
  List.filter_map
    (fun (st : Model.Exec.step) ->
      match st.Model.Exec.label with
      | Model.Exec.L_task e ->
        if Model.Event.is_dummy st.Model.Exec.event then None
        else (
          match e with
          | Model.Task.Proc i when in_j i -> None
          | _ -> Some e)
      | Model.Exec.L_init _ | Model.Exec.L_fail _ -> None
      (* The impossibility engine only builds crash executions; network
         adversary labels exist solely in chaos runs and carry no task. *)
      | Model.Exec.L_net _ | Model.Exec.L_partition _ | Model.Exec.L_heal _ -> None)
    suffix

(* Pick J: [failures] processes including [must_include], drawn from
   [prefer] first. *)
let choose_j ~n ~failures ~must_include ~prefer =
  let set = List.sort_uniq Int.compare must_include in
  let add pool set =
    List.fold_left
      (fun set i -> if List.length set < failures && not (List.mem i set) then set @ [ i ] else set)
      set pool
  in
  let set = add prefer set in
  let set = add (List.init n Fun.id) set in
  List.sort Int.compare set

(* Can [failures] failures silence service [c]? Either all its endpoints can
   be failed, or its resilience budget is smaller than the failure budget. *)
let silenceable (c : Model.Service.t) ~failures =
  Array.length c.Model.Service.endpoints <= failures
  || c.Model.Service.resilience < failures

let run_fair_with_failures sys exec ~j_set ~run_bound =
  let exec = List.fold_left (fun exec i -> Model.Exec.append_fail sys exec i) exec j_set in
  let in_j i = List.mem i j_set in
  Fair_run.run ~policy:Model.System.dummy_policy ~max_steps:run_bound
    ~goal:(survivor_decided in_j) sys exec

(* The Lemma 6/7 construction at a located flip: [exec0] ends in the
   (v0-valent) state s0 and [exec1] in the opposite-valent s1. Returns the
   witness the construction produces. *)
let lemma67_construction sys ~exec0 ~exec1 ~j_set ~run_bound ~v0 =
  let len0 = Model.Exec.length exec0 in
  let exec, outcome = run_fair_with_failures sys exec0 ~j_set ~run_bound in
  match outcome with
  | Fair_run.Decided -> (
    (* Survivors decided; strip γ and replay after the opposite execution. *)
    let in_j i = List.mem i j_set in
    let gamma = gamma_prime exec ~from_length:len0 ~in_j in
    match Model.Exec.replay_tasks sys exec1 gamma with
    | Some replay -> (
      let decided =
        Model.State.decided_pairs (Model.Exec.last_state replay)
        |> List.filter (fun (i, _) -> not (in_j i))
      in
      match decided with
      | (_, v) :: _ ->
        Refuted
          (Valence_contradiction
             {
               replay;
               decided = Value.to_int v;
               expected =
                 (match v0 with
                 | Valence.Zero_valent -> Valence.One_valent
                 | _ -> Valence.Zero_valent);
             })
      | [] -> Not_refuted "replayed fragment produced no survivor decision")
    | None -> Not_refuted "γ′ was not replayable after the opposite-valent execution")
  | Fair_run.Lasso _ -> Refuted (Non_termination { exec; failed = j_set; proven = true })
  | Fair_run.Budget -> Refuted (Non_termination { exec; failed = j_set; proven = false })

let refute ?(max_states = 200_000) ?(run_bound = 50_000) ~failures (sys : Model.System.t) =
  let n = Model.System.n_processes sys in
  if not (0 < failures && failures < n) then
    invalid_arg "Counterexample.refute: need 0 < failures < n";
  let entries = Initialization.staircase ~max_states sys in
  let staircase =
    List.map (fun (e : Initialization.entry) -> e.Initialization.inputs, e.Initialization.verdict) entries
  in
  let base_report =
    {
      staircase;
      bivalent_inputs = None;
      graph_states = 0;
      hook = None;
      pivot = None;
      failed_set = [];
      outcome = Not_refuted "analysis incomplete";
    }
  in
  (* Any graph incomplete → report budget, results would not be exact. *)
  if
    List.exists
      (fun (e : Initialization.entry) -> not (Valence.is_exact e.Initialization.analysis))
      entries
  then
    { base_report with outcome = Out_of_budget "state-space bound hit during valence analysis" }
  else
    (* 1. Direct safety violations reachable failure-free. *)
    let direct_violation =
      List.find_map
        (fun (e : Initialization.entry) ->
          let a = e.Initialization.analysis in
          match Valence.first_disagreement a with
          | Some v ->
            Option.map
              (fun exec -> Agreement_violation exec)
              (exec_to_vertex sys e.Initialization.inputs a v)
          | None -> (
            match Valence.first_invalid_decision a with
            | Some v ->
              Option.map
                (fun exec -> Validity_violation exec)
                (exec_to_vertex sys e.Initialization.inputs a v)
            | None -> None))
        entries
    in
    match direct_violation with
    | Some w -> { base_report with outcome = Refuted w }
    | None -> (
      (* 2. Blank initialization: fair failure-free run that never decides. *)
      let blank =
        List.find_opt
          (fun (e : Initialization.entry) ->
            Valence.equal_verdict e.Initialization.verdict Valence.Blank)
          entries
      in
      match blank with
      | Some e ->
        let exec0 = Model.Exec.initialized sys e.Initialization.inputs in
        let exec, fo =
          Fair_run.run ~max_steps:run_bound ~goal:(survivor_decided (fun _ -> false)) sys
            exec0
        in
        let proven = match fo with Fair_run.Lasso _ -> true | _ -> false in
        {
          base_report with
          outcome = Refuted (Non_termination { exec; failed = []; proven });
        }
      | None -> (
        match
          List.find_opt
            (fun (e : Initialization.entry) ->
              Valence.equal_verdict e.Initialization.verdict Valence.Bivalent)
            entries
        with
        | Some entry -> (
          (* 3. Hook phase. *)
          let analysis = entry.Initialization.analysis in
          let g = Valence.graph analysis in
          let report =
            {
              base_report with
              bivalent_inputs = Some entry.Initialization.inputs;
              graph_states = Graph.size g;
            }
          in
          match Hook.find analysis with
          | Hook.Unbounded path -> { report with outcome = Refuted (Divergence path) }
          | Hook.Not_bivalent | Hook.Inexact ->
            { report with outcome = Out_of_budget "hook search preconditions lost" }
          | Hook.Hook h -> (
            let report = { report with hook = Some h } in
            (* Build the two hook-endpoint executions. *)
            let base_exec =
              Model.Exec.replay_tasks sys
                (Model.Exec.initialized sys entry.Initialization.inputs)
                h.Hook.base_path
            in
            match base_exec with
            | None -> { report with outcome = Out_of_budget "hook path not replayable" }
            | Some base_exec -> (
              let exec0 = Model.Exec.replay_tasks sys base_exec [ h.Hook.e ] in
              let exec1 = Model.Exec.replay_tasks sys base_exec [ h.Hook.e'; h.Hook.e ] in
              match exec0, exec1 with
              | Some exec0, Some exec1 -> (
                let s0 = Model.Exec.last_state exec0 in
                let s1 = Model.Exec.last_state exec1 in
                (* Claims 3-5 of Lemma 8 guarantee that the hook's endpoint
                   states are j-similar (process pivot, or register cases
                   possibly after one extra e' step) or k-similar (service
                   pivot); pick the applicable lemma accordingly. *)
                let plan =
                  match Similarity.j_witnesses sys s0 s1 with
                  | j :: _ ->
                    Some
                      ( Pivot_process j,
                        choose_j ~n ~failures ~must_include:[ j ] ~prefer:[],
                        exec0 )
                  | [] -> (
                    let silenceable_k =
                      List.find_opt
                        (fun k ->
                          silenceable sys.Model.System.services.(k) ~failures)
                        (Similarity.k_witnesses sys s0 s1)
                    in
                    match silenceable_k with
                    | Some k ->
                      let c = sys.Model.System.services.(k) in
                      let eps = Array.to_list c.Model.Service.endpoints in
                      let must = if List.length eps <= failures then eps else [] in
                      Some
                        ( Pivot_service k,
                          choose_j ~n ~failures ~must_include:must ~prefer:eps,
                          exec0 )
                    | None -> (
                      (* Claim 5 read-vs-write case: e'(s0) and s1 are
                         j-similar; e'(α0) is still v0-valent. *)
                      match Model.Exec.replay_tasks sys exec0 [ h.Hook.e' ] with
                      | None -> None
                      | Some exec0' -> (
                        match
                          Similarity.j_witnesses sys (Model.Exec.last_state exec0') s1
                        with
                        | j :: _ ->
                          Some
                            ( Pivot_process j,
                              choose_j ~n ~failures ~must_include:[ j ] ~prefer:[],
                              exec0' )
                        | [] -> None)))
                in
                match plan with
                | None ->
                  {
                    report with
                    outcome =
                      Not_refuted
                        (Printf.sprintf
                           "hook endpoints are not j-/k-similar for any silenceable pivot: \
                            the system may genuinely be %d-resilient"
                           failures);
                  }
                | Some (pivot, j_set, exec0) ->
                  {
                    report with
                    pivot = Some pivot;
                    failed_set = j_set;
                    outcome =
                      lemma67_construction sys ~exec0 ~exec1 ~j_set ~run_bound
                        ~v0:h.Hook.v0;
                  })
              | _ -> { report with outcome = Out_of_budget "hook edges not replayable" })))
        | None -> (
          (* 4. No bivalent initialization: Lemma 4 flip argument. *)
          match Initialization.staircase_flip entries with
          | None ->
            {
              base_report with
              outcome =
                Not_refuted
                  "no bivalent initialization and no 0/1 staircase flip (validity would be \
                   violated — check inputs)";
            }
          | Some (a, b) ->
            (* The two initializations differ in exactly one process's input. *)
            let flip_index =
              let rec diff i xs ys =
                match xs, ys with
                | x :: xs', y :: ys' -> if Value.equal x y then diff (i + 1) xs' ys' else i
                | _ -> invalid_arg "staircase flip: same inputs"
              in
              diff 0 a.Initialization.inputs b.Initialization.inputs
            in
            let j_set = choose_j ~n ~failures ~must_include:[ flip_index ] ~prefer:[] in
            let exec0 = Model.Exec.initialized sys a.Initialization.inputs in
            let exec1 = Model.Exec.initialized sys b.Initialization.inputs in
            let outcome =
              lemma67_construction sys ~exec0 ~exec1 ~j_set ~run_bound
                ~v0:a.Initialization.verdict
            in
            { base_report with pivot = Some (Pivot_process flip_index); failed_set = j_set; outcome })))
