open Ioa

type row = {
  experiment : string;
  label : string;
  expected : string;
  measured : string;
  ok : bool;
}

let pp_row ppf r =
  Format.fprintf ppf "%-4s %-42s | expected: %-38s | measured: %-44s | %s" r.experiment
    r.label r.expected r.measured
    (if r.ok then "OK" else "MISMATCH")

let pp_table ppf rows =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_row)
    rows

let row experiment label expected measured ok = { experiment; label; expected; measured; ok }

(* --- helpers --- *)

let initialized sys inputs =
  List.fold_left
    (fun (exec, i) v -> Model.Exec.append_init sys exec i (Value.int v), i + 1)
    (Model.Exec.init (Model.System.initial_state sys), 0)
    inputs
  |> fst

let random_consensus_runs ?(policy = Model.System.dummy_policy) ~sys ~inputs ~seeds
    ~max_failures ~k () =
  let ok = ref 0 in
  for seed = 0 to seeds - 1 do
    let exec0 = initialized sys inputs in
    let sched = Model.Scheduler.random ~seed ~fail_prob:0.02 ~max_failures sys in
    let exec, _ =
      Model.Scheduler.run ~policy ~stop_when:Model.Properties.termination ~max_steps:60_000
        sys exec0 sched
    in
    let r = Model.Properties.check ~k (Model.Exec.last_state exec) in
    if
      r.Model.Properties.agreement && r.Model.Properties.validity
      && r.Model.Properties.termination
      && Model.Properties.per_process_agreement exec
    then incr ok
  done;
  !ok

let outcome_summary (report : Engine.Counterexample.report) =
  Format.asprintf "%a" Engine.Counterexample.pp_outcome report.Engine.Counterexample.outcome

let refuted_nonterm (report : Engine.Counterexample.report) =
  match report.Engine.Counterexample.outcome with
  | Engine.Counterexample.Refuted (Engine.Counterexample.Non_termination { proven; _ }) ->
    proven
  | _ -> false

let refuted_agreement (report : Engine.Counterexample.report) =
  match report.Engine.Counterexample.outcome with
  | Engine.Counterexample.Refuted (Engine.Counterexample.Agreement_violation _) -> true
  | _ -> false

let not_refuted (report : Engine.Counterexample.report) =
  match report.Engine.Counterexample.outcome with
  | Engine.Counterexample.Not_refuted _ -> true
  | _ -> false

(* --- E1 --- *)

let e1_canonical_objects () =
  let totality =
    let types =
      [
        "consensus", Spec.Seq_consensus.make ();
        "k-set(2,4)", Spec.Seq_kset.make ~k:2 ~n:4;
        ( "read/write",
          Spec.Seq_register.make ~values:[ Value.int 0; Value.int 1 ] ~initial:(Value.int 0) );
        "test&set", Spec.Seq_tas.make ();
        "compare&swap", Spec.Seq_cas.make ~values:[ Value.int 0; Value.int 1 ] ~initial:(Value.int 0);
        "fifo-queue", Spec.Seq_queue.make ~elements:[ Value.str "a"; Value.str "b" ] ();
      ]
    in
    let bad =
      List.filter (fun (_, t) -> Result.is_error (Spec.Seq_type.check_total t)) types
    in
    row "E1" "sequential type totality (6 types)" "all total"
      (Printf.sprintf "%d/6 total" (6 - List.length bad))
      (bad = [])
  in
  let axioms =
    let sys = Protocols.Direct.system ~n:3 ~f:2 in
    let ok =
      random_consensus_runs ~sys ~inputs:[ 0; 1; 1 ] ~seeds:20 ~max_failures:2 ~k:1 ()
    in
    row "E1" "canonical consensus object axioms (Thm 11)" "20/20 runs satisfy axioms"
      (Printf.sprintf "%d/20 runs ok" ok)
      (ok = 20)
  in
  let implements =
    let sys = Protocols.Direct.system ~n:2 ~f:1 in
    let vec = [ Value.int 1; Value.int 0 ] in
    let impl = Model.To_ioa.closed ~inputs:vec sys in
    let spec = Model.To_ioa.closed_spec ~inputs:vec ~f:1 sys in
    let verdict =
      Ioa.Implements.check_traces ~impl ~spec
        ~inputs:[ Services.Sig_names.fail 0; Services.Sig_names.fail 1 ]
        ~max_states:300_000
    in
    row "E1" "§2.2.4: system implements canonical consensus object"
      "finite-trace inclusion holds"
      (Format.asprintf "%a" Ioa.Implements.pp_verdict verdict)
      (match verdict with Ioa.Implements.Included -> true | _ -> false)
  in
  [ totality; axioms; implements ]

(* --- E2 --- *)

let e2_bivalent_initialization () =
  List.map
    (fun (n, f) ->
      let sys = Protocols.Direct.system ~n ~f in
      let entries = Engine.Initialization.staircase sys in
      let verdicts =
        List.map
          (fun e ->
            Format.asprintf "%a" Engine.Valence.pp_verdict e.Engine.Initialization.verdict)
          entries
      in
      let has_bivalent =
        List.exists
          (fun e ->
            Engine.Valence.equal_verdict e.Engine.Initialization.verdict
              Engine.Valence.Bivalent)
          entries
      in
      row "E2"
        (Printf.sprintf "staircase direct n=%d f=%d" n f)
        "some α_i bivalent (Lemma 4)"
        (String.concat ", " verdicts)
        has_bivalent)
    [ 2, 0; 3, 0; 3, 1 ]

(* --- E3 --- *)

let e3_hook_search () =
  List.map
    (fun (name, sys) ->
      match Engine.Initialization.find_bivalent sys with
      | None -> row "E3" name "hook found" "no bivalent initialization" false
      | Some entry -> (
        let a = entry.Engine.Initialization.analysis in
        let g = Engine.Valence.graph a in
        match Engine.Hook.find a, Engine.Hook.find_brute a with
        | Engine.Hook.Hook h, Some h' ->
          let checked =
            Result.is_ok (Engine.Hook.check a h) && Result.is_ok (Engine.Hook.check a h')
          in
          row "E3" name "hook found; Fig. 3 and brute-force agree"
            (Printf.sprintf "hook at depth %d over %d states" (List.length h.Engine.Hook.base_path)
               (Engine.Graph.size g))
            checked
        | r, _ ->
          row "E3" name "hook found"
            (Format.asprintf "%a" Engine.Hook.pp_result r)
            false))
    [
      "direct n=2 f=0", Protocols.Direct.system ~n:2 ~f:0;
      "direct n=3 f=0", Protocols.Direct.system ~n:3 ~f:0;
      "tob n=2 f=0", Protocols.Tob_direct.system ~n:2 ~f:0;
    ]

(* --- E4 --- *)

let e4_similarity_commutation () =
  let sys = Protocols.Direct.system ~n:2 ~f:0 in
  match Engine.Initialization.find_bivalent sys with
  | None -> [ row "E4" "direct n=2 f=0" "bivalent init" "missing" false ]
  | Some entry -> (
    let a = entry.Engine.Initialization.analysis in
    let violations = Engine.Commute.check_disjoint a in
    let commute_row =
      row "E4" "disjoint-participant commutation (Lemma 8 Claim 2)" "0 violations"
        (Printf.sprintf "%d violations over %d states" (List.length violations)
           (Engine.Graph.size (Engine.Valence.graph a)))
        (violations = [])
    in
    match Engine.Hook.find a with
    | Engine.Hook.Hook h ->
      let g = Engine.Valence.graph a in
      let s0 = Engine.Graph.state g h.Engine.Hook.alpha0 in
      let s1 = Engine.Graph.state g h.Engine.Hook.alpha1 in
      let ks = Engine.Similarity.k_witnesses sys s0 s1 in
      let intersect = Engine.Commute.check_hook_intersection a h in
      [
        commute_row;
        row "E4" "hook endpoints k-similar (Claim 4)" "pivot service is a k-witness"
          (Printf.sprintf "k-witnesses: {%s}"
             (String.concat "," (List.map string_of_int ks)))
          (ks <> []);
        row "E4" "hook participants intersect (Claims 1-2)" "intersection nonempty"
          (match intersect with Ok () -> "nonempty" | Error e -> e)
          (Result.is_ok intersect);
      ]
    | r ->
      [ commute_row; row "E4" "hook" "found" (Format.asprintf "%a" Engine.Hook.pp_result r) false ])

(* --- E5 --- *)

let e5_theorem2 () =
  let refute ~failures sys = Engine.Counterexample.refute ~failures sys in
  [
    (let r = refute ~failures:1 (Protocols.Direct.system ~n:2 ~f:0) in
     row "E5" "direct n=2, f=0 object, claim 1-resilient" "refuted (termination, lasso)"
       (outcome_summary r) (refuted_nonterm r));
    (let r = refute ~failures:1 (Protocols.Direct.system ~n:3 ~f:0) in
     row "E5" "direct n=3, f=0 object, claim 1-resilient" "refuted (termination, lasso)"
       (outcome_summary r) (refuted_nonterm r));
    (let r = refute ~failures:2 (Protocols.Direct.system ~n:3 ~f:1) in
     row "E5" "direct n=3, f=1 object, claim 2-resilient" "refuted (termination, lasso)"
       (outcome_summary r) (refuted_nonterm r));
    (let r = refute ~failures:1 (Protocols.Direct.system ~n:3 ~f:1) in
     row "E5" "direct n=3, f=1 object, claim 1-resilient (boundary)" "NOT refuted"
       (outcome_summary r) (not_refuted r));
    (let r = refute ~failures:1 (Protocols.Direct.system ~n:2 ~f:1) in
     row "E5" "direct n=2, wait-free object, claim 1-resilient (boundary)" "NOT refuted"
       (outcome_summary r) (not_refuted r));
    (let r = refute ~failures:1 (Protocols.Split.system ~n:2) in
     row "E5" "split objects n=2" "refuted (agreement violation)" (outcome_summary r)
       (refuted_agreement r));
    (let r = refute ~failures:1 (Protocols.Tas_consensus.system ~f:0) in
     row "E5" "test&set consensus, f=0 object, claim 1-resilient" "refuted (termination, lasso)"
       (outcome_summary r) (refuted_nonterm r));
    (let r = refute ~failures:1 (Protocols.Tas_consensus.system ~f:1) in
     row "E5" "test&set consensus, wait-free object (boundary)" "NOT refuted"
       (outcome_summary r) (not_refuted r));
    (let r = refute ~failures:1 (Protocols.Queue_consensus.system ~f:0) in
     row "E5" "queue consensus, f=0 object, claim 1-resilient" "refuted (termination, lasso)"
       (outcome_summary r) (refuted_nonterm r));
    (let r = refute ~failures:1 (Protocols.Queue_consensus.system ~f:1) in
     row "E5" "queue consensus, wait-free object (boundary)" "NOT refuted"
       (outcome_summary r) (not_refuted r));
  ]

(* --- E6 --- *)

let e6_kset_boosting () =
  List.map
    (fun (groups, group_size) ->
      let n = groups * group_size in
      let sys = Protocols.Kset_boost.system ~groups ~group_size in
      let ok =
        random_consensus_runs ~sys ~inputs:(List.init n Fun.id) ~seeds:20
          ~max_failures:(n - 1) ~k:groups ()
      in
      row "E6"
        (Printf.sprintf "%d-set consensus, %d procs, ≤%d failures (§4)" groups n (n - 1))
        "20/20 runs: ≤k agreement, validity, termination"
        (Printf.sprintf "%d/20 runs ok" ok)
        (ok = 20))
    [ 2, 2; 2, 3; 3, 2 ]

(* --- E7 --- *)

let e7_theorem9_tob () =
  let witness =
    List.map
      (fun n ->
        let r = Engine.Counterexample.refute ~failures:1 (Protocols.Tob_direct.system ~n ~f:0) in
        row "E7"
          (Printf.sprintf "TOB-based consensus n=%d, f=0 TOB (Thm 9)" n)
          "refuted (termination, lasso)" (outcome_summary r) (refuted_nonterm r))
      [ 2; 3 ]
  in
  let boundary =
    let r = Engine.Counterexample.refute ~failures:1 (Protocols.Tob_direct.system ~n:2 ~f:1) in
    row "E7" "TOB-based consensus n=2, wait-free TOB (boundary)" "NOT refuted"
      (outcome_summary r) (not_refuted r)
  in
  witness @ [ boundary ]

(* --- E8 --- *)

let e8_failure_detectors () =
  (* Drive a P service with listeners; check accuracy at every step and
     completeness at the end. *)
  let listener ~fd_id pid =
    Model.Process.make ~pid
      ~start:(Spec.Iset.to_value Spec.Iset.empty)
      ~step:(fun s -> Model.Process.Internal s)
      ~on_init:(fun s _ -> s)
      ~on_response:(fun s ~service b ->
        if String.equal service fd_id && Spec.Op.is "suspect" b then Spec.Op.arg b else s)
      ()
  in
  let n = 3 in
  let endpoints = List.init n Fun.id in
  let sys =
    Model.System.make
      ~processes:(List.init n (listener ~fd_id:"fd"))
      ~services:
        [
          Model.Service.general ~coalesce:true ~id:"fd" ~endpoints ~f:(n - 1)
            (Services.Perfect_fd.make ~endpoints);
        ]
  in
  let exec0 = Model.Exec.init (Model.System.initial_state sys) in
  let sched = Model.Scheduler.round_robin ~faults:[ (20, 1) ] ~quiesce:false sys in
  let exec, _ = Model.Scheduler.run ~max_steps:2_000 sys exec0 sched in
  let accurate = ref true in
  List.iter
    (fun (step : Model.Exec.step) ->
      let s = step.Model.Exec.state in
      List.iter
        (fun pid ->
          if not (Spec.Iset.mem pid s.Model.State.failed) then begin
            let suspects = Spec.Iset.of_value s.Model.State.procs.(pid) in
            if not (Spec.Iset.subset suspects s.Model.State.failed) then accurate := false
          end)
        endpoints)
    (Model.Exec.steps exec);
  let final = Model.Exec.last_state exec in
  let complete =
    List.for_all
      (fun pid ->
        Spec.Iset.mem pid final.Model.State.failed
        || Spec.Iset.mem 1 (Spec.Iset.of_value final.Model.State.procs.(pid)))
      endpoints
  in
  let needs_p =
    let sys = Protocols.Fd_boost.system_paranoid_ep ~n:2 in
    let r = Engine.Counterexample.refute ~max_states:500_000 ~failures:1 sys in
    row "E8" "P vs ◇P: rotating coordinator under adversarial ◇P"
      "agreement violated (the algorithm needs strong accuracy)"
      (outcome_summary r) (refuted_agreement r)
  in
  [
    row "E8" "P: strong accuracy (every step)" "suspects ⊆ failed always"
      (if !accurate then "held at every step" else "violated")
      !accurate;
    row "E8" "P: strong completeness" "crash eventually suspected by all survivors"
      (if complete then "held" else "violated")
      complete;
    needs_p;
  ]

(* --- E9 --- *)

let e9_fd_boosting () =
  let consensus =
    List.map
      (fun n ->
        let sys = Protocols.Fd_boost.system ~n in
        let ok =
          random_consensus_runs ~sys ~inputs:(List.init n Fun.id) ~seeds:15
            ~max_failures:(n - 1) ~k:1 ()
        in
        row "E9"
          (Printf.sprintf "consensus n=%d from pairwise 1-resilient P (§6.3), ≤%d failures" n
             (n - 1))
          "15/15 runs: agreement, validity, termination"
          (Printf.sprintf "%d/15 runs ok" ok)
          (ok = 15))
      [ 3; 4 ]
  in
  let network =
    let sys = Protocols.Fd_network.system ~n:3 in
    let exec0 = Model.Exec.init (Model.System.initial_state sys) in
    let sched = Model.Scheduler.round_robin ~faults:[ (30, 1) ] ~quiesce:false sys in
    let exec, _ = Model.Scheduler.run ~max_steps:5_000 sys exec0 sched in
    let s = Model.Exec.last_state exec in
    let good =
      List.for_all
        (fun pid ->
          Spec.Iset.mem pid s.Model.State.failed
          || Spec.Iset.equal (Protocols.Fd_network.output_of s ~pid) s.Model.State.failed)
        [ 0; 1; 2 ]
    in
    row "E9" "emulated wait-free n-process P from pairwise P + registers"
      "output = failed set at all survivors"
      (if good then "exact" else "wrong")
      good
  in
  consensus @ [ network ]

(* --- E10 --- *)

let e10_theorem10 () =
  [
    (let r = Engine.Counterexample.refute ~failures:1 (Protocols.Fd_allconnected.system ~n:3 ~f:0) in
     row "E10" "all-connected 0-resilient P + registers, claim 1-resilient (Thm 10)"
       "refuted (termination, lasso)" (outcome_summary r) (refuted_nonterm r));
    (let r = Engine.Counterexample.refute ~failures:2 (Protocols.Fd_allconnected.system ~n:3 ~f:1) in
     row "E10" "all-connected 1-resilient P + registers, claim 2-resilient (Thm 10)"
       "refuted (termination, lasso)" (outcome_summary r) (refuted_nonterm r));
  ]

(* --- E11 --- *)

let e11_flp_instance () =
  [
    (let r = Engine.Counterexample.refute ~failures:1 (Protocols.Register_vote.system ()) in
     row "E11" "racy register voting (registers only)" "refuted (agreement violation)"
       (outcome_summary r) (refuted_agreement r));
    (let r = Engine.Counterexample.refute ~failures:1 (Protocols.Register_wait.system ()) in
     row "E11" "blocking register voting (registers only)" "refuted (termination, lasso)"
       (outcome_summary r) (refuted_nonterm r));
  ]

(* --- E12: message passing (the TR [2] / FLP setting) --- *)

let e12_message_passing () =
  [
    (let r = Engine.Counterexample.refute ~failures:1 (Protocols.Mp_consensus.all_system ~n:3) in
     row "E12" "mp consensus, wait for all n values (safe)" "refuted (termination, lasso)"
       (outcome_summary r) (refuted_nonterm r));
    (let r =
       Engine.Counterexample.refute ~failures:1 (Protocols.Mp_consensus.quorum_system ~n:3)
     in
     row "E12" "mp consensus, wait for n-1 values (live)" "refuted (agreement violation)"
       (outcome_summary r) (refuted_agreement r));
  ]

(* --- E13: the universal construction (§1) --- *)

let e13_universal () =
  let n = 3 in
  let sys =
    Protocols.Universal.system ~obj:(Spec.Seq_counter.make ())
      ~ops:(List.init n (fun _ -> Spec.Seq_counter.increment))
  in
  let ok = ref 0 in
  for seed = 0 to 14 do
    let exec0 = initialized sys (List.init n Fun.id) in
    let sched = Model.Scheduler.random ~seed ~fail_prob:0.02 ~max_failures:(n - 1) sys in
    let exec, _ =
      Model.Scheduler.run ~policy:Model.System.dummy_policy
        ~stop_when:Model.Properties.termination ~max_steps:60_000 sys exec0 sched
    in
    let final = Model.Exec.last_state exec in
    let resps =
      List.map (fun (_, v) -> Spec.Op.int_arg v) (Model.State.decided_pairs final)
    in
    if
      Model.Properties.termination final
      && List.length resps = List.length (List.sort_uniq Int.compare resps)
    then incr ok
  done;
  [
    row "E13" "wait-free counter from consensus slots (universal construction)"
      "15/15 runs: wait-free, responses distinct (linearizable)"
      (Printf.sprintf "%d/15 runs ok" !ok)
      (!ok = 15);
  ]

let all () =
  List.concat
    [
      e1_canonical_objects ();
      e2_bivalent_initialization ();
      e3_hook_search ();
      e4_similarity_commutation ();
      e5_theorem2 ();
      e6_kset_boosting ();
      e7_theorem9_tob ();
      e8_failure_detectors ();
      e9_fd_boosting ();
      e10_theorem10 ();
      e11_flp_instance ();
      e12_message_passing ();
      e13_universal ();
    ]
