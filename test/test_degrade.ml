(* Guarantee-vector degradation (ISSUE 6). Three pins:

   1. the heal/re-engage matrix — a partition degrades the live vector and
      the degraded monitors waive exactly the processes the damage excuses;
      a heal (before, at, or beyond the run's end) restores the full vector
      and with it the full termination demand;
   2. crash-only executions are untouched: the degrade-aware monitors give
      the same verdicts, word for word, as the waiver-based ones;
   3. the truncation-category split (monitor-budget vs adversary) — the
      monitor giving up is never conflated with the adversary earning a
      degraded check. *)

module G = Analysis.Gvector

let direct_f1 () = Protocols.Direct.system ~n:2 ~f:1
let tob ~f () = Protocols.Tob_direct.system ~n:2 ~f

let vector_testable = Alcotest.testable G.pp G.equal

(* --- the lattice --- *)

let test_lattice () =
  let sys = direct_f1 () in
  let v = Analysis.Guarantee.compose sys in
  Alcotest.check vector_testable "top is the meet identity" v (G.meet G.top v);
  Alcotest.check vector_testable "meet is idempotent" v (G.meet v v);
  let d = { v with G.recency = G.Rec_none; termination = G.Term_none } in
  Alcotest.check vector_testable "meet is pointwise weakest" d (G.meet v d);
  Alcotest.(check bool) "degraded leq full" true (G.leq d v);
  Alcotest.(check bool) "full not leq degraded" false (G.leq v d)

(* --- static gaps: the boosts and only the boosts --- *)

let test_static_gaps () =
  let gap_components name =
    match Protocols.Registry.find name with
    | None -> Alcotest.failf "no registry entry %s" name
    | Some e ->
      let p = Protocols.Registry.default_params in
      let sys = e.Protocols.Registry.build p in
      let claim = e.Protocols.Registry.claims p in
      Analysis.Guarantee.gaps ~claim sys
      |> List.map (fun (g : Analysis.Guarantee.gap) -> g.Analysis.Guarantee.component)
  in
  Alcotest.(check (list string)) "tob over-claims termination (Thm 9)"
    [ "termination" ] (gap_components "tob");
  Alcotest.(check (list string)) "kset over-claims scope (Thm 2)"
    [ "scope" ] (gap_components "kset");
  List.iter
    (fun name ->
      Alcotest.(check (list string)) (name ^ " claims honestly") [] (gap_components name))
    [ "direct"; "register-vote"; "mp-quorum"; "universal" ]

(* --- the absorb matrix: net damage x heal timing, at the vector level --- *)

let test_absorb_matrix () =
  let sys = direct_f1 () in
  let baseline = Analysis.Guarantee.compose sys in
  let blocks = [ [ 0 ] ] in
  let net kind = Model.Event.Net { service = "cons"; endpoint = 0; kind } in
  List.iter
    (fun (label, kind, survives_heal) ->
      let d0 = Chaos.Degrade.absorb Chaos.Degrade.empty (net kind) in
      let d1 = Chaos.Degrade.absorb d0 (Model.Event.Partition blocks) in
      let partitioned = Chaos.Degrade.live_vector sys d1 in
      Alcotest.(check bool)
        (label ^ ": partition cuts the scope") true
        (partitioned.G.scope > baseline.G.scope);
      Alcotest.(check bool)
        (label ^ ": degraded vector sits strictly below baseline") true
        (G.leq partitioned baseline && not (G.equal partitioned baseline));
      let d2 = Chaos.Degrade.absorb d1 (Model.Event.Heal blocks) in
      let healed = Chaos.Degrade.live_vector sys d2 in
      Alcotest.(check int)
        (label ^ ": heal restores the scope") baseline.G.scope healed.G.scope;
      Alcotest.(check bool)
        (label ^ ": net damage survives the heal iff it stole state")
        survives_heal
        (not (G.equal healed baseline)))
    [
      (* A stolen response is gone for good; dup/delay only perturb timing. *)
      "drop", Model.Event.Drop, true;
      "dup", Model.Event.Duplicate, true;
      "delay", Model.Event.Delay 2, true;
    ];
  (* A pure partition + heal restores the baseline exactly. *)
  let d =
    List.fold_left Chaos.Degrade.absorb Chaos.Degrade.empty
      [ Model.Event.Partition blocks; Model.Event.Heal blocks ]
  in
  Alcotest.check vector_testable "partition+heal round-trips to baseline" baseline
    (Chaos.Degrade.live_vector sys d)

(* --- the heal/re-engage matrix on real runs --- *)

(* Partition isolating P1, healed before / at / beyond the end of the run.
   The degrade-aware termination monitor must enforce (and see satisfied)
   the full demand whenever the heal lands inside the run, and waive exactly
   the isolated process - never the whole property - when it does not. *)
let test_heal_matrix () =
  let sys = direct_f1 () in
  let run ~degrade ~heal_at ~max_steps =
    Chaos.Runner.run
      ~monitors:[ Chaos.Monitor.f_termination ~degrade () ]
      ~max_steps
      ~schedule:
        (Chaos.Schedule.make
           [ Chaos.Schedule.partition ~step:0 ~blocks:[ [ 1 ] ] ~heal_at ])
      sys
  in
  (* Healed before the end: full demand re-engaged, satisfied, no waiver. *)
  let r = run ~degrade:true ~heal_at:5 ~max_steps:500 in
  (match r.Chaos.Runner.stop with
  | Chaos.Runner.Violation _ -> Alcotest.fail "healed: must terminate"
  | _ -> ());
  Alcotest.(check bool) "healed: no waiver" true (r.Chaos.Runner.monitor_truncations = []);
  (* Trajectory: degraded at the partition, baseline again at the heal. *)
  let baseline, changes = Chaos.Degrade.trajectory sys r.Chaos.Runner.exec in
  Alcotest.check vector_testable "trajectory baseline is the composed vector"
    (Analysis.Guarantee.compose sys) baseline;
  (match changes with
  | [ (_, Model.Event.Partition _, cut); (_, Model.Event.Heal _, restored) ] ->
    Alcotest.(check bool) "cut vector strictly below baseline" true
      (G.leq cut baseline && not (G.equal cut baseline));
    Alcotest.check vector_testable "heal restores the baseline" baseline restored
  | _ -> Alcotest.failf "expected partition+heal trajectory, got %d change(s)"
           (List.length changes));
  (* Heal at / beyond the run's end: P1 is excused, P0 is still on the hook
     (and decides) - a pass with no wholesale waiver, where the old monitor
     declined to judge. *)
  List.iter
    (fun heal_at ->
      let r = run ~degrade:true ~heal_at ~max_steps:500 in
      (match r.Chaos.Runner.stop with
      | Chaos.Runner.Violation { reason; _ } ->
        Alcotest.failf "unhealed: P0 decided, P1 excused - no violation, got %s" reason
      | _ -> ());
      Alcotest.(check bool) "unhealed: degraded monitor decides, no waiver" true
        (r.Chaos.Runner.monitor_truncations = []);
      let old = run ~degrade:false ~heal_at ~max_steps:500 in
      Alcotest.(check bool) "unhealed: waiver-based monitor declines" true
        (List.exists
           (fun (m, cat, _) -> m = "f-termination" && cat = Chaos.Monitor.Adversary)
           old.Chaos.Runner.monitor_truncations);
      let _, changes = Chaos.Degrade.trajectory sys r.Chaos.Runner.exec in
      match List.rev changes with
      | (_, _, last) :: _ ->
        Alcotest.(check bool) "unhealed: trajectory ends degraded" false
          (G.equal last (Analysis.Guarantee.compose sys))
      | [] -> Alcotest.fail "unhealed: expected a trajectory change")
    [ 500; 9_999 ];
  (* A partition healed inside the run excuses nothing: with P0 crashed
     before anyone decides, P1 and P2 stall, and the degrade-aware monitor
     must say so just as the plain one does. *)
  let sys = Protocols.Direct.system ~n:3 ~f:0 in
  let schedule =
    Chaos.Schedule.make
      [
        Chaos.Schedule.crash ~step:0 ~pid:0;
        Chaos.Schedule.partition ~step:1 ~blocks:[ [ 1 ]; [ 2 ] ] ~heal_at:5;
      ]
  in
  List.iter
    (fun degrade ->
      let r =
        Chaos.Runner.run
          ~monitors:[ Chaos.Monitor.f_termination ~degrade () ]
          ~max_steps:500 ~schedule sys
      in
      match r.Chaos.Runner.stop with
      | Chaos.Runner.Violation { monitor = "f-termination"; _ } -> ()
      | s ->
        Alcotest.failf
          "healed partition, degrade=%b: expected an f-termination violation, got %a" degrade
          Chaos.Runner.pp_stop s)
    [ false; true ]

(* The end-of-run vector and the trajectory are one fold: [describe] is the
   trajectory's last vector (the baseline when nothing changed it), on
   seeded mixed-fault runs where partitions heal before, at or after the
   end. *)
let test_describe_is_trajectory_end () =
  let kinds =
    Chaos.Schedule.[ Crash_k; Partition_k; Drop_k; Dup_k; Delay_k ]
  in
  let healed = ref 0 in
  List.iter
    (fun (name, sys) ->
      for seed = 0 to 39 do
        let r, schedule = Chaos.Rand.run ~seed ~max_faults:3 ~kinds ~max_steps:2_000 sys in
        let exec = r.Chaos.Runner.exec in
        let baseline, changes = Chaos.Degrade.trajectory sys exec in
        let last = match List.rev changes with (_, _, v) :: _ -> v | [] -> baseline in
        if List.exists (function _, Model.Event.Heal _, _ -> true | _ -> false) changes then
          incr healed;
        Alcotest.(check string)
          (Printf.sprintf "%s seed %d (%s)" name seed (Chaos.Schedule.to_string schedule))
          (G.to_string last) (Chaos.Degrade.describe sys exec)
      done)
    [
      "direct", Protocols.Direct.system ~n:3 ~f:1;
      "tob", tob ~f:1 ();
      "mp-quorum", Protocols.Mp_consensus.quorum_system ~n:3;
    ];
  Alcotest.(check bool) "some run heals a partition" true (!healed > 0)

(* The tob boost under a stolen response: with degrade-aware monitors the
   old wholesale waiver becomes an explicit verdict carrying the live
   vector, whose termination component the theft voided. *)
let test_tob_drop_degrades () =
  let sys = tob ~f:1 () in
  let r =
    Chaos.Runner.run
      ~monitors:(Chaos.Monitor.defaults ~degrade:true ())
      ~max_steps:4_000
      ~schedule:
        (Chaos.Schedule.make [ Chaos.Schedule.drop ~step:7 ~service:"tob" ~endpoint:0 ])
      sys
  in
  (match r.Chaos.Runner.stop with
  | Chaos.Runner.Violation { monitor; _ } ->
    Alcotest.(check string) "agreement breaks even degraded" "agreement" monitor
  | _ -> Alcotest.fail "tob must fall to the stolen response");
  let live = Chaos.Degrade.live_vector sys (Chaos.Degrade.of_exec r.Chaos.Runner.exec) in
  Alcotest.(check bool) "the theft voids the termination component" true
    (live.G.termination = G.Term_none);
  Alcotest.(check bool) "describe renders the live vector" true
    (live |> G.to_string |> String.length > 0)

(* --- pin 2: crash-only identity --- *)

let test_crash_only_identity () =
  List.iter
    (fun (sys, step, pid) ->
      let schedule = Chaos.Schedule.make [ Chaos.Schedule.crash ~step ~pid ] in
      let run monitors = Chaos.Runner.run ~monitors ~max_steps:2_000 ~schedule sys in
      let old_r = run [ Chaos.Monitor.f_termination () ] in
      let new_r = run [ Chaos.Monitor.f_termination ~degrade:true () ] in
      Alcotest.(check bool) "crash-only stop identical" true
        (old_r.Chaos.Runner.stop = new_r.Chaos.Runner.stop);
      Alcotest.(check bool) "crash-only truncations identical" true
        (old_r.Chaos.Runner.monitor_truncations = new_r.Chaos.Runner.monitor_truncations))
    [
      direct_f1 (), 0, 0;
      direct_f1 (), 3, 1;
      tob ~f:0 (), 0, 0;
      tob ~f:0 (), 2, 1;
    ]

(* --- pin 3: truncation categories (the satellite-2 regression) --- *)

let test_truncation_categories () =
  Alcotest.(check string) "category names" "monitor-budget"
    (Chaos.Monitor.category_name Chaos.Monitor.Monitor_budget);
  Alcotest.(check string) "category names" "adversary"
    (Chaos.Monitor.category_name Chaos.Monitor.Adversary);
  (* The monitor giving up (history outgrew the search budget) is
     monitor-budget... *)
  let r =
    Chaos.Runner.run
      ~monitors:[ Chaos.Monitor.linearizability ~max_history:1 () ]
      ~max_steps:2_000 ~schedule:(Chaos.Schedule.make []) (direct_f1 ())
  in
  Alcotest.(check bool) "history bound is monitor-budget" true
    (List.exists
       (fun (m, cat, _) -> m = "linearizability" && cat = Chaos.Monitor.Monitor_budget)
       r.Chaos.Runner.monitor_truncations);
  (* ...while a waiver earned by adversary damage is adversary. *)
  let r =
    Chaos.Runner.run
      ~monitors:[ Chaos.Monitor.linearizability () ]
      ~max_steps:4_000
      ~schedule:
        (Chaos.Schedule.make [ Chaos.Schedule.drop ~step:7 ~service:"tob" ~endpoint:0 ])
      (tob ~f:1 ())
  in
  Alcotest.(check bool) "net-fault waiver is adversary" true
    (List.exists
       (fun (m, cat, _) -> m = "linearizability" && cat = Chaos.Monitor.Adversary)
       r.Chaos.Runner.monitor_truncations)

(* --- the deduplicating explorer x degrade ---

   Through dedup, a degrade-aware exploration must reproduce the sequential
   report in full, the violation's degraded-vector annotation included, and
   the minimizer must land on the same schedule with the same damage at
   every domain count. *)

let test_dedup_degrade_compose () =
  let degrade_cfg sys kinds =
    { (Chaos.Explore.default_config sys) with
      Chaos.Explore.max_faults = 1;
      kinds;
      budget = 1_000_000;
      max_steps = 4_000;
      degrade = true;
    }
  in
  let check name sys cfg =
    let oracle = Chaos.Explore.run ~config:cfg sys in
    let par = Chaos.Explore.run_par ~config:cfg ~domains:1 ~dedup:true sys in
    Alcotest.check Helpers.report_sig_testable (name ^ ": deduped report matches the oracle")
      (Helpers.report_sig oracle) (Helpers.report_sig par);
    oracle, par
  in
  (* Clean, and dedup fires. *)
  let _, par =
    check "direct f=0" (Protocols.Direct.system ~n:2 ~f:0)
      (degrade_cfg (Protocols.Direct.system ~n:2 ~f:0)
         [ Chaos.Schedule.Drop_k; Chaos.Schedule.Partition_k ])
  in
  Alcotest.(check bool) "dedup fired" true (par.Chaos.Explore.dedup_hits > 0);
  (* Violating, with a degraded vector on the verdict. *)
  let sys = tob ~f:0 () in
  let cfg = degrade_cfg sys [ Chaos.Schedule.Drop_k; Chaos.Schedule.Partition_k ] in
  let oracle, _ = check "tob f=0" sys cfg in
  (match oracle.Chaos.Explore.violation with
  | Some v ->
    Alcotest.(check bool) "oracle verdict carries a degraded vector" true
      (v.Chaos.Explore.degraded_to <> None)
  | None -> Alcotest.fail "degrade oracle reaches no verdict");
  let driver domains =
    let r = Chaos.Driver.run ~domains (Chaos.Driver.Systematic cfg) sys in
    match r.Chaos.Driver.outcome with
    | Chaos.Driver.Violated { minimized = Some m; _ } ->
      (Chaos.Schedule.to_string m.Chaos.Explore.schedule, m.Chaos.Explore.degraded_to)
    | _ -> Alcotest.fail "expected a minimized degrade-aware violation"
  in
  Alcotest.(check (pair string (option string)))
    "minimized schedule and damage the same at -j 1 and -j 2" (driver 1) (driver 2)

(* --- CLI error satellite: kind parsing names its vocabulary --- *)

let test_parse_kind_errors () =
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  (match Chaos.Schedule.parse_kinds "explode" with
  | Ok _ -> Alcotest.fail "unknown kind must be rejected"
  | Error e ->
    Alcotest.(check bool) "error names the accepted kinds" true
      (contains e "crash" && contains e "partition");
    Alcotest.(check bool) "error suggests --faults crash" true
      (contains e "--faults crash"));
  match Chaos.Schedule.parse_kinds "" with
  | Ok _ -> Alcotest.fail "empty kind list must be rejected"
  | Error e ->
    Alcotest.(check bool) "empty-list error names the accepted kinds" true
      (contains e "crash")

(* Witness files carry the trajectory as '#' comment lines; parse must skip
   them so a --witness-out file replays as-is. *)
let test_witness_round_trip () =
  let bare = "crash@0:1,drop@4:tob:0" in
  let annotated =
    bare ^ "\n# baseline: <vector>\n# step 5 drop_{0,tob}: <vector>\n"
  in
  match Chaos.Schedule.parse bare, Chaos.Schedule.parse annotated with
  | Ok a, Ok b ->
    Alcotest.(check bool) "comment lines are ignored" true (Chaos.Schedule.equal a b)
  | Error e, _ | _, Error e -> Alcotest.fail e

let suite =
  ( "degrade",
    [
      Alcotest.test_case "guarantee-vector lattice" `Quick test_lattice;
      Alcotest.test_case "static gaps: the boosts and only the boosts" `Quick
        test_static_gaps;
      Alcotest.test_case "absorb matrix: damage x heal" `Quick test_absorb_matrix;
      Alcotest.test_case "heal/re-engage matrix on real runs" `Quick test_heal_matrix;
      Alcotest.test_case "describe is the trajectory's last vector" `Quick
        test_describe_is_trajectory_end;
      Alcotest.test_case "tob drop: waiver becomes degraded verdict" `Quick
        test_tob_drop_degrades;
      Alcotest.test_case "crash-only verdicts identical" `Quick test_crash_only_identity;
      Alcotest.test_case "truncation categories" `Quick test_truncation_categories;
      Alcotest.test_case "dedup composes with degrade" `Quick test_dedup_degrade_compose;
      Alcotest.test_case "fault-kind parse errors name the vocabulary" `Quick
        test_parse_kind_errors;
      Alcotest.test_case "witness trajectory comments round-trip" `Quick
        test_witness_round_trip;
    ] )
