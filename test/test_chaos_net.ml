(* The network adversary: omission/duplication/delay/partition faults
   beyond crashes (ISSUE 5). Three pins hold the PR together:

   1. the crash-only differential — with [kinds = [Crash_k]] the kind-aware
      explorer reproduces, field for field, an independent reimplementation
      of the pre-network enumeration (the old engine's behavior);
   2. resilient protocols survive every mixed schedule within their fault
      budget, while the tob boost protocol falls to a single minimized
      network fault — the graceful-degradation story of §6.3;
   3. shrinking stays 1-minimal across kinds and never emits a schedule
      referencing steps beyond the violating run's executed range. *)

open Helpers

let sched_testable = Alcotest.testable Chaos.Schedule.pp Chaos.Schedule.equal

let tob () = Protocols.Tob_direct.system ~n:2 ~f:0
let direct_f1 () = Protocols.Direct.system ~n:2 ~f:1

let config sys ~kinds ~max_faults =
  { (Chaos.Explore.default_config sys) with
    Chaos.Explore.max_faults;
    kinds;
    budget = 1_000_000;
    max_steps = 4_000;
  }

(* --- Schedule: net-fault grammar and validation --- *)

let test_parse_round_trip_net () =
  let check spec =
    match Chaos.Schedule.parse spec with
    | Error e -> Alcotest.failf "parse %S: %s" spec e
    | Ok s -> (
      match Chaos.Schedule.parse (Chaos.Schedule.to_string s) with
      | Error e -> Alcotest.failf "re-parse of %S: %s" (Chaos.Schedule.to_string s) e
      | Ok s' -> Alcotest.check sched_testable spec s s')
  in
  List.iter check
    [
      "drop@3:tob:0";
      "dup@2:tob:1";
      "delay@4:tob:0:2";
      "partition@1:0|1.2:9";
      "partition@3:1:8";
      "crash@0:1,drop@2:tob:0,partition@3:1:8";
      "helpful,delay@1:tob:1:3";
    ]

let test_parse_errors_net () =
  List.iter
    (fun spec ->
      match Chaos.Schedule.parse spec with
      | Ok _ -> Alcotest.failf "expected parse error for %S" spec
      | Error _ -> ())
    [ "drop@1:tob"; "delay@1:tob:0"; "partition@2:0"; "dup@x:tob:0"; "partition@2:0:x" ]

let test_parse_kinds () =
  (match Chaos.Schedule.parse_kinds "drop,partition" with
  | Ok [ Chaos.Schedule.Drop_k; Chaos.Schedule.Partition_k ] -> ()
  | Ok _ -> Alcotest.fail "wrong kinds"
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "unknown kind rejected" true
    (Result.is_error (Chaos.Schedule.parse_kinds "drop,explode"));
  Alcotest.(check bool) "empty rejected" true
    (Result.is_error (Chaos.Schedule.parse_kinds ""))

let test_validate_net () =
  let sys = tob () in
  let bad = [
    Chaos.Schedule.drop ~step:1 ~service:"tob" ~endpoint:5;
    Chaos.Schedule.drop ~step:1 ~service:"nope" ~endpoint:0;
    Chaos.Schedule.delay ~step:1 ~service:"tob" ~endpoint:0 ~lag:0;
    Chaos.Schedule.partition ~step:2 ~blocks:[ [ 0 ]; [ 0 ] ] ~heal_at:5;
    Chaos.Schedule.partition ~step:2 ~blocks:[ [ 7 ] ] ~heal_at:5;
    Chaos.Schedule.partition ~step:2 ~blocks:[ [ 0 ] ] ~heal_at:2;
  ]
  and good = [
    Chaos.Schedule.drop ~step:1 ~service:"tob" ~endpoint:0;
    Chaos.Schedule.delay ~step:1 ~service:"tob" ~endpoint:1 ~lag:2;
    Chaos.Schedule.partition ~step:2 ~blocks:[ [ 0 ] ] ~heal_at:5;
  ]
  in
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Format.asprintf "reject %a" Chaos.Schedule.pp (Chaos.Schedule.make [ f ]))
        true
        (Result.is_error (Chaos.Schedule.validate sys (Chaos.Schedule.make [ f ]))))
    bad;
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Format.asprintf "accept %a" Chaos.Schedule.pp (Chaos.Schedule.make [ f ]))
        true
        (Result.is_ok (Chaos.Schedule.validate sys (Chaos.Schedule.make [ f ]))))
    good

(* Delivered net faults leave their event in the execution; partitions are
   bracketed by partition/heal events. *)
let test_net_events_in_exec () =
  let sys = tob () in
  let events schedule =
    (Chaos.Runner.run ~max_steps:2_000 ~schedule sys).Chaos.Runner.exec
    |> Model.Exec.events
  in
  let has p schedule = List.exists p (events schedule) in
  Alcotest.(check bool) "drop event" true
    (has
       (function
         | Model.Event.Net { kind = Model.Event.Drop; service = "tob"; endpoint = 0 } ->
           true
         | _ -> false)
       (Chaos.Schedule.make [ Chaos.Schedule.drop ~step:7 ~service:"tob" ~endpoint:0 ]));
  Alcotest.(check bool) "dup event" true
    (has
       (function
         | Model.Event.Net { kind = Model.Event.Duplicate; _ } -> true | _ -> false)
       (Chaos.Schedule.make
          [ Chaos.Schedule.duplicate ~step:7 ~service:"tob" ~endpoint:0 ]));
  let part =
    Chaos.Schedule.make [ Chaos.Schedule.partition ~step:0 ~blocks:[ [ 0 ] ] ~heal_at:4 ]
  in
  Alcotest.(check bool) "partition event" true
    (has (function Model.Event.Partition [ [ 0 ] ] -> true | _ -> false) part);
  Alcotest.(check bool) "heal event" true
    (has (function Model.Event.Heal [ [ 0 ] ] -> true | _ -> false) part)

(* --- Pin 1: crash-only differential against the pre-network oracle --- *)

(* Independent reimplementation of the pre-network enumeration (k-subsets
   of pids, lexicographic, one crash-step tuple per subset) and of the
   sequential early-stop scan. The kind-aware engine with
   [kinds = [Crash_k]] must reproduce it in every verdict-bearing field. *)
let oracle sys (cfg : Chaos.Explore.config) =
  let n = Model.System.n_processes sys in
  let points = List.init cfg.Chaos.Explore.horizon Fun.id in
  let rec choose k lst =
    if k = 0 then [ [] ]
    else
      match lst with
      | [] -> []
      | x :: rest -> List.map (fun c -> x :: c) (choose (k - 1) rest) @ choose k rest
  in
  let rec tuples k =
    if k = 0 then [ [] ]
    else List.concat_map (fun tl -> List.map (fun p -> p :: tl) points) (tuples (k - 1))
  in
  let schedules =
    List.concat_map
      (fun k ->
        List.concat_map
          (fun subset ->
            List.map
              (fun steps ->
                Chaos.Schedule.make
                  (List.map2
                     (fun pid step -> Chaos.Schedule.crash ~step ~pid)
                     subset (List.rev steps)))
              (tuples k))
          (choose k (List.init n Fun.id)))
      (List.init (cfg.Chaos.Explore.max_faults + 1) Fun.id)
  in
  let examined = ref 0 in
  let rec scan = function
    | [] -> None
    | schedule :: rest ->
      if !examined >= cfg.Chaos.Explore.budget then None
      else begin
        incr examined;
        let r =
          Chaos.Runner.run ~max_steps:cfg.Chaos.Explore.max_steps ~schedule sys
        in
        match r.Chaos.Runner.stop with
        | Chaos.Runner.Violation { monitor; reason; proven } ->
          Some ((Chaos.Schedule.to_string schedule, monitor), (reason, proven))
        | _ -> scan rest
      end
  in
  let found = scan schedules in
  !examined, found

let check_crash_differential name sys ~max_faults ~horizon =
  let cfg =
    { (config sys ~kinds:[ Chaos.Schedule.Crash_k ] ~max_faults) with
      Chaos.Explore.horizon;
      max_steps = 2_000;
    }
  in
  let expected_examined, expected = oracle sys cfg in
  let r = Chaos.Explore.run ~config:cfg sys in
  let got =
    Option.map
      (fun (v : Chaos.Explore.violation) ->
        ( (Chaos.Schedule.to_string v.Chaos.Explore.schedule, v.Chaos.Explore.monitor),
          (v.Chaos.Explore.reason, v.Chaos.Explore.proven) ))
      r.Chaos.Explore.violation
  in
  Alcotest.(check int) (name ^ ": examined") expected_examined r.Chaos.Explore.examined;
  Alcotest.(check (option (pair (pair string string) (pair string bool))))
    (name ^ ": verdict") expected got;
  Alcotest.(check int)
    (name ^ ": net counters stay zero") 0
    (r.Chaos.Explore.undelivered_net + r.Chaos.Explore.vacuous_net_faults)

let test_crash_only_differential () =
  check_crash_differential "register-wait" (Protocols.Register_wait.system ())
    ~max_faults:1 ~horizon:6;
  check_crash_differential "direct f=1" (direct_f1 ()) ~max_faults:2 ~horizon:5;
  check_crash_differential "tob f=0" (tob ()) ~max_faults:1 ~horizon:6

(* --- Pin 2: tob falls to one network fault; resilient protocols don't --- *)

let test_tob_mixed_witness () =
  let sys = tob () in
  let cfg = config sys ~kinds:[ Chaos.Schedule.Drop_k; Chaos.Schedule.Delay_k ] ~max_faults:1 in
  let r = Chaos.Explore.run ~config:cfg sys in
  match r.Chaos.Explore.violation with
  | None -> Alcotest.fail "expected a mixed-fault violation on tob"
  | Some v ->
    Alcotest.(check bool) "witness carries a net fault" true
      (Chaos.Schedule.net_faults v.Chaos.Explore.schedule <> []);
    let m, _ = Chaos.Shrink.shrink ~max_steps:cfg.Chaos.Explore.max_steps sys v in
    Alcotest.(check int) "minimized to one fault" 1
      (Chaos.Schedule.n_faults m.Chaos.Explore.schedule);
    Alcotest.(check int) "the one fault is a net fault" 1
      (List.length (Chaos.Schedule.net_faults m.Chaos.Explore.schedule));
    (* 1-minimality: removing the remaining fault kills the violation. *)
    let stripped =
      Chaos.Schedule.make
        ~default_pref:m.Chaos.Explore.schedule.Chaos.Schedule.default_pref
        ~overrides:m.Chaos.Explore.schedule.Chaos.Schedule.overrides []
    in
    let r' =
      Chaos.Runner.run ~max_steps:cfg.Chaos.Explore.max_steps ~schedule:stripped sys
    in
    (match r'.Chaos.Runner.stop with
    | Chaos.Runner.Violation { monitor; _ } when monitor = m.Chaos.Explore.monitor ->
      Alcotest.fail "stripped schedule still violates: not 1-minimal"
    | _ -> ())

let test_resilient_survive_mixed () =
  let kinds =
    Chaos.Schedule.
      [ Crash_k; Drop_k; Dup_k; Delay_k; Partition_k ]
  in
  List.iter
    (fun (name, sys) ->
      let cfg =
        { (config sys ~kinds ~max_faults:1) with Chaos.Explore.horizon = 8 }
      in
      let r = Chaos.Explore.run ~config:cfg sys in
      Alcotest.(check bool) (name ^ ": full space covered") false
        r.Chaos.Explore.truncated;
      Alcotest.(check bool) (name ^ ": no violation") true
        (r.Chaos.Explore.violation = None))
    [ "direct f=1", direct_f1 (); "register-vote", Protocols.Register_vote.system () ]

(* --- Recovery-aware monitors --- *)

(* Drops steal messages: a non-termination caused by one is waived
   (Truncated), never charged as a violation — but some drop must actually
   have bitten for the waiver to exist. *)
let test_termination_waived_under_drops () =
  let sys = direct_f1 () in
  let cfg = config sys ~kinds:[ Chaos.Schedule.Drop_k ] ~max_faults:1 in
  let r = Chaos.Explore.run ~monitors:[ Chaos.Monitor.f_termination () ] ~config:cfg sys in
  Alcotest.(check bool) "no violation" true (r.Chaos.Explore.violation = None);
  Alcotest.(check bool) "some termination checks waived" true
    (r.Chaos.Explore.monitor_truncations > 0)

let test_termination_partition_recovery () =
  let sys = direct_f1 () in
  let run heal_at =
    Chaos.Runner.run
      ~monitors:[ Chaos.Monitor.f_termination () ]
      ~max_steps:300
      ~schedule:
        (Chaos.Schedule.make
           [ Chaos.Schedule.partition ~step:0 ~blocks:[ [ 0 ] ] ~heal_at ])
      sys
  in
  (* Unhealed: the blocked process never decides, and the monitor waives. *)
  let r = run 9_999 in
  (match r.Chaos.Runner.stop with
  | Chaos.Runner.Violation _ -> Alcotest.fail "unhealed partition must not violate"
  | _ -> ());
  Alcotest.(check bool) "unhealed waiver recorded" true
    (List.exists
       (fun (m, cat, why) ->
         m = "f-termination" && cat = Chaos.Monitor.Adversary && contains why "unhealed")
       r.Chaos.Runner.monitor_truncations);
  (* Healed: degradation must be graceful — termination is enforced and
     holds, with no waiver. *)
  let r = run 5 in
  (match r.Chaos.Runner.stop with
  | Chaos.Runner.Violation _ -> Alcotest.fail "healed partition must terminate"
  | _ -> ());
  Alcotest.(check bool) "no waiver after heal" true
    (r.Chaos.Runner.monitor_truncations = [])

(* Duplicated responses must stay harmless on a resilient protocol: same
   decide delivered twice is still one decision. *)
let test_dup_harmless () =
  let sys = direct_f1 () in
  let cfg = config sys ~kinds:[ Chaos.Schedule.Dup_k ] ~max_faults:1 in
  let r = Chaos.Explore.run ~config:cfg sys in
  Alcotest.(check bool) "no violation under duplication" true
    (r.Chaos.Explore.violation = None)

(* ◇P monitors on the network-failure-detector protocol: completeness holds
   under a crash; an unhealed partition waives instead of failing. *)
let test_fd_monitors () =
  let sys = Protocols.Fd_network.system ~n:2 in
  let output = Protocols.Fd_network.output_of in
  let monitors =
    [ Chaos.Monitor.fd_completeness ~output (); Chaos.Monitor.fd_accuracy ~output () ]
  in
  let r =
    Chaos.Runner.run ~monitors ~max_steps:4_000
      ~schedule:(Chaos.Schedule.make [ Chaos.Schedule.crash ~step:4 ~pid:0 ])
      sys
  in
  (match r.Chaos.Runner.stop with
  | Chaos.Runner.Violation { monitor; reason; _ } ->
    Alcotest.failf "fd monitors violated: %s (%s)" monitor reason
  | _ -> ());
  let r =
    Chaos.Runner.run ~monitors ~max_steps:400
      ~schedule:
        (Chaos.Schedule.make
           [ Chaos.Schedule.partition ~step:0 ~blocks:[ [ 0 ] ] ~heal_at:9_999 ])
      sys
  in
  (match r.Chaos.Runner.stop with
  | Chaos.Runner.Violation _ -> Alcotest.fail "unhealed partition must waive, not fail"
  | _ -> ());
  Alcotest.(check bool) "fd waivers recorded" true
    (List.length r.Chaos.Runner.monitor_truncations >= 1)

(* --- Pin 3: shrinking across kinds --- *)

(* Regression for the clamp satellite: a violation that NEEDS its partition
   unhealed (custom monitor) starts with heal_at far beyond the run; the
   shrunk schedule must reference nothing past the violating run's executed
   step range. Before the clamp pass, shrinking got stuck at whatever
   midpoint the heal-earlier weakening last reproduced (well beyond the
   prefix). *)
let test_shrink_clamps_to_executed_range () =
  let sys = tob () in
  let unhealed_mon =
    Chaos.Monitor.
      {
        name = "unhealed";
        phase = End;
        relevant = (fun _ -> true);
        check =
          (fun _sys exec ->
            if Chaos.Degrade.(partition_active (of_exec exec)) then
              Fail "partition never healed"
            else Pass);
      }
  in
  let monitors = [ unhealed_mon ] in
  let schedule =
    Chaos.Schedule.make
      [ Chaos.Schedule.partition ~step:0 ~blocks:[ [ 0 ] ] ~heal_at:9_999 ]
  in
  let r = Chaos.Runner.run ~monitors ~max_steps:200 ~schedule sys in
  let reason, proven =
    match r.Chaos.Runner.stop with
    | Chaos.Runner.Violation { monitor = "unhealed"; reason; proven } -> reason, proven
    | s -> Alcotest.failf "expected unhealed violation, got %a" Chaos.Runner.pp_stop s
  in
  let v =
    Chaos.Explore.
      {
        schedule;
        monitor = "unhealed";
        reason;
        proven;
        exec = r.Chaos.Runner.exec;
        steps = r.Chaos.Runner.steps;
        degraded_to = None;
      }
  in
  let m, _ = Chaos.Shrink.shrink ~monitors ~max_steps:200 sys v in
  List.iter
    (fun fault ->
      Alcotest.(check bool) "fault step within executed range" true
        (Chaos.Schedule.step fault <= m.Chaos.Explore.steps);
      match fault with
      | Chaos.Schedule.Partition { heal_at; _ } ->
        Alcotest.(check bool)
          (Printf.sprintf "heal_at %d clamped within executed range + 1 (%d)" heal_at
             (m.Chaos.Explore.steps + 1))
          true
          (heal_at <= m.Chaos.Explore.steps + 1)
      | _ -> ())
    m.Chaos.Explore.schedule.Chaos.Schedule.faults

(* Delay-lag weakening: a minimized delay never keeps a lag a smaller lag
   would reproduce. The "saw-delay" monitor fails iff any delay was actually
   delivered, so every lag ≥ 1 reproduces and the shrinker must walk the
   lag all the way down to 1 (and no further: removing the fault kills the
   violation). *)
let test_shrink_weakens_delay () =
  let sys = tob () in
  let saw_delay =
    Chaos.Monitor.
      {
        name = "saw-delay";
        phase = End;
        relevant = (fun _ -> true);
        check =
          (fun _sys exec ->
            if
              List.exists
                (function
                  | Model.Event.Net { kind = Model.Event.Delay _; _ } -> true
                  | _ -> false)
                (Model.Exec.events exec)
            then Fail "a delay fault was delivered"
            else Pass);
      }
  in
  let monitors = [ saw_delay ] in
  (* tob buffers never hold two responses on their own, and a delay on a
     single-element buffer is vacuous — so a duplicate inflates the buffer
     first. The shrinker cannot remove either fault (dropping the dup makes
     the delay vacuous; dropping the delay kills the event), leaving the lag
     as the only weakenable dimension. *)
  let schedule =
    Chaos.Schedule.make
      [
        Chaos.Schedule.duplicate ~step:7 ~service:"tob" ~endpoint:0;
        Chaos.Schedule.delay ~step:8 ~service:"tob" ~endpoint:0 ~lag:3;
      ]
  in
  let r = Chaos.Runner.run ~monitors ~max_steps:4_000 ~schedule sys in
  match r.Chaos.Runner.stop with
  | Chaos.Runner.Violation { monitor = "saw-delay"; reason; proven } ->
    let v =
      Chaos.Explore.
        {
          schedule;
          monitor = "saw-delay";
          reason;
          proven;
          exec = r.Chaos.Runner.exec;
          steps = r.Chaos.Runner.steps;
        degraded_to = None;
        }
    in
    let m, _ = Chaos.Shrink.shrink ~monitors ~max_steps:4_000 sys v in
    Alcotest.(check int) "both faults are load-bearing" 2
      (Chaos.Schedule.n_faults m.Chaos.Explore.schedule);
    (match
       List.find_opt
         (function Chaos.Schedule.Delay _ -> true | _ -> false)
         m.Chaos.Explore.schedule.Chaos.Schedule.faults
     with
    | Some (Chaos.Schedule.Delay { lag; _ }) ->
      Alcotest.(check int) "lag weakened to the minimum" 1 lag
    | _ -> Alcotest.fail "expected the delay to survive shrinking")
  | s -> Alcotest.failf "expected the delay to be delivered, got %a" Chaos.Runner.pp_stop s

(* --- Composition: -j / dedup with net kinds --- *)

let test_par_composition_net () =
  let sys = tob () in
  let cfg =
    { (config sys ~kinds:[ Chaos.Schedule.Drop_k; Chaos.Schedule.Partition_k ]
         ~max_faults:1)
      with
      Chaos.Explore.max_steps = 4_000;
    }
  in
  let seq = Chaos.Explore.run ~config:cfg sys in
  List.iter
    (fun j ->
      let par = Chaos.Explore.run_par ~config:cfg ~domains:j ~dedup:true sys in
      Alcotest.check report_sig_testable
        (Printf.sprintf "-j%d report matches sequential" j)
        (report_sig seq) (report_sig par))
    [ 1; 2 ];
  (* On a clean net-fault space dedup engages on net-bearing schedules,
     and the report still pins to the sequential oracle. *)
  let sys = Protocols.Direct.system ~n:2 ~f:0 in
  let net_cfg =
    { (config sys ~kinds:[ Chaos.Schedule.Drop_k; Chaos.Schedule.Partition_k ]
         ~max_faults:1)
      with
      Chaos.Explore.max_steps = 4_000;
    }
  in
  let par = Chaos.Explore.run_par ~config:net_cfg ~domains:1 ~dedup:true sys in
  Alcotest.check report_sig_testable "clean net space matches sequential"
    (report_sig (Chaos.Explore.run ~config:net_cfg sys))
    (report_sig par);
  Alcotest.(check bool) "net schedules deduplicated" true (par.Chaos.Explore.dedup_hits > 0)

(* --- Wall-clock truncation --- *)

let test_wall_truncation () =
  let sys = direct_f1 () in
  let cfg = config sys ~kinds:[ Chaos.Schedule.Crash_k ] ~max_faults:1 in
  let expired () = true in
  let r = Chaos.Explore.run ~config:cfg ~stop:expired sys in
  Alcotest.(check bool) "sequential wall-truncated" true r.Chaos.Explore.wall_truncated;
  Alcotest.(check int) "nothing examined" 0 r.Chaos.Explore.examined;
  Alcotest.(check bool) "not budget-truncated" false r.Chaos.Explore.truncated;
  let rp = Chaos.Explore.run_par ~config:cfg ~domains:2 ~stop:expired sys in
  Alcotest.(check bool) "parallel wall-truncated" true rp.Chaos.Explore.wall_truncated;
  let report = Chaos.Driver.run ~stop:expired (Chaos.Driver.Systematic cfg) sys in
  Alcotest.(check bool) "driver wall-truncated" true report.Chaos.Driver.wall_truncated;
  Alcotest.(check bool) "report carries the explicit marker" true
    (contains (Format.asprintf "%a" Chaos.Driver.pp_report report) "truncated: wall-clock");
  (* A violation found before expiry wins over truncation. *)
  let deadline = ref 2 in
  let stop () =
    decr deadline;
    !deadline < 0
  in
  let tob_cfg = config (tob ()) ~kinds:[ Chaos.Schedule.Crash_k ] ~max_faults:1 in
  let r = Chaos.Explore.run ~config:tob_cfg ~stop sys in
  Alcotest.(check bool) "partial result reported" true
    (r.Chaos.Explore.wall_truncated || r.Chaos.Explore.violation <> None)

(* --- Seeded mode: mixed kinds, exact replay, legacy stream pinned --- *)

let qcheck_mixed_seed_replay =
  qtest "mixed-fault seed replay is deterministic" ~count:25
    QCheck2.Gen.(int_bound 10_000)
    (fun seed ->
      let sys = tob () in
      let kinds = Chaos.Schedule.all_kinds in
      let r1, s1 = Chaos.Rand.run ~seed ~max_faults:2 ~kinds ~max_steps:2_000 sys in
      let r2, s2 = Chaos.Rand.run ~seed ~max_faults:2 ~kinds ~max_steps:2_000 sys in
      Chaos.Schedule.equal s1 s2
      && List.equal Model.Event.equal
           (Model.Exec.events r1.Chaos.Runner.exec)
           (Model.Exec.events r2.Chaos.Runner.exec))

let qcheck_net_kinds_preserve_legacy_stream =
  qtest "net kinds never shift the crash/silence draws" ~count:50
    QCheck2.Gen.(int_bound 10_000)
    (fun seed ->
      let sys = direct_f1 () in
      let base = Chaos.Rand.schedule ~seed ~max_faults:2 sys in
      let mixed =
        Chaos.Rand.schedule ~seed ~max_faults:2 ~kinds:Chaos.Schedule.all_kinds sys
      in
      let crash_or_silence f =
        match Chaos.Schedule.kind_of_fault f with
        | Chaos.Schedule.Crash_k | Chaos.Schedule.Silence_k -> true
        | _ -> false
      in
      List.equal
        ( = )
        base.Chaos.Schedule.faults
        (List.filter crash_or_silence mixed.Chaos.Schedule.faults))

let suite =
  ( "chaos-net",
    [
      Alcotest.test_case "net fault parse round-trips" `Quick test_parse_round_trip_net;
      Alcotest.test_case "net fault parse errors" `Quick test_parse_errors_net;
      Alcotest.test_case "fault-kind lists parse" `Quick test_parse_kinds;
      Alcotest.test_case "net fault validation" `Quick test_validate_net;
      Alcotest.test_case "net faults leave events" `Quick test_net_events_in_exec;
      Alcotest.test_case "crash-only differential vs pre-network oracle" `Slow
        test_crash_only_differential;
      Alcotest.test_case "tob falls to a minimized net fault" `Quick test_tob_mixed_witness;
      Alcotest.test_case "resilient protocols survive mixed kinds" `Slow
        test_resilient_survive_mixed;
      Alcotest.test_case "termination waived under drops" `Quick
        test_termination_waived_under_drops;
      Alcotest.test_case "partition recovery: waive unhealed, enforce healed" `Quick
        test_termination_partition_recovery;
      Alcotest.test_case "duplication is harmless on resilient direct" `Quick
        test_dup_harmless;
      Alcotest.test_case "fd-network ◇P monitors" `Quick test_fd_monitors;
      Alcotest.test_case "shrink clamps to the executed range" `Quick
        test_shrink_clamps_to_executed_range;
      Alcotest.test_case "shrink keeps delay lag minimal" `Quick test_shrink_weakens_delay;
      Alcotest.test_case "par and dedup compose with net kinds" `Slow
        test_par_composition_net;
      Alcotest.test_case "wall-clock truncation" `Quick test_wall_truncation;
      qcheck_mixed_seed_replay;
      qcheck_net_kinds_preserve_legacy_stream;
    ] )
