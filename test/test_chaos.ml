(* The chaos engine: fault schedules, monitors, systematic exploration,
   shrinking, and witness rendering. The register-wait cases are the
   acceptance path: a 1-resilience claim over wait-free registers falls to a
   single crash, found systematically, shrunk to a minimal schedule, and
   proven non-terminating by lasso. *)

open Helpers

let sched_testable = Alcotest.testable Chaos.Schedule.pp Chaos.Schedule.equal

(* --- Schedule: parsing, printing, compilation --- *)

let test_parse_round_trip () =
  let check spec =
    match Chaos.Schedule.parse spec with
    | Error e -> Alcotest.failf "parse %S: %s" spec e
    | Ok s -> (
      match Chaos.Schedule.parse (Chaos.Schedule.to_string s) with
      | Error e -> Alcotest.failf "re-parse of %S: %s" (Chaos.Schedule.to_string s) e
      | Ok s' -> Alcotest.check sched_testable spec s s')
  in
  List.iter check
    [ "crash@0:1"; "crash@3:0,silence@5:cons"; "helpful,crash@2:1"; "4:1"; "" ]

let test_parse_errors () =
  List.iter
    (fun spec ->
      match Chaos.Schedule.parse spec with
      | Ok _ -> Alcotest.failf "expected parse error for %S" spec
      | Error _ -> ())
    [ "crash@x:1"; "crash@1:"; "explode@1:2"; "crash@-1:0" ]

let test_validate () =
  let sys = Protocols.Register_wait.system () in
  let bad_pid = Chaos.Schedule.make [ Chaos.Schedule.crash ~step:0 ~pid:7 ] in
  let bad_svc = Chaos.Schedule.make [ Chaos.Schedule.silence ~step:0 ~service:"nope" ] in
  let ok = Chaos.Schedule.make [ Chaos.Schedule.crash ~step:0 ~pid:1 ] in
  Alcotest.(check bool) "bad pid" true (Result.is_error (Chaos.Schedule.validate sys bad_pid));
  Alcotest.(check bool) "bad svc" true (Result.is_error (Chaos.Schedule.validate sys bad_svc));
  Alcotest.(check bool) "ok" true (Result.is_ok (Chaos.Schedule.validate sys ok))

(* --- Acceptance: register-wait falls to systematic exploration --- *)

let test_register_wait_violation () =
  let sys = Protocols.Register_wait.system () in
  let config =
    { (Chaos.Explore.default_config sys) with Chaos.Explore.max_faults = 1 }
  in
  let report = Chaos.Driver.run ~shrink:true (Chaos.Driver.Systematic config) sys in
  match report.Chaos.Driver.outcome with
  | Chaos.Driver.Passed -> Alcotest.fail "expected an f-termination violation"
  | Chaos.Driver.Violated { original; minimized; witness; _ } ->
    Alcotest.(check string) "monitor" "f-termination" original.Chaos.Explore.monitor;
    let m = Option.get minimized in
    Alcotest.(check bool) "minimal: at most 2 crashes" true
      (Chaos.Schedule.n_crashes m.Chaos.Explore.schedule <= 2);
    Alcotest.(check bool) "proven by lasso" true m.Chaos.Explore.proven;
    (* Registers are wait-free: the shrinker discovers no silencing is even
       needed — one crash under the helpful adversary suffices. *)
    Alcotest.(check int) "minimal: exactly 1 crash" 1
      (Chaos.Schedule.n_crashes m.Chaos.Explore.schedule);
    (match witness with
    | Some (Engine.Counterexample.Non_termination { proven; failed; exec }) ->
      Alcotest.(check bool) "witness proven" true proven;
      Alcotest.(check bool) "witness has failures" true (failed <> []);
      Alcotest.(check bool) "witness exec extractable" true
        (Engine.Counterexample.witness_exec
           (Engine.Counterexample.Non_termination { proven; failed; exec })
        <> None)
    | _ -> Alcotest.fail "expected a Non_termination witness")

(* direct with f = 1 over n = 2 genuinely tolerates one failure: the whole
   1-fault sweep passes. *)
let test_direct_resilient_passes () =
  let sys = Protocols.Direct.system ~n:2 ~f:1 in
  let config =
    { (Chaos.Explore.default_config sys) with Chaos.Explore.max_faults = 1 }
  in
  let r = Chaos.Explore.run ~config sys in
  Alcotest.(check bool) "no violation" true (r.Chaos.Explore.violation = None);
  Alcotest.(check bool) "not truncated" false r.Chaos.Explore.truncated;
  Alcotest.(check int) "full space examined" r.Chaos.Explore.space r.Chaos.Explore.examined

(* direct with f = 0 falls to one crash — but only to the silencing
   adversary: shrinking must keep Prefer_dummy. *)
let test_direct_f0_needs_silencing () =
  let sys = Protocols.Direct.system ~n:2 ~f:0 in
  let config =
    { (Chaos.Explore.default_config sys) with Chaos.Explore.max_faults = 1 }
  in
  let report = Chaos.Driver.run ~shrink:true (Chaos.Driver.Systematic config) sys in
  match report.Chaos.Driver.outcome with
  | Chaos.Driver.Passed -> Alcotest.fail "expected a violation"
  | Chaos.Driver.Violated { minimized; _ } ->
    let m = Option.get minimized in
    Alcotest.(check string) "monitor" "f-termination" m.Chaos.Explore.monitor;
    Alcotest.(check int) "one crash" 1 (Chaos.Schedule.n_crashes m.Chaos.Explore.schedule);
    Alcotest.(check bool) "silencing adversary required" true
      (m.Chaos.Explore.schedule.Chaos.Schedule.default_pref = Model.System.Prefer_dummy)

(* --- Truncation is reported, never silent --- *)

let test_truncation_reported () =
  let sys = Protocols.Register_wait.system () in
  let config =
    { (Chaos.Explore.default_config sys) with Chaos.Explore.max_faults = 1; budget = 1 }
  in
  let r = Chaos.Driver.run ~shrink:false (Chaos.Driver.Systematic config) sys in
  Alcotest.(check int) "examined capped" 1 r.Chaos.Driver.examined;
  Alcotest.(check bool) "space larger" true (r.Chaos.Driver.space > 1);
  Alcotest.(check bool) "truncated flag" true r.Chaos.Driver.truncated;
  let rendered = Format.asprintf "%a" Chaos.Driver.pp_report r in
  Alcotest.(check bool) "report says TRUNCATED" true (contains rendered "TRUNCATED")

(* Step-budget truncation: when --max-steps cuts a run short, the outcome is
   explicitly downgraded, never silently upgraded. With liveness monitors on,
   an undecided truncated run is only *bounded evidence* of violation
   (proven = false); with safety-only monitors, the budget hit itself is
   counted and reported. *)
let test_step_budget_reported () =
  let sys = Protocols.Register_wait.system () in
  let config =
    { (Chaos.Explore.default_config sys) with Chaos.Explore.max_faults = 0; max_steps = 3 }
  in
  let r = Chaos.Explore.run ~config sys in
  (match r.Chaos.Explore.violation with
  | Some v ->
    Alcotest.(check string) "monitor" "f-termination" v.Chaos.Explore.monitor;
    Alcotest.(check bool) "bounded evidence only" false v.Chaos.Explore.proven;
    let rendered = Format.asprintf "%a" Chaos.Explore.pp_violation v in
    Alcotest.(check bool) "labelled bounded" true (contains rendered "bounded evidence")
  | None -> Alcotest.fail "expected a bounded-evidence violation");
  let r =
    Chaos.Driver.run ~monitors:(Chaos.Monitor.safety ()) ~shrink:false
      (Chaos.Driver.Systematic config) sys
  in
  Alcotest.(check int) "budget hit counted" 1 r.Chaos.Driver.step_budget_hits;
  let rendered = Format.asprintf "%a" Chaos.Driver.pp_report r in
  Alcotest.(check bool) "report mentions step budget" true (contains rendered "step budget")

(* --- Seeded chaos mode: detection + replay + shrink --- *)

let test_seeded_mode_finds_and_replays () =
  let sys = Protocols.Register_wait.system () in
  let mode =
    Chaos.Driver.Seeded
      { seed = 1; runs = 64; max_faults = 1; horizon = 16; max_steps = 4_000;
        kinds = [ Chaos.Schedule.Crash_k; Chaos.Schedule.Silence_k ]; degrade = false }
  in
  let report = Chaos.Driver.run ~shrink:true mode sys in
  match report.Chaos.Driver.outcome with
  | Chaos.Driver.Passed -> Alcotest.fail "expected some seed to find the violation"
  | Chaos.Driver.Violated { replayed; minimized; _ } ->
    Alcotest.(check (option bool)) "replay identical" (Some true) replayed;
    Alcotest.(check bool) "shrunk to ≤2 crashes" true
      (Chaos.Schedule.n_crashes (Option.get minimized).Chaos.Explore.schedule <= 2)

(* --- Monitors --- *)

let test_monitor_linearizability_truncates () =
  let sys = Protocols.Register_wait.system () in
  let m = Chaos.Monitor.linearizability ~max_history:1 () in
  (* A failure-free quiescent run produces register histories longer than 1
     event, so the monitor must decline rather than pass silently. *)
  let r =
    Chaos.Runner.run ~monitors:[ m ] ~schedule:Chaos.Schedule.empty ~max_steps:4_000 sys
  in
  Alcotest.(check bool) "truncation surfaced" true
    (r.Chaos.Runner.monitor_truncations <> [])

let test_monitor_linearizability_passes () =
  let sys = Protocols.Register_wait.system () in
  let r =
    Chaos.Runner.run
      ~monitors:(Chaos.Monitor.defaults ())
      ~schedule:Chaos.Schedule.empty ~max_steps:4_000 sys
  in
  match r.Chaos.Runner.stop with
  | Chaos.Runner.Violation { monitor; reason; _ } ->
    Alcotest.failf "failure-free run violated %s: %s" monitor reason
  | Chaos.Runner.Lasso _ | Chaos.Runner.Budget | Chaos.Runner.Pruned -> ()

(* Crashes scheduled beyond the step budget are counted, not dropped. *)
let test_undelivered_crashes_reported () =
  let sys = Protocols.Register_wait.system () in
  let schedule = Chaos.Schedule.make [ Chaos.Schedule.crash ~step:1_000_000 ~pid:0 ] in
  let r = Chaos.Runner.run ~schedule ~max_steps:200 sys in
  Alcotest.(check int) "undelivered" 1 r.Chaos.Runner.undelivered_crashes

let suite =
  ( "chaos",
    [
      Alcotest.test_case "schedule parse round-trips" `Quick test_parse_round_trip;
      Alcotest.test_case "schedule parse rejects junk" `Quick test_parse_errors;
      Alcotest.test_case "schedule validation" `Quick test_validate;
      Alcotest.test_case "register-wait: found, shrunk, proven" `Quick
        test_register_wait_violation;
      Alcotest.test_case "direct f=1: full sweep passes" `Quick test_direct_resilient_passes;
      Alcotest.test_case "direct f=0: needs the silencing adversary" `Quick
        test_direct_f0_needs_silencing;
      Alcotest.test_case "enumeration truncation reported" `Quick test_truncation_reported;
      Alcotest.test_case "step-budget truncation reported" `Quick test_step_budget_reported;
      Alcotest.test_case "seeded mode: finds, replays, shrinks" `Quick
        test_seeded_mode_finds_and_replays;
      Alcotest.test_case "linearizability monitor truncates loudly" `Quick
        test_monitor_linearizability_truncates;
      Alcotest.test_case "monitors pass failure-free" `Quick test_monitor_linearizability_passes;
      Alcotest.test_case "undelivered crashes counted" `Quick test_undelivered_crashes_reported;
    ] )
