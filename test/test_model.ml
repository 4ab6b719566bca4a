(* Tests for the complete-system model (§2.2): state updates, service
   descriptors, system construction, transition semantics per task class,
   the dummy/real policies, participants, executions and schedulers. *)

open Ioa
open Helpers

let consensus = Spec.Seq_consensus.make ()

let sys2 f = Protocols.Direct.system ~n:2 ~f
let cons_task sys name = Model.System.service_pos sys name

(* --- State --- *)

let test_state_updates () =
  let sys = sys2 0 in
  let s = Model.System.initial_state sys in
  let s1 = Model.State.with_proc s 0 (Value.str "x") in
  Alcotest.(check bool) "with_proc differs" false (Model.State.equal s s1);
  Alcotest.check value_testable "proc updated" (Value.str "x") s1.Model.State.procs.(0);
  Alcotest.check value_testable "other proc untouched" s.Model.State.procs.(1)
    s1.Model.State.procs.(1);
  let s2 = Model.State.with_decision s 1 (Value.int 0) in
  Alcotest.(check int) "decision recorded" 1 (List.length (Model.State.decided_pairs s2));
  let s3 = Model.State.with_failed s (Spec.Iset.of_list [ 1 ]) in
  Alcotest.check iset_testable "failed set" (Spec.Iset.of_list [ 1 ]) s3.Model.State.failed

let test_state_hash_equal () =
  let sys = sys2 0 in
  let s = Model.System.initial_state sys in
  let s' = Model.System.initial_state sys in
  Alcotest.(check bool) "fresh initial states equal" true (Model.State.equal s s');
  Alcotest.(check bool) "equal implies same hash" true
    (Model.State.hash s = Model.State.hash s');
  Alcotest.(check int) "compare zero" 0 (Model.State.compare s s')

let test_svc_buffers () =
  let svc = Model.State.make_svc ~value:Value.unit ~inv_bufs:[| [] |] ~resp_bufs:[| [] |] in
  let svc = Model.State.svc_push_inv svc ~pos:0 (Value.int 1) in
  let svc = Model.State.svc_push_inv svc ~pos:0 (Value.int 2) in
  (match Model.State.svc_pop_inv svc ~pos:0 with
  | Some (v, svc') ->
    Alcotest.check value_testable "FIFO inv" (Value.int 1) v;
    (match Model.State.svc_pop_inv svc' ~pos:0 with
    | Some (v2, _) -> Alcotest.check value_testable "FIFO inv 2" (Value.int 2) v2
    | None -> Alcotest.fail "second pop")
  | None -> Alcotest.fail "pop");
  let svc = Model.State.svc_push_resp svc ~pos:0 (Value.int 9) in
  (match Model.State.svc_pop_resp svc ~pos:0 with
  | Some (v, _) -> Alcotest.check value_testable "resp" (Value.int 9) v
  | None -> Alcotest.fail "resp pop")

let test_svc_coalesce () =
  let svc = Model.State.make_svc ~value:Value.unit ~inv_bufs:[| [] |] ~resp_bufs:[| [] |] in
  let svc = Model.State.svc_push_resp ~coalesce:true svc ~pos:0 (Value.int 1) in
  let svc = Model.State.svc_push_resp ~coalesce:true svc ~pos:0 (Value.int 1) in
  Alcotest.(check int) "duplicate tail coalesced" 1 (List.length svc.Model.State.resp_bufs.(0));
  let svc = Model.State.svc_push_resp ~coalesce:true svc ~pos:0 (Value.int 2) in
  let svc = Model.State.svc_push_resp ~coalesce:true svc ~pos:0 (Value.int 1) in
  Alcotest.(check int) "distinct values kept" 3 (List.length svc.Model.State.resp_bufs.(0))

(* --- Incremental hash ---

   Every update keeps the cached hash current by swapping one component's
   part. Check it against a from-scratch hash on every state that seeded
   chaos runs reach, across the whole registry and all six fault kinds, so
   each [svc_*] updater and each state updater fires. *)

module State_map = Map.Make (Model.State)

let test_incremental_hash () =
  let fired = Hashtbl.create 16 in
  let fire kind = Hashtbl.replace fired kind () in
  let seen = ref State_map.empty in
  let states = ref 0 in
  let check name sys (s : Model.State.t) =
    incr states;
    let r = rebuild_state s in
    Array.iteri
      (fun k (c : Model.State.svc) ->
        if c.Model.State.svc_hash <> r.Model.State.svcs.(k).Model.State.svc_hash then
          Alcotest.failf "%s: service %d hash drifted from its fields" name k)
      s.Model.State.svcs;
    if Model.State.hash s <> Model.State.hash r then
      Alcotest.failf "%s: incremental hash differs from a rebuilt state's" name;
    let d = Model.To_ioa.decode_state sys (Model.To_ioa.encode_state s) in
    if not (Model.State.equal s d && Model.State.hash s = Model.State.hash d) then
      Alcotest.failf "%s: hash lost across encode/decode" name;
    match State_map.find_opt s !seen with
    | Some h ->
      if h <> Model.State.hash s then Alcotest.failf "%s: equal states, unequal hashes" name
    | None -> seen := State_map.add s (Model.State.hash s) !seen
  in
  List.iter
    (fun (e : Protocols.Registry.entry) ->
      let defaults = Protocols.Registry.default_params in
      let params = { defaults with n = max e.min_n defaults.n } in
      let sys = e.build params in
      seen := State_map.empty;
      for seed = 0 to 23 do
        let r, _ =
          Chaos.Rand.run ~seed ~max_faults:3 ~silence_prob:0.3
            ~kinds:Chaos.Schedule.all_kinds ~max_steps:200 sys
        in
        let exec = r.Chaos.Runner.exec in
        check e.name sys exec.Model.Exec.start;
        List.iter
          (fun (st : Model.Exec.step) ->
            (match st.Model.Exec.event with
            | Model.Event.Net { kind = Model.Event.Drop; _ } -> fire "drop"
            | Model.Event.Net { kind = Model.Event.Duplicate; _ } -> fire "dup"
            | Model.Event.Net { kind = Model.Event.Delay _; _ } -> fire "delay"
            | Model.Event.Partition _ -> fire "partition"
            | Model.Event.Heal _ -> fire "heal"
            | Model.Event.Fail _ -> fire "fail"
            | Model.Event.Dummy _ -> fire "dummy"
            | Model.Event.Decide _ -> fire "decide"
            | Model.Event.Invoke _ -> fire "invoke"
            | Model.Event.Perform _ -> fire "perform"
            | Model.Event.Compute _ -> fire "compute"
            | Model.Event.Respond _ -> fire "respond"
            | Model.Event.Init _ | Model.Event.Proc_internal _ -> ());
            check e.name sys st.Model.Exec.state)
          (Model.Exec.steps exec)
      done)
    Protocols.Registry.all;
  List.iter
    (fun kind ->
      if not (Hashtbl.mem fired kind) then
        Alcotest.failf "no %s event fired: test is vacuous" kind)
    [ "drop"; "dup"; "delay"; "partition"; "heal"; "fail"; "dummy"; "decide"; "invoke";
      "perform"; "compute"; "respond" ];
  Alcotest.(check bool) "walked many states" true (!states > 1000)

(* --- Service descriptors --- *)

let test_service_descriptor () =
  let c = Model.Service.atomic ~id:"c" ~endpoints:[ 2; 0; 2 ] ~f:1 consensus in
  Alcotest.(check (list int)) "endpoints sorted+deduped" [ 0; 2 ]
    (Array.to_list c.Model.Service.endpoints);
  Alcotest.(check (option int)) "pos of 2" (Some 1) (Model.Service.endpoint_pos c 2);
  Alcotest.(check (option int)) "pos of 1" None (Model.Service.endpoint_pos c 1);
  Alcotest.(check bool) "wait-free (f=1, |J|=2)" true (Model.Service.is_wait_free c);
  Alcotest.check iset_testable "failed endpoints"
    (Spec.Iset.of_list [ 2 ])
    (Model.Service.failed_endpoints c (Spec.Iset.of_list [ 1; 2 ]));
  Alcotest.(check bool) "not connected to all of 3" false (Model.Service.connected_to_all c ~n:3)

let test_register_descriptor () =
  let r =
    Model.Service.register ~id:"r" ~endpoints:[ 0; 1; 2 ]
      (Spec.Seq_register.make ~values:[ Value.int 0 ] ~initial:(Value.int 0))
  in
  Alcotest.(check int) "wait-free resilience" 2 r.Model.Service.resilience;
  Alcotest.(check bool) "register class" true (r.Model.Service.cls = Model.Service.Register)

(* --- System construction --- *)

let test_system_validation () =
  let p0 = Model.Process.idle ~pid:0 in
  let bad_pid = Model.Process.idle ~pid:5 in
  Alcotest.check_raises "pid mismatch"
    (Invalid_argument "System.make: process at position 0 has pid 5") (fun () ->
    ignore (Model.System.make ~processes:[ bad_pid ] ~services:[]));
  let c = Model.Service.atomic ~id:"c" ~endpoints:[ 0; 7 ] ~f:0 consensus in
  Alcotest.check_raises "endpoint out of range"
    (Invalid_argument "System.make: service c endpoint 7 out of range") (fun () ->
    ignore (Model.System.make ~processes:[ p0 ] ~services:[ c ]));
  let c0 = Model.Service.atomic ~id:"c" ~endpoints:[ 0 ] ~f:0 consensus in
  Alcotest.check_raises "duplicate service"
    (Invalid_argument "System.make: duplicate service id c") (fun () ->
    ignore (Model.System.make ~processes:[ p0 ] ~services:[ c0; c0 ]))

let test_task_enumeration () =
  let sys = sys2 0 in
  (* 2 proc tasks + (2 perform + 2 output) for the single service. *)
  Alcotest.(check int) "task count" 6 (Array.length sys.Model.System.tasks)

let test_initialize () =
  let sys = sys2 0 in
  let s = Model.System.initialize sys [ Value.int 1; Value.int 0 ] in
  Alcotest.(check bool) "inputs recorded" true
    (s.Model.State.inputs.(0) = Some (Value.int 1) && s.Model.State.inputs.(1) = Some (Value.int 0));
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "System.initialize: need one input per process") (fun () ->
    ignore (Model.System.initialize sys [ Value.int 1 ]))

(* --- Transitions --- *)

let test_proc_transition_flow () =
  let sys = sys2 0 in
  let s = Model.System.initialize sys [ Value.int 1; Value.int 0 ] in
  (* P0's task: invoke. *)
  (match Model.System.transition sys s (Model.Task.Proc 0) with
  | Some (Model.Event.Invoke (0, "cons", op), s1) ->
    Alcotest.check value_testable "init op" (Spec.Seq_consensus.init 1) op;
    let k = cons_task sys "cons" in
    Alcotest.(check int) "invocation buffered" 1
      (List.length s1.Model.State.svcs.(k).Model.State.inv_bufs.(0));
    (* perform then respond then P0 decides. *)
    (match Model.System.transition sys s1 (Model.Task.Svc_perform { svc = k; endpoint = 0 }) with
    | Some (Model.Event.Perform ("cons", 0), s2) -> (
      match Model.System.transition sys s2 (Model.Task.Svc_output { svc = k; endpoint = 0 }) with
      | Some (Model.Event.Respond (0, "cons", b), s3) -> (
        Alcotest.check value_testable "decide resp" (Spec.Seq_consensus.decide 1) b;
        match Model.System.transition sys s3 (Model.Task.Proc 0) with
        | Some (Model.Event.Decide (0, v), s4) ->
          Alcotest.check value_testable "decision value" (Value.int 1) v;
          Alcotest.(check bool) "recorded" true (s4.Model.State.decisions.(0) = Some (Value.int 1))
        | _ -> Alcotest.fail "expected Decide")
      | _ -> Alcotest.fail "expected Respond")
    | _ -> Alcotest.fail "expected Perform")
  | _ -> Alcotest.fail "expected Invoke")

let test_perform_disabled_without_invocation () =
  let sys = sys2 0 in
  let s = Model.System.initial_state sys in
  let k = cons_task sys "cons" in
  Alcotest.(check bool) "perform disabled" false
    (Model.System.enabled sys s (Model.Task.Svc_perform { svc = k; endpoint = 0 }));
  Alcotest.(check bool) "output disabled" false
    (Model.System.enabled sys s (Model.Task.Svc_output { svc = k; endpoint = 0 }));
  Alcotest.(check bool) "proc always enabled" true
    (Model.System.enabled sys s (Model.Task.Proc 0))

let test_failed_process_dummy () =
  let sys = sys2 0 in
  let s = Model.System.initialize sys [ Value.int 1; Value.int 0 ] in
  let _, s = Model.System.apply_fail sys s 0 in
  match Model.System.transition sys s (Model.Task.Proc 0) with
  | Some (Model.Event.Dummy (Model.Task.Proc 0), s') ->
    Alcotest.(check bool) "state unchanged" true (Model.State.equal s s')
  | _ -> Alcotest.fail "failed process must take dummy steps"

let test_policy_silencing () =
  let sys = sys2 0 in
  let s = Model.System.initialize sys [ Value.int 1; Value.int 0 ] in
  (* P0 invokes, then P0 fails: the 0-resilient object is over budget. *)
  let s =
    match Model.System.transition sys s (Model.Task.Proc 0) with
    | Some (_, s) -> s
    | None -> Alcotest.fail "invoke"
  in
  let _, s = Model.System.apply_fail sys s 0 in
  let k = cons_task sys "cons" in
  let perform0 = Model.Task.Svc_perform { svc = k; endpoint = 0 } in
  (* Real-preferring: the pending invocation is still performed. *)
  (match Model.System.transition ~policy:Model.System.real_policy sys s perform0 with
  | Some (Model.Event.Perform _, _) -> ()
  | _ -> Alcotest.fail "real policy should perform");
  (* Dummy-preferring: the adversary silences it. *)
  (match Model.System.transition ~policy:Model.System.dummy_policy sys s perform0 with
  | Some (Model.Event.Dummy _, s') ->
    Alcotest.(check bool) "dummy no-op" true (Model.State.equal s s')
  | _ -> Alcotest.fail "dummy policy should take dummy");
  (* Endpoint 1's tasks are also silenceable: budget exceeded. *)
  let perform1 = Model.Task.Svc_perform { svc = k; endpoint = 1 } in
  match Model.System.transition ~policy:Model.System.dummy_policy sys s perform1 with
  | Some (Model.Event.Dummy _, _) -> ()
  | _ -> Alcotest.fail "budget-exceeded service should be silenceable at live endpoints"

let test_resilient_service_not_silenceable () =
  let sys = sys2 1 in
  (* wait-free object *)
  let s = Model.System.initialize sys [ Value.int 1; Value.int 0 ] in
  let s =
    match Model.System.transition sys s (Model.Task.Proc 1) with
    | Some (_, s) -> s
    | None -> Alcotest.fail "invoke"
  in
  let _, s = Model.System.apply_fail sys s 0 in
  let k = cons_task sys "cons" in
  (* P1 alive, budget not exceeded: dummy not available for endpoint 1. *)
  match
    Model.System.transition ~policy:Model.System.dummy_policy sys s
      (Model.Task.Svc_perform { svc = k; endpoint = 1 })
  with
  | Some (Model.Event.Perform _, _) -> ()
  | _ -> Alcotest.fail "wait-free object must keep serving live endpoints"

let test_silence_policy_selective () =
  let sys = sys2 0 in
  let k = cons_task sys "cons" in
  let p = Model.System.silence_policy ~silenced:(fun svc -> svc = k) in
  Alcotest.(check bool) "service task dummied" true
    (p (Model.Task.Svc_perform { svc = k; endpoint = 0 }) = Model.System.Prefer_dummy);
  Alcotest.(check bool) "proc task real" true (p (Model.Task.Proc 0) = Model.System.Prefer_real)

let test_participants () =
  let sys = sys2 0 in
  let s = Model.System.initialize sys [ Value.int 1; Value.int 0 ] in
  let k = cons_task sys "cons" in
  (* Invoke: process + service. *)
  (match Model.System.participants sys s (Model.Task.Proc 0) with
  | [ Model.System.P 0; Model.System.S k' ] -> Alcotest.(check int) "svc" k k'
  | _ -> Alcotest.fail "invoke participants");
  let s1 =
    match Model.System.transition sys s (Model.Task.Proc 0) with
    | Some (_, s) -> s
    | None -> assert false
  in
  (* Perform: service only. *)
  (match Model.System.participants sys s1 (Model.Task.Svc_perform { svc = k; endpoint = 0 }) with
  | [ Model.System.S k' ] -> Alcotest.(check int) "svc only" k k'
  | _ -> Alcotest.fail "perform participants");
  (* Disabled task: no participants. *)
  Alcotest.(check int) "disabled" 0
    (List.length (Model.System.participants sys s (Model.Task.Svc_output { svc = k; endpoint = 0 })))

(* --- Executions --- *)

let test_exec_replay_and_strip () =
  let sys = sys2 0 in
  let exec = initialized sys (int_inputs [ 1; 0 ]) in
  Alcotest.(check bool) "failure-free" true (Model.Exec.is_failure_free exec);
  Alcotest.(check int) "two inits" 2 (Model.Exec.length exec);
  let k = cons_task sys "cons" in
  let tasks =
    [
      Model.Task.Proc 0;
      Model.Task.Svc_perform { svc = k; endpoint = 0 };
      Model.Task.Svc_output { svc = k; endpoint = 0 };
      Model.Task.Proc 0;
    ]
  in
  (match Model.Exec.replay_tasks sys exec tasks with
  | Some exec2 ->
    Alcotest.(check int) "replayed" 6 (Model.Exec.length exec2);
    Alcotest.(check (list (pair int int)))
      "decide event" [ 0, 1 ]
      (List.map (fun (i, v) -> i, Value.to_int v) (Model.Exec.decide_events exec2));
    Alcotest.(check int) "task labels" 4 (List.length (Model.Exec.task_labels exec2));
    (* strip with keep = everything-but-P0 drops two steps *)
    let kept =
      Model.Exec.strip exec2 ~keep:(fun st ->
        match st.Model.Exec.label with Model.Exec.L_task (Model.Task.Proc 0) -> false | _ -> true)
    in
    Alcotest.(check int) "stripped" 2 (List.length kept)
  | None -> Alcotest.fail "replay failed");
  (* replaying an inapplicable task fails *)
  Alcotest.(check bool) "inapplicable replay" true
    (Model.Exec.replay_tasks sys exec [ Model.Task.Svc_perform { svc = k; endpoint = 0 } ] = None)

let test_exec_fail_label () =
  let sys = sys2 0 in
  let exec = initialized sys (int_inputs [ 1; 0 ]) in
  let exec = Model.Exec.append_fail sys exec 1 in
  Alcotest.(check bool) "not failure-free" false (Model.Exec.is_failure_free exec);
  Alcotest.check iset_testable "failed in state" (Spec.Iset.of_list [ 1 ])
    (Model.Exec.last_state exec).Model.State.failed

(* --- Schedulers --- *)

let test_round_robin_decides () =
  let sys = sys2 0 in
  let final, outcome, exec = run_rr sys [ 1; 0 ] in
  (match outcome with
  | Model.Scheduler.Scheduler_stop | Model.Scheduler.Stopped -> ()
  | o -> Alcotest.failf "unexpected outcome %a" Model.Scheduler.pp_outcome o);
  let r = Model.Properties.check final in
  Alcotest.(check bool) "consensus reached" true
    (r.Model.Properties.agreement && r.Model.Properties.validity && r.Model.Properties.termination);
  Alcotest.(check bool) "per-process agreement" true (Model.Properties.per_process_agreement exec)

let test_round_robin_fault_injection () =
  let sys = sys2 1 in
  (* wait-free object: survivor decides despite a failure *)
  let final, _, _ = run_rr ~faults:[ (0, 0) ] sys [ 1; 0 ] in
  Alcotest.(check bool) "P0 failed" true (Spec.Iset.mem 0 final.Model.State.failed);
  Alcotest.(check bool) "survivor decided" true (Option.is_some final.Model.State.decisions.(1));
  Alcotest.(check bool) "termination (modified)" true (Model.Properties.termination final)

let test_random_scheduler_reproducible () =
  let sys = sys2 0 in
  let s1, _, e1 = run_random ~seed:42 ~stop_when:Model.Properties.termination sys [ 1; 0 ] in
  let s2, _, e2 = run_random ~seed:42 ~stop_when:Model.Properties.termination sys [ 1; 0 ] in
  Alcotest.check state_testable "same seed, same state" s1 s2;
  Alcotest.(check int) "same length" (Model.Exec.length e1) (Model.Exec.length e2)

let test_random_scheduler_decides () =
  let sys = sys2 0 in
  List.iter
    (fun seed ->
      let final, _, _ = run_random ~seed ~stop_when:Model.Properties.termination sys [ 0; 1 ] in
      let r = Model.Properties.check final in
      Alcotest.(check bool) "consensus ok" true
        (r.Model.Properties.agreement && r.Model.Properties.validity && r.Model.Properties.termination))
    [ 1; 2; 3; 4; 5 ]

(* --- Properties --- *)

let test_properties_checks () =
  let sys = sys2 0 in
  let s = Model.System.initialize sys [ Value.int 1; Value.int 0 ] in
  Alcotest.(check bool) "vacuous agreement" true (Model.Properties.agreement s);
  Alcotest.(check bool) "no termination yet" false (Model.Properties.termination s);
  let s1 = Model.State.with_decision s 0 (Value.int 1) in
  let s2 = Model.State.with_decision s1 1 (Value.int 0) in
  Alcotest.(check bool) "disagreement detected" false (Model.Properties.agreement s2);
  Alcotest.(check bool) "2-agreement ok" true (Model.Properties.agreement ~k:2 s2);
  Alcotest.(check bool) "validity ok (both inputs)" true (Model.Properties.validity s2);
  let s3 = Model.State.with_decision s 0 (Value.int 7) in
  Alcotest.(check bool) "invalid decision detected" false (Model.Properties.validity s3);
  Alcotest.(check bool) "termination after both decide" true (Model.Properties.termination s2);
  (* failed process exempt from termination *)
  let s4 = Model.State.with_failed s1 (Spec.Iset.of_list [ 1 ]) in
  Alcotest.(check bool) "failed exempt" true (Model.Properties.termination s4)

let suite =
  ( "model",
    [
      Alcotest.test_case "state updates" `Quick test_state_updates;
      Alcotest.test_case "state hash/equal" `Quick test_state_hash_equal;
      Alcotest.test_case "service buffers" `Quick test_svc_buffers;
      Alcotest.test_case "coalescing" `Quick test_svc_coalesce;
      Alcotest.test_case "incremental hash = rebuilt hash" `Quick test_incremental_hash;
      Alcotest.test_case "service descriptor" `Quick test_service_descriptor;
      Alcotest.test_case "register descriptor" `Quick test_register_descriptor;
      Alcotest.test_case "system validation" `Quick test_system_validation;
      Alcotest.test_case "task enumeration" `Quick test_task_enumeration;
      Alcotest.test_case "initialize" `Quick test_initialize;
      Alcotest.test_case "process transition flow" `Quick test_proc_transition_flow;
      Alcotest.test_case "perform requires invocation" `Quick test_perform_disabled_without_invocation;
      Alcotest.test_case "failed process dummy" `Quick test_failed_process_dummy;
      Alcotest.test_case "policy silencing" `Quick test_policy_silencing;
      Alcotest.test_case "resilient service not silenceable" `Quick test_resilient_service_not_silenceable;
      Alcotest.test_case "selective silence policy" `Quick test_silence_policy_selective;
      Alcotest.test_case "participants" `Quick test_participants;
      Alcotest.test_case "exec replay and strip" `Quick test_exec_replay_and_strip;
      Alcotest.test_case "exec fail label" `Quick test_exec_fail_label;
      Alcotest.test_case "round-robin decides" `Quick test_round_robin_decides;
      Alcotest.test_case "fault injection" `Quick test_round_robin_fault_injection;
      Alcotest.test_case "random scheduler reproducible" `Quick test_random_scheduler_reproducible;
      Alcotest.test_case "random scheduler decides" `Quick test_random_scheduler_decides;
      Alcotest.test_case "property checkers" `Quick test_properties_checks;
    ] )
