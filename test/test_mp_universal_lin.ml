(* Three late substrates together:
   - the reliable network service and the message-passing consensus
     candidates (the TR [2] / FLP setting);
   - the universal construction (§1's motivation for consensus);
   - the linearizability checker, validated on canonical-object histories. *)

open Ioa
open Helpers
module C = Engine.Counterexample

(* --- network service --- *)

let courier ~net_id ~payload_to pid =
  let open Protocols.Proto_util in
  let step s =
    if is "send" s then
      Model.Process.Invoke
        {
          service = net_id;
          op = Services.Network.send ~dst:payload_to (Value.int pid);
          next = st "sent" [ field s 0 ];
        }
    else Model.Process.Internal s
  in
  let on_response s ~service b =
    if String.equal service net_id && Services.Network.is_packet b then
      st (tag s) [ Value.queue_push b (field s 0) ]
    else s
  in
  Model.Process.make ~pid ~start:(st "send" [ Value.queue_empty ]) ~step
    ~on_init:(fun s _ -> s)
    ~on_response ()

let inbox (s : Model.State.t) pid =
  Value.to_list (Protocols.Proto_util.field s.Model.State.procs.(pid) 0)

let test_network_delivery () =
  (* Both processes send one packet to process 0; fairness delivers both,
     and only to the addressee. *)
  let endpoints = [ 0; 1 ] in
  let net =
    Model.Service.oblivious ~id:"net" ~endpoints ~f:1
      (Services.Network.make ~endpoints ~alphabet:[ Value.int 0; Value.int 1 ])
  in
  let sys =
    Model.System.make
      ~processes:(List.init 2 (courier ~net_id:"net" ~payload_to:0))
      ~services:[ net ]
  in
  let exec0 = Model.Exec.init (Model.System.initial_state sys) in
  let sched = Model.Scheduler.round_robin sys in
  let exec, _ = Model.Scheduler.run ~max_steps:200 sys exec0 sched in
  let final = Model.Exec.last_state exec in
  Alcotest.(check int) "addressee got both" 2 (List.length (inbox final 0));
  Alcotest.(check int) "other inbox empty" 0 (List.length (inbox final 1))

let test_network_silencing () =
  (* A 0-resilient network drops everything after one failure under the
     adversarial policy. *)
  let endpoints = [ 0; 1; 2 ] in
  let net =
    Model.Service.oblivious ~id:"net" ~endpoints ~f:0
      (Services.Network.make ~endpoints ~alphabet:[ Value.int 0; Value.int 1; Value.int 2 ])
  in
  let sys =
    Model.System.make
      ~processes:(List.init 3 (courier ~net_id:"net" ~payload_to:0))
      ~services:[ net ]
  in
  let exec0 = Model.Exec.init (Model.System.initial_state sys) in
  let sched = Model.Scheduler.round_robin ~quiesce:false ~faults:[ (0, 2) ] sys in
  let exec, _ =
    Model.Scheduler.run ~policy:Model.System.dummy_policy ~max_steps:400 sys exec0 sched
  in
  Alcotest.(check int) "nothing delivered" 0 (List.length (inbox (Model.Exec.last_state exec) 0))

(* --- message-passing consensus candidates --- *)

let test_mp_all_refuted () =
  match (C.refute ~failures:1 (Protocols.Mp_consensus.all_system ~n:3)).C.outcome with
  | C.Refuted (C.Non_termination { proven = true; _ }) -> ()
  | o -> Alcotest.failf "expected lasso non-termination, got %a" C.pp_outcome o

let test_mp_quorum_refuted () =
  match (C.refute ~failures:1 (Protocols.Mp_consensus.quorum_system ~n:3)).C.outcome with
  | C.Refuted (C.Agreement_violation exec) ->
    Alcotest.(check bool) "failure-free witness" true (Model.Exec.is_failure_free exec)
  | o -> Alcotest.failf "expected agreement violation, got %a" C.pp_outcome o

let test_mp_all_correct_failure_free () =
  (* The safe variant does decide the global minimum when nobody fails. *)
  let sys = Protocols.Mp_consensus.all_system ~n:3 in
  let final, _, _ = run_rr sys [ 1; 0; 1 ] in
  List.iter
    (fun pid ->
      match final.Model.State.decisions.(pid) with
      | Some v -> Alcotest.(check int) "global minimum" 0 (Value.to_int v)
      | None -> Alcotest.failf "process %d undecided" pid)
    [ 0; 1; 2 ]

(* --- universal construction --- *)

let universal_counter n =
  Protocols.Universal.system ~obj:(Spec.Seq_counter.make ())
    ~ops:(List.init n (fun _ -> Spec.Seq_counter.increment))

let test_universal_failure_free () =
  let n = 3 in
  let sys = universal_counter n in
  let final, _, _ = run_rr ~max_steps:60_000 sys (List.init n Fun.id) in
  let resps =
    List.map
      (fun (_, v) -> Spec.Op.int_arg v)
      (Model.State.decided_pairs final)
  in
  (* Three increments linearize: the pre-values are exactly {0, 1, 2}. *)
  Alcotest.(check (list int)) "linearized counter" [ 0; 1; 2 ] (List.sort Int.compare resps)

let test_universal_under_failures () =
  let n = 3 in
  List.iter
    (fun seed ->
      let sys = universal_counter n in
      let final, _, _ =
        run_random ~policy:Model.System.dummy_policy ~seed ~fail_prob:0.02
          ~max_failures:(n - 1) ~stop_when:Model.Properties.termination ~max_steps:60_000
          sys (List.init n Fun.id)
      in
      Alcotest.(check bool) "wait-free termination" true (Model.Properties.termination final);
      (* Every survivor's response is a distinct pre-value. *)
      let resps =
        List.map (fun (_, v) -> Spec.Op.int_arg v) (Model.State.decided_pairs final)
      in
      Alcotest.(check int) "distinct responses" (List.length resps)
        (List.length (List.sort_uniq Int.compare resps)))
    (List.init 10 Fun.id)

(* E13's verdict reads the client history, not the response set: a run whose
   pre-values {0, 1, 2} are rewritten to the distinct but impossible
   {0, 1, 3} passes a distinctness count and fails linearizability. *)
let test_universal_history_checked () =
  let n = 3 in
  let counter = Spec.Seq_counter.make () in
  let _, _, exec = run_rr ~max_steps:60_000 (universal_counter n) (List.init n Fun.id) in
  let h = Experiments.counter_history exec in
  Alcotest.(check bool) "real history linearizable" true (Model.Linearize.check counter h);
  let forged =
    List.map
      (function
        | Model.Linearize.Return { endpoint; resp } when Spec.Op.int_arg resp = 2 ->
          Model.Linearize.Return { endpoint; resp = Spec.Seq_counter.count 3 }
        | ev -> ev)
      h
  in
  let resps =
    List.filter_map
      (function
        | Model.Linearize.Return { resp; _ } -> Some (Spec.Op.int_arg resp) | _ -> None)
      forged
  in
  Alcotest.(check (list int)) "forged responses distinct" [ 0; 1; 3 ]
    (List.sort_uniq Int.compare resps);
  Alcotest.(check bool) "forged history rejected" false
    (Model.Linearize.check counter forged)

let test_universal_logs_prefix_consistent () =
  let n = 3 in
  let sys = universal_counter n in
  let final, _, _ = run_rr ~max_steps:60_000 sys (List.init n Fun.id) in
  (* While running, the processes' commit logs agree on the common prefix;
     at termination all are prefixes of one another. *)
  let logs = List.map (fun pid -> Protocols.Universal.log_of final ~pid) [ 0; 1; 2 ] in
  let rec is_prefix a b =
    match a, b with
    | [], _ -> true
    | _, [] -> false
    | x :: a', y :: b' -> x = y && is_prefix a' b'
  in
  List.iter
    (fun a -> List.iter (fun b -> Alcotest.(check bool) "prefix" true (is_prefix a b || is_prefix b a)) logs)
    logs

(* --- linearizability checker --- *)

let register = Spec.Seq_register.make ~values:[ Value.int 0; Value.int 1 ] ~initial:(Value.int 0)

let call i op = Model.Linearize.Call { endpoint = i; op }
let ret i resp = Model.Linearize.Return { endpoint = i; resp }

let test_linearize_sequential () =
  Alcotest.(check bool) "write then read" true
    (Model.Linearize.check register
       [
         call 0 (Spec.Seq_register.write (Value.int 1));
         ret 0 Spec.Seq_register.ack;
         call 1 Spec.Seq_register.read;
         ret 1 (Spec.Seq_register.value_resp (Value.int 1));
       ])

let test_linearize_stale_read_rejected () =
  Alcotest.(check bool) "stale read after completed write" false
    (Model.Linearize.check register
       [
         call 0 (Spec.Seq_register.write (Value.int 1));
         ret 0 Spec.Seq_register.ack;
         call 1 Spec.Seq_register.read;
         ret 1 (Spec.Seq_register.value_resp (Value.int 0));
       ])

let test_linearize_concurrent_flexibility () =
  (* A read overlapping a write may return either value. *)
  let overlapping resp =
    [
      call 0 (Spec.Seq_register.write (Value.int 1));
      call 1 Spec.Seq_register.read;
      ret 1 (Spec.Seq_register.value_resp (Value.int resp));
      ret 0 Spec.Seq_register.ack;
    ]
  in
  Alcotest.(check bool) "overlapping read: old value ok" true
    (Model.Linearize.check register (overlapping 0));
  Alcotest.(check bool) "overlapping read: new value ok" true
    (Model.Linearize.check register (overlapping 1))

let test_linearize_pending_ok () =
  (* An invocation without a response is fine (it may or may not have taken
     effect). *)
  Alcotest.(check bool) "pending write" true
    (Model.Linearize.check register
       [
         call 0 (Spec.Seq_register.write (Value.int 1));
         call 1 Spec.Seq_register.read;
         ret 1 (Spec.Seq_register.value_resp (Value.int 1));
       ])

let test_linearize_canonical_histories () =
  (* Histories observed at canonical objects on random schedules are
     linearizable — for several types. *)
  let consensus = Spec.Seq_consensus.make () in
  let direct = Protocols.Direct.system ~n:3 ~f:2 in
  List.iter
    (fun seed ->
      let _, _, exec =
        run_random ~seed ~stop_when:Model.Properties.termination direct [ 0; 1; 1 ]
      in
      let h = Model.Linearize.history exec ~service:Protocols.Direct.service_id in
      Alcotest.(check bool) "consensus history linearizable" true
        (Model.Linearize.check consensus h))
    (List.init 8 Fun.id);
  let tas_sys = Protocols.Tas_consensus.system ~f:1 in
  List.iter
    (fun seed ->
      let _, _, exec =
        run_random ~seed ~stop_when:Model.Properties.termination tas_sys [ 1; 0 ]
      in
      let h = Model.Linearize.history exec ~service:Protocols.Tas_consensus.tas_id in
      Alcotest.(check bool) "test&set history linearizable" true
        (Model.Linearize.check (Spec.Seq_tas.make ()) h))
    (List.init 8 Fun.id)

let test_linearize_nondeterministic_type () =
  let kset = Spec.Seq_kset.make ~k:2 ~n:3 in
  Alcotest.(check bool) "either remembered value acceptable" true
    (Model.Linearize.check kset
       [
         call 0 (Spec.Seq_kset.init 2);
         ret 0 (Spec.Seq_kset.decide 2);
         call 1 (Spec.Seq_kset.init 1);
         ret 1 (Spec.Seq_kset.decide 2);
       ]
    && Model.Linearize.check kset
         [
           call 0 (Spec.Seq_kset.init 2);
           ret 0 (Spec.Seq_kset.decide 2);
           call 1 (Spec.Seq_kset.init 1);
           ret 1 (Spec.Seq_kset.decide 1);
         ]);
  Alcotest.(check bool) "unremembered value rejected" false
    (Model.Linearize.check kset
       [
         call 0 (Spec.Seq_kset.init 2);
         ret 0 (Spec.Seq_kset.decide 0);
       ])

let suite =
  ( "mp-universal-lin",
    [
      Alcotest.test_case "network delivery" `Quick test_network_delivery;
      Alcotest.test_case "network silencing" `Quick test_network_silencing;
      Alcotest.test_case "mp-all refuted (termination)" `Quick test_mp_all_refuted;
      Alcotest.test_case "mp-quorum refuted (agreement)" `Quick test_mp_quorum_refuted;
      Alcotest.test_case "mp-all correct failure-free" `Quick test_mp_all_correct_failure_free;
      Alcotest.test_case "universal: failure-free counter" `Quick test_universal_failure_free;
      Alcotest.test_case "universal: wait-free under failures" `Quick test_universal_under_failures;
      Alcotest.test_case "universal: log prefix consistency" `Quick
        test_universal_logs_prefix_consistent;
      Alcotest.test_case "universal: client history checked" `Quick
        test_universal_history_checked;
      Alcotest.test_case "linearize: sequential" `Quick test_linearize_sequential;
      Alcotest.test_case "linearize: stale read rejected" `Quick test_linearize_stale_read_rejected;
      Alcotest.test_case "linearize: concurrency flexibility" `Quick
        test_linearize_concurrent_flexibility;
      Alcotest.test_case "linearize: pending ops" `Quick test_linearize_pending_ok;
      Alcotest.test_case "linearize: canonical histories" `Quick test_linearize_canonical_histories;
      Alcotest.test_case "linearize: nondeterministic type" `Quick
        test_linearize_nondeterministic_type;
    ] )
