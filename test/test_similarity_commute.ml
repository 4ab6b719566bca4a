(* Tests for the similarity notions (§3.5/§6.3) and the Lemma 8 commutation
   facts, checked mechanically over explored graphs. *)

open Ioa
open Helpers
module E = Engine

let test_identical_states_similar () =
  let sys = Protocols.Direct.system ~n:2 ~f:0 in
  let s = Model.System.initialize sys (int_inputs [ 1; 0 ]) in
  List.iter
    (fun j -> Alcotest.(check bool) "j-similar to itself" true (E.Similarity.j_similar sys ~j s s))
    [ 0; 1 ];
  Alcotest.(check bool) "k-similar to itself" true (E.Similarity.k_similar sys ~k:0 s s);
  Alcotest.(check (list int)) "all j witnesses" [ 0; 1 ] (E.Similarity.j_witnesses sys s s);
  Alcotest.(check (list int)) "all k witnesses" [ 0 ] (E.Similarity.k_witnesses sys s s)

let test_j_similarity_detects_proc_difference () =
  let sys = Protocols.Direct.system ~n:2 ~f:0 in
  let s = Model.System.initialize sys (int_inputs [ 1; 0 ]) in
  let s' = Model.State.with_proc s 0 (Value.str "different") in
  Alcotest.(check bool) "0-similar (only P0 differs)" true (E.Similarity.j_similar sys ~j:0 s s');
  Alcotest.(check bool) "not 1-similar" false (E.Similarity.j_similar sys ~j:1 s s');
  Alcotest.(check bool) "not k-similar (procs differ)" false
    (E.Similarity.k_similar sys ~k:0 s s')

let test_k_similarity_detects_service_difference () =
  let sys = Protocols.Direct.system ~n:2 ~f:0 in
  let s = Model.System.initialize sys (int_inputs [ 1; 0 ]) in
  let svc = s.Model.State.svcs.(0) in
  let s' = Model.State.with_svc s 0 (Model.State.svc_with_value svc (Value.str "x")) in
  Alcotest.(check bool) "k-similar" true (E.Similarity.k_similar sys ~k:0 s s');
  (* A service-value difference is not hidden by any j. *)
  Alcotest.(check (list int)) "no j witnesses" [] (E.Similarity.j_witnesses sys s s')

let test_j_similarity_ignores_j_buffers () =
  let sys = Protocols.Direct.system ~n:2 ~f:0 in
  let s = Model.System.initialize sys (int_inputs [ 1; 0 ]) in
  let svc = Model.State.svc_push_inv s.Model.State.svcs.(0) ~pos:0 (Value.int 9) in
  let s' = Model.State.with_svc s 0 svc in
  Alcotest.(check bool) "0-similar (only buffer(0) differs)" true
    (E.Similarity.j_similar sys ~j:0 s s');
  Alcotest.(check bool) "not 1-similar" false (E.Similarity.j_similar sys ~j:1 s s')

let test_decisions_break_similarity () =
  (* The recorded decision is part of the process component (§2.2.1). *)
  let sys = Protocols.Direct.system ~n:2 ~f:0 in
  let s = Model.System.initialize sys (int_inputs [ 1; 0 ]) in
  let s' = Model.State.with_decision s 1 (Value.int 0) in
  Alcotest.(check bool) "not 0-similar (P1's decision differs)" false
    (E.Similarity.j_similar sys ~j:0 s s');
  Alcotest.(check bool) "1-similar" true (E.Similarity.j_similar sys ~j:1 s s')

let test_general_services_exempt () =
  (* §6.3: failure-aware services are not constrained by similarity. *)
  let sys = Protocols.Fd_allconnected.system ~n:2 ~f:0 in
  let s = Model.System.initialize sys (int_inputs [ 1; 0 ]) in
  let fd_pos = Model.System.service_pos sys Protocols.Fd_allconnected.fd_id in
  let svc = s.Model.State.svcs.(fd_pos) in
  let s' =
    Model.State.with_svc s fd_pos
      (Model.State.svc_push_resp svc ~pos:0 (Value.str "junk"))
  in
  List.iter
    (fun j ->
      Alcotest.(check bool) "FD state exempt from j-similarity" true
        (E.Similarity.j_similar sys ~j s s'))
    [ 0; 1 ]

let hook_end_states sys =
  match E.Initialization.find_bivalent sys with
  | None -> Alcotest.fail "no bivalent init"
  | Some entry -> (
    let a = entry.E.Initialization.analysis in
    match E.Hook.find a with
    | E.Hook.Hook h ->
      let g = E.Valence.graph a in
      sys, a, h, E.Graph.state g h.E.Hook.alpha0, E.Graph.state g h.E.Hook.alpha1
    | r -> Alcotest.failf "no hook: %a" E.Hook.pp_result r)

let test_hook_endpoints_k_similar_direct () =
  (* Claim 4 case 1: both hook tasks are perform tasks of the consensus
     object, so the endpoint states are k-similar for it. *)
  let sys, _, _, s0, s1 = hook_end_states (Protocols.Direct.system ~n:2 ~f:0) in
  Alcotest.(check (list int)) "k-witness is the object" [ 0 ]
    (E.Similarity.k_witnesses sys s0 s1);
  Alcotest.(check (list int)) "not j-similar" [] (E.Similarity.j_witnesses sys s0 s1)

let test_commute_disjoint_no_violations () =
  List.iter
    (fun sys ->
      match E.Initialization.find_bivalent sys with
      | None -> Alcotest.fail "no bivalent init"
      | Some entry ->
        let violations = E.Commute.check_disjoint entry.E.Initialization.analysis in
        Alcotest.(check int) "no commutation violations" 0 (List.length violations))
    [
      Protocols.Direct.system ~n:2 ~f:0;
      Protocols.Tob_direct.system ~n:2 ~f:0;
      Protocols.Register_vote.system ();
    ]

let test_hook_intersection () =
  let _, a, h, _, _ = hook_end_states (Protocols.Direct.system ~n:2 ~f:0) in
  match E.Commute.check_hook_intersection a h with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_shared_participant () =
  let sys = Protocols.Direct.system ~n:2 ~f:0 in
  (* Before any input, both processes take internal dummy steps: their tasks
     have disjoint participants. *)
  let s0 = Model.System.initial_state sys in
  Alcotest.(check bool) "disjoint idle proc tasks" true
    (E.Commute.shared_participant sys s0 (Model.Task.Proc 0) (Model.Task.Proc 1) = None);
  (* After initialization both are about to invoke the same object: the
     object is a shared participant. *)
  let s = Model.System.initialize sys (int_inputs [ 1; 0 ]) in
  (match E.Commute.shared_participant sys s (Model.Task.Proc 0) (Model.Task.Proc 1) with
  | Some (Model.System.S 0) -> ()
  | _ -> Alcotest.fail "expected the shared object as common participant");
  (* After P0's invocation is buffered, P1's invoking task and the service's
     perform task share the service. *)
  let s1 =
    match Model.System.transition sys s (Model.Task.Proc 0) with
    | Some (_, s) -> s
    | None -> assert false
  in
  (match
     E.Commute.shared_participant sys s1 (Model.Task.Proc 1)
       (Model.Task.Svc_perform { svc = 0; endpoint = 0 })
   with
  | Some (Model.System.S 0) -> ()
  | _ -> Alcotest.fail "expected shared service participant");
  (* P0 is now waiting (internal step only): disjoint from the perform
     task. *)
  Alcotest.(check bool) "waiting process disjoint from perform" true
    (E.Commute.shared_participant sys s1 (Model.Task.Proc 0)
       (Model.Task.Svc_perform { svc = 0; endpoint = 0 })
    = None)

let suite =
  ( "similarity-commute",
    [
      Alcotest.test_case "identical states similar" `Quick test_identical_states_similar;
      Alcotest.test_case "j-similarity: process difference" `Quick
        test_j_similarity_detects_proc_difference;
      Alcotest.test_case "k-similarity: service difference" `Quick
        test_k_similarity_detects_service_difference;
      Alcotest.test_case "j-similarity ignores j's buffers" `Quick test_j_similarity_ignores_j_buffers;
      Alcotest.test_case "decisions break similarity" `Quick test_decisions_break_similarity;
      Alcotest.test_case "general services exempt (§6.3)" `Quick test_general_services_exempt;
      Alcotest.test_case "hook endpoints k-similar (direct)" `Quick
        test_hook_endpoints_k_similar_direct;
      Alcotest.test_case "disjoint tasks commute" `Quick test_commute_disjoint_no_violations;
      Alcotest.test_case "hook participants intersect" `Quick test_hook_intersection;
      Alcotest.test_case "shared participant" `Quick test_shared_participant;
    ] )
