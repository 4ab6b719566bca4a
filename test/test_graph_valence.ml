(* Tests for G(C) exploration (§3.3) and exact valence analysis (§3.2):
   graph structure, determinism of task edges, staircase verdicts, SCC
   handling on cyclic graphs, and anomaly detection. *)

open Helpers
module E = Engine

let explore sys inputs =
  let start = Model.System.initialize sys (int_inputs inputs) in
  E.Graph.explore sys start

let test_graph_basics () =
  let sys = Protocols.Direct.system ~n:2 ~f:0 in
  let g = explore sys [ 1; 0 ] in
  Alcotest.(check bool) "complete" true (E.Graph.complete g);
  Alcotest.(check bool) "nonempty" true (E.Graph.size g > 1);
  Alcotest.(check int) "root" 0 (E.Graph.root g);
  (* Root state is the initialization. *)
  Alcotest.check state_testable "root state"
    (Model.System.initialize sys (int_inputs [ 1; 0 ]))
    (E.Graph.state g 0);
  Alcotest.(check (option int)) "index of root" (Some 0)
    (E.Graph.index_of g (E.Graph.state g 0))

let test_graph_deterministic_edges () =
  let sys = Protocols.Direct.system ~n:2 ~f:0 in
  let g = explore sys [ 1; 0 ] in
  (* §3.1: at most one e-labelled edge per vertex. *)
  E.Graph.iter_states g (fun i _ ->
    let labels = List.map fst (E.Graph.succs g i) in
    let sorted = List.sort_uniq Model.Task.compare labels in
    Alcotest.(check int) "unique task labels" (List.length labels) (List.length sorted))

let test_graph_successor_consistent () =
  let sys = Protocols.Direct.system ~n:2 ~f:0 in
  let g = explore sys [ 1; 0 ] in
  E.Graph.iter_states g (fun i s ->
    List.iter
      (fun (e, j) ->
        (* The edge matches the system's transition function. *)
        match Model.System.transition sys s e with
        | Some (_, s') ->
          Alcotest.check state_testable "edge target" s' (E.Graph.state g j);
          Alcotest.(check (option int)) "successor lookup" (Some j) (E.Graph.successor g i e)
        | None -> Alcotest.fail "edge for disabled task")
      (E.Graph.succs g i))

let test_graph_path_between () =
  let sys = Protocols.Direct.system ~n:2 ~f:0 in
  let g = explore sys [ 1; 0 ] in
  let dst = E.Graph.size g - 1 in
  (match E.Graph.path_between g ~src:0 ~dst with
  | Some tasks ->
    (* Walk the path and land on dst. *)
    let v =
      List.fold_left
        (fun v e ->
          match E.Graph.successor g v e with
          | Some w -> w
          | None -> Alcotest.fail "path step invalid")
        0 tasks
    in
    Alcotest.(check int) "path reaches dst" dst v
  | None -> Alcotest.fail "graph is connected from root");
  Alcotest.(check (option (list task_testable))) "self path" (Some [])
    (E.Graph.path_between g ~src:0 ~dst:0)

let test_graph_budget () =
  let sys = Protocols.Direct.system ~n:2 ~f:0 in
  let start = Model.System.initialize sys (int_inputs [ 1; 0 ]) in
  let g = E.Graph.explore ~max_states:3 sys start in
  Alcotest.(check bool) "incomplete" false (E.Graph.complete g)

let test_staircase_direct () =
  let sys = Protocols.Direct.system ~n:2 ~f:0 in
  let entries = E.Initialization.staircase sys in
  let verdicts = List.map (fun e -> e.E.Initialization.verdict) entries in
  Alcotest.(check (list verdict_testable)) "0-valent, bivalent, 1-valent"
    [ E.Valence.Zero_valent; E.Valence.Bivalent; E.Valence.One_valent ]
    verdicts

let test_staircase_register_wait () =
  (* min-deciding protocol: only the all-ones initialization is 1-valent. *)
  let sys = Protocols.Register_wait.system () in
  let entries = E.Initialization.staircase sys in
  let verdicts = List.map (fun e -> e.E.Initialization.verdict) entries in
  Alcotest.(check (list verdict_testable)) "univalent staircase"
    [ E.Valence.Zero_valent; E.Valence.Zero_valent; E.Valence.One_valent ]
    verdicts;
  Alcotest.(check bool) "no bivalent entry" true
    (E.Initialization.find_bivalent sys = None);
  match E.Initialization.staircase_flip entries with
  | Some (a, b) ->
    Alcotest.check verdict_testable "flip left" E.Valence.Zero_valent a.E.Initialization.verdict;
    Alcotest.check verdict_testable "flip right" E.Valence.One_valent b.E.Initialization.verdict
  | None -> Alcotest.fail "expected a staircase flip"

let test_all_binary () =
  let sys = Protocols.Direct.system ~n:2 ~f:0 in
  let entries = E.Initialization.all_binary sys in
  Alcotest.(check int) "4 initializations" 4 (List.length entries);
  (* [0;1] and [1;0] are the bivalent ones. *)
  let bivalent =
    List.filter
      (fun e -> E.Valence.equal_verdict e.E.Initialization.verdict E.Valence.Bivalent)
      entries
  in
  Alcotest.(check int) "two bivalent" 2 (List.length bivalent)

let test_valence_monotone_along_edges () =
  (* The reachable-decision mask of a successor is a subset of its
     predecessor's. *)
  let sys = Protocols.Direct.system ~n:2 ~f:0 in
  let g = explore sys [ 1; 0 ] in
  let a = E.Valence.analyze g in
  let mask i =
    match E.Valence.verdict a i with
    | E.Valence.Blank -> 0
    | E.Valence.Zero_valent -> 1
    | E.Valence.One_valent -> 2
    | E.Valence.Bivalent -> 3
  in
  E.Graph.iter_states g (fun i _ ->
    List.iter
      (fun (_, j) ->
        Alcotest.(check bool) "succ mask subset" true (mask j land lnot (mask i) = 0))
      (E.Graph.succs g i))

let test_valence_counts () =
  let sys = Protocols.Direct.system ~n:2 ~f:0 in
  let g = explore sys [ 1; 0 ] in
  let a = E.Valence.analyze g in
  Alcotest.(check bool) "exact" true (E.Valence.is_exact a);
  Alcotest.(check bool) "bivalent root" true
    (E.Valence.equal_verdict (E.Valence.verdict a 0) E.Valence.Bivalent);
  Alcotest.(check bool) "has 0-valent states" true (E.Valence.count a E.Valence.Zero_valent > 0);
  Alcotest.(check bool) "has 1-valent states" true (E.Valence.count a E.Valence.One_valent > 0);
  Alcotest.(check int) "no blank states in a live protocol" 0 (E.Valence.count a E.Valence.Blank);
  Alcotest.(check int) "counts partition" (E.Graph.size g)
    (E.Valence.count a E.Valence.Zero_valent
    + E.Valence.count a E.Valence.One_valent
    + E.Valence.count a E.Valence.Bivalent
    + E.Valence.count a E.Valence.Blank)

let test_valence_cycles () =
  (* register_wait has polling cycles before decisions; SCC condensation must
     still give exact verdicts. *)
  let sys = Protocols.Register_wait.system () in
  let g = explore sys [ 1; 0 ] in
  let a = E.Valence.analyze g in
  Alcotest.(check bool) "exact" true (E.Valence.is_exact a);
  Alcotest.(check bool) "root 0-valent (min of 1,0)" true
    (E.Valence.equal_verdict (E.Valence.verdict a 0) E.Valence.Zero_valent)

let test_anomaly_detection () =
  let ok = Protocols.Direct.system ~n:2 ~f:0 in
  let g = explore ok [ 1; 0 ] in
  let a = E.Valence.analyze g in
  Alcotest.(check (option int)) "no disagreement in correct object" None
    (E.Valence.first_disagreement a);
  Alcotest.(check (option int)) "no invalid decision" None (E.Valence.first_invalid_decision a);
  let bad = Protocols.Split.system ~n:2 in
  let g = explore bad [ 1; 0 ] in
  let a = E.Valence.analyze g in
  Alcotest.(check bool) "split disagrees" true (Option.is_some (E.Valence.first_disagreement a))

let test_verdict_of_state () =
  let sys = Protocols.Direct.system ~n:2 ~f:0 in
  let g = explore sys [ 1; 0 ] in
  let a = E.Valence.analyze g in
  Alcotest.(check bool) "root verdict via state" true
    (match E.Valence.verdict_of_state a (E.Graph.state g 0) with
    | Some v -> E.Valence.equal_verdict v E.Valence.Bivalent
    | None -> false);
  (* A state outside the graph: unknown. *)
  let other = Model.System.initialize sys (int_inputs [ 0; 0 ]) in
  Alcotest.(check bool) "foreign state" true (E.Valence.verdict_of_state a other = None)

let suite =
  ( "graph-valence",
    [
      Alcotest.test_case "graph basics" `Quick test_graph_basics;
      Alcotest.test_case "deterministic edges" `Quick test_graph_deterministic_edges;
      Alcotest.test_case "edges match transitions" `Quick test_graph_successor_consistent;
      Alcotest.test_case "path between" `Quick test_graph_path_between;
      Alcotest.test_case "exploration budget" `Quick test_graph_budget;
      Alcotest.test_case "staircase: direct" `Quick test_staircase_direct;
      Alcotest.test_case "staircase: register_wait flip" `Quick test_staircase_register_wait;
      Alcotest.test_case "all binary initializations" `Quick test_all_binary;
      Alcotest.test_case "valence monotone along edges" `Quick test_valence_monotone_along_edges;
      Alcotest.test_case "valence counts" `Quick test_valence_counts;
      Alcotest.test_case "valence with cycles" `Quick test_valence_cycles;
      Alcotest.test_case "anomaly detection" `Quick test_anomaly_detection;
      Alcotest.test_case "verdict of state" `Quick test_verdict_of_state;
    ] )
