(* The abstract-interpretation analyzer, pinned to the exact engine.

   Soundness is differential: on registry protocols small enough to
   materialize G(C), the abstract may-decided set of the seed (failure-free)
   context must over-approximate the exact reachable-decision mask computed
   by Valence.analyze at the root. A golden lint on a deliberately flawed
   candidate checks the blank-protocol diagnostic, and the streaming
   explorer ({!Chaos.Explore.run_par}) is pinned to the plain sequential
   one: identical reports on clean and violating crash spaces. *)

open Ioa
open Helpers
module E = Engine
module A = Analysis

(* --- domain units --- *)

let interval_testable = Alcotest.testable A.Interval.pp A.Interval.equal

let test_interval () =
  let open A.Interval in
  Alcotest.check interval_testable "hull" (range 1 4) (hull [ 4; 1; 2 ]);
  Alcotest.check interval_testable "add saturates at 0" (range 0 1) (add (range 0 2) (-1));
  Alcotest.check interval_testable "stretch" (range 1 3) (stretch (range 1 2) 1);
  Alcotest.check interval_testable "pred" (range 0 1) (pred (range 1 2));
  Alcotest.(check bool) "mem inf" true (mem 1_000_000 (unbounded 3));
  Alcotest.(check bool) "bot empty" false (mem 0 bot);
  (* Widening: an unstable upper bound must jump to ∞, and the result must
     bound both arguments. *)
  let w = widen (range 0 1) (range 0 2) in
  Alcotest.(check bool) "widen covers" true (leq (range 0 2) w);
  Alcotest.check interval_testable "widen jumps" (unbounded 0) w;
  Alcotest.check interval_testable "widen stable" (range 0 5) (widen (range 0 5) (range 1 4))

let test_vset_cap () =
  let open A.Vset in
  let vs = List.init (cap + 1) Value.int in
  Alcotest.(check bool) "over cap collapses" true (is_top (of_list vs));
  let s = of_list (List.init cap Value.int) in
  Alcotest.(check bool) "at cap stays finite" false (is_top s);
  Alcotest.(check bool) "top absorbs" true (is_top (add (Value.int cap) s));
  Alcotest.(check bool) "mem top" true (mem (Value.str "anything") top);
  Alcotest.(check bool) "join monotone" true (leq s (join s (singleton (Value.int 0))))

let test_fixpoint_chain () =
  (* x0 = [0,0]; x(i) ⊇ x(i-1) + 1; x1 additionally feeds back into itself,
     so only widening terminates — and the solution must be a
     post-fixpoint. *)
  let module F = A.Fixpoint.Make (A.Interval) in
  let rhs ~get u =
    if u = 0 then A.Interval.zero
    else A.Interval.join (A.Interval.add (get (u - 1)) 1) (A.Interval.add (get u) 1)
  in
  let dependents u = if u < 2 then [ u + 1; u ] else [ u ] in
  let sol, stats = F.solve ~n:3 ~bot:A.Interval.bot ~rhs ~dependents in
  Alcotest.check interval_testable "seed exact" A.Interval.zero sol.(0);
  Alcotest.(check bool) "widened to ∞" true
    (A.Interval.equal sol.(1) (A.Interval.unbounded 1));
  for u = 0 to 2 do
    Alcotest.(check bool) "post-fixpoint" true
      (A.Interval.leq (rhs ~get:(fun v -> sol.(v)) u) sol.(u))
  done;
  Alcotest.(check bool) "widenings counted" true (stats.A.Fixpoint.widenings > 0)

(* --- soundness vs the exact engine --- *)

(* Registry protocols whose G(C) materializes quickly at default params and
   whose decisions are binary (Valence.analyze's precondition). *)
let small_protocols = [ "direct"; "split"; "register-vote"; "register-wait"; "tob"; "tas"; "queue" ]

let build name =
  match Protocols.Registry.find name with
  | Some e -> e.Protocols.Registry.build Protocols.Registry.default_params
  | None -> Alcotest.failf "unknown registry protocol %s" name

let concrete_decided sys inputs =
  let g = E.Graph.explore sys (Model.System.initialize sys (int_inputs inputs)) in
  if not (E.Graph.complete g) then None
  else
    let a = E.Valence.analyze g in
    Some
      (match E.Valence.verdict a (E.Graph.root g) with
      | E.Valence.Blank -> []
      | E.Valence.Zero_valent -> [ 0 ]
      | E.Valence.One_valent -> [ 1 ]
      | E.Valence.Bivalent -> [ 0; 1 ])

let qcheck_abstract_over_approximates =
  let gen =
    QCheck2.Gen.(
      let* which = int_bound (List.length small_protocols - 1) in
      let* bits = list_repeat 2 (int_bound 1) in
      return (List.nth small_protocols which, bits))
  in
  qtest "abstract may-decided ⊇ exact root valence" ~count:60 gen (fun (name, inputs) ->
      let sys = build name in
      match concrete_decided sys inputs with
      | None -> QCheck2.assume_fail ()
      | Some decided ->
        let r = A.Reach.analyze ~inputs:(int_inputs inputs) sys in
        let abstract = A.Reach.may_decided_values r in
        List.for_all (fun v -> A.Vset.mem (Value.int v) abstract) decided)

let test_registry_lints_clean () =
  (* The acceptance bar for `boost lint --all`: no registry protocol is
     worse than Info at default parameters. *)
  List.iter
    (fun e ->
      let sys = e.Protocols.Registry.build Protocols.Registry.default_params in
      let report = A.Lint.analyze sys in
      Alcotest.(check int)
        (Printf.sprintf "%s lints clean" e.Protocols.Registry.name)
        0 (A.Lint.exit_code report))
    Protocols.Registry.all

(* --- golden lint: a deliberately flawed candidate --- *)

(* A one-shot consensus client whose init handler guards on the wrong
   program-state tag: the input is dropped, the process never leaves "idle",
   so nothing is ever invoked and no process can ever emit a decide. The
   analyzer must prove the protocol statically blank. (A subtler flaw — say
   a broken response guard — is still caught by the exact engine but not by
   the independent-attribute abstraction, which loses the process-state ×
   queue correlation once invocations accumulate and degrades to ⊤.) *)
let flawed_system ~n =
  let service = "cons" in
  let st tag fields = Value.pair (Value.str tag) (Value.list fields) in
  let tag s = Value.to_str (fst (Value.to_pair s)) in
  let field s i = List.nth (Value.to_list (snd (Value.to_pair s))) i in
  let is t s = String.equal t (tag s) in
  let client pid =
    let step s =
      if is "have" s then
        Model.Process.Invoke
          {
            service;
            op = Spec.Seq_consensus.init (Value.to_int (field s 0));
            next = st "waiting" [ field s 0 ];
          }
      else if is "got" s then
        Model.Process.Decide { value = field s 0; next = st "done" [ field s 0 ] }
      else Model.Process.Internal s
    in
    (* BUG: arms from a state the automaton never enters, dropping the
       input. *)
    let on_init s v = if is "ready" s then st "have" [ v ] else s in
    let on_response s ~service:src b =
      if is "waiting" s && String.equal src service && Spec.Seq_consensus.is_decide b then
        st "got" [ Value.int (Spec.Seq_consensus.decided_value b) ]
      else s
    in
    Model.Process.make ~pid ~start:(st "idle" []) ~step ~on_init ~on_response ()
  in
  Model.System.make
    ~processes:(List.init n client)
    ~services:
      [ Model.Service.atomic ~id:service ~endpoints:(List.init n Fun.id) ~f:0
          (Spec.Seq_consensus.make ()) ]

let test_golden_flawed_blank () =
  let report = A.Lint.analyze (flawed_system ~n:2) in
  let codes = List.map (fun f -> f.A.Lint.code) report.A.Lint.findings in
  Alcotest.(check bool) "blank-protocol flagged" true (List.mem "blank-protocol" codes);
  Alcotest.(check int) "exit code 1" 1 (A.Lint.exit_code report);
  (* The exact engine agrees: the root of G(C) is Blank. *)
  Alcotest.(check (option (list int))) "engine confirms blank" (Some [])
    (concrete_decided (flawed_system ~n:2) [ 1; 0 ])

let suite =
  ( "analysis",
    [
      Alcotest.test_case "interval domain" `Quick test_interval;
      Alcotest.test_case "vset cap" `Quick test_vset_cap;
      Alcotest.test_case "fixpoint chain widens" `Quick test_fixpoint_chain;
      qcheck_abstract_over_approximates;
      Alcotest.test_case "registry lints clean" `Slow test_registry_lints_clean;
      Alcotest.test_case "golden flawed candidate" `Quick test_golden_flawed_blank;
    ] )
