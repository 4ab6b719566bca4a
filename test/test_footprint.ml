(* Task footprints' independence relation, pinned to the concrete semantics.

   The soundness obligation is directional: whenever the footprints declare
   two tasks independent, the concrete transition function must commute
   them — same final state, applicability preserved either way, under
   either policy resolution. The converse (interfering pairs that happen to
   commute) is allowed slack. Footprints are read by task position, as
   {!Analysis.Footprint.of_system} returns them. *)

open Helpers
module A = Analysis

(* --- concrete commutation oracles --- *)

(* Strong commutation at a state: matching applicability in both orders and,
   when both tasks fire, equal final states (Engine.Commute.commute_at also
   demands applicability is preserved across the swap). *)
let commutes ?policy sys s e e' =
  let step tk st = Model.System.transition ?policy sys st tk in
  match step e s, step e' s with
  | None, None -> true
  | Some (_, s_e), None -> Option.is_none (step e' s_e)
  | None, Some (_, s_e') -> Option.is_none (step e s_e')
  | Some _, Some _ -> (
    match Engine.Commute.commute_at ?policy sys s e e' with
    | Ok () -> true
    | Error _ -> false)

let policies = [ Model.System.real_policy; Model.System.dummy_policy ]

(* Every statically-independent claim the analysis makes at [s] must hold
   concretely; returns a counterexample description, or None. *)
let independence_sound fps sys s =
  let tasks = sys.Model.System.tasks in
  let n = Array.length tasks in
  let bad = ref None in
  let note msg = if !bad = None then bad := Some msg in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if A.Footprint.independent fps.(i) fps.(j) then
        List.iter
          (fun policy ->
            if not (commutes ~policy sys s tasks.(i) tasks.(j)) then
              note
                (Format.asprintf "%a / %a do not commute at %a" Model.Task.pp tasks.(i)
                   Model.Task.pp tasks.(j) Model.State.pp s))
          policies
    done
  done;
  !bad

(* --- protocols under test --- *)

let build name =
  match Protocols.Registry.find name with
  | Some e -> e.Protocols.Registry.build Protocols.Registry.default_params
  | None -> Alcotest.failf "unknown registry protocol %s" name

let small_protocols = [ "direct"; "split"; "register-vote"; "tob" ]

(* --- random-walk soundness --- *)

(* Walk the concrete system by arbitrary task/crash choices (at most
   [max_crashes] crashes injected, so every visited state is within the
   bound the footprints assume), then audit every independence claim at the
   final state. *)
let qcheck_walk_soundness =
  let gen =
    QCheck2.Gen.(
      let* which = int_bound (List.length small_protocols - 1) in
      let* bits = list_repeat 2 (int_bound 1) in
      let* max_crashes = int_bound 2 in
      let* picks = list_size (int_bound 25) (int_bound 10_000) in
      let* adversarial = bool in
      return (List.nth small_protocols which, bits, max_crashes, picks, adversarial))
  in
  qtest "independent claims commute along random walks" ~count:150 gen
    (fun (name, bits, max_crashes, picks, adversarial) ->
      let sys = build name in
      let policy =
        if adversarial then Model.System.dummy_policy else Model.System.real_policy
      in
      let n_tasks = Array.length sys.Model.System.tasks in
      let np = Model.System.n_processes sys in
      let s = ref (Model.System.initialize sys (int_inputs bits)) in
      List.iter
        (fun v ->
          if v mod 7 = 0 && Spec.Iset.cardinal !s.Model.State.failed < max_crashes then
            s := snd (Model.System.apply_fail sys !s (v / 7 mod np))
          else
            match
              Model.System.transition ~policy sys !s sys.Model.System.tasks.(v mod n_tasks)
            with
            | Some (_, s') -> s := s'
            | None -> ())
        picks;
      let reach = A.Reach.analyze ~max_faults:max_crashes ~inputs:(int_inputs bits) sys in
      let fps = A.Footprint.of_system ~reach ~max_crashes sys in
      match independence_sound fps sys !s with
      | None -> true
      | Some msg -> QCheck2.Test.fail_report msg)

(* --- exhaustive soundness over G(C) --- *)

let test_exhaustive_small () =
  (* Every failure-free reachable state of the small protocols, audited
     against footprints sharpened for one crash: all task pairs. *)
  List.iter
    (fun name ->
      let sys = build name in
      let inputs = List.init (Model.System.n_processes sys) (fun i -> i mod 2) in
      let reach = A.Reach.analyze ~max_faults:1 ~inputs:(int_inputs inputs) sys in
      let fps = A.Footprint.of_system ~reach ~max_crashes:1 sys in
      let g = Engine.Graph.explore sys (Model.System.initialize sys (int_inputs inputs)) in
      if not (Engine.Graph.complete g) then Alcotest.failf "%s: G(C) did not materialize" name;
      Engine.Graph.iter_states g (fun _ s ->
          match independence_sound fps sys s with
          | None -> ()
          | Some msg -> Alcotest.failf "%s: %s" name msg))
    small_protocols

(* --- interference over-approximates Commute.check_disjoint --- *)

let test_interference_covers_disjoint_violations () =
  (* Commute.check_disjoint reports concretely non-commuting disjoint pairs
     over G(C); the static relation must flag every such pair interfering.
     Registry protocols have none (Lemma 8 holds), so the check is vacuous
     there — assert that emptiness too, which is the same theorem. *)
  List.iter
    (fun name ->
      let sys = build name in
      let fps = A.Footprint.of_system sys in
      let pos tk =
        let rec go i = if Model.Task.equal sys.Model.System.tasks.(i) tk then i else go (i + 1) in
        go 0
      in
      let g = Engine.Graph.explore sys (Model.System.initialize sys (int_inputs [ 1; 0 ])) in
      let a = Engine.Valence.analyze g in
      List.iter
        (fun (v : Engine.Commute.violation) ->
          Alcotest.(check bool)
            (Format.asprintf "%s: %a/%a flagged interfering" name Model.Task.pp
               v.Engine.Commute.e Model.Task.pp v.Engine.Commute.e')
            true
            (not
               (A.Footprint.independent
                  fps.(pos v.Engine.Commute.e)
                  fps.(pos v.Engine.Commute.e'))))
        (Engine.Commute.check_disjoint a);
      Alcotest.(check int)
        (name ^ ": Lemma 8 discipline holds concretely")
        0
        (List.length (Engine.Commute.check_disjoint a)))
    small_protocols

let test_registry_race_free () =
  (* The static Lemma 8/Claim 2 theorem-check: in a well-wired system every
     written component is owned by a participant both writers share, so the
     race lint is provably empty on all registry protocols. *)
  List.iter
    (fun e ->
      let sys = e.Protocols.Registry.build Protocols.Registry.default_params in
      Alcotest.(check int)
        (e.Protocols.Registry.name ^ " has no static races")
        0
        (List.length (A.Footprint.races sys (A.Footprint.of_system sys))))
    Protocols.Registry.all

let suite =
  ( "footprint",
    [
      qcheck_walk_soundness;
      Alcotest.test_case "exhaustive soundness on small G(C)" `Slow test_exhaustive_small;
      Alcotest.test_case "covers concrete disjoint violations" `Quick
        test_interference_covers_disjoint_violations;
      Alcotest.test_case "registry race-free" `Quick test_registry_race_free;
    ] )
