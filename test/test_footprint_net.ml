(* Task footprints against the network adversary.

   A task whose footprint neither reads nor writes an endpoint's response
   buffer commutes with every omission delivery (drop/dup/delay) on that
   buffer, and the runner's partition gate only ever holds back tasks whose
   footprint reads [Net_topology]. Both are checked by QCheck from random
   reachable states and exhaustively over a small G(C). Footprints are read
   by task position, as {!Analysis.Footprint.of_system} returns them. *)

open Helpers
module Fp = Analysis.Footprint

let direct_f1 () = Protocols.Direct.system ~n:2 ~f:1
let tob2 () = Protocols.Tob_direct.system ~n:2 ~f:0

let sites sys =
  Array.to_list sys.Model.System.services
  |> List.concat_map (fun (c : Model.Service.t) ->
         List.map
           (fun ep -> c.Model.Service.id, ep)
           (Array.to_list c.Model.Service.endpoints))

let net_kinds =
  [ Model.Event.Drop; Model.Event.Duplicate; Model.Event.Delay 1; Model.Event.Delay 2 ]

(* One analysis context per system, shared across QCheck iterations. *)
type ctx = {
  sys : Model.System.t;
  fps : Fp.t array;
  ss : (string * int) list;
  tasks : Model.Task.t array;
}

let ctx sys =
  {
    sys;
    fps = Fp.of_system ~max_crashes:1 sys;
    ss = sites sys;
    tasks = sys.Model.System.tasks;
  }

(* An omission delivery reads and rewrites exactly its target response
   buffer (reading covers the vacuousness test), so a task whose footprint
   does not touch that buffer is independent of it. [ti] is a task
   position. *)
let omission_independent { sys; fps; _ } (service, endpoint) ti =
  let fp = fps.(ti) in
  not
    (Fp.Cset.mem
       (Fp.Svc_resp (Model.System.service_pos sys service, endpoint))
       (Fp.Cset.union fp.Fp.reads fp.Fp.writes))

let ctxs = lazy [| ctx (direct_f1 ()); ctx (tob2 ()) |]
let pick_ctx i = (Lazy.force ctxs).((abs i) mod 2)

(* A random reachable state: walk from the initialized state mixing task
   turns (both policies), net mutations and at most one crash — the states
   the chaos runner ranges over under its kind lattice with f = 1. *)
let walk { sys; ss; tasks; _ } moves =
  let nt = Array.length tasks in
  let np = Model.System.n_processes sys in
  let ns = List.length ss in
  let crashes = ref 0 in
  List.fold_left
    (fun s m ->
      let m = abs m in
      match m mod 10 with
      | 0 when !crashes < 1 ->
        incr crashes;
        snd (Model.System.apply_fail sys s (m / 10 mod np))
      | 1 | 2 -> (
        let service, endpoint = List.nth ss (m / 10 mod ns) in
        let kind = List.nth net_kinds (m / 100 mod List.length net_kinds) in
        match Model.System.apply_net sys s ~service ~endpoint ~kind with
        | Some (_, s') -> s'
        | None -> s)
      | _ -> (
        let policy =
          if m mod 2 = 0 then Model.System.real_policy else Model.System.dummy_policy
        in
        match Model.System.transition ~policy sys s tasks.(m / 10 mod nt) with
        | Some (_, s') -> s'
        | None -> s))
    (Model.System.initialize sys (Chaos.Runner.default_inputs sys))
    moves

let moves_gen = QCheck2.Gen.(list_size (int_bound 60) (int_range 0 1_000_000))

(* Apply an optional-step action, threading the state through. *)
let opt_step f s = match f s with Some (e, s') -> Some e, s' | None -> None, s

(* Both orders of (net mutation, task turn): independence must preserve the
   final state, both events (hence applicability and vacuousness), exactly. *)
let omission_task_commutes { sys; _ } ~policy s ~site:(service, endpoint) ~kind tk =
  let net s = Model.System.apply_net sys s ~service ~endpoint ~kind in
  let task s = Model.System.transition ~policy sys s tk in
  let n1, s1 = opt_step net s in
  let t1, s1 = opt_step task s1 in
  let t2, s2 = opt_step task s in
  let n2, s2 = opt_step net s2 in
  Option.equal Model.Event.equal n1 n2
  && Option.equal Model.Event.equal t1 t2
  && Model.State.equal s1 s2

(* The first (site, task position) pair from a rotating offset the
   footprints declare independent — every QCheck iteration then validates a
   real claim. *)
let independent_site_task c off =
  let combos =
    List.concat_map (fun site -> List.init (Array.length c.tasks) (fun ti -> site, ti)) c.ss
  in
  let n = List.length combos in
  let rec go i =
    if i >= n then None
    else
      let site, ti = List.nth combos ((off + i) mod n) in
      if omission_independent c site ti then Some (site, ti)
      else go (i + 1)
  in
  go 0

let test_independent_pairs_exist () =
  Array.iter
    (fun c ->
      Alcotest.(check bool)
        "some omission⇄task independence claimed" true
        (independent_site_task c 0 <> None))
    (Lazy.force ctxs)

let qcheck_omission_task_sound name kind =
  let gen = QCheck2.Gen.(tup4 moves_gen (int_range 0 1_000_000) bool bool) in
  qtest
    (Printf.sprintf "independence sound: %s vs task (1000 random states)" name)
    ~count:1000 gen
    (fun (moves, off, which, pol) ->
      let c = pick_ctx (Bool.to_int which) in
      let s = walk c moves in
      match independent_site_task c off with
      | None -> true
      | Some (site, ti) ->
        let policy =
          if pol then Model.System.real_policy else Model.System.dummy_policy
        in
        omission_task_commutes c ~policy s ~site ~kind c.tasks.(ti))

(* Topology ⇄ task: the runner's partition gate ([Schedule.blocked]) may
   only ever hold back tasks whose footprint reads the topology — any other
   task runs identically whether or not a partition is active, whatever the
   buffers hold. *)
let blocks_variants n =
  List.init n (fun pid -> [ [ pid ] ]) @ if n = 2 then [ [ [ 0 ]; [ 1 ] ] ] else []

let topology_gate_respects_independence c s =
  List.for_all
    (fun blocks ->
      let sched =
        Chaos.Schedule.make [ Chaos.Schedule.partition ~step:0 ~blocks ~heal_at:100_000 ]
      in
      let comp = Chaos.Schedule.compile sched c.sys in
      ignore (Chaos.Schedule.due comp ~step:0);
      Array.for_all2
        (fun tk (fp : Fp.t) ->
          (not (Chaos.Schedule.blocked comp c.sys s tk))
          || Fp.Cset.mem Fp.Net_topology fp.Fp.reads)
        c.tasks c.fps)
    (blocks_variants (Model.System.n_processes c.sys))

let qcheck_topology_task_sound =
  let gen = QCheck2.Gen.(pair moves_gen bool) in
  qtest "independence sound: partition gate vs task (1000 random states)" ~count:1000 gen
    (fun (moves, which) ->
      let c = pick_ctx (Bool.to_int which) in
      topology_gate_respects_independence c (walk c moves))

(* --- exhaustive order swaps over a small G(C) --- *)

let reachable c ~cap =
  let seen = Model.State.Tbl.create 256 in
  let out = ref [] in
  let queue = Queue.create () in
  let push s =
    if (not (Model.State.Tbl.mem seen s)) && Model.State.Tbl.length seen < cap then begin
      Model.State.Tbl.replace seen s ();
      out := s :: !out;
      Queue.push s queue
    end
  in
  push (Model.System.initialize c.sys (Chaos.Runner.default_inputs c.sys));
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    Array.iter
      (fun tk ->
        List.iter
          (fun policy ->
            match Model.System.transition ~policy c.sys s tk with
            | Some (_, s') -> push s'
            | None -> ())
          [ Model.System.real_policy; Model.System.dummy_policy ])
      c.tasks;
    if Spec.Iset.cardinal s.Model.State.failed < 1 then
      for pid = 0 to Model.System.n_processes c.sys - 1 do
        push (snd (Model.System.apply_fail c.sys s pid))
      done;
    List.iter
      (fun site ->
        List.iter
          (fun kind ->
            let service, endpoint = site in
            match Model.System.apply_net c.sys s ~service ~endpoint ~kind with
            | Some (_, s') -> push s'
            | None -> ())
          net_kinds)
      c.ss
  done;
  !out

let test_exhaustive_small_gc () =
  let c = ctx (direct_f1 ()) in
  let states = reachable c ~cap:400 in
  Alcotest.(check bool) "a nontrivial reachable set" true (List.length states > 10);
  let checked = ref 0 in
  List.iter
    (fun s ->
      (* Every omission kind vs every task, both policies. *)
      List.iter
        (fun site ->
          Array.iteri
            (fun ti tk ->
              if omission_independent c site ti then
                List.iter
                  (fun kind ->
                    List.iter
                      (fun policy ->
                        incr checked;
                        if not (omission_task_commutes c ~policy s ~site ~kind tk) then
                          Alcotest.failf "omission⇄task claim failed at %s"
                            (Format.asprintf "%a" Model.Task.pp tk))
                      [ Model.System.real_policy; Model.System.dummy_policy ])
                  net_kinds)
            c.tasks)
        c.ss;
      (* The partition gate never holds back a claimed-independent task. *)
      if not (topology_gate_respects_independence c s) then
        Alcotest.fail "partition gate held back a claimed-independent task")
    states;
  Alcotest.(check bool) "exhaustive sweep nonvacuous" true (!checked > 1_000)

let suite =
  ( "footprint-net",
    [
      Alcotest.test_case "independence claims are nonvacuous" `Quick
        test_independent_pairs_exist;
      qcheck_omission_task_sound "drop" Model.Event.Drop;
      qcheck_omission_task_sound "dup" Model.Event.Duplicate;
      qcheck_omission_task_sound "delay" (Model.Event.Delay 1);
      qcheck_topology_task_sound;
      Alcotest.test_case "exhaustive small-G(C) order swaps" `Quick
        test_exhaustive_small_gc;
    ] )
