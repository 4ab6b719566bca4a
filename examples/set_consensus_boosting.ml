(* The §4 positive result as a demo: wait-free 2-set consensus for six
   processes built from two wait-free 3-process consensus services — the
   resilience boost (from 2 to 5 tolerated failures) that Theorem 2 forbids
   for consensus but that IS possible for 2-set consensus.

   The adversary kills five of the six processes mid-run; the survivor still
   decides, and across all processes at most two distinct values are ever
   chosen.

   Run with: dune exec examples/set_consensus_boosting.exe *)

open Ioa

let () =
  let groups = 2 and group_size = 3 in
  let n = groups * group_size in
  let sys = Protocols.Kset_boost.system ~groups ~group_size in

  (* Distinct inputs so the 2-value bound is visible. *)
  let exec0 =
    Model.Exec.initialized sys (List.init n Value.int)
  in

  (* Kill processes 0,1,2,4,5 at staggered (early) points: 5 = n-1 failures. *)
  let faults = [ 1, 0; 2, 1; 3, 2; 4, 4; 5, 5 ] in
  let sched = Model.Scheduler.round_robin ~faults sys in
  let exec, outcome =
    Model.Scheduler.run ~policy:Model.System.dummy_policy
      ~stop_when:Model.Properties.termination ~max_steps:20_000 sys exec0 sched
  in
  let final = Model.Exec.last_state exec in

  Format.printf "outcome: %a@." Model.Scheduler.pp_outcome outcome;
  Format.printf "failed: %a@." Spec.Iset.pp final.Model.State.failed;
  List.iteri
    (fun pid d ->
      let group = Protocols.Kset_boost.group_of ~group_size pid in
      match d with
      | Some v -> Format.printf "process %d (group %d) decided %a@." pid group Value.pp v
      | None -> Format.printf "process %d (group %d) crashed before deciding@." pid group)
    (Array.to_list final.Model.State.decisions);

  let report = Model.Properties.check ~k:groups final in
  Format.printf "@.2-set consensus report: %a@." Model.Properties.pp_report report;
  Format.printf
    "resilience boosted: services tolerate %d failures each, the system tolerated %d.@."
    (group_size - 1)
    (Spec.Iset.cardinal final.Model.State.failed)
