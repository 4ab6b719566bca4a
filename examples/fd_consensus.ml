(* The §6.3 positive result as a demo: consensus among four processes that
   tolerates three failures, built only from 1-resilient 2-process perfect
   failure detectors and reliable registers — boosting that Theorem 10 rules
   out for all-connected detectors but that the pairwise connection pattern
   makes possible.

   The rotating-coordinator protocol runs while the adversary crashes
   coordinators at awkward moments; the pairwise detectors (each wait-free
   for its pair) keep informing survivors, every phase unblocks, and all
   survivors decide the same value.

   Run with: dune exec examples/fd_consensus.exe *)

open Ioa

let () =
  let n = 4 in
  let sys = Protocols.Fd_boost.system ~n in
  Format.printf "system: %d processes, %d pairwise perfect FDs, %d phase registers@." n
    (n * (n - 1) / 2) n;

  let exec0 =
    Model.Exec.initialized sys (List.init n Value.int)
  in

  (* Kill coordinator 0 before it writes and coordinator 1 somewhere in the
     middle; later also 3 — three failures against 1-resilient services. *)
  let faults = [ 0, 0; 60, 1; 120, 3 ] in
  let sched = Model.Scheduler.round_robin ~faults sys in
  let exec, outcome =
    Model.Scheduler.run ~policy:Model.System.dummy_policy
      ~stop_when:Model.Properties.termination ~max_steps:100_000 sys exec0 sched
  in
  let final = Model.Exec.last_state exec in

  Format.printf "outcome: %a after %d steps@." Model.Scheduler.pp_outcome outcome
    (Model.Exec.length exec);
  Format.printf "failed: %a@.@." Spec.Iset.pp final.Model.State.failed;

  List.iteri
    (fun pid d ->
      let suspected = Protocols.Fd_boost.suspected_of final ~pid in
      match d with
      | Some v ->
        Format.printf "process %d decided %a (suspects %a)@." pid Value.pp v Spec.Iset.pp
          suspected
      | None -> Format.printf "process %d crashed undecided@." pid)
    (Array.to_list final.Model.State.decisions);

  Format.printf "@.report: %a@." Model.Properties.pp_report (Model.Properties.check final);
  Format.printf
    "resilience boosted: each detector is 1-resilient, the system tolerated %d failures.@."
    (Spec.Iset.cardinal final.Model.State.failed)
