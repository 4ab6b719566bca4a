(* Quickstart: assemble a complete system C from the public API — three
   client processes sharing one wait-free binary consensus object — run it
   under a fair round-robin schedule with a crash, and check the consensus
   conditions.

   Run with: dune exec examples/quickstart.exe *)

open Ioa

let () =
  (* 1. A wait-free (2-resilient, 3 endpoints) canonical consensus object. *)
  let sys = Protocols.Direct.system ~n:3 ~f:2 in

  (* 2. Input-first execution: init(1)_0, init(0)_1, init(1)_2. *)
  let exec =
    Model.Exec.initialized sys (List.map Value.int [ 1; 0; 1 ])
  in

  (* 3. Crash process 2 early, then drive everything round-robin. *)
  let sched = Model.Scheduler.round_robin ~faults:[ (2, 2) ] sys in
  let exec, outcome =
    Model.Scheduler.run ~policy:Model.System.dummy_policy
      ~stop_when:Model.Properties.termination ~max_steps:10_000 sys exec sched
  in

  (* 4. Inspect the run. *)
  Format.printf "schedule outcome: %a@." Model.Scheduler.pp_outcome outcome;
  Format.printf "events:@.  @[<v>%a@]@." Model.Exec.pp exec;
  let final = Model.Exec.last_state exec in
  Format.printf "@.report: %a@." Model.Properties.pp_report
    (Model.Properties.check final);
  List.iteri
    (fun pid d ->
      match d with
      | Some v -> Format.printf "process %d decided %a@." pid Value.pp v
      | None ->
        Format.printf "process %d did not decide (%s)@." pid
          (if Spec.Iset.mem pid final.Model.State.failed then "crashed" else "no input"))
    (Array.to_list final.Model.State.decisions)
