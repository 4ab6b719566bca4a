(* The universal construction (§1's motivation for consensus): a wait-free
   linearizable shared counter assembled from consensus slots and registers.

   Each process publishes one increment, then drives per-slot consensus to
   agree on the global order of operations; every replica applies the same
   log. The demo kills a process mid-run: the survivors' responses are still
   distinct pre-values — the counter linearizes.

   Run with: dune exec examples/universal_object.exe *)

open Ioa

let () =
  let n = 4 in
  let counter = Spec.Seq_counter.make () in
  let sys =
    Protocols.Universal.system ~obj:counter
      ~ops:(List.init n (fun _ -> Spec.Seq_counter.increment))
  in
  Format.printf "universal counter: %d processes, %d op registers, %d consensus slots@.@." n
    n n;

  let exec0 =
    Model.Exec.initialized sys (List.init n Value.int)
  in
  let sched = Model.Scheduler.round_robin ~faults:[ (40, 1) ] sys in
  let exec, outcome =
    Model.Scheduler.run ~policy:Model.System.dummy_policy
      ~stop_when:Model.Properties.termination ~max_steps:100_000 sys exec0 sched
  in
  let final = Model.Exec.last_state exec in
  Format.printf "outcome: %a, failed: %a@.@." Model.Scheduler.pp_outcome outcome Spec.Iset.pp
    final.Model.State.failed;

  List.iteri
    (fun pid d ->
      match d with
      | Some resp ->
        Format.printf "process %d: increment returned %d (commit log %s)@." pid
          (Spec.Op.int_arg resp)
          (String.concat "," (List.map string_of_int (Protocols.Universal.log_of final ~pid)))
      | None -> Format.printf "process %d: crashed before its operation returned@." pid)
    (Array.to_list final.Model.State.decisions);

  let resps =
    List.map (fun (_, v) -> Spec.Op.int_arg v) (Model.State.decided_pairs final)
  in
  Format.printf "@.responses are distinct pre-values: %b — the counter linearizes.@."
    (List.length resps = List.length (List.sort_uniq Int.compare resps))
