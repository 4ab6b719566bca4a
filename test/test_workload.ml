(* The multi-shot RSM workload engine (ISSUE 10). The load-bearing pins:

   1. the incremental linearizability monitor is a differential twin of the
      exhaustive Model.Linearize.search oracle on random small histories with
      random window boundaries — the window invariant says any partition
      into windows is exact, so the verdicts must coincide event-for-event
      — and the histories reach both its return-order certificate and the
      search it falls back to;
   2. a deliberately non-linearizable batch is caught at its batch
      boundary, naming the window, and a linearizable one whose return
      order is no witness is accepted by the fallback;
   3. the engine survives random mixed fault timelines on a resilient
      protocol — crashed replicas rejoin, retried commands apply exactly
      once, the monitor stays green on the certificate alone (the engine
      returns in commit order) and agrees with the oracle — and replays
      byte-for-byte per seed;
   4. tob's serve run falls to its Thm 9 drop with a 1-minimal witness
      whose fault references stay inside the executed shot range. *)

open Helpers
module L = Model.Linearize
module LI = Workload.Linear_inc

let counter = Spec.Seq_counter.make ()

(* Random histories over two endpoints, drawn against a model counter so
   that linearizable histories whose return order is no witness occur. Each
   draw (ep, action, r) is a Call of increment/read (action 0, or any action
   on an endpoint with nothing outstanding); a silent linearization of the
   endpoint's oldest unlinearized call (action 1); a Return of the oldest
   call with its model response if it was linearized (action 2); or a Return
   carrying the small count [r] (action 3, and action 2 on an unlinearized
   call). Model returns make out-of-order but linearizable histories, the
   [r] returns plausible-but-not-always-right ones, so both verdicts and
   both monitor paths occur. *)
let build_history draws =
  let pending = Array.init 2 (fun _ -> Queue.create ()) in
  let inflight = Array.init 2 (fun _ -> Queue.create ()) in
  let value = ref 0 in
  let call ep r =
    let op = if r mod 2 = 0 then Spec.Seq_counter.increment else Spec.Seq_counter.read in
    Queue.push op pending.(ep);
    Some (L.Call { endpoint = ep; op })
  in
  let return ep k = Some (L.Return { endpoint = ep; resp = Spec.Seq_counter.count k }) in
  List.map
    (fun (ep, action, r) ->
      let outstanding = Queue.length pending.(ep) + Queue.length inflight.(ep) in
      if action = 0 || outstanding = 0 then call ep r
      else if action = 1 then begin
        (match Queue.take_opt pending.(ep) with
        | Some op ->
          Queue.push !value inflight.(ep);
          if Ioa.Value.equal op Spec.Seq_counter.increment then incr value
        | None -> ());
        None
      end
      else
        match Queue.take_opt inflight.(ep) with
        | Some resp -> return ep (if action = 2 then resp else r)
        | None ->
          ignore (Queue.pop pending.(ep));
          return ep r)
    draws

let history_gen =
  QCheck2.Gen.(
    list_size (int_bound 16) (quad (int_bound 1) (int_bound 3) (int_bound 3) bool))

(* The history a draw list makes, with a window cut after each event whose
   draw says so. *)
let windowed draws =
  List.filter_map Fun.id
    (List.map2
       (fun ev (_, _, _, cut) -> Option.map (fun ev -> ev, cut) ev)
       (build_history (List.map (fun (e, a, r, _) -> e, a, r) draws))
       draws)

let run_windowed events =
  let t = LI.create counter in
  List.iter
    (fun (ev, cut) ->
      LI.record t ev;
      if cut then ignore (LI.flush t))
    events;
  let verdict = LI.finish t in
  t, verdict

let qcheck_inc_vs_oracle =
  qtest "incremental monitor ≡ full oracle under random windows" ~count:500 history_gen
    (fun draws ->
      let events = windowed draws in
      let t, verdict = run_windowed events in
      let incremental =
        match verdict with
        | LI.Ok -> Some true
        | LI.Violation _ -> Some false
        | LI.Truncated _ -> None (* must not happen at this size *)
      in
      incremental = Some (L.search counter (List.map fst events))
      && LI.certified t + LI.searched t = LI.windows t)

(* The generator above must reach every monitor path, or the differential
   pin says nothing about one of them: a fixed sample holds certified
   histories, violations, and linearizable histories only the search
   accepts. *)
let test_generator_reaches_fallback () =
  let rand = Random.State.make [| 23 |] in
  let runs =
    List.map
      (fun draws -> run_windowed (windowed draws))
      (QCheck2.Gen.generate ~rand ~n:500 history_gen)
  in
  let count p = List.length (List.filter p runs) in
  let certified =
    count (fun (t, v) -> v = LI.Ok && LI.searched t = 0 && LI.windows t > 0)
  in
  let fallback_ok = count (fun (t, v) -> v = LI.Ok && LI.searched t > 0) in
  let violations = count (fun (_, v) -> match v with LI.Violation _ -> true | _ -> false) in
  List.iter
    (fun (what, k) ->
      Alcotest.(check bool) (Printf.sprintf "%s occur (%d)" what k) true (k > 0))
    [
      "certified histories", certified;
      "fallback-accepted histories", fallback_ok;
      "violations", violations;
    ]

let test_golden_batch_boundary () =
  let t = LI.create counter in
  (* Batch 1 is clean: one increment observing the initial 0. *)
  LI.record t (L.Call { endpoint = 0; op = Spec.Seq_counter.increment });
  LI.record t (L.Return { endpoint = 0; resp = Spec.Seq_counter.count 0 });
  (match LI.flush t with
  | LI.Ok -> ()
  | v -> Alcotest.failf "clean batch rejected: %s" (match v with
      | LI.Violation m | LI.Truncated m -> m
      | LI.Ok -> assert false));
  (* Batch 2 cannot linearize: a read claims the counter is at 5 when only
     one increment ever committed. The violation must land exactly at this
     batch's flush and name it. *)
  LI.record t (L.Call { endpoint = 1; op = Spec.Seq_counter.read });
  LI.record t (L.Return { endpoint = 1; resp = Spec.Seq_counter.count 5 });
  (match LI.flush t with
  | LI.Violation msg ->
    Alcotest.(check bool) "violation names batch 2" true (contains msg "window 2")
  | LI.Ok -> Alcotest.fail "non-linearizable batch passed"
  | LI.Truncated msg -> Alcotest.failf "truncated instead of caught: %s" msg);
  Alcotest.(check int) "caught at the second boundary" 2 (LI.windows t);
  (* Once violated, the verdict is sticky. *)
  LI.record t (L.Call { endpoint = 0; op = Spec.Seq_counter.read });
  (match LI.finish t with
  | LI.Violation _ -> ()
  | _ -> Alcotest.fail "verdict not sticky")

(* Linearizable, but the return order is no witness: endpoint 1 returns
   count 1 before endpoint 0 returns count 0, so the certificate fails at
   window 2 and only the search can accept it — after rebuilding its
   frontier through the certified window 1. *)
let test_golden_fallback () =
  let inc ep = L.Call { endpoint = ep; op = Spec.Seq_counter.increment } in
  let ret ep k = L.Return { endpoint = ep; resp = Spec.Seq_counter.count k } in
  let window1 = [ L.Call { endpoint = 0; op = Spec.Seq_counter.read }; ret 0 0 ] in
  let window2 = [ inc 0; inc 1; ret 1 1; ret 0 0 ] in
  let t = LI.create counter in
  List.iter (LI.record t) window1;
  Alcotest.(check bool) "window 1 certified" true
    (LI.flush t = LI.Ok && LI.certified t = 1);
  List.iter (LI.record t) window2;
  (match LI.finish t with
  | LI.Ok -> ()
  | LI.Violation m | LI.Truncated m -> Alcotest.failf "rejected: %s" m);
  Alcotest.(check (pair int int)) "(certified, searched)" (1, 1)
    (LI.certified t, LI.searched t);
  Alcotest.(check bool) "the oracle agrees" true (L.search counter (window1 @ window2))

(* The hard-buffer flush: a call that never returns keeps the outstanding
   count above [soft_outstanding] = 0 for the whole run, so only the
   [hard_buffer] cap ever flushes. On a certified history and on one that
   needs the fallback, the verdict must still be the oracle's. *)
let test_hard_buffer_flush () =
  let inc ep = L.Call { endpoint = ep; op = Spec.Seq_counter.increment } in
  let ret ep k = L.Return { endpoint = ep; resp = Spec.Seq_counter.count k } in
  let sequential = List.concat (List.init 10 (fun k -> [ inc 0; ret 0 k ])) in
  let crossed = [ inc 0; inc 1; ret 1 11; ret 0 10 ] in
  let stuck = L.Call { endpoint = 2; op = Spec.Seq_counter.read } in
  List.iter
    (fun (name, history, searched) ->
      let history = (stuck :: sequential) @ history in
      let t = LI.create ~soft_outstanding:0 ~hard_buffer:4 counter in
      List.iter
        (fun ev ->
          LI.record t ev;
          ignore (LI.tick t))
        history;
      let flushed_by_cap = LI.windows t in
      let verdict = LI.finish t in
      let n = List.length history in
      Alcotest.(check int) (name ^ ": every tick flush hit the cap") (n / 4) flushed_by_cap;
      Alcotest.(check int) (name ^ ": max window is the cap") 4 (LI.max_window t);
      Alcotest.(check bool) (name ^ ": verdict is the oracle's") (L.search counter history)
        (verdict = LI.Ok);
      Alcotest.(check bool) (name ^ ": monitor path") searched (LI.searched t > 0))
    [ "certified", [], false; "fallback", crossed, true ]

(* --- the engine under random fault timelines --- *)

let engine_cfg ~seed ~kinds ~max_faults =
  {
    (Workload.Engine.default_config ~proto:"direct" ()) with
    Workload.Engine.clients = 4;
    ops = 60;
    rate = 6;
    batch = 8;
    pipeline = 2;
    rejoin_after = 10;
    catch_up_rate = 16;
    seed;
    kinds;
    max_faults;
    pin_oracle = true;
  }

let qcheck_engine_random_faults =
  let kinds =
    Chaos.Schedule.[ Crash_k; Drop_k; Dup_k; Delay_k; Partition_k ]
  in
  qtest "engine survives random mixed faults exactly-once" ~count:12
    QCheck2.Gen.(int_bound 10_000)
    (fun seed ->
      let r = Workload.Engine.run (engine_cfg ~seed ~kinds ~max_faults:2) in
      let served =
        match r.Workload.Report.outcome with
        | Workload.Report.Served | Workload.Report.Degraded _ -> true
        | _ -> false
      in
      served
      && r.Workload.Report.duplicate_applications = 0
      && r.Workload.Report.lin = LI.Ok
      && r.Workload.Report.lin_searched = 0
      && r.Workload.Report.oracle_pinned = Some true)

let qcheck_seeded_replay =
  qtest "seeded runs replay byte-for-byte" ~count:8
    QCheck2.Gen.(int_bound 10_000)
    (fun seed ->
      let cfg =
        engine_cfg ~seed ~kinds:Chaos.Schedule.[ Crash_k; Partition_k ] ~max_faults:2
      in
      String.equal
        (Workload.Report.render (Workload.Engine.run cfg))
        (Workload.Report.render (Workload.Engine.run cfg)))

(* Crash/rejoin and duplicate resubmission on a fixed timeline: the crash
   forces client failover and retry; the replica must come back via log
   replay, and the retried (client, seq) commands must not apply twice. *)
let test_crash_rejoin_exactly_once () =
  let schedule =
    match Chaos.Schedule.parse "crash@4:1,crash@9:2" with
    | Ok s -> Some s
    | Error e -> Alcotest.fail e
  in
  let cfg =
    { (engine_cfg ~seed:3 ~kinds:[] ~max_faults:0) with
      Workload.Engine.ops = 120;
      rejoin_after = 8;
      schedule;
    }
  in
  let r = Workload.Engine.run cfg in
  (match r.Workload.Report.outcome with
  | Workload.Report.Served -> ()
  | o -> Alcotest.failf "expected SERVED, got %a" Workload.Report.pp_outcome o);
  Alcotest.(check int) "all ops completed" 120 r.Workload.Report.completed;
  Alcotest.(check bool) "both crashes rejoined" true (r.Workload.Report.rejoins = 2);
  Alcotest.(check bool) "catch-up replayed the log" true
    (r.Workload.Report.catch_up_replayed > 0);
  Alcotest.(check int) "no duplicate application" 0
    r.Workload.Report.duplicate_applications;
  Alcotest.(check bool) "monitor green" true (r.Workload.Report.lin = LI.Ok);
  Alcotest.(check (option bool)) "oracle pinned" (Some true)
    r.Workload.Report.oracle_pinned

(* --- the shrunk serve witness stays inside the executed range --- *)

let test_tob_witness_clamped () =
  let schedule =
    match Chaos.Schedule.parse "drop@6:tob:0" with
    | Ok s -> Some s
    | Error e -> Alcotest.fail e
  in
  let cfg =
    {
      (Workload.Engine.default_config ~proto:"tob" ()) with
      Workload.Engine.params = { Protocols.Registry.default_params with n = 2; f = 0 };
      clients = 4;
      ops = 64;
      rate = 4;
      batch = 4;
      seed = 7;
      schedule;
    }
  in
  let r = Workload.Engine.run cfg in
  match r.Workload.Report.outcome with
  | Workload.Report.Shot_violation { minimized; candidates; runs; _ } ->
    Alcotest.(check bool) "shrinker actually ran" true (candidates > 0 && runs > 0);
    (match Chaos.Schedule.parse minimized with
    | Error e -> Alcotest.failf "minimized witness does not parse: %s" e
    | Ok m ->
      Alcotest.(check int) "1-minimal" 1 (Chaos.Schedule.n_faults m);
      List.iter
        (fun fault ->
          let step = Chaos.Schedule.step fault in
          (* The violating shot runs for ~18 steps; a clamped witness cannot
             reference a step far beyond it (the pre-clamp failure mode was
             heal/step references at the shrinker's untouched midpoints). *)
          Alcotest.(check bool)
            (Printf.sprintf "fault step %d inside the executed shot range" step)
            true (step <= 50))
        m.Chaos.Schedule.faults)
  | o -> Alcotest.failf "expected a shot violation on tob, got %a" Workload.Report.pp_outcome o

(* --- Schedule.with_step: the rebase that carries engine-tick faults into
   a shot's step space --- *)

let test_with_step_keeps_heal_after_onset () =
  (* Moving a partition's onset moves its heal by the same amount, so the
     heal stays strictly after the onset and the partition keeps its span. *)
  let p = Chaos.Schedule.partition ~step:5 ~blocks:[ [ 0 ] ] ~heal_at:40 in
  match Chaos.Schedule.with_step 3 p with
  | Chaos.Schedule.Partition { step; heal_at; _ } ->
    Alcotest.(check int) "onset moved" 3 step;
    Alcotest.(check int) "heal moved by the same amount" 38 heal_at
  | _ -> Alcotest.fail "partition lost by with_step"

let suite =
  ( "workload",
    [
      qcheck_inc_vs_oracle;
      Alcotest.test_case "non-linearizable batch caught at its boundary" `Quick
        test_golden_batch_boundary;
      Alcotest.test_case "generator reaches every monitor path" `Quick
        test_generator_reaches_fallback;
      Alcotest.test_case "out-of-order returns accepted by the fallback" `Quick
        test_golden_fallback;
      Alcotest.test_case "hard-buffer flush matches the oracle" `Quick test_hard_buffer_flush;
      qcheck_engine_random_faults;
      qcheck_seeded_replay;
      Alcotest.test_case "crash/rejoin applies retried ops exactly once" `Quick
        test_crash_rejoin_exactly_once;
      Alcotest.test_case "tob serve witness is 1-minimal and clamped" `Quick
        test_tob_witness_clamped;
      Alcotest.test_case "with_step keeps partition heal after onset" `Quick
        test_with_step_keeps_heal_after_onset;
    ] )
