(* The parallel deduplicated explorer, pinned to the sequential oracle.

   The sequential Explore.run path is untouched by the parallel engine and
   serves as the trusted oracle: on crash-only spaces (n ≤ 3, horizon ≤ 40,
   ≤ 2 faults), on mixed crash+net spaces and on every-kind spaces at the
   default horizon, the parallel explorer must report the same verdict and
   every counter but the prune counts, with and without fingerprint dedup. QCheck
   properties cover fingerprint soundness and the order-insensitivity of
   report merging; a regression case nails the silent-budget footgun on the
   parallel path. *)

open Helpers

let small_config _sys ~max_faults ~horizon =
  { Chaos.Explore.max_faults; horizon; stride = 1; budget = 100_000; max_steps = 2_000;
    kinds = [ Chaos.Schedule.Crash_k ]; degrade = false }

(* The violation signature the differential test compares: everything but
   the exec (which the runner reproduces deterministically anyway). *)
let viol_sig (v : Chaos.Explore.violation) =
  Chaos.Schedule.to_string v.Chaos.Explore.schedule
  ^ "|" ^ v.Chaos.Explore.monitor ^ "|" ^ v.Chaos.Explore.reason
  ^ "|" ^ string_of_bool v.Chaos.Explore.proven

let verdict r = Option.map viol_sig r.Chaos.Explore.violation

(* --- Satellite 1: differential vs the sequential explorer --- *)

let all_kinds =
  Chaos.Schedule.[ Crash_k; Silence_k; Drop_k; Dup_k; Delay_k; Partition_k ]

(* Without dedup the parallel report is the oracle's in full; with dedup it
   still is, counters included — a pruned twin inherits the recorded
   suffix's verdict and monitor truncations — so only [dedup_hits] may
   differ. *)
let check_config name sys config =
  let seq = Chaos.Explore.run ~config sys in
  List.iter
    (fun j ->
      let tag suffix = Printf.sprintf "%s -j%d %s" name j suffix in
      let par = Chaos.Explore.run_par ~config ~domains:j ~dedup:false sys in
      Alcotest.check report_sig_testable (tag "no dedup") (report_sig seq) (report_sig par);
      Alcotest.(check int) (tag "dedup hits (off)") 0 par.Chaos.Explore.dedup_hits;
      let ded = Chaos.Explore.run_par ~config ~domains:j ~dedup:true sys in
      Alcotest.check report_sig_testable (tag "dedup") (report_sig seq) (report_sig ded))
    [ 1; 2; 4 ]

let check_differential name sys ~max_faults ~horizon =
  check_config name sys (small_config sys ~max_faults ~horizon)

let test_differential_direct () =
  check_differential "direct f=1" (Protocols.Direct.system ~n:2 ~f:1) ~max_faults:2 ~horizon:6;
  check_differential "direct f=0" (Protocols.Direct.system ~n:2 ~f:0) ~max_faults:1 ~horizon:5;
  check_differential "direct n=3" (Protocols.Direct.system ~n:3 ~f:2) ~max_faults:2 ~horizon:4

let test_differential_tob () =
  check_differential "tob f=0" (Protocols.Tob_direct.system ~n:2 ~f:0) ~max_faults:1 ~horizon:5;
  check_differential "tob f=1" (Protocols.Tob_direct.system ~n:2 ~f:1) ~max_faults:2 ~horizon:6

(* Every fault kind at the default horizon: reconverging twins are common
   here, and more than half of the oracle's 1,073 monitor truncations fall
   in suffixes that pruned twins inherit. *)
let test_differential_direct_all_kinds () =
  let sys = Protocols.Direct.system ~n:2 ~f:1 in
  check_config "direct all kinds" sys
    { (Chaos.Explore.default_config sys) with
      Chaos.Explore.max_faults = 2;
      kinds = all_kinds;
      budget = 100_000;
    }

let test_differential_register_vote_all_kinds () =
  let sys = Protocols.Register_vote.system () in
  List.iter
    (fun degrade ->
      check_config
        (Printf.sprintf "register-vote all kinds degrade=%b" degrade)
        sys
        { (Chaos.Explore.default_config sys) with
          Chaos.Explore.kinds = all_kinds;
          budget = 100_000;
          degrade;
        })
    [ false; true ]

(* Crash-only spaces at longer horizons: f = 1 tolerates the single crash,
   so every schedule of direct and tob is clean; with f = 0 the rank-least
   violation (crash@0:0) ends the scan, so the reports coincide including
   the violation. *)
let test_differential_direct_clean () =
  check_differential "direct f=1 h=12" (Protocols.Direct.system ~n:2 ~f:1) ~max_faults:1
    ~horizon:12

let test_differential_direct_violating () =
  check_differential "direct f=0 h=12" (Protocols.Direct.system ~n:2 ~f:0) ~max_faults:1
    ~horizon:12

let test_differential_tob_clean () =
  check_differential "tob f=1 h=40" (Protocols.Tob_direct.system ~n:2 ~f:1) ~max_faults:1
    ~horizon:40

(* Mixed-kind spaces: tob's crash+drop space in full, and a register-vote
   sweep over every kind but silence, truncated by its schedule budget. *)
let net_config sys ~kinds ~budget =
  { (Chaos.Explore.default_config sys) with
    Chaos.Explore.max_faults = 1;
    kinds;
    budget;
    max_steps = 4_000;
  }

let tob_mixed () =
  let sys = Protocols.Tob_direct.system ~n:3 ~f:1 in
  sys, net_config sys ~kinds:Chaos.Schedule.[ Crash_k; Drop_k ] ~budget:1_000_000

let check_no_dedup what sys config =
  let oracle = Chaos.Explore.run ~config sys in
  List.iter
    (fun j ->
      let par = Chaos.Explore.run_par ~config ~domains:j ~dedup:false sys in
      Alcotest.check report_sig_testable
        (Printf.sprintf "-j%d %s matches the sequential oracle" j what)
        (report_sig oracle) (report_sig par))
    [ 1; 2 ]

let test_differential_tob_mixed () =
  let sys, config = tob_mixed () in
  check_no_dedup "report" sys config

let test_differential_register_vote_truncated () =
  let sys = Protocols.Register_vote.system () in
  check_no_dedup "truncated sweep" sys
    (net_config sys
       ~kinds:Chaos.Schedule.[ Crash_k; Drop_k; Dup_k; Delay_k; Partition_k ]
       ~budget:60)

(* Mixed-kind spaces compose with dedup too: a pruned twin inherits its
   recorded suffix's verdict and counters, so the whole report, violation
   included, pins to the oracle. *)
let test_mixed_dedup () =
  let sys, config = tob_mixed () in
  let oracle = Chaos.Explore.run ~config sys in
  let par = Chaos.Explore.run_par ~config ~domains:2 ~dedup:true sys in
  Alcotest.check report_sig_testable "dedup report matches the oracle" (report_sig oracle)
    (report_sig par)

(* --- Satellite 2: fingerprint soundness --- *)

(* Structurally equal configurations get equal state hashes (the dedup
   key's state component), even when rebuilt through fresh arrays (no
   physical sharing). *)
let test_fingerprint_structural () =
  let sys = Protocols.Direct.system ~n:2 ~f:1 in
  let schedule = Chaos.Schedule.make [ Chaos.Schedule.crash ~step:2 ~pid:1 ] in
  let r = Chaos.Runner.run ~schedule ~max_steps:500 sys in
  let s = Model.Exec.last_state (r.Chaos.Runner.exec) in
  let rebuilt = rebuild_state s in
  Alcotest.check state_testable "rebuilt state equal" s rebuilt;
  Alcotest.(check int) "equal states, equal hashes" (Model.State.hash s)
    (Model.State.hash rebuilt);
  (* The observable-history fingerprint ignores crash placement. *)
  let obs = Model.Exec.obs_fingerprint r.Chaos.Runner.exec in
  let crashed = Model.Exec.append_fail sys r.Chaos.Runner.exec 0 in
  Alcotest.(check int) "obs fingerprint blind to fail events" obs
    (Model.Exec.obs_fingerprint crashed);
  Alcotest.(check bool) "distinct decisions, distinct state hashes" true
    (Model.State.hash s
    <> Model.State.hash (Model.State.with_decision s 0 (Ioa.Value.int 7)))

(* Deterministic replay of the same schedule reaches configurations with
   equal states, state hashes and observable-history fingerprints. *)
let qcheck_fingerprint_replay =
  let gen = QCheck2.Gen.(pair (int_bound 5) (int_bound 1)) in
  qtest "equal exec prefixes have equal fingerprints" ~count:50 gen (fun (step, pid) ->
      let sys = Protocols.Direct.system ~n:2 ~f:1 in
      let schedule = Chaos.Schedule.make [ Chaos.Schedule.crash ~step ~pid ] in
      let r1 = Chaos.Runner.run ~schedule ~max_steps:300 sys in
      let r2 = Chaos.Runner.run ~schedule ~max_steps:300 sys in
      let s1 = Model.Exec.last_state r1.Chaos.Runner.exec
      and s2 = Model.Exec.last_state r2.Chaos.Runner.exec in
      Model.State.equal s1 s2
      && Model.State.hash s1 = Model.State.hash s2
      && Model.Exec.obs_fingerprint r1.Chaos.Runner.exec
         = Model.Exec.obs_fingerprint r2.Chaos.Runner.exec)

(* Dedup never suppresses a violation the no-dedup explorer finds: on
   sampled configurations, run both and compare verdicts and counters. *)
let qcheck_dedup_preserves_verdicts =
  let gen = QCheck2.Gen.(triple (int_range 0 2) (int_range 1 6) (int_bound 2)) in
  qtest "dedup preserves verdicts" ~count:40 gen (fun (max_faults, horizon, which) ->
      let sys =
        match which with
        | 0 -> Protocols.Direct.system ~n:2 ~f:0
        | 1 -> Protocols.Direct.system ~n:2 ~f:1
        | _ -> Protocols.Register_wait.system ()
      in
      let config = small_config sys ~max_faults ~horizon in
      let plain = Chaos.Explore.run_par ~config ~domains:1 ~dedup:false sys in
      let ded = Chaos.Explore.run_par ~config ~domains:1 ~dedup:true sys in
      report_sig plain = report_sig ded)

(* --- Stem resume: a run resumed from the shared fault-free prefix is the
   full run --- *)

(* Every candidate of the space, run from scratch and resumed at its first
   fault's step, must agree on everything a report or a witness reads. *)
let check_stem_resume name sys config =
  let max_steps = config.Chaos.Explore.max_steps in
  let monitors = Chaos.Monitor.defaults () in
  let prefix =
    Chaos.Runner.prefix ~monitors ~max_steps
      ~steps:(config.Chaos.Explore.horizon - 1)
      sys
  in
  let count = ref 0 and mismatches = ref [] in
  Seq.iter
    (fun schedule ->
      incr count;
      let full = Chaos.Runner.run ~monitors ~max_steps ~schedule sys in
      let resumed = Chaos.Runner.run ~monitors ~max_steps ~prefix ~schedule sys in
      let same what agree =
        if not agree then
          mismatches :=
            Printf.sprintf "[%s] %s" (Chaos.Schedule.to_string schedule) what :: !mismatches
      in
      let open Chaos.Runner in
      same "events"
        (List.equal Model.Event.equal (Model.Exec.events full.exec)
           (Model.Exec.events resumed.exec));
      same "steps" (full.steps = resumed.steps);
      same "stop" (full.stop = resumed.stop);
      same "truncations" (full.monitor_truncations = resumed.monitor_truncations);
      same "undelivered crashes" (full.undelivered_crashes = resumed.undelivered_crashes);
      same "undelivered net" (full.undelivered_net = resumed.undelivered_net);
      same "vacuous" (full.vacuous_net_faults = resumed.vacuous_net_faults))
    (Chaos.Explore.schedules sys config);
  Alcotest.(check int) (name ^ ": whole space run")
    (Chaos.Explore.space_size sys config) !count;
  Alcotest.(check (list string)) (name ^ ": resumed runs that differ") []
    (List.filteri (fun i _ -> i < 5) (List.rev !mismatches))

let test_stem_resume () =
  let direct = Protocols.Direct.system ~n:2 ~f:1 in
  check_stem_resume "direct all kinds" direct
    { (Chaos.Explore.default_config direct) with
      Chaos.Explore.max_faults = 2;
      kinds = all_kinds;
      budget = 100_000;
    };
  let vote = Protocols.Register_vote.system () in
  check_stem_resume "register-vote all kinds" vote
    { (Chaos.Explore.default_config vote) with Chaos.Explore.kinds = all_kinds }

(* --- The visited cache: a slot holds one key, and only that key hits --- *)

let test_visited_slots () =
  let module V = Chaos.Fingerprint.Visited in
  let sys = Protocols.Direct.system ~n:2 ~f:1 in
  let exec = (Chaos.Runner.run ~schedule:Chaos.Schedule.empty ~max_steps:200 sys).Chaos.Runner.exec in
  let k1 = Chaos.Fingerprint.key ~cursor:0 exec in
  let k1' = Chaos.Fingerprint.key ~cursor:0 exec in
  let k2 = Chaos.Fingerprint.key ~cursor:1 exec in
  let k3 = Chaos.Fingerprint.key ~cursor:0 (Model.Exec.append_fail sys exec 0) in
  let found = Alcotest.(option (pair int int)) in
  let v = V.create ~slots:1 () in
  Alcotest.check found "empty cache misses" None (V.find v k1);
  V.add v k1 ~suffix_steps:5 ~suffix_truncations:1;
  Alcotest.check found "stored key hits" (Some (5, 1)) (V.find v k1);
  Alcotest.check found "an equal key built apart hits" (Some (5, 1)) (V.find v k1');
  Alcotest.check found "another cursor in the same slot never matches" None (V.find v k2);
  Alcotest.check found "another state in the same slot never matches" None (V.find v k3);
  V.add v k2 ~suffix_steps:7 ~suffix_truncations:2;
  Alcotest.check found "second key evicts the first" None (V.find v k1);
  Alcotest.check found "second key hits" (Some (7, 2)) (V.find v k2);
  V.add v k1 ~suffix_steps:9 ~suffix_truncations:3;
  Alcotest.check found "re-added key returns its own suffix" (Some (9, 3)) (V.find v k1);
  Alcotest.check found "and evicts the second" None (V.find v k2)

(* --- Satellite 3: merging is associative / order-insensitive --- *)

let qcheck_merge_order_insensitive =
  (* One shared violating run provides realistic violation payloads. *)
  let sys = Protocols.Register_wait.system () in
  let exec =
    (Chaos.Runner.run ~schedule:Chaos.Schedule.empty ~max_steps:200 sys).Chaos.Runner.exec
  in
  let record_gen rank =
    QCheck2.Gen.(
      let* budget_hit = bool and* truncations = int_bound 3 and* undelivered = int_bound 2 in
      let* deduped = bool in
      let* violating = int_bound 4 in
      let* step = int_bound 6 and* pid = int_bound 1 and* proven = bool in
      let found =
        if violating = 0 then
          Some
            Chaos.Explore.
              {
                schedule = Chaos.Schedule.make [ Chaos.Schedule.crash ~step ~pid ];
                monitor = (if proven then "f-termination" else "agreement");
                reason = "generated";
                proven;
                exec;
                steps = Model.Exec.length exec;
                degraded_to = None;
              }
        else None
      in
      return
        Chaos.Explore.
          {
            rank;
            run =
              {
                (empty_report ~space:0) with
                examined = 1;
                step_budget_hits = Bool.to_int budget_hit;
                monitor_truncations = truncations;
                undelivered_crashes = undelivered;
                dedup_hits = Bool.to_int deduped;
                violation = found;
              };
          })
  in
  let gen =
    QCheck2.Gen.(
      let* n = int_range 0 24 in
      let* records = flatten_l (List.init n record_gen) in
      let* shuffled = shuffle_l records in
      return (records, shuffled, n))
  in
  let report_sig (r : Chaos.Explore.report) =
    Format.asprintf "%d/%d/%b/%d/%d/%d/%d/%s" r.Chaos.Explore.examined
      r.Chaos.Explore.space r.Chaos.Explore.truncated r.Chaos.Explore.step_budget_hits
      r.Chaos.Explore.monitor_truncations r.Chaos.Explore.undelivered_crashes
      r.Chaos.Explore.dedup_hits
      (Option.value (verdict r) ~default:"clean")
  in
  qtest "merge is order- and partition-insensitive" ~count:100 gen
    (fun (records, shuffled, n) ->
      let space = n + 5 and scheduled = n in
      report_sig (Chaos.Explore.merge ~space ~scheduled records)
      = report_sig (Chaos.Explore.merge ~space ~scheduled shuffled))

(* The seeded driver counts its runs with the explorer's tally; a fold
   over Rand.run for the same seeds, written out here, must agree. Seed 30
   runs all 40 seeds clean with every counter non-zero; seed 1 stops at a
   violation on its 24th run. *)

let test_seeded_tally () =
  let sys = Protocols.Direct.system ~n:3 ~f:1 in
  let runs = 40 and max_faults = 2 and max_steps = 120 and kinds = all_kinds in
  let monitors = Chaos.Monitor.defaults () in
  (* examined, budget hits, truncations, undelivered crashes and net
     faults, vacuous net faults *)
  let counts (res : Chaos.Runner.result) =
    [
      1;
      (match res.Chaos.Runner.stop with Chaos.Runner.Budget -> 1 | _ -> 0);
      List.length res.Chaos.Runner.monitor_truncations;
      res.Chaos.Runner.undelivered_crashes;
      res.Chaos.Runner.undelivered_net;
      res.Chaos.Runner.vacuous_net_faults;
    ]
  in
  let tally ~seed ~horizon =
    let rec fold i acc =
      if i >= runs then acc
      else
        let res, _ =
          Chaos.Rand.run ~seed:(seed + i) ~max_faults ~horizon ~kinds ~monitors ~max_steps sys
        in
        let acc = List.map2 ( + ) acc (counts res) in
        match res.Chaos.Runner.stop with
        | Chaos.Runner.Violation _ -> acc
        | _ -> fold (i + 1) acc
    in
    let expected = fold 0 [ 0; 0; 0; 0; 0; 0 ] in
    let r =
      Chaos.Driver.run ~monitors ~shrink:false
        (Chaos.Driver.Seeded
           { seed; runs; max_faults; horizon; max_steps; kinds; degrade = false })
        sys
    in
    Alcotest.(check (list int))
      (Printf.sprintf "seed %d: driver tally = fold over Rand.run" seed)
      expected
      Chaos.Driver.
        [
          r.examined;
          r.step_budget_hits;
          r.monitor_truncations;
          r.undelivered_crashes;
          r.undelivered_net;
          r.vacuous_net_faults;
        ];
    expected
  in
  Alcotest.(check bool) "seed 30: 40 runs, every counter non-zero" true
    (match tally ~seed:30 ~horizon:125 with
    | examined :: rest -> examined = runs && List.for_all (fun c -> c > 0) rest
    | [] -> false);
  Alcotest.(check int) "seed 1: the tally stops at the violating 24th run" 24
    (List.hd (tally ~seed:1 ~horizon:130))

(* --- Satellite 4: the silent-budget footgun stays dead --- *)

let test_silent_budget_regression () =
  let sys = Protocols.Direct.system ~n:2 ~f:1 in
  let config =
    { (small_config sys ~max_faults:1 ~horizon:6) with Chaos.Explore.budget = 3 }
  in
  let check name (r : Chaos.Explore.report) =
    Alcotest.(check bool) (name ^ ": space exceeds budget") true (r.Chaos.Explore.space > 3);
    Alcotest.(check int) (name ^ ": examined = budget") 3 r.Chaos.Explore.examined;
    Alcotest.(check bool) (name ^ ": truncated flagged") true r.Chaos.Explore.truncated;
    (* The footgun: a clean verdict on a partial sweep without the flag. *)
    Alcotest.(check bool) (name ^ ": no silent clean verdict") false
      (r.Chaos.Explore.violation = None
      && r.Chaos.Explore.examined < r.Chaos.Explore.space
      && not r.Chaos.Explore.truncated)
  in
  check "sequential" (Chaos.Explore.run ~config sys);
  check "par j=2 dedup" (Chaos.Explore.run_par ~config ~domains:2 ~dedup:true sys);
  check "par j=4 no-dedup" (Chaos.Explore.run_par ~config ~domains:4 ~dedup:false sys)

(* --- Driver integration: -j routes through the parallel engine --- *)

let test_driver_parallel () =
  let sys = Protocols.Register_wait.system () in
  let config = { (Chaos.Explore.default_config sys) with Chaos.Explore.max_faults = 1 } in
  let seq = Chaos.Driver.run ~shrink:false (Chaos.Driver.Systematic config) sys in
  let par = Chaos.Driver.run ~shrink:false ~domains:4 (Chaos.Driver.Systematic config) sys in
  let monitor_of r =
    match r.Chaos.Driver.outcome with
    | Chaos.Driver.Passed -> None
    | Chaos.Driver.Violated { original; _ } -> Some original.Chaos.Explore.monitor
  in
  Alcotest.(check (option string)) "same monitor violated" (monitor_of seq) (monitor_of par);
  Alcotest.(check int) "same examined" seq.Chaos.Driver.examined par.Chaos.Driver.examined

let suite =
  ( "chaos-par",
    [
      Alcotest.test_case "differential: direct at -j 1,2,4" `Quick test_differential_direct;
      Alcotest.test_case "differential: tob at -j 1,2,4" `Quick test_differential_tob;
      Alcotest.test_case "differential: direct all kinds at -j 1,2,4" `Quick
        test_differential_direct_all_kinds;
      Alcotest.test_case "differential: register-vote all kinds at -j 1,2,4" `Quick
        test_differential_register_vote_all_kinds;
      Alcotest.test_case "differential: direct clean h=12" `Quick
        test_differential_direct_clean;
      Alcotest.test_case "differential: direct violating h=12" `Quick
        test_differential_direct_violating;
      Alcotest.test_case "differential: tob clean h=40" `Quick test_differential_tob_clean;
      Alcotest.test_case "differential: tob mixed crash+drop" `Quick
        test_differential_tob_mixed;
      Alcotest.test_case "differential: register-vote truncated all-kind sweep" `Quick
        test_differential_register_vote_truncated;
      Alcotest.test_case "dedup on mixed kinds matches the oracle" `Quick test_mixed_dedup;
      Alcotest.test_case "fingerprints are structural" `Quick test_fingerprint_structural;
      qcheck_fingerprint_replay;
      qcheck_dedup_preserves_verdicts;
      qcheck_merge_order_insensitive;
      Alcotest.test_case "seeded tally = fold over Rand.run" `Quick test_seeded_tally;
      Alcotest.test_case "stem resume = full run on every schedule" `Quick test_stem_resume;
      Alcotest.test_case "visited cache: one key per slot" `Quick test_visited_slots;
      Alcotest.test_case "silent-budget regression (seq + par)" `Quick
        test_silent_budget_regression;
      Alcotest.test_case "driver -j parity" `Quick test_driver_parallel;
    ] )
