(* The `boost` command-line driver: run the impossibility engine, the
   positive-result protocols, and the full experiment battery from the shell. *)

open Cmdliner

module Registry = Protocols.Registry

(* The one protocol table: bin, perfbench and the test-suites all enumerate
   [Registry.all]. *)
let protocol_conv =
  let parse s =
    match Registry.find s with
    | Some e -> Ok e
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown protocol: %s (expected one of %s)" s
             (String.concat " | " Registry.sorted_names)))
  in
  let print ppf (e : Registry.entry) = Format.pp_print_string ppf e.Registry.name in
  Arg.conv (parse, print)

let params ~n ~f ~groups ~group_size = { Registry.n; f; groups; group_size }

let build_system e ~n ~f ~groups ~group_size =
  e.Registry.build (params ~n ~f ~groups ~group_size)

let protocol_doc = "Protocol: " ^ String.concat " | " Registry.names ^ "."

let protocol_arg =
  Arg.(required & pos 0 (some protocol_conv) None & info [] ~docv:"PROTOCOL" ~doc:protocol_doc)

(* Counts, sizes and rates: an out-of-range value is a usage error, like an
   unparsable one, rather than an exception or a vacuous run. *)
let int_at_least lo expected =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok k when k < lo ->
      Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
    | r -> r
  in
  Arg.conv (parse, Format.pp_print_int)

let pos_int = int_at_least 1 "a positive integer"
let nonneg_int = int_at_least 0 "a non-negative integer"

let n_arg =
  Arg.(value & opt pos_int 2 & info [ "n"; "procs" ] ~docv:"N" ~doc:"Number of processes.")
let f_arg = Arg.(value & opt int 0 & info [ "f"; "resilience" ] ~docv:"F" ~doc:"Service resilience level.")

let failures_arg =
  Arg.(value & opt int 1 & info [ "failures" ] ~docv:"K" ~doc:"Claimed resilience (= f + 1).")

let groups_arg = Arg.(value & opt int 2 & info [ "groups" ] ~docv:"G" ~doc:"k-set groups.")

let group_size_arg =
  Arg.(value & opt int 2 & info [ "group-size" ] ~docv:"S" ~doc:"Processes per group.")

let seeds_arg = Arg.(value & opt int 20 & info [ "seeds" ] ~docv:"S" ~doc:"Random-run count.")

(* --- the persistent analysis cache: shared flags --- *)

let cache_dir_arg =
  Arg.(
    value
    & opt ~vopt:(Some Analysis.Cache.default_dir) (some string) None
    & info [ "cache" ] ~docv:"DIR"
        ~doc:
          (Printf.sprintf
             "Consult and populate a persistent analysis cache under DIR (default %s when \
              the flag is given bare). Entries are keyed by a structural hash of the \
              protocol's analysis-relevant behavior and self-invalidate when the analyzer \
              changes; a warm cache replays byte-identical reports. Off unless given."
             Analysis.Cache.default_dir))

let cache_stats_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-stats" ] ~docv:"FILE"
        ~doc:
          "Write cache hit/miss/stale/corrupt/write counters as JSON to FILE. \
           Counters also go to stderr whenever a cache is active, keeping stdout \
           byte-identical to the cache-less run.")

(* Every output-file flag writes through here. The report is already on
   stdout by then, so an unwritable path is a usage error (exit 3) rather
   than an uncaught exception. *)
let write_file file contents =
  try Out_channel.with_open_text file (fun oc -> Out_channel.output_string oc contents)
  with Sys_error e ->
    let e = if String.starts_with ~prefix:(file ^ ": ") e then e else file ^ ": " ^ e in
    Format.eprintf "cannot write %s@." e;
    exit 3

let finish_cache ~stats_out cache =
  match cache with
  | None -> ()
  | Some c ->
    Option.iter (fun file -> write_file file (Analysis.Cache.stats_json c)) stats_out;
    Format.eprintf "%a@." Analysis.Cache.pp_stats c

let max_states_arg =
  Arg.(value & opt int 200_000 & info [ "max-states" ] ~docv:"B" ~doc:"State-space bound.")

(* --- refute --- *)

let refute_cmd =
  let run protocol n f failures groups group_size max_states =
    let sys = build_system protocol ~n ~f ~groups ~group_size in
    let np = Model.System.n_processes sys in
    if not (0 < failures && failures < np) then begin
      Format.eprintf "--failures %d: need 0 < K < %d (the process count)@." failures np;
      3
    end
    else
      let report = Engine.Counterexample.refute ~max_states ~failures sys in
      Format.printf "%a@." Engine.Counterexample.pp_report report;
      match report.Engine.Counterexample.outcome with
      | Engine.Counterexample.Refuted _ -> 0
      | Engine.Counterexample.Not_refuted _ -> 1
      | Engine.Counterexample.Out_of_budget _ -> 2
  in
  let term =
    Term.(
      const run $ protocol_arg $ n_arg $ f_arg $ failures_arg $ groups_arg $ group_size_arg
      $ max_states_arg)
  in
  Cmd.v
    (Cmd.info "refute"
       ~doc:
         "Attack a protocol's claim of K-resilient consensus with the Theorem 2/9/10 engine; \
          exits 0 when refuted, 1 when the claim stands, 3 unless 0 < K < N.")
    term

(* --- staircase --- *)

let staircase_cmd =
  let run protocol n f groups group_size =
    let sys = build_system protocol ~n ~f ~groups ~group_size in
    List.iter
      (fun e -> Format.printf "%a@." Engine.Initialization.pp_entry e)
      (Engine.Initialization.staircase sys);
    0
  in
  let term =
    Term.(const run $ protocol_arg $ n_arg $ f_arg $ groups_arg $ group_size_arg)
  in
  Cmd.v
    (Cmd.info "staircase" ~doc:"Print the Lemma 4 staircase of initializations with valences.")
    term

(* --- explore --- *)

let explore_cmd =
  let run protocol n f groups group_size max_states =
    let sys = build_system protocol ~n ~f ~groups ~group_size in
    let inputs =
      List.init (Model.System.n_processes sys) (fun i -> Ioa.Value.int (i mod 2))
    in
    let start = Model.System.initialize sys inputs in
    let g = Engine.Graph.explore ~max_states sys start in
    let a = Engine.Valence.analyze g in
    Format.printf "states: %d (%s)@." (Engine.Graph.size g)
      (if Engine.Graph.complete g then "complete" else "bounded");
    List.iter
      (fun v ->
        Format.printf "%a: %d@." Engine.Valence.pp_verdict v (Engine.Valence.count a v))
      Engine.Valence.[ Zero_valent; One_valent; Bivalent; Blank ];
    0
  in
  let term =
    Term.(
      const run $ protocol_arg $ n_arg $ f_arg $ groups_arg $ group_size_arg $ max_states_arg)
  in
  Cmd.v (Cmd.info "explore" ~doc:"Materialize G(C) and print the valence census.") term

(* --- run (positive protocols) --- *)

let run_cmd =
  let run protocol n f groups group_size seeds =
    let sys = build_system protocol ~n ~f ~groups ~group_size in
    let np = Model.System.n_processes sys in
    let k = protocol.Registry.k_of (params ~n ~f ~groups ~group_size) in
    let ok = ref 0 in
    for seed = 0 to seeds - 1 do
      let exec0 =
        List.fold_left
          (fun (e, i) v -> Model.Exec.append_init sys e i (Ioa.Value.int v), i + 1)
          (Model.Exec.init (Model.System.initial_state sys), 0)
          (List.init np Fun.id)
        |> fst
      in
      let sched =
        Model.Scheduler.random ~seed ~fail_prob:0.02 ~max_failures:(np - 1) sys
      in
      let exec, _ =
        Model.Scheduler.run ~policy:Model.System.dummy_policy
          ~stop_when:Model.Properties.termination ~max_steps:60_000 sys exec0 sched
      in
      let final = Model.Exec.last_state exec in
      let r = Model.Properties.check ~k final in
      if
        r.Model.Properties.agreement && r.Model.Properties.validity
        && r.Model.Properties.termination
      then incr ok
      else
        Format.printf "seed %d: %a@." seed Model.Properties.pp_report r
    done;
    Format.printf "%d/%d adversarial runs satisfied the specification@." !ok seeds;
    if !ok = seeds then 0 else 1
  in
  let term =
    Term.(
      const run $ protocol_arg $ n_arg $ f_arg $ groups_arg $ group_size_arg $ seeds_arg)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run a protocol under seeded-random adversarial schedules with failure injection \
          and check its specification.")
    term

(* --- lemmas --- *)

let lemmas_cmd =
  let run protocol n f failures groups group_size =
    let sys = build_system protocol ~n ~f ~groups ~group_size in
    let analyses =
      List.map
        (fun (e : Engine.Initialization.entry) -> e.Engine.Initialization.analysis)
        (Engine.Initialization.staircase sys)
    in
    let report name failures_list =
      Format.printf "%-48s %s@." name
        (if failures_list = [] then "holds"
         else Printf.sprintf "%d counterexample(s)" (List.length failures_list));
      List.iteri
        (fun i fl -> if i < 3 then Format.printf "    %a@." Engine.Lemma_check.pp_failure fl)
        failures_list
    in
    List.iter (fun a -> report "Lemma 1 (applicability persistence)" (Engine.Lemma_check.lemma1_applicability a)) analyses;
    List.iter (fun a -> report "Lemma 3 (valence dichotomy)" (Engine.Lemma_check.lemma3_dichotomy a)) analyses;
    report "Lemma 6 consequence (j-similar univalent states)"
      (Engine.Lemma_check.lemma6_j_similarity sys analyses);
    report
      (Printf.sprintf "Lemma 7 consequence (k-similar, %d failures)" failures)
      (Engine.Lemma_check.lemma7_k_similarity ~failures sys analyses);
    List.iter (fun a -> report "valence: SCC vs naive oracle" (Engine.Lemma_check.scc_vs_naive a)) analyses;
    0
  in
  let term =
    Term.(
      const run $ protocol_arg $ n_arg $ f_arg $ failures_arg $ groups_arg $ group_size_arg)
  in
  Cmd.v
    (Cmd.info "lemmas"
       ~doc:
         "Check the paper's lemmas exhaustively over the protocol's staircase graphs. \
          Lemmas 1/3 must always hold; Lemma 6/7 counterexamples on a candidate are the \
          refutation levers.")
    term

(* --- chaos --- *)

(* fd-network is deliberately not in the registry: it decides nothing (the
   lint analyzer flags blank protocols as errors), so the chaos command
   resolves it here and swaps f-termination for the ◇P monitors its spec
   actually promises. *)
let chaos_resolve name ~degrade ~n ~f ~groups ~group_size =
  match name with
  | "fd-network" | "fd_network" ->
    let sys = Protocols.Fd_network.system ~n:(max n 2) in
    let output = Protocols.Fd_network.output_of in
    Ok
      ( sys,
        Some
          (Chaos.Monitor.safety ~degrade ()
          @ [
              Chaos.Monitor.fd_completeness ~output ();
              Chaos.Monitor.fd_accuracy ~output ();
              Chaos.Monitor.linearizability ~degrade ();
            ]) )
  | name -> (
    match Registry.find name with
    | Some e ->
      (* No explicit monitors: the explorer resolves the (degrade-aware)
         default family itself, keeping the static oracles engaged — they
         key on the caller not overriding the defaults. *)
      Ok (build_system e ~n ~f ~groups ~group_size, None)
    | None ->
      Error
        (Printf.sprintf "unknown protocol: %s (expected fd-network | %s)" name
           (String.concat " | " Registry.sorted_names)))

let chaos_cmd =
  let protocol_pos =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"PROTOCOL"
          ~doc:("Protocol to attack: fd-network | " ^ String.concat " | " Registry.names ^ "."))
  in
  let protocol_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "protocol" ] ~docv:"PROTOCOL"
          ~doc:"Alias for the positional PROTOCOL argument.")
  in
  let faults_conv =
    let parse s =
      match int_of_string_opt s with
      | Some k when k >= 0 -> Ok (`Count k)
      | Some _ -> Error (`Msg "--faults: negative budget")
      | None -> (
        match Chaos.Schedule.parse_kinds s with
        | Ok ks -> Ok (`Kinds ks)
        | Error e -> Error (`Msg e))
    in
    let print ppf = function
      | `Count k -> Format.fprintf ppf "%d" k
      | `Kinds ks ->
        Format.pp_print_list
          ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
          Chaos.Schedule.pp_kind ppf ks
    in
    Arg.conv (parse, print)
  in
  let faults_arg =
    Arg.(
      value
      & opt faults_conv (`Count 1)
      & info [ "faults" ] ~docv:"K|KINDS"
          ~doc:
            "Either an integer K — explore schedules with up to K crashes (the legacy \
             crash-only adversary) — or a comma-separated fault-kind list drawn from \
             crash, silence, drop, dup, delay, partition; the budget is then set by \
             $(b,--max-faults).")
  in
  let max_faults_arg =
    Arg.(
      value & opt nonneg_int 1
      & info [ "max-faults" ] ~docv:"K"
          ~doc:"Fault budget when $(b,--faults) names kinds: up to K faults in total.")
  in
  let timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECS"
          ~doc:
            "Wall-clock budget: stop starting new schedules after SECS seconds (or on \
             SIGINT), emit the partial report with an explicit 'truncated: wall-clock' \
             marker, and exit 2 unless a violation was already found.")
  in
  let witness_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "witness-out" ] ~docv:"FILE"
          ~doc:
            "On violation, write the minimized (or, without shrinking, the original) \
             schedule to FILE in $(b,--schedule) syntax.")
  in
  let seed_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Seeded chaos mode: random fault schedules and task interleavings derived \
             deterministically from SEED, SEED+1, ... with exact replay. Without this, \
             crash placements are enumerated systematically.")
  in
  let runs_arg =
    Arg.(
      value & opt pos_int 64 & info [ "runs" ] ~docv:"R" ~doc:"Seeded mode: seeds to try.")
  in
  let max_steps_arg =
    Arg.(value & opt int 20_000 & info [ "max-steps" ] ~docv:"M" ~doc:"Per-run step bound.")
  in
  let horizon_arg =
    Arg.(
      value & opt int 0
      & info [ "horizon" ] ~docv:"H"
          ~doc:"Crash steps range over [0, H) (0 = twice the task count).")
  in
  let budget_arg =
    Arg.(
      value & opt int 1_024
      & info [ "budget" ] ~docv:"B"
          ~doc:
            "Systematic mode: maximum schedules to run. Truncation of the enumeration \
             space is reported, never silent.")
  in
  let stride_arg =
    Arg.(
      value & opt pos_int 1
      & info [ "stride" ] ~docv:"S" ~doc:"Crash-step grid granularity.")
  in
  let jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Systematic mode: explore with N parallel domains (each takes the next \
             candidate from one shared counter; the merged report is deterministic). 1 \
             keeps the sequential explorer.")
  in
  let dedup_arg =
    Arg.(
      value
      & vflag true
          [
            ( true,
              info [ "dedup" ]
                ~doc:
                  "Prune schedules whose configuration at activation was already explored \
                   (default). Systematic mode only, where it engages with -j above 1 or \
                   with --por or --static-prune at any -j; otherwise it is ignored." );
            (false, info [ "no-dedup" ] ~doc:"Run every candidate schedule, even reconverging ones.");
          ])
  in
  let shrink_arg =
    Arg.(
      value
      & vflag true
          [
            (true, info [ "shrink" ] ~doc:"Delta-debug a violating schedule to a minimal one (default).");
            (false, info [ "no-shrink" ] ~doc:"Report the violating schedule as found.");
          ])
  in
  let static_prune_arg =
    Arg.(
      value & flag
      & info [ "static-prune" ]
          ~doc:
            "Systematic mode: skip schedules the abstract-interpretation analyzer proves \
             infeasible as violations (faults landing after the certified quiescence \
             step; network faults additionally need the empty-buffer certificate), \
             without executing them. The report is unchanged except for the prune count.")
  in
  let por_arg =
    Arg.(
      value
      & vflag false
          [
            ( true,
              info [ "por" ]
                ~doc:
                  "Systematic mode: partial-order reduction — skip schedules whose fault \
                   placement (crash, drop/dup/delay, partition) is equivalent by the \
                   static footprint relation to a lower-ranked schedule's, inheriting \
                   its verdict. Violations and verdicts match the un-reduced \
                   exploration exactly." );
            ( false,
              info [ "no-por" ]
                ~doc:"Run every fault placement, even interference-equivalent ones (default)." );
          ])
  in
  let prune_stats_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "prune-stats-out" ] ~docv:"FILE"
          ~doc:
            "Systematic mode: write the exploration's prune statistics (examined, space, \
             dedup/static/por prune counts, ...) to FILE as JSON.")
  in
  let schedule_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "schedule" ] ~docv:"SPEC"
          ~doc:
            "Run one explicit fault schedule instead of exploring, e.g. \
             'crash@0:1,silence@4:cons' ('helpful,' prefix for the non-silencing \
             adversary).")
  in
  let degrade_arg =
    Arg.(
      value & flag
      & info [ "degrade" ]
          ~doc:
            "Graceful-degradation monitoring: instead of waiving liveness wholesale \
             under network damage, monitors check the degraded guarantee the live \
             vector still supports (per-partition-block agreement, liveness of every \
             process the damage does not excuse) and fail when even that is breached. \
             Violations carry the live guarantee vector ('degraded to ...'), and \
             $(b,--witness-out) appends the vector trajectory as '#' comment lines. \
             Off by default; crash-only reports are byte-identical without it.")
  in
  let run protocol_pos protocol_opt n f groups group_size faults max_faults seed runs
      max_steps horizon budget stride jobs dedup shrink static_prune por prune_stats_out
      schedule timeout witness_out degrade =
    let name =
      match protocol_pos, protocol_opt with
      | Some p, None | None, Some p -> Ok p
      | Some a, Some b when String.equal a b -> Ok a
      | Some _, Some _ -> Error "give PROTOCOL positionally or via --protocol, not both"
      | None, None -> Error "need a PROTOCOL argument (or --protocol)"
    in
    match
      Result.bind name (fun name -> chaos_resolve name ~degrade ~n ~f ~groups ~group_size)
    with
    | Error e ->
      Format.eprintf "%s@." e;
      3
    | Ok (sys, monitors) -> (
      let horizon =
        if horizon > 0 then horizon else 2 * Array.length sys.Model.System.tasks
      in
      match schedule with
      | Some spec -> (
        match Chaos.Schedule.parse spec with
        | Error e ->
          Format.eprintf "bad --schedule: %s@." e;
          3
        | Ok schedule -> (
          match Chaos.Schedule.validate sys schedule with
          | Error e ->
            Format.eprintf "bad --schedule: %s@." e;
            3
          | Ok () -> (
            (* A single explicit run bypasses the explorer's defaulting, so
               resolve the (degrade-aware) default family here. *)
            let monitors =
              Option.value monitors ~default:(Chaos.Monitor.defaults ~degrade ())
            in
            let r = Chaos.Runner.run ~monitors ~max_steps ~schedule sys in
            List.iter
              (fun (m, cat, why) ->
                Format.printf "monitor %s truncated [%s]: %s@." m
                  (Chaos.Monitor.category_name cat)
                  why)
              r.Chaos.Runner.monitor_truncations;
            if r.Chaos.Runner.undelivered_crashes > 0 then
              Format.printf "%d scheduled crash(es) fell beyond --max-steps@."
                r.Chaos.Runner.undelivered_crashes;
            if r.Chaos.Runner.undelivered_net > 0 then
              Format.printf "%d scheduled network fault(s) fell beyond --max-steps@."
                r.Chaos.Runner.undelivered_net;
            if r.Chaos.Runner.vacuous_net_faults > 0 then
              Format.printf "%d delivered network fault(s) found an empty buffer@."
                r.Chaos.Runner.vacuous_net_faults;
            Format.printf "%d steps: %a@." r.Chaos.Runner.steps Chaos.Runner.pp_stop
              r.Chaos.Runner.stop;
            match r.Chaos.Runner.stop with
            | Chaos.Runner.Violation _ ->
              if degrade then
                Format.printf "degraded to %s@."
                  (Chaos.Degrade.describe sys r.Chaos.Runner.exec);
              1
            | Chaos.Runner.Lasso _ | Chaos.Runner.Budget | Chaos.Runner.Pruned -> 0)))
      | None ->
        let max_faults, kinds =
          match faults with
          | `Count k -> k, None
          | `Kinds ks -> max_faults, Some ks
        in
        let mode =
          match seed with
          | Some seed ->
            Chaos.Driver.Seeded
              {
                seed;
                runs;
                max_faults;
                horizon;
                max_steps;
                kinds =
                  Option.value kinds
                    ~default:[ Chaos.Schedule.Crash_k; Chaos.Schedule.Silence_k ];
                degrade;
              }
          | None ->
            Chaos.Driver.Systematic
              {
                Chaos.Explore.max_faults;
                horizon;
                stride;
                budget;
                max_steps;
                kinds = Option.value kinds ~default:[ Chaos.Schedule.Crash_k ];
                degrade;
              }
        in
        (* Wall-clock budget: expiry and SIGINT share one graceful path —
           finish the schedule in flight, report partially, exit 2. *)
        let interrupted = ref false in
        let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) timeout in
        let prev_sigint =
          Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> interrupted := true))
        in
        let stop () =
          !interrupted
          || match deadline with Some d -> Unix.gettimeofday () >= d | None -> false
        in
        let report =
          Chaos.Driver.run ?monitors ~shrink ~domains:jobs ~dedup ~static_prune ~por ~stop
            mode sys
        in
        Sys.set_signal Sys.sigint prev_sigint;
        Format.printf "%a@." Chaos.Driver.pp_report report;
        (match prune_stats_out with
        | None -> ()
        | Some file ->
          write_file file
            (Printf.sprintf
              "{\n\
              \  \"examined\": %d,\n\
              \  \"space\": %d,\n\
              \  \"truncated\": %b,\n\
              \  \"wall_truncated\": %b,\n\
              \  \"dedup_hits\": %d,\n\
              \  \"static_prunes\": %d,\n\
              \  \"por_prunes\": %d,\n\
              \  \"step_budget_hits\": %d,\n\
              \  \"monitor_truncations\": %d,\n\
              \  \"vacuous_net_faults\": %d,\n\
              \  \"violation\": %b\n\
               }\n"
              report.Chaos.Driver.examined report.Chaos.Driver.space
              report.Chaos.Driver.truncated report.Chaos.Driver.wall_truncated
              report.Chaos.Driver.dedup_hits report.Chaos.Driver.static_prunes
              report.Chaos.Driver.por_prunes report.Chaos.Driver.step_budget_hits
              report.Chaos.Driver.monitor_truncations
              report.Chaos.Driver.vacuous_net_faults
              (match report.Chaos.Driver.outcome with
              | Chaos.Driver.Violated _ -> true
              | Chaos.Driver.Passed -> false));
          (* stderr, so pruned-vs-oracle stdout diffs stay clean *)
          Format.eprintf "prune statistics written to %s@." file);
        (match report.Chaos.Driver.outcome, witness_out with
        | Chaos.Driver.Violated { original; minimized; _ }, Some file ->
          let v = Option.value minimized ~default:original in
          let b = Buffer.create 256 in
          Buffer.add_string b (Chaos.Schedule.to_string v.Chaos.Explore.schedule);
          Buffer.add_char b '\n';
          if degrade then begin
            (* The vector trajectory rides along as comment lines, which
               Schedule.parse ignores, so the file still replays. *)
            let baseline, changes = Chaos.Degrade.trajectory sys v.Chaos.Explore.exec in
            Printf.bprintf b "# baseline: %s\n" (Analysis.Gvector.to_string baseline);
            List.iter
              (fun (step, event, vec) ->
                Printf.bprintf b "# step %d %s: %s\n" step
                  (Model.Event.to_string event)
                  (Analysis.Gvector.to_string vec))
              changes
          end;
          write_file file (Buffer.contents b);
          Format.printf "witness schedule written to %s@." file
        | _ -> ());
        (match report.Chaos.Driver.outcome with
        | Chaos.Driver.Violated _ -> 1
        | Chaos.Driver.Passed -> if report.Chaos.Driver.wall_truncated then 2 else 0))
  in
  let term =
    Term.(
      const run $ protocol_pos $ protocol_opt $ n_arg $ f_arg $ groups_arg
      $ group_size_arg $ faults_arg $ max_faults_arg $ seed_arg $ runs_arg $ max_steps_arg
      $ horizon_arg $ budget_arg $ stride_arg $ jobs_arg $ dedup_arg $ shrink_arg
      $ static_prune_arg $ por_arg $ prune_stats_out_arg $ schedule_arg $ timeout_arg
      $ witness_out_arg $ degrade_arg)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Systematic fault-schedule injection with property monitors and shrinking: \
          enumerate (or randomly sample, with --seed and exact replay) crash placements, \
          service silencings and network faults (drop/dup/delay/partition, with --faults \
          KINDS), check agreement/validity/f-termination/linearizability — or, for \
          fd-network, the \xe2\x97\x87P completeness/accuracy monitors — during each run, \
          and delta-debug any violation to a minimal schedule. With --degrade, network \
          damage degrades the checked guarantee instead of waiving it. Exits 1 with the \
          minimized schedule on violation, 0 when all monitors pass, 2 when the \
          wall-clock budget truncated the exploration first, 3 on usage errors.")
    term

(* --- serve --- *)

let serve_cmd =
  let protocol_pos =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"PROTOCOL"
          ~doc:
            ("Protocol to serve on: any registry protocol claiming single-value agreement \
              (" ^ String.concat " | " Registry.names ^ ")."))
  in
  let obj_arg =
    Arg.(
      value
      & opt string "counter"
      & info [ "obj" ] ~docv:"OBJ"
          ~doc:"Replicated object: counter (increment/read) or register (read/write).")
  in
  let clients_arg =
    Arg.(
      value & opt pos_int 12
      & info [ "clients" ] ~docv:"N" ~doc:"Concurrent client sessions.")
  in
  let ops_arg =
    Arg.(
      value & opt pos_int 200 & info [ "ops" ] ~docv:"M" ~doc:"Total operations to serve.")
  in
  let rate_arg =
    Arg.(
      value & opt pos_int 8
      & info [ "rate" ] ~docv:"R" ~doc:"Open-loop arrivals admitted per tick (at most).")
  in
  let batch_arg =
    Arg.(
      value & opt pos_int 16
      & info [ "batch" ] ~docv:"B" ~doc:"Maximum commands committed per consensus shot.")
  in
  let pipeline_arg =
    Arg.(
      value & opt pos_int 2
      & info [ "pipeline" ] ~docv:"P" ~doc:"Consensus shots launched per tick (at most).")
  in
  let retry_timeout_arg =
    Arg.(
      value & opt int 8
      & info [ "retry-timeout" ] ~docv:"T"
          ~doc:
            "Ticks a client waits before resubmitting an operation (exponential backoff, \
             idempotent at the replicas).")
  in
  let rejoin_after_arg =
    Arg.(
      value & opt int 25
      & info [ "rejoin-after" ] ~docv:"T"
          ~doc:"Ticks a crashed replica stays down before starting catch-up.")
  in
  let catch_up_rate_arg =
    Arg.(
      value & opt int 32
      & info [ "catch-up-rate" ] ~docv:"K"
          ~doc:"Commit-log entries a recovering replica replays per tick.")
  in
  let faults_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"KINDS"
          ~doc:
            "Draw a random fault timeline from the seed, restricted to these kinds \
             (comma-separated from crash, silence, drop, dup, delay, partition); the \
             budget is $(b,--max-faults). Without this (and without \
             $(b,--schedule)) the run is fault-free.")
  in
  let max_faults_arg =
    Arg.(
      value & opt nonneg_int 2
      & info [ "max-faults" ] ~docv:"K" ~doc:"Fault budget for the seeded timeline.")
  in
  let schedule_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "schedule" ] ~docv:"SPEC"
          ~doc:
            "Explicit fault timeline, same grammar as $(b,boost chaos --schedule) with \
             steps read as engine ticks, e.g. 'crash@6:1,partition@20:0|1.2:32'. \
             Network faults are rebased into the next consensus shot's step space.")
  in
  let seed_arg =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"S"
          ~doc:
            "Determinism root: the op stream and any $(b,--faults) draws derive from S, \
             and the same invocation replays the identical report byte-for-byte.")
  in
  let max_ticks_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-ticks" ] ~docv:"T"
          ~doc:"Engine tick bound (default: scaled from --ops, --rate and --rejoin-after).")
  in
  let shot_max_steps_arg =
    Arg.(
      value & opt pos_int 4_000
      & info [ "shot-max-steps" ] ~docv:"M" ~doc:"Per-consensus-shot step bound.")
  in
  let lin_max_nodes_arg =
    Arg.(
      value & opt int 200_000
      & info [ "lin-max-nodes" ] ~docv:"B"
          ~doc:
            "Per-window search budget of the incremental linearizability monitor; \
             exhaustion is an explicit truncation, never a silent pass.")
  in
  let pin_oracle_arg =
    Arg.(
      value & flag
      & info [ "pin-oracle" ]
          ~doc:
            "After the run, re-check the full client history with the monolithic \
             Model.Linearize oracle and report agreement (small runs only: the oracle \
             re-searches the entire history).")
  in
  let shrink_arg =
    Arg.(
      value
      & vflag true
          [
            ( true,
              info [ "shrink" ]
                ~doc:"Delta-debug a violating shot schedule to a minimal one (default)." );
            (false, info [ "no-shrink" ] ~doc:"Report the violating shot schedule as found.");
          ])
  in
  let witness_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "witness-out" ] ~docv:"FILE"
          ~doc:
            "On a shot violation, write the minimized (or, without shrinking, the \
             original) shot schedule to FILE in $(b,--schedule) syntax.")
  in
  let run protocol obj clients ops rate batch pipeline retry_timeout rejoin_after
      catch_up_rate faults max_faults schedule seed max_ticks shot_max_steps lin_max_nodes
      pin_oracle shrink witness_out n f groups group_size =
    let ( let* ) = Result.bind in
    let checked =
      let* proto =
        Option.to_result ~none:"need a PROTOCOL argument (e.g. `boost serve direct`)"
          protocol
      in
      let* entry =
        Option.to_result
          ~none:
            (Printf.sprintf "unknown protocol: %s (expected one of %s)" proto
               (String.concat " | " Registry.sorted_names))
          (Registry.find proto)
      in
      let params = params ~n ~f ~groups ~group_size in
      let* () =
        if Workload.Engine.eligible entry params then Ok ()
        else
          Error
            (Printf.sprintf
               "%s at n=%d f=%d does not claim single-value agreement; the engine \
                commits batches on the decided bit, so it cannot serve on it"
               proto n f)
      in
      let* _obj = Workload.Engine.obj_of_name obj in
      let* schedule =
        match schedule with
        | None -> Ok None
        | Some spec ->
          (* Checked against the shot system, as `boost chaos` does. *)
          Result.map_error (Printf.sprintf "bad --schedule: %s")
            (let* s = Chaos.Schedule.parse spec in
             let* () = Chaos.Schedule.validate (entry.Registry.build params) s in
             Ok (Some s))
      in
      let* kinds =
        match faults with
        | None -> Ok []
        | Some spec -> (
          match Chaos.Schedule.parse_kinds spec with
          | Ok ks -> Ok ks
          | Error e -> Error (Printf.sprintf "bad --faults: %s" e))
      in
      Ok (proto, params, schedule, kinds)
    in
    match checked with
    | Error e ->
      Format.eprintf "%s@." e;
      3
    | Ok (proto, params, schedule, kinds) ->
      let cfg =
        {
          (Workload.Engine.default_config ~proto ()) with
          Workload.Engine.params;
          obj_name = obj;
          clients;
          ops;
          rate;
          batch;
          pipeline;
          timeout = retry_timeout;
          rejoin_after;
          catch_up_rate;
          seed;
          schedule;
          kinds;
          max_faults = (if kinds = [] then 0 else max_faults);
          max_ticks;
          shot_max_steps;
          lin_max_nodes;
          pin_oracle;
          shrink;
        }
      in
      let t0 = Unix.gettimeofday () in
      let report = Workload.Engine.run cfg in
      let wall = Unix.gettimeofday () -. t0 in
      print_string (Workload.Report.render report);
      (* Wall-clock goes to stderr only: stdout is the seeded-replay surface. *)
      Format.eprintf "wall: %.3fs (%.0f simulated ops/sec)@." wall
        (float_of_int report.Workload.Report.completed /. Float.max wall 1e-9);
      (match report.Workload.Report.outcome, witness_out with
      | Workload.Report.Shot_violation { minimized; _ }, Some file ->
        write_file file (minimized ^ "\n");
        Format.printf "witness schedule written to %s@." file
      | _ -> ());
      Workload.Report.exit_code report
  in
  let term =
    Term.(
      const run $ protocol_pos $ obj_arg $ clients_arg $ ops_arg $ rate_arg $ batch_arg
      $ pipeline_arg $ retry_timeout_arg $ rejoin_after_arg $ catch_up_rate_arg
      $ faults_arg $ max_faults_arg $ schedule_arg $ seed_arg $ max_ticks_arg
      $ shot_max_steps_arg $ lin_max_nodes_arg $ pin_oracle_arg $ shrink_arg
      $ witness_out_arg $ n_arg $ f_arg $ groups_arg $ group_size_arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Multi-shot RSM workload engine: serve an open-loop client stream on a \
          long-lived replicated object over the protocol's consensus shots, with online \
          fault injection (explicit --schedule or seeded --faults), crash-recovery via \
          commit-log catch-up, retrying clients with idempotent resubmission, and an \
          incremental linearizability monitor on the client-visible history. Fully \
          deterministic per seed. Exits 0 when the run is served (possibly degraded \
          under standing damage), 1 on any violation — shot safety (minimized through \
          the shrinker), linearizability, replica divergence or duplicate application — \
          and 3 on usage errors.")
    term

(* --- lint --- *)

let lint_cmd =
  let protocol_opt =
    Arg.(
      value
      & pos 0 (some protocol_conv) None
      & info [] ~docv:"PROTOCOL" ~doc:protocol_doc)
  in
  let all_arg =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:"Lint every registry protocol with its default parameters; exit non-zero if any has findings.")
  in
  let max_faults_arg =
    Arg.(
      value & opt nonneg_int 1
      & info [ "max-faults" ] ~docv:"K"
          ~doc:"Analyze contexts with up to K crashed processes.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit one JSON object per finding (severity, protocol, rule, subject, message) \
             instead of the human report. Exit-code semantics are unchanged.")
  in
  let jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "With --all: lint with N parallel domains. Output stays in registry order, \
             byte-identical to the sequential run.")
  in
  let param_arg =
    Arg.(
      value & flag
      & info [ "param" ]
          ~doc:
            "Certify over the (n, f) parameter window n in {2,3,4} x f in {0,1,2} \
             instead of linting one instantiation: emit each protocol's resilience \
             certificate (findings universally quantified over the window where they \
             hold everywhere, per-point verdicts otherwise). -n/-f are ignored. Exits 0 \
             on successful certification — per-point warning exits are recorded \
             verdicts, not failures.")
  in
  let validate_arg =
    Arg.(
      value & flag
      & info [ "validate" ]
          ~doc:
            "With --param: re-lint every certified point fresh (cache-less, concrete) \
             and compare byte-for-byte; exit 1 listing any disagreeing points.")
  in
  let run all protocol n f groups group_size max_faults json jobs param validate
      cache_dir cache_stats =
    let cache = Option.map (fun dir -> Analysis.Cache.open_ ~dir) cache_dir in
    let emit_human (r : Registry.lint_result) = print_string r.Registry.human in
    let selected_for_param () =
      match all, protocol with
      | true, None -> Ok (Array.of_list Registry.all)
      | false, Some e -> Ok [| e |]
      | true, Some _ ->
        Format.eprintf "--all takes no PROTOCOL argument@.";
        Error 3
      | false, None ->
        Format.eprintf "need a PROTOCOL argument or --all@.";
        Error 3
    in
    let run_param () =
      match selected_for_param () with
      | Error c -> c
      | Ok entries ->
        let certs =
          Analysis.Pool.map ~jobs (Array.length entries) (fun i ->
              entries.(i), Registry.certify ?cache ~max_faults entries.(i))
          |> Array.to_list |> List.filter_map Fun.id
        in
        List.iter
          (fun (_, cert) ->
            if json then print_endline (Analysis.Cert.json cert)
            else Format.printf "%a@." Analysis.Cert.pp cert)
          certs;
        if not validate then 0
        else begin
          (* The concrete gate: every stored point re-linted fresh and
             compared byte-for-byte — a certificate may claim nothing a
             concrete instantiation would not reproduce. *)
          let bad =
            List.concat_map
              (fun ((e : Registry.entry), cert) ->
                List.map
                  (fun pt -> e.Registry.name, pt)
                  (Registry.cert_disagreements ~max_faults e cert))
              certs
          in
          if bad = [] then 0
          else begin
            List.iter
              (fun (name, (pn, pf)) ->
                Format.eprintf
                  "%s: certificate disagrees with the concrete lint at (n=%d, f=%d)@."
                  name pn pf)
              bad;
            1
          end
        end
    in
    let code =
      if param then run_param ()
      else
      match all, protocol with
      | true, None ->
        let entries = Array.of_list Registry.all in
        let results =
          Analysis.Pool.map ~jobs (Array.length entries) (fun i ->
              Registry.lint ?cache ~max_faults entries.(i) Registry.default_params)
          |> Array.to_list |> List.filter_map Fun.id
        in
        if json then
          (* Globally sorted (protocol, severity, code, subject): the
             diff-stable CI artifact ordering. *)
          List.iter
            (fun (p, f) -> print_endline (Analysis.Lint.json_of_finding ~protocol:p f))
            (Analysis.Lint.sort_for_artifact
               (List.concat_map
                  (fun (r : Registry.lint_result) ->
                    List.map (fun f -> r.Registry.name, f) r.Registry.findings)
                  results))
        else List.iter emit_human results;
        (match cache with
        | Some c ->
          (* Record the fleet manifest: `boost cache status` diffs the live
             registry against it to report what is unchanged and what
             needs re-analysis. *)
          Analysis.Cache.write_manifest c
            (List.filter_map
               (fun (r : Registry.lint_result) ->
                 Option.map (fun h -> r.Registry.name, h) r.Registry.hash)
               results)
        | None -> ());
        List.fold_left (fun acc (r : Registry.lint_result) -> max acc r.Registry.code) 0
          results
      | false, Some e ->
        let p = params ~n ~f ~groups ~group_size in
        let r = Registry.lint ?cache ~max_faults e p in
        if json then
          List.iter
            (fun f ->
              print_endline (Analysis.Lint.json_of_finding ~protocol:r.Registry.name f))
            r.Registry.findings
        else emit_human r;
        r.Registry.code
      | true, Some _ ->
        Format.eprintf "--all takes no PROTOCOL argument@.";
        3
      | false, None ->
        Format.eprintf "need a PROTOCOL argument or --all@.";
        3
    in
    finish_cache ~stats_out:cache_stats cache;
    code
  in
  let term =
    Term.(
      const run $ all_arg $ protocol_opt $ n_arg $ f_arg $ groups_arg $ group_size_arg
      $ max_faults_arg $ json_arg $ jobs_arg $ param_arg $ validate_arg $ cache_dir_arg
      $ cache_stats_arg)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically analyze a protocol by abstract interpretation: dead or unreachable \
          transitions, non-total/non-deterministic task functions (the §3.1 assumptions), \
          statically-blank protocols (no reachable decide), and resilience-interface \
          mismatches. One machine-readable finding per line; exits 0 when no finding is \
          worse than info, 1 otherwise, 3 on usage errors. With --param, certify over \
          the whole (n, f) window instead (resilience certificates, validated concretely \
          under --validate).")
    term

(* --- cache --- *)

let cache_cmd =
  let dir_arg =
    Arg.(
      value
      & opt string Analysis.Cache.default_dir
      & info [ "cache" ] ~docv:"DIR" ~doc:"Cache directory (default $(docv)=_boost_cache).")
  in
  let status_cmd =
    let run dir =
      if not (Sys.file_exists dir && Sys.is_directory dir) then begin
        Format.printf "%s: no cache@." dir;
        0
      end
      else begin
        let by_kind = Analysis.Cache.entries ~dir in
        Format.printf "@[<v 2>%s:@," dir;
        if by_kind = [] then Format.printf "no entries@,"
        else
          List.iter
            (fun (kind, n, bytes) ->
              Format.printf "%-8s %d entr%s, %d bytes@," kind n
                (if n = 1 then "y" else "ies")
                bytes)
            by_kind;
        let corrupt = Analysis.Cache.corrupt_count ~dir in
        if corrupt > 0 then Format.printf "%d quarantined (.corrupt) file%s@," corrupt
            (if corrupt = 1 then "" else "s");
        (* Change-impact report: the recorded fleet manifest against the
           live registry, protocol by protocol. *)
        (match Analysis.Cache.read_manifest (Analysis.Cache.open_ ~dir) with
        | None -> Format.printf "no fleet manifest (run `boost lint --all --cache %s`)@," dir
        | Some old ->
          let r = Analysis.Cache.diff old (Registry.manifest ()) in
          List.iter
            (fun (name, change) ->
              Format.printf "%-14s %a@," name Analysis.Cache.pp_change change)
            r.Analysis.Cache.changes;
          List.iter
            (fun name -> Format.printf "%-14s removed from registry@," name)
            r.Analysis.Cache.removed);
        Format.printf "@]@.";
        0
      end
    in
    Cmd.v
      (Cmd.info "status"
         ~doc:
           "Entry counts per kind, quarantined files, and a change-impact diff of the \
            live protocol fleet against the recorded manifest (unchanged / changed / \
            added / removed).")
      Term.(const run $ dir_arg)
  in
  let clear_cmd =
    let run dir =
      let n = Analysis.Cache.clear ~dir in
      Format.printf "%s: removed %d entr%s@." dir n (if n = 1 then "y" else "ies");
      0
    in
    Cmd.v
      (Cmd.info "clear" ~doc:"Remove every cache entry (and quarantined file) under DIR.")
      Term.(const run $ dir_arg)
  in
  Cmd.group
    (Cmd.info "cache"
       ~doc:
         "Inspect or clear the persistent analysis cache populated by `boost lint \
          --cache`.")
    [ status_cmd; clear_cmd ]

(* --- experiments --- *)

let experiments_cmd =
  let run () =
    let rows = Experiments.all () in
    Format.printf "%a@." Experiments.pp_table rows;
    let bad = List.filter (fun r -> not r.Experiments.ok) rows in
    Format.printf "@.%d/%d experiment rows match the paper@."
      (List.length rows - List.length bad)
      (List.length rows);
    if bad = [] then 0 else 1
  in
  Cmd.v
    (Cmd.info "experiments" ~doc:"Run the full E1-E13 battery and print paper-vs-measured.")
    Term.(const run $ const ())

let main =
  Cmd.group
    (Cmd.info "boost" ~version:"1.0.0"
       ~doc:
         "Executable reproduction of 'The Impossibility of Boosting Distributed Service \
          Resilience' (Attie, Guerraoui, Kuznetsov, Lynch, Rajsbaum).")
    [
      refute_cmd;
      staircase_cmd;
      explore_cmd;
      run_cmd;
      lemmas_cmd;
      chaos_cmd;
      serve_cmd;
      lint_cmd;
      cache_cmd;
      experiments_cmd;
    ]

let () = exit (Cmd.eval' main)
