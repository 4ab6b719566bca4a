(* The `boost` command-line driver: run the impossibility engine, the
   positive-result protocols, and the full experiment battery from the shell. *)

open Cmdliner

module Registry = Protocols.Registry

(* --- the argument layer: every subcommand parses its protocol, (n, f)
   parameters and counts here, so garbage is a usage error (exit 124) before
   any run starts, never an exception or a vacuous verdict --- *)

(* The one protocol converter, over the one protocol table ([Registry.all],
   which bin, perfbench and the test-suites all enumerate). [extra] widens it
   with entries outside the registry. *)
let protocol_conv ?(extra = []) () =
  let table = extra @ Registry.all in
  let name (e : Registry.entry) = e.Registry.name in
  let parse s =
    match List.find_opt (fun e -> String.equal (name e) s) table with
    | Some e -> Ok e
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown protocol: %s (expected one of %s)" s
             (String.concat " | " (List.sort String.compare (List.map name table)))))
  in
  let print ppf e = Format.pp_print_string ppf (name e) in
  Arg.conv (parse, print)

let protocol_doc = "Protocol: " ^ String.concat " | " Registry.names ^ "."

let protocol_arg =
  Arg.(
    required
    & pos 0 (some (protocol_conv ())) None
    & info [] ~docv:"PROTOCOL" ~doc:protocol_doc)

(* The same positional where the synopsis shows it optional ([lint] takes
   --all instead; [chaos] and [serve] keep their synopsis): a missing
   PROTOCOL is still a usage error. *)
let protocol_opt ?extra ~doc () =
  Arg.(value & pos 0 (some (protocol_conv ?extra ())) None & info [] ~docv:"PROTOCOL" ~doc)

let require_protocol arg =
  let present = Option.to_result ~none:"required argument PROTOCOL is missing" in
  Term.(term_result' ~usage:true (const present $ arg))

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

(* The one parameter term: a [Registry.params] every protocol constructor
   accepts. *)
let params_term =
  let d = Registry.default_params in
  let n =
    Arg.(
      value & opt pos_int d.n & info [ "n"; "procs" ] ~docv:"N" ~doc:"Number of processes.")
  in
  let f =
    Arg.(
      value & opt nonneg_int d.f
      & info [ "f"; "resilience" ] ~docv:"F" ~doc:"Service resilience level.")
  in
  let groups =
    Arg.(value & opt pos_int d.groups & info [ "groups" ] ~docv:"G" ~doc:"k-set groups.")
  in
  let group_size =
    Arg.(
      value & opt pos_int d.group_size
      & info [ "group-size" ] ~docv:"S" ~doc:"Processes per group.")
  in
  Term.(
    const (fun n f groups group_size -> { Registry.n; f; groups; group_size })
    $ n $ f $ groups $ group_size)

(* Where protocol and parameters meet: the protocol's own range beyond the
   shared ones ([Registry.check_params]) is a usage error too. *)
let with_params protocol =
  let check e p = Result.map (fun () -> e, p) (Registry.check_params e p) in
  Term.(term_result' ~usage:true (const check $ protocol $ params_term))

let failures_arg =
  Arg.(value & opt int 1 & info [ "failures" ] ~docv:"K" ~doc:"Claimed resilience (= f + 1).")

(* The claimed resilience K must satisfy 0 < K < n; its range depends on
   the built system, so a bad K is the run's own usage error (exit 3). *)
let failures_in_range sys failures =
  let np = Model.System.n_processes sys in
  let ok = 0 < failures && failures < np in
  if not ok then
    Format.eprintf "--failures %d: need 0 < K < %d (the process count)@." failures np;
  ok

let seeds_arg =
  Arg.(value & opt pos_int 20 & info [ "seeds" ] ~docv:"S" ~doc:"Random-run count.")

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
    Option.iter
      (fun file -> write_file file (Analysis.Json.pretty (Analysis.Cache.stats_json c)))
      stats_out;
    Format.eprintf "%a@." Analysis.Cache.pp_stats c

let max_states_arg =
  Arg.(
    value & opt pos_int 200_000 & info [ "max-states" ] ~docv:"B" ~doc:"State-space bound.")

(* --- refute --- *)

let refute_cmd =
  let run (protocol, params) failures max_states =
    let sys = protocol.Registry.build params in
    if not (failures_in_range sys failures) then 3
    else
      let report = Engine.Counterexample.refute ~max_states ~failures sys in
      Format.printf "%a@." Engine.Counterexample.pp_report report;
      match report.Engine.Counterexample.outcome with
      | Engine.Counterexample.Refuted _ -> 0
      | Engine.Counterexample.Not_refuted _ -> 1
      | Engine.Counterexample.Out_of_budget _ -> 2
  in
  let term =
    Term.(const run $ with_params protocol_arg $ failures_arg $ max_states_arg)
  in
  Cmd.v
    (Cmd.info "refute"
       ~doc:
         "Attack a protocol's claim of K-resilient consensus with the Theorem 2/9/10 engine; \
          exits 0 when refuted, 1 when the claim stands, 3 unless 0 < K < N.")
    term

(* --- staircase --- *)

let staircase_cmd =
  let run (protocol, params) =
    List.iter
      (fun e -> Format.printf "%a@." Engine.Initialization.pp_entry e)
      (Engine.Initialization.staircase (protocol.Registry.build params));
    0
  in
  let term = Term.(const run $ with_params protocol_arg) in
  Cmd.v
    (Cmd.info "staircase" ~doc:"Print the Lemma 4 staircase of initializations with valences.")
    term

(* --- explore --- *)

let explore_cmd =
  let run (protocol, params) max_states =
    let sys = protocol.Registry.build params in
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
  let term = Term.(const run $ with_params protocol_arg $ max_states_arg) in
  Cmd.v (Cmd.info "explore" ~doc:"Materialize G(C) and print the valence census.") term

(* --- run (positive protocols) --- *)

let run_cmd =
  let run (protocol, params) seeds =
    let sys = protocol.Registry.build params in
    let np = Model.System.n_processes sys in
    let failing =
      Experiments.random_consensus_runs ~sys ~inputs:(List.init np Fun.id) ~seeds
        ~max_failures:(np - 1) ~k:(protocol.Registry.k_of params)
    in
    List.iter
      (fun (seed, r) -> Format.printf "seed %d: %a@." seed Model.Properties.pp_report r)
      failing;
    Format.printf "%d/%d adversarial runs satisfied the specification@."
      (seeds - List.length failing) seeds;
    if failing = [] then 0 else 1
  in
  let term = Term.(const run $ with_params protocol_arg $ seeds_arg) in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run a protocol under seeded-random adversarial schedules with failure injection \
          and check its specification.")
    term

(* --- lemmas --- *)

let lemmas_cmd =
  let run (protocol, params) failures =
    let sys = protocol.Registry.build params in
    if not (failures_in_range sys failures) then 3
    else begin
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
    end
  in
  let term = Term.(const run $ with_params protocol_arg $ failures_arg) in
  Cmd.v
    (Cmd.info "lemmas"
       ~doc:
         "Check the paper's lemmas exhaustively over the protocol's staircase graphs. \
          Lemmas 1/3 must always hold; Lemma 6/7 counterexamples on a candidate are the \
          refutation levers. Exits 3 unless 0 < K < N for --failures K.")
    term

(* --- chaos --- *)

(* fd-network is deliberately not in the registry: it decides nothing (the
   lint analyzer flags blank protocols as errors), so only the chaos command
   accepts it, and swaps f-termination for the ◇P monitors its spec actually
   promises. *)
let fd_network =
  {
    Registry.name = "fd-network";
    doc = "an n-process perfect failure detector from pairwise perfect detectors";
    build = (fun p -> Protocols.Fd_network.system ~n:p.Registry.n);
    min_n = 2;
    k_of = (fun _ -> 1);
    claims = (fun _ -> Analysis.Guarantee.no_claim);
  }

(* Agreement and validity are held to what the protocol claims: k-agreement
   plus validity for a claimed k, neither for a protocol that decides
   something other than one of the proposed inputs (universal decides
   counter responses, split's per-process services agree on nothing). *)
let chaos_monitors protocol params ~degrade =
  if protocol == fd_network then
    let output = Protocols.Fd_network.output_of in
    Chaos.Monitor.safety ~degrade ()
    @ [
        Chaos.Monitor.fd_completeness ~output ();
        Chaos.Monitor.fd_accuracy ~output ();
        Chaos.Monitor.linearizability ~degrade ();
      ]
  else
    match (protocol.Registry.claims params).Analysis.Guarantee.agreement with
    | Some k -> Chaos.Monitor.defaults ~k ~degrade ()
    | None ->
      Chaos.Monitor.
        [ per_process_agreement; f_termination ~degrade (); linearizability ~degrade () ]

let chaos_cmd =
  let protocol_arg =
    require_protocol
      (protocol_opt ~extra:[ fd_network ]
         ~doc:
           ("Protocol to attack: fd-network | " ^ String.concat " | " Registry.names ^ ".")
         ())
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
    Arg.(
      value & opt pos_int 20_000
      & info [ "max-steps" ] ~docv:"M" ~doc:"Per-run step bound.")
  in
  let horizon_arg =
    Arg.(
      value & opt nonneg_int 0
      & info [ "horizon" ] ~docv:"H"
          ~doc:"Crash steps range over [0, H) (0 = twice the task count).")
  in
  let budget_arg =
    Arg.(
      value & opt pos_int 1_024
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
      value & opt pos_int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Systematic mode: explore with N parallel domains (each takes the next \
             candidate from one shared counter; the merged report is deterministic and \
             the same at every N).")
  in
  let dedup_arg =
    Arg.(
      value
      & vflag true
          [
            ( true,
              info [ "dedup" ]
                ~doc:
                  "Prune schedules whose configuration at activation was already explored, \
                   inheriting that run's verdict and counters (default). Systematic mode \
                   only. The report is unchanged; the prune count is written only by \
                   --prune-stats-out." );
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
  let prune_stats_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "prune-stats-out" ] ~docv:"FILE"
          ~doc:
            "Systematic mode: write the exploration's prune statistics (examined, space, \
             dedup prune count, ...) to FILE as JSON.")
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
  let run (protocol, params) faults max_faults seed runs max_steps horizon budget stride jobs
      dedup shrink prune_stats_out schedule timeout witness_out degrade =
    let sys = protocol.Registry.build params in
    let monitors = chaos_monitors protocol params ~degrade in
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
          match Chaos.Explore.violation_of ~degrade sys schedule r with
          | Some v ->
            Option.iter (Format.printf "degraded to %s@.") v.Chaos.Explore.degraded_to;
            1
          | None -> 0)))
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
      let report = Chaos.Driver.run ~monitors ~shrink ~domains:jobs ~dedup ~stop mode sys in
      Sys.set_signal Sys.sigint prev_sigint;
      Format.printf "%a@." Chaos.Driver.pp_report report;
      (match prune_stats_out with
      | None -> ()
      | Some file ->
        let r = report in
        write_file file
          (Analysis.Json.(
             pretty
               (Obj
                  [
                    "examined", Int r.Chaos.Driver.examined;
                    "space", Int r.Chaos.Driver.space;
                    "truncated", Bool r.Chaos.Driver.truncated;
                    "wall_truncated", Bool r.Chaos.Driver.wall_truncated;
                    "dedup_hits", Int r.Chaos.Driver.dedup_hits;
                    "step_budget_hits", Int r.Chaos.Driver.step_budget_hits;
                    "monitor_truncations", Int r.Chaos.Driver.monitor_truncations;
                    "vacuous_net_faults", Int r.Chaos.Driver.vacuous_net_faults;
                    ( "violation",
                      Bool
                        (match r.Chaos.Driver.outcome with
                        | Chaos.Driver.Violated _ -> true
                        | Chaos.Driver.Passed -> false) );
                  ])));
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
      | Chaos.Driver.Passed -> if report.Chaos.Driver.wall_truncated then 2 else 0)
  in
  let term =
    Term.(
      const run $ with_params protocol_arg $ faults_arg $ max_faults_arg $ seed_arg
      $ runs_arg $ max_steps_arg $ horizon_arg $ budget_arg $ stride_arg $ jobs_arg
      $ dedup_arg $ shrink_arg $ prune_stats_out_arg
      $ schedule_arg $ timeout_arg $ witness_out_arg $ degrade_arg)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Systematic fault-schedule injection with property monitors and shrinking: \
          enumerate (or randomly sample, with --seed and exact replay) crash placements, \
          service silencings and network faults (drop/dup/delay/partition, with --faults \
          KINDS), check the agreement and validity the protocol claims, \
          f-termination and linearizability — or, for \
          fd-network, the \xe2\x97\x87P completeness/accuracy monitors — during each run, \
          and delta-debug any violation to a minimal schedule. With --degrade, network \
          damage degrades the checked guarantee instead of waiving it. Exits 1 with the \
          minimized schedule on violation, 0 when all monitors pass, 2 when the \
          wall-clock budget truncated the exploration first, 3 on an invalid --schedule \
          or an unwritable output file, 124 on any other usage error.")
    term

(* --- serve --- *)

let serve_cmd =
  let protocol_arg =
    require_protocol
      (protocol_opt
         ~doc:
           ("Protocol to serve on: any registry protocol claiming single-value agreement \
             (" ^ String.concat " | " Registry.names ^ ").")
         ())
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
      value & opt pos_int 8
      & info [ "retry-timeout" ] ~docv:"T"
          ~doc:
            "Ticks a client waits before resubmitting an operation (exponential backoff, \
             idempotent at the replicas).")
  in
  let rejoin_after_arg =
    Arg.(
      value & opt nonneg_int 25
      & info [ "rejoin-after" ] ~docv:"T"
          ~doc:"Ticks a crashed replica stays down before starting catch-up.")
  in
  let catch_up_rate_arg =
    Arg.(
      value & opt pos_int 32
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
      & opt (some pos_int) None
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
      value & opt pos_int 200_000
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
  let run ((protocol : Registry.entry), params) obj clients ops rate batch pipeline
      retry_timeout rejoin_after catch_up_rate faults max_faults schedule seed max_ticks
      shot_max_steps lin_max_nodes pin_oracle shrink witness_out =
    let ( let* ) = Result.bind in
    let proto = protocol.Registry.name in
    let checked =
      let* () =
        if Workload.Engine.eligible protocol params then Ok ()
        else
          Error
            (Printf.sprintf
               "%s at n=%d f=%d does not claim single-value agreement; the engine \
                commits batches on the decided bit, so it cannot serve on it"
               proto params.Registry.n params.Registry.f)
      in
      let* _obj = Workload.Engine.obj_of_name obj in
      let* schedule =
        match schedule with
        | None -> Ok None
        | Some spec ->
          (* Checked against the shot system, as `boost chaos` does. *)
          Result.map_error (Printf.sprintf "bad --schedule: %s")
            (let* s = Chaos.Schedule.parse spec in
             let* () = Chaos.Schedule.validate (protocol.Registry.build params) s in
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
      Ok (schedule, kinds)
    in
    match checked with
    | Error e ->
      Format.eprintf "%s@." e;
      3
    | Ok (schedule, kinds) ->
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
      const run $ with_params protocol_arg $ obj_arg $ clients_arg $ ops_arg $ rate_arg
      $ batch_arg $ pipeline_arg $ retry_timeout_arg $ rejoin_after_arg $ catch_up_rate_arg
      $ faults_arg $ max_faults_arg $ schedule_arg $ seed_arg $ max_ticks_arg
      $ shot_max_steps_arg $ lin_max_nodes_arg $ pin_oracle_arg $ shrink_arg
      $ witness_out_arg)
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
          3 on an ineligible protocol, an invalid --obj, --schedule or --faults, or an \
          unwritable output file, and 124 on any other usage error.")
    term

(* --- lint --- *)

(* What `boost lint` analyzes: exactly one of a PROTOCOL or --all. *)
type lint_selection = All | One of Registry.entry

let lint_cmd =
  let selection =
    let all_arg =
      Arg.(
        value & flag
        & info [ "all" ]
            ~doc:
              "Lint every registry protocol with its default parameters; exit non-zero if \
               any has findings.")
    in
    let select all protocol params =
      match all, protocol with
      | true, None -> Ok (All, params)
      | false, Some e -> Result.map (fun () -> One e, params) (Registry.check_params e params)
      | true, Some _ -> Error "--all takes no PROTOCOL argument"
      | false, None -> Error "need a PROTOCOL argument or --all"
    in
    Term.(
      term_result' ~usage:true
        (const select $ all_arg $ protocol_opt ~doc:protocol_doc () $ params_term))
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
      value & opt pos_int 1
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
  let run (selection, params) max_faults json jobs param validate cache_dir cache_stats =
    let print_json v = print_endline (Analysis.Json.compact v) in
    let cache = Option.map (fun dir -> Analysis.Cache.open_ ~dir) cache_dir in
    let entries = match selection with All -> Array.of_list Registry.all | One e -> [| e |] in
    let run_param () =
      let certs =
        Analysis.Pool.map ~jobs (Array.length entries) (fun i ->
            entries.(i), Registry.certify ?cache ~max_faults entries.(i))
        |> Array.to_list |> List.filter_map Fun.id
      in
      List.iter
        (fun (_, cert) ->
          if json then print_json (Analysis.Cert.json cert)
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
    let run_lint () =
      let params = match selection with All -> Registry.default_params | One _ -> params in
      let results =
        Analysis.Pool.map ~jobs (Array.length entries) (fun i ->
            Registry.lint ?cache ~max_faults entries.(i) params)
        |> Array.to_list |> List.filter_map Fun.id
      in
      if json then
        (* Globally sorted (protocol, severity, code, subject): the
           diff-stable CI artifact ordering. *)
        List.iter
          (fun (protocol, f) -> print_json (Analysis.Lint.json_of_finding ~protocol f))
          (Analysis.Lint.sort_for_artifact
             (List.concat_map
                (fun (r : Registry.lint_result) ->
                  List.map (fun f -> r.Registry.name, f) r.Registry.findings)
                results))
      else List.iter (fun (r : Registry.lint_result) -> print_string r.Registry.human) results;
      (match selection, cache with
      | All, Some c ->
        (* Record the fleet manifest: `boost cache status` diffs the live
           registry against it to report what is unchanged and what
           needs re-analysis. *)
        Analysis.Cache.write_manifest c
          (List.filter_map
             (fun (r : Registry.lint_result) ->
               Option.map (fun h -> r.Registry.name, h) r.Registry.hash)
             results)
      | _ -> ());
      List.fold_left (fun acc (r : Registry.lint_result) -> max acc r.Registry.code) 0 results
    in
    let code = if param then run_param () else run_lint () in
    finish_cache ~stats_out:cache_stats cache;
    code
  in
  let term =
    Term.(
      const run $ selection $ max_faults_arg $ json_arg $ jobs_arg $ param_arg
      $ validate_arg $ cache_dir_arg $ cache_stats_arg)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically analyze a protocol by abstract interpretation: dead or unreachable \
          transitions, non-total/non-deterministic task functions (the §3.1 assumptions), \
          statically-blank protocols (no reachable decide), and resilience-interface \
          mismatches. One machine-readable finding per line; exits 0 when no finding is \
          worse than info, 1 otherwise, 3 on an unwritable output file, 124 on usage \
          errors. With --param, certify over the whole (n, f) window instead \
          (resilience certificates, validated concretely under --validate).")
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
