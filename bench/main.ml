(* Benchmark harness: regenerates every experiment of the reproduction
   (E1-E11, the paper's tables/figures equivalent — see DESIGN.md §4 and
   EXPERIMENTS.md) and then times the core computations with Bechamel, one
   Test.make per experiment.

   Run with: dune exec bench/main.exe -- [-j N] [--only SUBSTR]
   -j N sizes the parallel chaos kernels (default 4 domains);
   --only SUBSTR times only the kernels whose name contains SUBSTR.
   The serve engine is timed, and its output checked, by perfbench/. *)

open Bechamel
open Toolkit

let argv_value flag =
  let rec find i =
    if i >= Array.length Sys.argv then None
    else if Sys.argv.(i) = flag && i + 1 < Array.length Sys.argv then
      Some Sys.argv.(i + 1)
    else find (i + 1)
  in
  find 1

let jobs = max 1 (Option.value (Option.bind (argv_value "-j") int_of_string_opt) ~default:4)
let only = argv_value "--only"

(* --- Part 1: the reproduction tables (paper-vs-measured) --- *)

let print_experiments () =
  Format.printf "=== Reproduction battery: paper vs measured ===@.@.";
  let rows = Experiments.all () in
  Format.printf "%a@." Experiments.pp_table rows;
  let ok = List.length (List.filter (fun r -> r.Experiments.ok) rows) in
  Format.printf "@.%d/%d experiment rows match the paper@.@." ok (List.length rows)

(* --- Part 2: timed kernels, one per experiment --- *)

let initialized sys inputs =
  List.fold_left
    (fun (exec, i) v -> Model.Exec.append_init sys exec i (Ioa.Value.int v), i + 1)
    (Model.Exec.init (Model.System.initial_state sys), 0)
    inputs
  |> fst

(* E1: canonical object operation cycle (invoke/perform/respond/decide). *)
let bench_canonical_ops =
  let sys = Protocols.Direct.system ~n:2 ~f:1 in
  Test.make ~name:"E1/canonical-object-ops"
    (Staged.stage (fun () ->
       let exec = initialized sys [ 1; 0 ] in
       let sched = Model.Scheduler.round_robin sys in
       ignore
         (Model.Scheduler.run ~stop_when:Model.Properties.termination ~max_steps:1_000 sys
            exec sched)))

(* E2: staircase valence analysis. *)
let bench_bivalent_init =
  let sys = Protocols.Direct.system ~n:2 ~f:0 in
  Test.make ~name:"E2/bivalent-init"
    (Staged.stage (fun () -> ignore (Engine.Initialization.find_bivalent sys)))

(* E3: G(C) exploration + hook search (Fig. 3). *)
let bench_graph_explore =
  let sys = Protocols.Direct.system ~n:3 ~f:0 in
  let start = Model.System.initialize sys (List.init 3 (fun i -> Ioa.Value.int (i mod 2))) in
  Test.make ~name:"E3/graph-explore-n3"
    (Staged.stage (fun () -> ignore (Engine.Graph.explore sys start)))

let bench_hook_fig3 =
  let sys = Protocols.Direct.system ~n:3 ~f:0 in
  let entry = Option.get (Engine.Initialization.find_bivalent sys) in
  let a = entry.Engine.Initialization.analysis in
  Test.make ~name:"E3/hook-fig3" (Staged.stage (fun () -> ignore (Engine.Hook.find a)))

let bench_hook_brute =
  let sys = Protocols.Direct.system ~n:3 ~f:0 in
  let entry = Option.get (Engine.Initialization.find_bivalent sys) in
  let a = entry.Engine.Initialization.analysis in
  Test.make ~name:"E3/hook-brute" (Staged.stage (fun () -> ignore (Engine.Hook.find_brute a)))

(* E4: commutation sweep over the explored graph. *)
let bench_commute =
  let sys = Protocols.Direct.system ~n:2 ~f:0 in
  let entry = Option.get (Engine.Initialization.find_bivalent sys) in
  let a = entry.Engine.Initialization.analysis in
  Test.make ~name:"E4/commute-sweep"
    (Staged.stage (fun () -> ignore (Engine.Commute.check_disjoint a)))

(* E5/E7/E10/E11: full refutations. *)
let bench_refute name sys failures =
  Test.make ~name
    (Staged.stage (fun () -> ignore (Engine.Counterexample.refute ~failures sys)))

let bench_thm2 = bench_refute "E5/thm2-witness" (Protocols.Direct.system ~n:2 ~f:0) 1
let bench_thm9 = bench_refute "E7/thm9-witness" (Protocols.Tob_direct.system ~n:2 ~f:0) 1
let bench_thm10 = bench_refute "E10/thm10-witness" (Protocols.Fd_allconnected.system ~n:2 ~f:0) 1
let bench_flp = bench_refute "E11/flp-witness" (Protocols.Register_wait.system ()) 1

(* E6: one adversarial k-set boosting run. *)
let bench_kset =
  let sys = Protocols.Kset_boost.system ~groups:2 ~group_size:2 in
  Test.make ~name:"E6/kset-boost-run"
    (Staged.stage (fun () ->
       let exec = initialized sys [ 0; 1; 2; 3 ] in
       let sched = Model.Scheduler.random ~seed:11 ~fail_prob:0.02 ~max_failures:3 sys in
       ignore
         (Model.Scheduler.run ~policy:Model.System.dummy_policy
            ~stop_when:Model.Properties.termination ~max_steps:30_000 sys exec sched)))

(* E8: failure-detector service churn. *)
let bench_fd_behaviour =
  let endpoints = [ 0; 1; 2 ] in
  let sys =
    Model.System.make
      ~processes:(List.map (fun pid -> Model.Process.idle ~pid) endpoints)
      ~services:
        [
          Model.Service.general ~coalesce:true ~id:"fd" ~endpoints ~f:2
            (Services.Perfect_fd.make ~endpoints);
        ]
  in
  Test.make ~name:"E8/fd-behaviour"
    (Staged.stage (fun () ->
       let exec = Model.Exec.init (Model.System.initial_state sys) in
       let sched = Model.Scheduler.round_robin ~quiesce:false ~faults:[ (50, 1) ] sys in
       ignore (Model.Scheduler.run ~max_steps:500 sys exec sched)))

(* E9: one §6.3 FD-boosting consensus run with failures. *)
let bench_fd_boost =
  let sys = Protocols.Fd_boost.system ~n:3 in
  Test.make ~name:"E9/fd-boost-run"
    (Staged.stage (fun () ->
       let exec = initialized sys [ 0; 1; 2 ] in
       let sched = Model.Scheduler.round_robin ~faults:[ (0, 0); (30, 1) ] sys in
       ignore
         (Model.Scheduler.run ~policy:Model.System.dummy_policy
            ~stop_when:Model.Properties.termination ~max_steps:60_000 sys exec sched)))

(* E7: TOB throughput (messages ordered and delivered per schedule). *)
let bench_tob =
  let endpoints = [ 0; 1; 2 ] in
  let sys =
    let tob =
      Model.Service.oblivious ~id:"tob" ~endpoints ~f:2
        (Services.Tob.make ~endpoints ~alphabet:[ Ioa.Value.int 0 ])
    in
    Model.System.make
      ~processes:
        (List.map
           (fun pid ->
             Protocols.Proto_util.(
               Model.Process.make ~pid ~start:(st "have" [ Ioa.Value.int pid ])
                 ~step:(fun s ->
                   if is "have" s then
                     Model.Process.Invoke
                       {
                         service = "tob";
                         op = Services.Tob.bcast (field s 0);
                         next = st "sent" [];
                       }
                   else Model.Process.Internal s)
                 ()))
           endpoints)
      ~services:[ tob ]
  in
  Test.make ~name:"E7/tob-order"
    (Staged.stage (fun () ->
       let exec = Model.Exec.init (Model.System.initial_state sys) in
       let sched = Model.Scheduler.round_robin sys in
       ignore (Model.Scheduler.run ~max_steps:200 sys exec sched)))

(* Ablation: SCC-condensation valence vs the naive per-vertex oracle. *)
let valence_benches =
  let sys = Protocols.Direct.system ~n:3 ~f:0 in
  let start = Model.System.initialize sys (List.init 3 (fun i -> Ioa.Value.int (i mod 2))) in
  let g = Engine.Graph.explore sys start in
  [
    Test.make ~name:"ablation/valence-scc"
      (Staged.stage (fun () -> ignore (Engine.Valence.analyze g)));
    Test.make ~name:"ablation/valence-naive"
      (Staged.stage (fun () -> ignore (Engine.Valence_naive.verdicts g)));
  ]

(* Chaos explorer: systematic single-crash sweep with full monitors, the
   hot loop of `boost chaos`. Same bounded configuration as @chaos-smoke
   so the timing tracks what tier-1 actually runs. *)
let bench_chaos sys name =
  let config =
    {
      (Chaos.Explore.default_config sys) with
      Chaos.Explore.max_faults = 1;
      budget = 64;
      max_steps = 4_000;
    }
  in
  Test.make ~name (Staged.stage (fun () -> ignore (Chaos.Explore.run ~config sys)))

let bench_chaos_direct =
  bench_chaos (Protocols.Direct.system ~n:2 ~f:1) "chaos/explore-direct"

let bench_chaos_tob =
  bench_chaos (Protocols.Tob_direct.system ~n:2 ~f:0) "chaos/explore-tob"

(* Parallel chaos explorer: the full enumeration space at twice the seed
   horizon and up to two crashes — the workload where the sequential
   1,024-schedule budget truncates — spread over [jobs] domains with
   fingerprint dedup. Compare against chaos/explore-* above for the
   speedup table in EXPERIMENTS.md. *)
let par_chaos_config sys =
  let d = Chaos.Explore.default_config sys in
  let cfg =
    { d with Chaos.Explore.max_faults = 2; horizon = 2 * d.Chaos.Explore.horizon;
      max_steps = 4_000 }
  in
  { cfg with
    Chaos.Explore.budget =
      Chaos.Explore.space_size sys cfg }

let bench_chaos_par sys name =
  let config = par_chaos_config sys in
  Test.make ~name
    (Staged.stage (fun () ->
       ignore (Chaos.Explore.run_par ~config ~domains:jobs ~dedup:true sys)))

let bench_chaos_par_direct =
  bench_chaos_par (Protocols.Direct.system ~n:2 ~f:1)
    (Printf.sprintf "chaos/explore-par-direct-j%d" jobs)

let bench_chaos_par_tob =
  (* f=1 (the resilient side): f=0 falls to the second candidate, which
     benchmarks nothing — the sweep kernel needs the clean full space. *)
  bench_chaos_par (Protocols.Tob_direct.system ~n:2 ~f:1)
    (Printf.sprintf "chaos/explore-par-tob-j%d" jobs)

let bench_chaos_par_tob_pruned =
  (* The same sweep with the abstract-interpretation infeasibility oracle:
     schedules whose crashes land after the certified quiescence step are
     skipped without execution. Compare against explore-par-tob-j* for the
     prune-rate/wall-time row in EXPERIMENTS.md. *)
  let sys = Protocols.Tob_direct.system ~n:2 ~f:1 in
  let config = par_chaos_config sys in
  Test.make ~name:(Printf.sprintf "chaos/explore-par-tob-pruned-j%d" jobs)
    (Staged.stage (fun () ->
       ignore (Chaos.Explore.run_par ~config ~domains:jobs ~dedup:true ~static_prune:true sys)))

(* Partial-order reduction over the same single-crash sweep as
   chaos/explore-*: schedules whose crash placement is interference-
   equivalent to a lower-ranked one are skipped, verdict inherited.
   Compare against chaos/explore-* for the POR row in EXPERIMENTS.md.
   tob at f=1 (the crash-tolerant side), where the service's oblivious
   class makes most task slots crash-independent. *)
let bench_chaos_por sys name =
  let config =
    {
      (Chaos.Explore.default_config sys) with
      Chaos.Explore.max_faults = 1;
      budget = 64;
      max_steps = 4_000;
    }
  in
  Test.make ~name
    (Staged.stage (fun () ->
       ignore (Chaos.Explore.run_par ~config ~dedup:false ~por:true sys)))

let bench_chaos_por_direct =
  bench_chaos_por (Protocols.Direct.system ~n:2 ~f:1) "chaos/explore-por-direct"

let bench_chaos_por_tob =
  bench_chaos_por (Protocols.Tob_direct.system ~n:2 ~f:1) "chaos/explore-por-tob"

let bench_chaos_por_par_tob =
  (* POR stacked on the parallel two-crash sweep with dedup, the fully
     composed configuration. Compare against explore-par-tob-j*. *)
  let sys = Protocols.Tob_direct.system ~n:2 ~f:1 in
  let config = par_chaos_config sys in
  Test.make ~name:(Printf.sprintf "chaos/explore-por-tob-j%d" jobs)
    (Staged.stage (fun () ->
       ignore (Chaos.Explore.run_par ~config ~domains:jobs ~dedup:true ~por:true sys)))

(* Network adversary: the mixed omission/partition sweep of ISSUE 5's
   tentpole. Same bounded budget as chaos/explore-* so the rows compare
   directly — the delta is the cost of compiling and delivering buffer
   mutations and partition spans instead of pure crash schedules. *)
let net_kinds =
  Chaos.Schedule.[ Crash_k; Drop_k; Dup_k; Delay_k; Partition_k ]

let bench_chaos_net sys name =
  let config =
    {
      (Chaos.Explore.default_config sys) with
      Chaos.Explore.max_faults = 1;
      kinds = net_kinds;
      budget = 64;
      max_steps = 4_000;
    }
  in
  Test.make ~name (Staged.stage (fun () -> ignore (Chaos.Explore.run ~config sys)))

let bench_chaos_net_tob =
  bench_chaos_net (Protocols.Tob_direct.system ~n:2 ~f:0) "chaos/explore-net-tob"

let bench_chaos_net_fdnet =
  let sys = Protocols.Fd_network.system ~n:2 in
  let output = Protocols.Fd_network.output_of in
  let monitors =
    Chaos.Monitor.safety ()
    @ [ Chaos.Monitor.fd_completeness ~output (); Chaos.Monitor.fd_accuracy ~output () ]
  in
  let config =
    {
      (Chaos.Explore.default_config sys) with
      Chaos.Explore.max_faults = 1;
      kinds = net_kinds;
      budget = 64;
      max_steps = 4_000;
    }
  in
  Test.make ~name:"chaos/explore-net-fdnet"
    (Staged.stage (fun () -> ignore (Chaos.Explore.run ~monitors ~config sys)))

(* The same mixed sweep over the full single-fault space on [jobs] domains,
   with neither static oracle engaged — this row isolates the raw parallel
   speedup on the widened space (compare explore-net-por-*-j* below for
   what the footprint oracles buy on top). *)
let bench_chaos_net_par sys name =
  let d = Chaos.Explore.default_config sys in
  let cfg =
    { d with Chaos.Explore.max_faults = 1; kinds = net_kinds; max_steps = 4_000 }
  in
  let config = { cfg with Chaos.Explore.budget = Chaos.Explore.space_size sys cfg } in
  Test.make ~name
    (Staged.stage (fun () ->
       ignore (Chaos.Explore.run_par ~config ~domains:jobs ~dedup:true sys)))

let bench_chaos_net_par_tob =
  bench_chaos_net_par (Protocols.Tob_direct.system ~n:2 ~f:1)
    (Printf.sprintf "chaos/explore-net-tob-j%d" jobs)

let bench_chaos_net_par_fdnet =
  bench_chaos_net_par (Protocols.Fd_network.system ~n:2)
    (Printf.sprintf "chaos/explore-net-fdnet-j%d" jobs)

(* Net-fault partial-order reduction (ISSUE 7): the mixed single-fault
   sweep with both footprint oracles on — omission deliveries slide past
   statically independent task slots and post-quiescence placements are
   skipped on the empty-buffer certificate. Compare against the matching
   explore-net-* rows for the prune-rate/wall-time table in
   EXPERIMENTS.md. *)
let net_por_config sys =
  let d = Chaos.Explore.default_config sys in
  let cfg =
    { d with Chaos.Explore.max_faults = 1; kinds = net_kinds; max_steps = 4_000 }
  in
  { cfg with Chaos.Explore.budget = Chaos.Explore.space_size sys cfg }

let bench_chaos_net_por ~domains sys name =
  let config = net_por_config sys in
  Test.make ~name
    (Staged.stage (fun () ->
       ignore
         (Chaos.Explore.run_par ~config ~domains ~dedup:false ~static_prune:true
            ~por:true sys)))

let bench_chaos_net_por_tob =
  bench_chaos_net_por ~domains:1
    (Protocols.Tob_direct.system ~n:2 ~f:1)
    "chaos/explore-net-por-tob"

let bench_chaos_net_por_rv =
  bench_chaos_net_por ~domains:1
    (Protocols.Register_vote.system ())
    "chaos/explore-net-por-register-vote"

let bench_chaos_net_por_par_tob =
  bench_chaos_net_por ~domains:jobs
    (Protocols.Tob_direct.system ~n:2 ~f:1)
    (Printf.sprintf "chaos/explore-net-por-tob-j%d" jobs)

let bench_chaos_net_por_par_rv =
  bench_chaos_net_por ~domains:jobs
    (Protocols.Register_vote.system ())
    (Printf.sprintf "chaos/explore-net-por-register-vote-j%d" jobs)

(* Degrade-aware monitoring (ISSUE 6): the same mixed sweep as
   chaos/explore-net-tob with the graceful-degradation monitors and the
   per-violation live-vector annotation. The damage summary is folded once
   per end-of-run check, so the delta against chaos/explore-net-tob is the
   monitoring overhead budgeted at <5%. *)
let bench_chaos_degrade_tob =
  let sys = Protocols.Tob_direct.system ~n:2 ~f:0 in
  let config =
    {
      (Chaos.Explore.default_config sys) with
      Chaos.Explore.max_faults = 1;
      kinds = net_kinds;
      budget = 64;
      max_steps = 4_000;
      degrade = true;
    }
  in
  let monitors = Chaos.Monitor.defaults ~degrade:true () in
  Test.make ~name:"chaos/monitor-degrade-tob"
    (Staged.stage (fun () -> ignore (Chaos.Explore.run ~monitors ~config sys)))

(* The abstract-reachability fixpoint itself: the one-shot cost `boost lint`
   pays per protocol, and the amortized cost of the pruning oracle. *)
let bench_fixpoint sys name =
  Test.make ~name (Staged.stage (fun () -> ignore (Analysis.Reach.analyze sys)))

let bench_fixpoint_direct =
  bench_fixpoint (Protocols.Direct.system ~n:2 ~f:1) "analysis/fixpoint-direct"

let bench_fixpoint_tob =
  bench_fixpoint (Protocols.Tob_direct.system ~n:2 ~f:1) "analysis/fixpoint-tob"

(* The symbolic (n, f) fixpoint against the concrete powerset one, on the
   largest grid point the certificates cover: direct at n=4 under two
   faults solves 6 signature unknowns where the full system solves 11
   failed-set unknowns. The -n4f2 row is the like-for-like comparator. *)
let bench_param_fixpoint_direct =
  let sys = Protocols.Direct.system ~n:4 ~f:2 in
  let classes = Analysis.Param.classes sys in
  Test.make ~name:"analysis/param-fixpoint-direct"
    (Staged.stage (fun () -> ignore (Analysis.Reach.analyze_sym ~max_faults:2 ~classes sys)))

let bench_fixpoint_direct_n4f2 =
  let sys = Protocols.Direct.system ~n:4 ~f:2 in
  Test.make ~name:"analysis/fixpoint-direct-n4f2"
    (Staged.stage (fun () -> ignore (Analysis.Reach.analyze ~max_faults:2 sys)))

let bench_param_fixpoint_tob =
  let sys = Protocols.Tob_direct.system ~n:3 ~f:1 in
  let classes = Analysis.Param.classes sys in
  Test.make ~name:"analysis/param-fixpoint-tob"
    (Staged.stage (fun () -> ignore (Analysis.Reach.analyze_sym ~max_faults:1 ~classes sys)))

(* Substrate micro-benchmarks. *)
let bench_state_hash =
  let sys = Protocols.Fd_boost.system ~n:4 in
  let s = Model.System.initialize sys (List.init 4 Ioa.Value.int) in
  Test.make ~name:"micro/state-hash" (Staged.stage (fun () -> ignore (Model.State.hash s)))

let bench_transition =
  let sys = Protocols.Direct.system ~n:3 ~f:2 in
  let s = Model.System.initialize sys (List.init 3 Ioa.Value.int) in
  Test.make ~name:"micro/transition"
    (Staged.stage (fun () -> ignore (Model.System.transition sys s (Model.Task.Proc 0))))

(* The incremental-analysis cache: whole-fleet lint and the (n, f) sweep,
   cold vs warm. The warm kernels replay from a cache populated once at
   startup; [print_cache_rates] re-runs each of them once instrumented after
   the timing table, so the hit rates land next to the wall times in
   EXPERIMENTS.md. The directory is removed at exit. *)
let bench_cache_dir =
  let f = Filename.temp_file "boost-bench-cache" "" in
  Sys.remove f;
  at_exit (fun () ->
      ignore (Analysis.Cache.clear ~dir:f);
      try Sys.rmdir f with Sys_error _ -> ());
  f

let lint_fleet ?cache () =
  List.iter
    (fun e ->
      ignore
        (Protocols.Registry.lint ?cache ~max_faults:1 e Protocols.Registry.default_params))
    Protocols.Registry.all

let bench_lint_all_cold =
  Test.make ~name:"analysis/lint-all-cold" (Staged.stage (fun () -> lint_fleet ()))

let bench_lint_all_warm =
  lint_fleet ~cache:(Analysis.Cache.open_ ~dir:bench_cache_dir) ();
  (* Each run opens a fresh handle on the warm directory — the hashing and
     the envelope reads are part of what a warm `boost lint --all` costs. *)
  Test.make ~name:"analysis/lint-all-warm"
    (Staged.stage (fun () ->
       lint_fleet ~cache:(Analysis.Cache.open_ ~dir:bench_cache_dir) ()))

(* The parameterized (n, f) sweep: certify direct and tob over the default
   3×3 window. Cold pays 9 concrete lints per protocol; warm replays the
   whole window from one pcert entry per protocol (hit rates printed by
   [print_cache_rates]). *)
let certify_grid ?cache () =
  List.iter
    (fun name ->
      ignore (Protocols.Registry.certify ?cache (Option.get (Protocols.Registry.find name))))
    [ "direct"; "tob" ]

let bench_sweep_grid_cold =
  Test.make ~name:"analysis/sweep-grid-cold" (Staged.stage (fun () -> certify_grid ()))

let bench_sweep_grid_warm =
  certify_grid ~cache:(Analysis.Cache.open_ ~dir:bench_cache_dir) ();
  Test.make ~name:"analysis/sweep-grid-warm"
    (Staged.stage (fun () ->
       certify_grid ~cache:(Analysis.Cache.open_ ~dir:bench_cache_dir) ()))

let print_cache_rates () =
  let rate (c : Analysis.Cache.t) =
    let s = c.Analysis.Cache.stats in
    let total = s.Analysis.Cache.hits + s.Analysis.Cache.misses in
    if total = 0 then 0.
    else 100. *. float_of_int s.Analysis.Cache.hits /. float_of_int total
  in
  let c_lint = Analysis.Cache.open_ ~dir:bench_cache_dir in
  lint_fleet ~cache:c_lint ();
  let c_sweep = Analysis.Cache.open_ ~dir:bench_cache_dir in
  certify_grid ~cache:c_sweep ();
  Format.printf "@.=== Cache hit rates (warm kernels) ===@.@.";
  Format.printf "%-36s %5.1f%%  %a@." "analysis/lint-all-warm" (rate c_lint)
    Analysis.Cache.pp_stats c_lint;
  Format.printf "%-36s %5.1f%%  %a@." "analysis/sweep-grid-warm" (rate c_sweep)
    Analysis.Cache.pp_stats c_sweep

let tests =
  ([
      bench_canonical_ops;
      bench_bivalent_init;
      bench_graph_explore;
      bench_hook_fig3;
      bench_hook_brute;
      bench_commute;
      bench_thm2;
      bench_thm9;
      bench_thm10;
      bench_flp;
      bench_kset;
      bench_fd_behaviour;
      bench_fd_boost;
      bench_tob;
      bench_chaos_direct;
      bench_chaos_tob;
      bench_chaos_par_direct;
      bench_chaos_par_tob;
      bench_chaos_par_tob_pruned;
      bench_chaos_por_direct;
      bench_chaos_por_tob;
      bench_chaos_por_par_tob;
      bench_chaos_net_tob;
      bench_chaos_net_fdnet;
      bench_chaos_net_par_tob;
      bench_chaos_net_par_fdnet;
      bench_chaos_net_por_tob;
      bench_chaos_net_por_rv;
      bench_chaos_net_por_par_tob;
      bench_chaos_net_por_par_rv;
      bench_chaos_degrade_tob;
      bench_fixpoint_direct;
      bench_fixpoint_tob;
      bench_param_fixpoint_direct;
      bench_fixpoint_direct_n4f2;
      bench_param_fixpoint_tob;
      bench_lint_all_cold;
      bench_lint_all_warm;
      bench_sweep_grid_cold;
      bench_sweep_grid_warm;
      bench_state_hash;
      bench_transition;
    ]
    @ valence_benches)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

let tests =
  match only with
  | None -> tests
  | Some substr -> (
    match List.filter (fun t -> contains (Test.name t) substr) tests with
    | [] ->
      Format.eprintf "--only %s matches no kernel@." substr;
      exit 3
    | kept -> kept)

let tests = Test.make_grouped ~name:"boosting" tests

let run_benchmarks () =
  Format.printf "=== Timings (Bechamel, monotonic clock) ===@.@.";
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let raw = Benchmark.all cfg instances tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name result acc ->
        let estimate =
          match Analyze.OLS.estimates result with Some [ e ] -> e | _ -> nan
        in
        (name, estimate) :: acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter
    (fun (name, ns) ->
      if Float.is_nan ns then Format.printf "%-36s  (no estimate)@." name
      else if ns > 1e6 then Format.printf "%-36s %10.3f ms/run@." name (ns /. 1e6)
      else Format.printf "%-36s %10.1f ns/run@." name ns)
    rows

let () =
  print_experiments ();
  run_benchmarks ();
  print_cache_rates ()
