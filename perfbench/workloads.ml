(* The repository benchmark: four workloads over what this repo runs for its
   users — `boost serve` (a replicated object served by one consensus shot
   per batch) and `boost chaos` (an exhaustive fault-schedule sweep). One
   invocation runs one workload in its own process:

     workloads.exe --workload NAME --seed N --seconds S --trace 0|1
                   [--spans FILE] [--smoke]

   Every input is generated here from --seed; the program only receives
   configs and fault schedules. Runs repeat back to back for S seconds and
   every run's output is checked. --trace 0 reports the end-to-end metrics.
   --trace 1 follows each run with probes that time each layer's public
   calls from outside, on the workload's own inputs, and reports the
   per-layer metrics. The last line on stdout is one JSON object
   {correct, attempted, failed, metrics}; the line before it, prefixed
   "detail ", carries quartiles. perfbench/run.py builds and drives this
   program; perfbench/README.md documents the workloads and metrics. *)

open Ioa

(* ------------------------------------------------------------------ *)
(* Command line                                                       *)
(* ------------------------------------------------------------------ *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  spans : string option;
  smoke : bool;  (** 1/20-size inputs, one run, the oracle pin on. *)
  setup_only : bool;  (** Internal: one set-up (see [setup_child]). *)
}

let usage () =
  prerr_endline
    "usage: workloads.exe --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE] \
     [--smoke]";
  exit 3

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None and spans = ref None and smoke = ref false in
  let setup_only = ref false in
  let rec go = function
    | [] -> ()
    | "--smoke" :: rest -> smoke := true; go rest
    | "--setup-only" :: rest -> setup_only := true; go rest
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: "0" :: rest -> trace := Some false; go rest
    | "--trace" :: "1" :: rest -> trace := Some true; go rest
    | "--spans" :: v :: rest -> spans := Some v; go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match !workload, !seed, !seconds, !trace with
  | Some workload, Some seed, Some seconds, Some trace when seconds >= 0. ->
    { workload; seed; seconds; trace; spans = !spans; smoke = !smoke;
      setup_only = !setup_only }
  | _ -> usage ()

(* ------------------------------------------------------------------ *)
(* Clock, allocation, statistics                                      *)
(* ------------------------------------------------------------------ *)

let now () = Monotonic_clock.now ()
let elapsed t0 = Int64.to_float (Int64.sub (now ()) t0) /. 1e9

let time f =
  let t0 = now () in
  let r = f () in
  r, elapsed t0

(* Words allocated on the minor heap so far. Exact at any point, unlike
   Gc.counters, which advances only at minor collections. *)
let allocated = Gc.minor_words

(* [f ()] from a freshly collected heap, with the minor words it allocated
   and the major collections it caused. Timed runs start the same way. *)
let counted f =
  Gc.compact ();
  let majors0 = (Gc.quick_stat ()).Gc.major_collections and w0 = allocated () in
  let r = f () in
  r, allocated () -. w0, (Gc.quick_stat ()).Gc.major_collections - majors0

(* Call [f] at least once and until [budget] seconds have passed: (seconds
   per call, minor words per call). *)
let probe ~budget f =
  let (calls, secs), words, _ =
    counted (fun () ->
        let t0 = now () and calls = ref 0 in
        while !calls = 0 || elapsed t0 < budget do
          f ();
          incr calls
        done;
        !calls, elapsed t0)
  in
  secs /. float_of_int calls, words /. float_of_int calls

type summary = { median : float; q1 : float; q3 : float; n : int }

(* Quartiles by linear interpolation between order statistics. *)
let summarize xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length a in
  let q p =
    let pos = p *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))
  in
  { median = q 0.5; q1 = q 0.25; q3 = q 0.75; n }

let fi = float_of_int
let ratio a b = if b = 0. then 0. else a /. b
let us secs = 1e6 *. secs

let json_number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x
  else invalid_arg "non-finite metric value"

(* ------------------------------------------------------------------ *)
(* Metric schema                                                      *)
(* ------------------------------------------------------------------ *)

(* The names and units BENCHMARK.json lists; the smoke check keeps the two
   in step. *)
let end_to_end = [ "ops_per_s", "1/s"; "setup_s", "s"; "peak_heap_mb", "MB" ]

let per_layer =
  [
    "runner.calls", "count";
    "runner.us_per_call", "us";
    "runner.steps_per_call", "count";
    "runner.alloc_words_per_call", "words";
    "runner.share", "fraction";
    "runner.self_share", "fraction";
    "exec.us_per_step", "us";
    "exec.share", "fraction";
    "monitor.step_us_per_call", "us";
    "monitor.end_us_per_call", "us";
    "monitor.truncations", "count";
    "monitor.share", "fraction";
    "schedule.compile_us_per_call", "us";
    "schedule.share", "fraction";
    "linear_inc.windows", "count";
    "linear_inc.events", "count";
    "linear_inc.frontier_max", "count";
    "linear_inc.alloc_words_per_window", "words";
    "linear_inc.share", "fraction";
    "replica.applies", "count";
    "replica.catch_up_entries", "count";
    "replica.dup_ratio", "fraction";
    "replica.share", "fraction";
    "engine.ticks", "count";
    "engine.shots", "count";
    "engine.shot_decided_ratio", "fraction";
    "engine.retries", "count";
    "engine.failovers", "count";
    "engine.stale_ratio", "fraction";
    "engine.self_share", "fraction";
    "engine.sim_ops_per_tick", "ops/tick";
    "engine.admission_lag_ticks", "ticks";
    "engine.latency_ticks.p50", "ticks";
    "engine.latency_ticks.p999", "ticks";
    "engine.degraded_ticks", "ticks";
    "engine.rejoin_ticks.max", "ticks";
    "explore.examined", "count";
    "explore.vacuous_ratio", "fraction";
    "explore.self_share", "fraction";
    "gc.minor_words_per_op", "words";
    "gc.major_collections", "count";
  ]

(* Per-layer values, every name preset to 0 — a layer the workload does not
   call reports 0. Setting an unlisted name is a bug in this file. *)
let layer_table () =
  let t = Hashtbl.create 64 in
  List.iter (fun (name, _) -> Hashtbl.replace t name 0.) per_layer;
  let set name v =
    if not (Hashtbl.mem t name) then invalid_arg ("unlisted per-layer metric " ^ name);
    Hashtbl.replace t name v
  in
  t, set

(* ------------------------------------------------------------------ *)
(* Spans                                                              *)
(* ------------------------------------------------------------------ *)

(* The spans render the per-layer cost model: a root span as long as the
   median run, and under it one span per layer as long as the layer's share
   of that run, laid end to end; the runner's pieces nest inside the
   runner's span the same way. A span's self time — its duration minus its
   children's — is then its residual. Each span carries its layer's
   metrics as counters; the root carries the engine's, the explorer's and
   the GC's. *)
type span = {
  id : int;
  parent : int option;
  name : string;
  start_ns : int64;
  end_ns : int64;
  counters : (string * float) list;
}

let span_tree =
  [ "linear_inc", []; "runner", [ "schedule"; "exec"; "monitor" ]; "replica", [] ]

let spans_of ~start_ns ~wall table =
  let value name = Hashtbl.find table name in
  let counters layer =
    List.filter_map
      (fun (name, _) ->
        match String.index_opt name '.' with
        | Some i when String.sub name 0 i = layer && name <> layer ^ ".share" ->
          Some (name, value name)
        | _ -> None)
      per_layer
  in
  let spans = ref [] in
  let add ~parent ~name ~start ~secs counters =
    let id = List.length !spans in
    let stop = Int64.add start (Int64.of_float (secs *. 1e9)) in
    spans := { id; parent; name; start_ns = start; end_ns = stop; counters } :: !spans;
    id, stop
  in
  let root, _ =
    add ~parent:None ~name:"run" ~start:start_ns ~secs:wall
      (List.concat_map counters [ "engine"; "explore"; "gc" ])
  in
  let rec lay parent start = function
    | [] -> ()
    | (layer, pieces) :: rest ->
      let secs = value (layer ^ ".share") *. wall in
      if secs <= 0. then lay parent start rest
      else begin
        let id, stop =
          add ~parent:(Some parent) ~name:layer ~start ~secs (counters layer)
        in
        lay id start (List.map (fun piece -> piece, []) pieces);
        lay parent stop rest
      end
  in
  lay root start_ns span_tree;
  List.rev !spans

let write_spans ~workload file spans =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 file in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\": %d, \"parent\": %s, \"workload\": %S, \"name\": %S, \"start_ns\": %Ld, \
         \"end_ns\": %Ld, \"counters\": {%s}}\n"
        s.id
        (match s.parent with Some p -> string_of_int p | None -> "null")
        workload s.name s.start_ns s.end_ns
        (String.concat ", "
           (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (json_number v)) s.counters)))
    spans;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Workloads                                                          *)
(* ------------------------------------------------------------------ *)

type serve = {
  obj : string;
  clients : int;
  rate : int;
  batch : int;
  ops : int;
  faulty : bool;
}

type kind = Serve of serve | Sweep

(* Why each workload exists is recorded in BENCHMARK.json and README.md. *)
let workloads =
  [
    ( "serve-concurrent",
      Serve
        { obj = "counter"; clients = 8; rate = 8; batch = 8; ops = 10_000;
          faulty = false } );
    ( "serve-sequential",
      Serve
        { obj = "counter"; clients = 2; rate = 2; batch = 2; ops = 40_000;
          faulty = false } );
    ( "serve-faults",
      Serve
        { obj = "register"; clients = 12; rate = 8; batch = 8; ops = 10_000;
          faulty = true } );
    "chaos-sweep", Sweep;
  ]

(* One run as the loop sees it. [fingerprint] must repeat exactly from run
   to run: the program is deterministic. *)
type run_result = {
  fingerprint : string;
  attempted : int;
  failed : int;
  problems : string list;
}

type instance = {
  ops : int;  (** Operations one run performs: client commands or schedules. *)
  run : unit -> run_result;
  traced : smoke:bool -> run_result * float * (string, float) Hashtbl.t;
      (** One traced round: a run (its result and wall seconds) followed by
          the probes; the per-layer metrics are shares of that run. Probe
          fidelity problems join the run's problems. *)
}

let problems checks =
  List.filter_map (fun (ok, what) -> if ok then None else Some what) checks

(* --- the pieces of a monitored run, shared by serve shots and sweeps --- *)

(* Time the pieces of one finished monitored run from outside: compiling
   its schedule, the raw transitions (replaying its labels through
   Model.Exec), the Step monitors at every task-step prefix — where the
   runner calls them — and the End monitors. One sample per call. *)
type parts = {
  mutable samples : int;
  mutable compile_s : float;
  mutable exec_s : float;
  mutable exec_steps : int;
  mutable step_s : float;
  mutable step_calls : int;
  mutable end_s : float;
  mutable replay_mismatches : int;
}

let new_parts () =
  { samples = 0; compile_s = 0.; exec_s = 0.; exec_steps = 0; step_s = 0.; step_calls = 0;
    end_s = 0.; replay_mismatches = 0 }

let replay sys ~policy run_labels =
  let open Model.Exec in
  List.fold_left
    (fun acc label ->
      match acc with
      | None -> None
      | Some exec -> (
        match label with
        | L_init (i, v) -> Some (append_init sys exec i v)
        | L_fail pid -> Some (append_fail sys exec pid)
        | L_task task -> append_task ~policy sys exec task
        | L_net { service; endpoint; kind } -> append_net sys exec ~service ~endpoint ~kind
        | L_partition blocks -> Some (append_partition exec blocks)
        | L_heal blocks -> Some (append_heal exec blocks)))
    (Some (init (Model.System.initial_state sys)))
    run_labels

let step_points (exec : Model.Exec.t) =
  let rec go acc = function
    | [] -> acc
    | (s :: older) as suffix ->
      let acc =
        match s.Model.Exec.label with
        | Model.Exec.L_task _ ->
          ({ exec with Model.Exec.rev_steps = suffix }, s.Model.Exec.event) :: acc
        | _ -> acc
      in
      go acc older
  in
  go [] exec.Model.Exec.rev_steps

let task_steps (exec : Model.Exec.t) =
  List.fold_left
    (fun k s -> match s.Model.Exec.label with Model.Exec.L_task _ -> k + 1 | _ -> k)
    0 exec.Model.Exec.rev_steps

let measure_parts p ~monitors sys schedule (r : Chaos.Runner.result) =
  let exec = r.Chaos.Runner.exec in
  let compiled, compile_s = time (fun () -> Chaos.Schedule.compile schedule sys) in
  let policy = Chaos.Schedule.policy compiled in
  let labels = Model.Exec.labels exec in
  let replayed, exec_s = time (fun () -> replay sys ~policy labels) in
  (match replayed with
  | Some e when Model.Exec.length e = Model.Exec.length exec -> ()
  | _ -> p.replay_mismatches <- p.replay_mismatches + 1);
  let points = step_points exec in
  let (), step_s =
    time (fun () ->
        List.iter
          (fun (prefix, event) ->
            ignore
              (Chaos.Monitor.check_phase monitors ~phase:Chaos.Monitor.Step ~event sys
                 prefix))
          points)
  in
  let _, end_s =
    time (fun () -> Chaos.Monitor.check_phase monitors ~phase:Chaos.Monitor.End sys exec)
  in
  p.samples <- p.samples + 1;
  p.compile_s <- p.compile_s +. compile_s;
  p.exec_s <- p.exec_s +. exec_s;
  p.exec_steps <- p.exec_steps + List.length labels;
  p.step_s <- p.step_s +. step_s;
  p.step_calls <- p.step_calls + List.length points;
  p.end_s <- p.end_s +. end_s

(* Attribute [runner_s] seconds of runner time over [calls] runs totalling
   [steps] steps and [step_calls] Step checks, costing each piece at its
   sampled mean: sets the runner, exec, monitor and schedule metrics. *)
let attribute_runner set p ~wall ~calls ~steps ~step_calls ~runner_s =
  let exec_per_step = ratio p.exec_s (fi p.exec_steps) in
  let step_per_call = ratio p.step_s (fi p.step_calls) in
  let end_per_call = ratio p.end_s (fi p.samples) in
  let compile_per_call = ratio p.compile_s (fi p.samples) in
  let exec_s = fi steps *. exec_per_step in
  let monitor_s = (fi step_calls *. step_per_call) +. (fi calls *. end_per_call) in
  let compile_s = fi calls *. compile_per_call in
  set "runner.calls" (fi calls);
  set "runner.us_per_call" (us (runner_s /. fi calls));
  set "runner.share" (runner_s /. wall);
  set "runner.self_share" ((runner_s -. exec_s -. monitor_s -. compile_s) /. wall);
  set "exec.us_per_step" (us exec_per_step);
  set "exec.share" (exec_s /. wall);
  set "monitor.step_us_per_call" (us step_per_call);
  set "monitor.end_us_per_call" (us end_per_call);
  set "monitor.share" (monitor_s /. wall);
  set "schedule.compile_us_per_call" (us compile_per_call);
  set "schedule.share" (compile_s /. wall)

(* --- serve --- *)

let serve_config ~smoke ~seed (s : serve) =
  let d = Workload.Engine.default_config ~proto:"direct" () in
  let ops = if smoke then s.ops / 20 else s.ops in
  (* A fault-free run admits min(rate, clients, lin_soft) calls per tick. *)
  let horizon = ops / min s.rate (min s.clients d.Workload.Engine.lin_soft) in
  let schedule =
    if not s.faulty then None
    else begin
      (* Four crashes a fifth of the horizon apart, a 32-tick partition
         isolating one replica, and one drop, duplicate and delay on the
         consensus service. *)
      let rng = Random.State.make [| seed; 0xFA17 |] in
      let pick k = Random.State.int rng (max 1 k) in
      let jitter () = pick (horizon / 50) in
      let crashes =
        List.map
          (fun slot ->
            let step = (horizon * slot / 10) + jitter () in
            Chaos.Schedule.crash ~step ~pid:(pick 3))
          [ 1; 3; 5; 7 ]
      in
      let p_at = (horizon * 17 / 20) + jitter () in
      let p_pid = pick 3 in
      let partition =
        Chaos.Schedule.partition ~step:p_at ~blocks:[ [ p_pid ] ] ~heal_at:(p_at + 32)
      in
      let omission make =
        let step = pick horizon in
        make ~step ~service:"cons" ~endpoint:(pick 3)
      in
      let drop = omission Chaos.Schedule.drop in
      let dup = omission Chaos.Schedule.duplicate in
      let lag = 1 + pick 2 in
      let delay = omission (Chaos.Schedule.delay ~lag) in
      Some (Chaos.Schedule.make (crashes @ [ partition; drop; dup; delay ]))
    end
  in
  {
    d with
    Workload.Engine.clients = s.clients;
    ops;
    rate = s.rate;
    batch = s.batch;
    pipeline = 2;
    obj_name = s.obj;
    seed;
    rejoin_after = 12;
    schedule;
    pin_oracle = smoke;
  }

let serve_result (cfg : Workload.Engine.config) (s : serve) (r : Workload.Report.t) =
  let open Workload.Report in
  let ops = cfg.Workload.Engine.ops in
  {
    fingerprint = render r;
    attempted = ops;
    failed = ops - r.completed;
    problems =
      problems
        [
          r.outcome = Served, Format.asprintf "outcome %a" pp_outcome r.outcome;
          r.completed = ops, Printf.sprintf "completed %d of %d ops" r.completed ops;
          r.lin = Workload.Linear_inc.Ok, "incremental linearizability verdict is not Ok";
          ( r.duplicate_applications = 0,
            Printf.sprintf "%d duplicate applications" r.duplicate_applications );
          (not s.faulty) || r.rejoins >= 1, "no replica rejoined";
          (not s.faulty) || r.catch_up_replayed >= 1, "no catch-up entry replayed";
          ( (not cfg.Workload.Engine.pin_oracle) || r.oracle_pinned = Some true,
            "oracle pin failed" );
        ];
  }

(* One client operation, drawn as Workload.Engine draws it: from the same
   RNG stream, with the same mix. *)
let draw_op obj_name rng =
  if String.equal obj_name "register" then
    if Random.State.int rng 2 = 0 then
      Spec.Seq_register.write (Value.int (Random.State.int rng 4))
    else Spec.Seq_register.read
  else if Random.State.int rng 4 = 0 then Spec.Seq_counter.read
  else Spec.Seq_counter.increment

(* The client history of a fault-free serve run, tick by tick, as the
   engine records it: each tick first returns the previous tick's calls in
   commit order, then admits min(rate, clients, lin_soft) calls from the
   round-robin client cursor. *)
let serve_history (cfg : Workload.Engine.config) obj =
  let module L = Model.Linearize in
  let rng = Random.State.make [| cfg.Workload.Engine.seed; 0xF00D |] in
  let per_tick = min cfg.rate (min cfg.clients cfg.lin_soft) in
  let value = ref (List.hd obj.Spec.Seq_type.initials) in
  let cursor = ref 0 and issued = ref 0 and prev = ref [] and ticks = ref [] in
  while !issued < cfg.ops || !prev <> [] do
    let returns =
      List.map
        (fun (endpoint, op) ->
          let resp, v = Spec.Seq_type.apply obj op !value in
          value := v;
          L.Return { endpoint; resp })
        !prev
    in
    let calls = ref [] in
    while List.length !calls < per_tick && !issued < cfg.ops do
      calls := (!cursor mod cfg.clients, draw_op cfg.obj_name rng) :: !calls;
      incr cursor;
      incr issued
    done;
    prev := List.rev !calls;
    let calls = List.map (fun (endpoint, op) -> L.Call { endpoint; op }) !prev in
    ticks := (returns @ calls) :: !ticks
  done;
  List.rev !ticks

(* [n] commit-log entries as the engine commits them. *)
let serve_log (cfg : Workload.Engine.config) n =
  let rng = Random.State.make [| cfg.Workload.Engine.seed; 0xF00D |] in
  let seqs = Array.make cfg.clients 0 in
  Array.init n (fun i ->
      let client = i mod cfg.clients in
      seqs.(client) <- seqs.(client) + 1;
      { Workload.Cmd.client; seq = seqs.(client); op = draw_op cfg.obj_name rng })

let serve_traced (cfg : Workload.Engine.config) s ~shown ~smoke =
  let open Workload in
  let budget = if smoke then 0. else 0.1 in
  let t, set = layer_table () in
  let obj = Result.get_ok (Engine.obj_of_name cfg.obj_name) in
  let (r, wall), minor, majors = counted (fun () -> time (fun () -> Engine.run cfg)) in
  let open Report in
  (* linear_inc: an engine-shaped history through record/tick/finish. *)
  let history = serve_history cfg obj in
  let last = ref None in
  let replay_s, replay_words =
    probe ~budget:0. (fun () ->
        let li =
          Linear_inc.create ~max_nodes:cfg.lin_max_nodes ~soft_outstanding:cfg.lin_soft
            ~hard_buffer:cfg.lin_hard obj
        in
        List.iter
          (fun evs ->
            List.iter (Linear_inc.record li) evs;
            ignore (Linear_inc.tick li))
          history;
        ignore (Linear_inc.finish li);
        last := Some li)
  in
  let li = Option.get !last in
  if not !shown then begin
    (* The probe's history is the fault-free shape: shown beside the run's
       numbers, not held to them. *)
    shown := true;
    Printf.printf
      "linear_inc probe vs run: windows %d / %d, events %d / %d, frontier_max %d / %d\n"
      (Linear_inc.windows li) r.lin_windows (Linear_inc.events li) r.lin_events
      (Linear_inc.max_frontier li) r.lin_max_frontier
  end;
  let per_window = replay_s /. fi (Linear_inc.windows li) in
  set "linear_inc.windows" (fi r.lin_windows);
  set "linear_inc.events" (fi r.lin_events);
  set "linear_inc.frontier_max" (fi r.lin_max_frontier);
  set "linear_inc.alloc_words_per_window" (replay_words /. fi (Linear_inc.windows li));
  set "linear_inc.share" (per_window *. fi r.lin_windows /. wall);
  (* runner: the engine's all-up shot, called as the engine calls it. *)
  let entry = Option.get (Protocols.Registry.find cfg.proto) in
  let sys = entry.Protocols.Registry.build cfg.params in
  let n = Model.System.n_processes sys in
  let inputs = List.init n (fun i -> Value.int (if i = 1 then 1 else 0)) in
  let shot () =
    Chaos.Runner.run ~monitors:(Chaos.Monitor.defaults ()) ~max_steps:cfg.shot_max_steps
      ~inputs ~schedule:Chaos.Schedule.empty sys
  in
  let shot_result = shot () in
  let shot_exec = shot_result.Chaos.Runner.exec in
  let shot_s, shot_words = probe ~budget (fun () -> ignore (shot ())) in
  set "runner.steps_per_call" (fi shot_result.Chaos.Runner.steps);
  set "runner.alloc_words_per_call" shot_words;
  set "monitor.truncations"
    (fi (r.shots * List.length shot_result.Chaos.Runner.monitor_truncations));
  let p = new_parts () in
  let monitors = Chaos.Monitor.defaults () in
  let sample () = measure_parts p ~monitors sys Chaos.Schedule.empty shot_result in
  ignore (probe ~budget sample);
  attribute_runner set p ~wall ~calls:r.shots
    ~steps:(r.shots * Model.Exec.length shot_exec)
    ~step_calls:(r.shots * task_steps shot_exec)
    ~runner_s:(fi r.shots *. shot_s);
  (* replica: the commit log applied live at every replica, and replayed by
     catch-up at the engine's rate. *)
  let log = serve_log cfg (max 1 r.committed) in
  let apply_s, _ =
    probe ~budget (fun () ->
        let rep = Replica.create ~id:0 ~obj in
        Array.iter (fun c -> ignore (Replica.apply_cmd rep c)) log)
  in
  let catch_up_s, _ =
    probe ~budget (fun () ->
        let rep = Replica.create ~id:0 ~obj in
        Replica.crash rep ~tick:0 ~rejoin_at:0;
        Replica.start_recovery rep;
        while Replica.catch_up rep ~log ~rate:cfg.catch_up_rate = `Recovering do
          ()
        done)
  in
  let applies = r.committed * n in
  let replica_s =
    (fi applies *. apply_s /. fi (Array.length log))
    +. (fi r.catch_up_replayed *. catch_up_s /. fi (Array.length log))
  in
  set "replica.applies" (fi applies);
  set "replica.catch_up_entries" (fi r.catch_up_replayed);
  set "replica.dup_ratio" (ratio (fi r.duplicate_commits) (fi r.committed));
  set "replica.share" (replica_s /. wall);
  (* engine: its own counters, and the time no probe accounts for. *)
  let latencies = Array.of_list (List.sort Int.compare r.latencies) in
  let attributed =
    List.fold_left (fun acc l -> acc +. Hashtbl.find t (l ^ ".share")) 0.
      [ "linear_inc"; "runner"; "replica" ]
  in
  set "engine.ticks" (fi r.ticks);
  set "engine.shots" (fi r.shots);
  set "engine.shot_decided_ratio" (ratio (fi r.shots_decided) (fi r.shots));
  set "engine.retries" (fi r.retries);
  set "engine.failovers" (fi r.failovers);
  set "engine.stale_ratio"
    (ratio (fi r.stale_responses) (fi (r.completed + r.stale_responses)));
  set "engine.self_share" (1. -. attributed);
  set "engine.sim_ops_per_tick" (ratio (fi r.completed) (fi r.ticks));
  set "engine.admission_lag_ticks" (fi (r.ticks - ((cfg.ops + cfg.rate - 1) / cfg.rate)));
  set "engine.latency_ticks.p50" (fi (percentile latencies 50.));
  set "engine.latency_ticks.p999" (fi (percentile latencies 99.9));
  set "engine.degraded_ticks" (fi r.degraded_ticks);
  set "engine.rejoin_ticks.max" (fi (List.fold_left max 0 r.recovery_times));
  set "gc.minor_words_per_op" (minor /. fi cfg.ops);
  set "gc.major_collections" (fi majors);
  let result = serve_result cfg s r in
  ( {
      result with
      problems =
        result.problems
        @ problems
            [
              Linear_inc.verdict li = Linear_inc.Ok, "linear_inc probe history rejected";
              p.replay_mismatches = 0, "exec probe did not replay the shot";
            ];
    },
    wall,
    t )

let serve_instance ~smoke ~seed s =
  let cfg = serve_config ~smoke ~seed s in
  let entry = Option.get (Protocols.Registry.find cfg.Workload.Engine.proto) in
  let sys = entry.Protocols.Registry.build cfg.params in
  Option.iter
    (fun sched ->
      match Chaos.Schedule.validate sys sched with Ok () -> () | Error e -> failwith e)
    cfg.schedule;
  {
    ops = cfg.ops;
    run = (fun () -> serve_result cfg s (Workload.Engine.run cfg));
    traced = serve_traced cfg s ~shown:(ref false);
  }

(* --- chaos sweep --- *)

let sweep_result (cfg : Chaos.Explore.config) (r : Chaos.Driver.report) =
  let open Chaos.Driver in
  {
    fingerprint =
      Printf.sprintf
        "examined %d space %d budget-hits %d truncations %d undelivered %d/%d vacuous %d"
        r.examined r.space r.step_budget_hits r.monitor_truncations r.undelivered_crashes
        r.undelivered_net r.vacuous_net_faults;
    attempted = r.examined;
    failed = r.step_budget_hits;
    problems =
      problems
        [
          ( (match r.outcome with Passed -> true | Violated _ -> false),
            "sweep found a violation" );
          r.examined = cfg.Chaos.Explore.budget, "sweep did not examine the whole space";
          not (r.truncated || r.wall_truncated), "sweep was truncated";
        ];
  }

let is_omission = function
  | Chaos.Schedule.Drop _ | Chaos.Schedule.Duplicate _ | Chaos.Schedule.Delay _ -> true
  | _ -> false

let sweep_traced sys (cfg : Chaos.Explore.config) ~smoke =
  let t, set = layer_table () in
  let (report, wall), minor, majors =
    counted (fun () -> time (fun () -> Chaos.Driver.run (Chaos.Driver.Systematic cfg) sys))
  in
  let examined = report.Chaos.Driver.examined in
  (* runner: every schedule the sweep runs, in its order, each call timed;
     its pieces are timed on a fixed sample of the runs. *)
  let monitors = Chaos.Monitor.defaults () in
  let stride = if smoke then 1 else max 1 (examined / 2000) in
  let p = new_parts () in
  let calls = ref 0 and runner_s = ref 0. and steps = ref 0 and exec_steps = ref 0 in
  let step_calls = ref 0 and words = ref 0. and budget_truncs = ref 0 in
  let vacuous = ref 0 and omissions = ref 0 in
  Gc.compact ();
  Seq.iter
    (fun schedule ->
      let w0 = allocated () in
      let r, secs =
        time (fun () ->
            Chaos.Runner.run ~monitors ~max_steps:cfg.Chaos.Explore.max_steps ~schedule sys)
      in
      words := !words +. (allocated () -. w0);
      runner_s := !runner_s +. secs;
      steps := !steps + r.Chaos.Runner.steps;
      exec_steps := !exec_steps + Model.Exec.length r.Chaos.Runner.exec;
      step_calls := !step_calls + task_steps r.Chaos.Runner.exec;
      vacuous := !vacuous + r.Chaos.Runner.vacuous_net_faults;
      omissions :=
        !omissions + List.length (List.filter is_omission schedule.Chaos.Schedule.faults);
      List.iter
        (fun (_, cat, _) -> if cat = Chaos.Monitor.Monitor_budget then incr budget_truncs)
        r.Chaos.Runner.monitor_truncations;
      if !calls mod stride = 0 then measure_parts p ~monitors sys schedule r;
      incr calls)
    (Chaos.Explore.schedules sys cfg);
  let calls = !calls in
  set "runner.steps_per_call" (fi !steps /. fi calls);
  set "runner.alloc_words_per_call" (!words /. fi calls);
  set "monitor.truncations" (fi report.Chaos.Driver.monitor_truncations);
  attribute_runner set p ~wall ~calls ~steps:!exec_steps ~step_calls:!step_calls
    ~runner_s:!runner_s;
  set "explore.examined" (fi examined);
  set "explore.vacuous_ratio" (ratio (fi !vacuous) (fi !omissions));
  set "explore.self_share" (1. -. (!runner_s /. wall));
  set "gc.minor_words_per_op" (minor /. fi examined);
  set "gc.major_collections" (fi majors);
  let result = sweep_result cfg report in
  ( {
      result with
      problems =
        result.problems
        @ problems
            [
              calls = examined, "runner probe ran a different schedule count";
              !budget_truncs = 0, "a monitor ran out of its own budget";
              p.replay_mismatches = 0, "exec probe did not replay a sampled run";
            ];
    },
    wall,
    t )

let sweep_instance ~smoke =
  let entry = Option.get (Protocols.Registry.find "register-vote") in
  let sys = entry.Protocols.Registry.build Protocols.Registry.default_params in
  let cfg =
    {
      (Chaos.Explore.default_config sys) with
      Chaos.Explore.max_faults = (if smoke then 1 else 2);
      kinds = Chaos.Schedule.all_kinds;
    }
  in
  let cfg = { cfg with Chaos.Explore.budget = Chaos.Explore.space_size sys cfg } in
  {
    ops = cfg.Chaos.Explore.budget;
    run = (fun () -> sweep_result cfg (Chaos.Driver.run (Chaos.Driver.Systematic cfg) sys));
    traced = sweep_traced sys cfg;
  }

(* ------------------------------------------------------------------ *)
(* Main                                                               *)
(* ------------------------------------------------------------------ *)

let instance a = function
  | Serve s -> serve_instance ~smoke:a.smoke ~seed:a.seed s
  | Sweep -> sweep_instance ~smoke:a.smoke

(* One set-up, in a child process running this program with --setup-only:
   (wall seconds, whether its run passed its checks). *)
let setup_child a =
  let args =
    [ "--workload"; a.workload; "--seed"; string_of_int a.seed; "--seconds"; "0";
      "--trace"; "0"; "--setup-only" ]
    @ if a.smoke then [ "--smoke" ] else []
  in
  let t0 = now () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin Unix.stderr Unix.stderr
  in
  let _, status = Unix.waitpid [] pid in
  elapsed t0, status = Unix.WEXITED 0

let print_json_line ~correct ~attempted ~failed metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
          metrics))

let () =
  let a = parse_args () in
  let kind =
    match List.assoc_opt a.workload workloads with Some k -> k | None -> usage ()
  in
  if a.setup_only then exit (if ((instance a kind).run ()).problems = [] then 0 else 1);
  (* Set-up is what a fresh process pays before it can be measured: start,
     build the inputs, finish the first (warm-up) run. The metric is the
     median of three set-ups. *)
  let setups = List.init (if a.smoke then 1 else 3) (fun _ -> setup_child a) in
  let setup = summarize (List.map fst setups) in
  let all_problems =
    ref (if List.for_all snd setups then [] else [ "a set-up run failed its checks" ])
  in
  let inst = instance a kind in
  (* The warm-up run fixes the reference output; the heap peak is its. *)
  let reference = inst.run () in
  let peak_mb = fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6 in
  all_problems := reference.problems @ !all_problems;
  (* Runs back to back, each from a freshly collected heap; traced runs are
     each followed by their probes. *)
  let rounds = ref [] and attempted = ref 0 and failed = ref 0 in
  let start_ns = now () in
  let more () =
    (not a.smoke) && (List.length !rounds < 3 || elapsed start_ns < a.seconds)
  in
  while !rounds = [] || more () do
    let r, wall, table =
      if a.trace then inst.traced ~smoke:a.smoke
      else
        let (r, wall), _, _ = counted (fun () -> time inst.run) in
        r, wall, Hashtbl.create 0
    in
    rounds := (wall, table) :: !rounds;
    attempted := !attempted + r.attempted;
    failed := !failed + r.failed;
    if not (String.equal r.fingerprint reference.fingerprint) then
      all_problems := "output differs from the warm-up run's" :: !all_problems;
    all_problems := r.problems @ !all_problems
  done;
  let wall = summarize (List.map fst !rounds) in
  Printf.printf "%s: %d run(s), median %.4f s (q1 %.4f, q3 %.4f)\n" a.workload wall.n
    wall.median wall.q1 wall.q3;
  let metrics, detail =
    if not a.trace then
      let per_s x = fi inst.ops /. x in
      let ops_per_s =
        { wall with median = per_s wall.median; q1 = per_s wall.q3; q3 = per_s wall.q1 }
      in
      let peak = { median = peak_mb; q1 = peak_mb; q3 = peak_mb; n = 1 } in
      let detail = [ "ops_per_s", ops_per_s; "setup_s", setup; "peak_heap_mb", peak ] in
      List.map (fun (name, s) -> name, s.median, List.assoc name end_to_end) detail, detail
    else begin
      (* Every per-layer metric is its median over the rounds. *)
      let table = Hashtbl.create 64 in
      List.iter
        (fun (name, _) ->
          let s = summarize (List.map (fun (_, t) -> Hashtbl.find t name) !rounds) in
          Hashtbl.replace table name s.median)
        per_layer;
      List.iter
        (fun name ->
          let v = Hashtbl.find table name in
          if v < -0.05 then
            Printf.eprintf "warning: %s = %.3f: a probe overcounts its layer\n" name v)
        [ "runner.self_share"; "engine.self_share"; "explore.self_share" ];
      let spans = spans_of ~start_ns ~wall:wall.median table in
      Option.iter (fun file -> write_spans ~workload:a.workload file spans) a.spans;
      List.map (fun (name, unit) -> name, Hashtbl.find table name, unit) per_layer, []
    end
  in
  List.iter
    (fun (name, v, unit) -> Printf.printf "  %-34s %16.6g %s\n" name v unit)
    metrics;
  let problems = List.sort_uniq String.compare !all_problems in
  List.iter
    (fun p -> Printf.eprintf "%s: correctness check failed: %s\n" a.workload p)
    problems;
  Printf.printf "detail {%s}\n"
    (String.concat ", "
       (List.map
          (fun (name, s) ->
            Printf.sprintf "%S: {\"median\": %s, \"q1\": %s, \"q3\": %s, \"n\": %d}" name
              (json_number s.median) (json_number s.q1) (json_number s.q3) s.n)
          detail));
  print_json_line ~correct:(problems = []) ~attempted:!attempted ~failed:!failed metrics;
  exit (if problems = [] then 0 else 1)
