(* Shared test utilities: qcheck generators for structural values, execution
   builders, and common alcotest testables. *)

open Ioa

let value_testable = Alcotest.testable Value.pp Value.equal
let state_testable = Alcotest.testable Model.State.pp Model.State.equal
let task_testable = Alcotest.testable Model.Task.pp Model.Task.equal
let iset_testable = Alcotest.testable Spec.Iset.pp Spec.Iset.equal

let verdict_testable = Alcotest.testable Engine.Valence.pp_verdict Engine.Valence.equal_verdict

(* A copy of a state built from scratch through fresh arrays: no component
   is shared with the original, and every cached hash is recomputed. *)
let rebuild_state (s : Model.State.t) =
  let svc (c : Model.State.svc) =
    Model.State.make_svc ~value:c.Model.State.value
      ~inv_bufs:(Array.copy c.Model.State.inv_bufs)
      ~resp_bufs:(Array.copy c.Model.State.resp_bufs)
  in
  Model.State.make ~procs:(Array.copy s.Model.State.procs)
    ~svcs:(Array.map svc s.Model.State.svcs) ~failed:s.Model.State.failed
    ~decisions:(Array.copy s.Model.State.decisions)
    ~inputs:(Array.copy s.Model.State.inputs)

(* QCheck generator for structural values, depth-bounded. *)
let value_gen =
  let open QCheck2.Gen in
  sized_size (int_bound 4) @@ fix (fun self n ->
    if n <= 0 then
      oneof
        [
          return Value.Unit;
          map (fun b -> Value.Bool b) bool;
          map (fun i -> Value.Int i) (int_range (-100) 100);
          map (fun s -> Value.Str s) (string_size ~gen:printable (int_bound 6));
        ]
    else
      oneof
        [
          map (fun i -> Value.Int i) (int_range (-100) 100);
          map2 (fun a b -> Value.Pair (a, b)) (self (n / 2)) (self (n / 2));
          map (fun xs -> Value.List xs) (list_size (int_bound 4) (self (n / 2)));
        ])

(* Register a QCheck2 property as an alcotest case. *)
let qtest name ?(count = 200) gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

(* Build an initialized execution for a system. *)
let initialized = Model.Exec.initialized

let int_inputs vs = List.map Value.int vs

(* Naive substring search, for asserting on rendered reports. *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* Run a system round-robin to quiescence or bound; return the final state. *)
let run_rr ?policy ?(faults = []) ?(max_steps = 20_000) sys inputs =
  let exec0 = initialized sys (int_inputs inputs) in
  let sched = Model.Scheduler.round_robin ~faults sys in
  let exec, outcome = Model.Scheduler.run ?policy ~max_steps sys exec0 sched in
  Model.Exec.last_state exec, outcome, exec

(* Drive one system by a seeded random scheduler until the stop condition or
   bound. *)
let run_random ?policy ~seed ?(fail_prob = 0.0) ?(max_failures = 0) ?(max_steps = 30_000)
    ?(stop_when = fun _ -> false) sys inputs =
  let exec0 = initialized sys (int_inputs inputs) in
  let sched = Model.Scheduler.random ~seed ~fail_prob ~max_failures sys in
  let exec, outcome = Model.Scheduler.run ?policy ~stop_when ~max_steps sys exec0 sched in
  Model.Exec.last_state exec, outcome, exec

(* Every verdict-bearing field of an exploration report: all but the prune
   counter [dedup_hits], the only field a deduplicating exploration may
   report differently from the sequential oracle. *)
type report_sig =
  (int * int * bool * bool)
  * (int * int * int * int * int)
  * (string * string * string * bool * int * string option) option

let report_sig (r : Chaos.Explore.report) : report_sig =
  let violation_sig (v : Chaos.Explore.violation) =
    ( Chaos.Schedule.to_string v.Chaos.Explore.schedule,
      v.Chaos.Explore.monitor,
      v.Chaos.Explore.reason,
      v.Chaos.Explore.proven,
      v.Chaos.Explore.steps,
      v.Chaos.Explore.degraded_to )
  in
  ( ( r.Chaos.Explore.examined,
      r.Chaos.Explore.space,
      r.Chaos.Explore.truncated,
      r.Chaos.Explore.wall_truncated ),
    ( r.Chaos.Explore.step_budget_hits,
      r.Chaos.Explore.monitor_truncations,
      r.Chaos.Explore.undelivered_crashes,
      r.Chaos.Explore.undelivered_net,
      r.Chaos.Explore.vacuous_net_faults ),
    Option.map violation_sig r.Chaos.Explore.violation )

let report_sig_testable =
  Alcotest.testable
    (fun ppf (((a, b, c, d), (e, f, g, h, i), v) : report_sig) ->
      Format.fprintf ppf
        "examined=%d space=%d trunc=%b wall=%b budget=%d mtrunc=%d uc=%d un=%d vac=%d %s" a b
        c d e f g h i
        (match v with
        | None -> "clean"
        | Some (s, m, _, _, _, _) -> Printf.sprintf "violation %s [%s]" s m))
    ( = )
