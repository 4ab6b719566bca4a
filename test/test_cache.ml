(* The incremental-analysis layer: structural hashing, the persistent
   cache, envelope hygiene, and the warm-vs-cold differentials.

   The perturbation properties are the soundness side of the cache: any
   edit an analysis could observe — a task's step function, the service
   wiring, the resilience parameter, a consistent service rename — must
   move the structural hash, or a warm cache would replay a stale verdict
   (rendered reports print service ids, so even a renamed twin must not
   replay its donor's report). The differentials are the completeness side:
   a warm cache must reproduce the cold analysis byte for byte. *)

open Helpers
module Value = Ioa.Value
module Registry = Protocols.Registry
module Structhash = Analysis.Structhash
module Cache = Analysis.Cache

(* Fresh scratch directory per call; unique enough across the suite. *)
let scratch =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "boost-cache-test-%d-%d" (Unix.getpid ()) !counter)
    in
    ignore (Cache.clear ~dir);
    dir

(* --- system surgery: the "edits" the hash must notice --- *)

(* Tag one process's step outcomes: the smallest observable edit to a task's
   transition function. The stale [tasks] array is irrelevant — these
   systems are only ever hashed, never run. *)
let perturb_step pid (sys : Model.System.t) =
  let tag v = Value.Pair (v, Value.int 9) in
  {
    sys with
    Model.System.processes =
      Array.map
        (fun (p : Model.Process.t) ->
          if p.Model.Process.pid <> pid then p
          else
            {
              p with
              Model.Process.step =
                (fun s ->
                  match p.Model.Process.step s with
                  | Model.Process.Invoke { service; op; next } ->
                    Model.Process.Invoke { service; op = tag op; next }
                  | Model.Process.Decide { value; next } ->
                    Model.Process.Decide { value = tag value; next }
                  | Model.Process.Internal v -> Model.Process.Internal (tag v));
            })
        sys.Model.System.processes;
  }

(* Bump one service's resilience level — a wiring/parameter edit. *)
let perturb_resilience j (sys : Model.System.t) =
  {
    sys with
    Model.System.services =
      Array.mapi
        (fun i (c : Model.Service.t) ->
          if i <> j then c
          else { c with Model.Service.resilience = c.Model.Service.resilience + 1 })
        sys.Model.System.services;
  }

(* A consistently renamed and service-permuted twin: every service id gets a
   fresh name, the service array is reversed, and every process reference
   (invocations out, responses in) is translated. Behaviorally identical up
   to naming, but its reports print the new ids — a different system. *)
let renamed_twin (sys : Model.System.t) =
  let rename id = "tw-" ^ id in
  let unrename id =
    if String.length id > 3 && String.sub id 0 3 = "tw-" then
      String.sub id 3 (String.length id - 3)
    else id
  in
  let services =
    Array.to_list sys.Model.System.services
    |> List.rev_map (fun (c : Model.Service.t) ->
           { c with Model.Service.id = rename c.Model.Service.id })
  in
  let processes =
    Array.to_list sys.Model.System.processes
    |> List.map (fun (p : Model.Process.t) ->
           {
             p with
             Model.Process.step =
               (fun s ->
                 match p.Model.Process.step s with
                 | Model.Process.Invoke { service; op; next } ->
                   Model.Process.Invoke { service = rename service; op; next }
                 | o -> o);
             on_response =
               (fun s ~service r -> p.Model.Process.on_response s ~service:(unrename service) r);
           })
  in
  Model.System.make ~processes ~services

(* --- structural hashing --- *)

let test_deterministic () =
  List.iter
    (fun (e : Registry.entry) ->
      let h1 = Structhash.system (e.Registry.build Registry.default_params) in
      let h2 = Structhash.system (e.Registry.build Registry.default_params) in
      Alcotest.(check string) (e.Registry.name ^ " full") (Structhash.key h1)
        (Structhash.key h2))
    Registry.all

let test_fleet_distinct () =
  let keys = List.map (fun (_, h) -> Structhash.key h) (Registry.manifest ()) in
  Alcotest.(check int) "13 distinct full hashes"
    (List.length keys)
    (List.length (List.sort_uniq String.compare keys))

(* Protocols whose processes react to both seed inputs — where every edit
   below is observable within the probe bound. *)
let probe_entries =
  List.filter_map Registry.find [ "direct"; "register-vote"; "tob"; "mp-all"; "queue" ]

let prop_perturbation_moves_hash =
  let gen =
    QCheck2.Gen.(
      triple (int_bound (List.length probe_entries - 1)) (int_bound 1) (int_bound 1))
  in
  qtest "any observable edit moves the structural hash" ~count:40 gen
    (fun (which, kind, idx) ->
      let e = List.nth probe_entries which in
      let sys = e.Registry.build Registry.default_params in
      let edited =
        match kind with
        | 0 -> perturb_step (idx mod Array.length sys.Model.System.processes) sys
        | _ -> perturb_resilience (idx mod Array.length sys.Model.System.services) sys
      in
      let h = Structhash.system sys and h' = Structhash.system edited in
      h.Structhash.full <> h'.Structhash.full)

let test_f_parameter_moves_hash () =
  let h0 = Structhash.system (Protocols.Direct.system ~n:2 ~f:0) in
  let h1 = Structhash.system (Protocols.Direct.system ~n:2 ~f:1) in
  Alcotest.(check bool) "f moves full" true (h0.Structhash.full <> h1.Structhash.full)

let test_diff_classes () =
  let sys = Protocols.Register_vote.system () in
  let h = Structhash.system sys in
  let h' = Structhash.system (perturb_step 0 sys) in
  let twin = Structhash.system (renamed_twin sys) in
  let r =
    Cache.diff
      [ "same", h; "edited", h; "renamed", h; "gone", h ]
      [ "same", h; "edited", h'; "renamed", twin; "fresh", h ]
  in
  Alcotest.(check bool) "same unchanged" true
    (List.assoc "same" r.Cache.changes = Cache.Unchanged);
  Alcotest.(check bool) "edited changed" true
    (List.assoc "edited" r.Cache.changes = Cache.Changed);
  Alcotest.(check bool) "renamed twin changed" true
    (List.assoc "renamed" r.Cache.changes = Cache.Changed);
  Alcotest.(check bool) "fresh added" true
    (List.assoc "fresh" r.Cache.changes = Cache.Added);
  Alcotest.(check (list string)) "removed" [ "gone" ] r.Cache.removed

(* --- envelope hygiene: stale and corrupt entries --- *)

let entry_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".entry")

let test_corrupt_quarantine () =
  let dir = scratch () in
  let c = Cache.open_ ~dir in
  Cache.lint_store c ~key:"k" { Cache.human = "report\n"; findings = []; code = 0 };
  (match entry_files dir with
  | [ f ] ->
    let path = Filename.concat dir f in
    let content = In_channel.with_open_bin path In_channel.input_all in
    (* Truncate mid-payload: the header survives, the decode cannot. *)
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc
          (String.sub content 0 (String.length content - 3)))
  | _ -> Alcotest.fail "expected exactly one entry");
  Alcotest.(check bool) "corrupt entry is a miss" true
    (Cache.lint_find c ~key:"k" = None);
  Alcotest.(check int) "corrupt counted" 1 c.Cache.stats.Cache.corrupt;
  Alcotest.(check int) "file quarantined" 1 (Cache.corrupt_count ~dir);
  Alcotest.(check (list string)) "no live entry left" [] (entry_files dir);
  (* Quarantined files are never consulted again: the next lookup is a
     plain miss, and a store resurrects the key. *)
  Alcotest.(check bool) "then a plain miss" true (Cache.lint_find c ~key:"k" = None);
  Alcotest.(check int) "still one corrupt" 1 c.Cache.stats.Cache.corrupt;
  ignore (Cache.clear ~dir)

let test_stale_envelope_dropped () =
  let dir = scratch () in
  let c = Cache.open_ ~dir in
  Cache.lint_store c ~key:"k" { Cache.human = "report\n"; findings = []; code = 0 };
  (match entry_files dir with
  | [ f ] ->
    let path = Filename.concat dir f in
    let content = In_channel.with_open_bin path In_channel.input_all in
    let nl = String.index content '\n' in
    (* A well-formed header from a future analyzer: stale, not corrupt. *)
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc
          (Printf.sprintf "boost-cache %d %d lint k" Cache.envelope_version
             (Structhash.analyzer_version + 1));
        Out_channel.output_string oc
          (String.sub content nl (String.length content - nl)))
  | _ -> Alcotest.fail "expected exactly one entry");
  Alcotest.(check bool) "stale entry is a miss" true
    (Cache.lint_find c ~key:"k" = None);
  Alcotest.(check int) "stale counted" 1 c.Cache.stats.Cache.stale;
  Alcotest.(check int) "not corrupt" 0 c.Cache.stats.Cache.corrupt;
  Alcotest.(check (list string)) "silently removed" [] (entry_files dir);
  Alcotest.(check int) "nothing quarantined" 0 (Cache.corrupt_count ~dir);
  ignore (Cache.clear ~dir)

(* A store whose rename cannot land — the target entry path is a non-empty
   directory — is swallowed like any cache failure: nothing raised, no write
   counted, and no tempfile left behind. *)
let test_failed_store_leaves_no_tempfile () =
  let dir = scratch () in
  let c = Cache.open_ ~dir in
  let target = Filename.concat dir "lint-k.entry" in
  Sys.mkdir target 0o755;
  let inner = Filename.concat target "occupant" in
  Out_channel.with_open_bin inner (fun oc -> Out_channel.output_string oc "x");
  Cache.lint_store c ~key:"k" { Cache.human = "report\n"; findings = []; code = 0 };
  Alcotest.(check int) "no write counted" 0 c.Cache.stats.Cache.writes;
  Alcotest.(check (list string)) "no tempfile left" []
    (Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".tmp"));
  Sys.remove inner;
  Sys.rmdir target;
  ignore (Cache.clear ~dir)

(* A fleet manifest from the previous envelope version, in the old layout
   (full hash, semantic hash, per-process hashes, service table): stale, so
   it is removed rather than quarantined and the manifest reads as absent. *)
let test_stale_manifest_dropped () =
  let dir = scratch () in
  let c = Cache.open_ ~dir in
  let path = Filename.concat dir "manifest-fleet.entry" in
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc "boost-cache %d %d manifest fleet\n"
        (Cache.envelope_version - 1) Structhash.analyzer_version;
      Out_channel.output_string oc
        "1;\"direct\"7;8;2;9;9;1;\"cons\"10;");
  Alcotest.(check bool) "stale manifest reads as absent" true
    (Cache.read_manifest c = None);
  Alcotest.(check bool) "file removed" false (Sys.file_exists path);
  Alcotest.(check int) "nothing quarantined" 0 (Cache.corrupt_count ~dir);
  ignore (Cache.clear ~dir)

(* --- warm-vs-cold differentials over the whole fleet --- *)

let lint_fleet ?cache () =
  List.map (fun e -> Registry.lint ?cache ~max_faults:1 e Registry.default_params)
    Registry.all

let test_lint_warm_equals_cold () =
  let dir = scratch () in
  let cold = lint_fleet () in
  let c1 = Cache.open_ ~dir in
  let first = lint_fleet ~cache:c1 () in
  Alcotest.(check int) "cold run: no hits" 0 c1.Cache.stats.Cache.hits;
  let c2 = Cache.open_ ~dir in
  let warm = lint_fleet ~cache:c2 () in
  Alcotest.(check int) "warm run: one hit per protocol" (List.length Registry.all)
    c2.Cache.stats.Cache.hits;
  Alcotest.(check int) "warm run: no misses" 0 c2.Cache.stats.Cache.misses;
  List.iter2
    (fun (a : Registry.lint_result) (b : Registry.lint_result) ->
      Alcotest.(check string) ("populate " ^ a.Registry.name) a.Registry.human
        b.Registry.human)
    cold first;
  List.iter2
    (fun (a : Registry.lint_result) (b : Registry.lint_result) ->
      Alcotest.(check string) ("replay " ^ a.Registry.name) a.Registry.human
        b.Registry.human;
      Alcotest.(check int) ("code " ^ a.Registry.name) a.Registry.code b.Registry.code)
    cold warm;
  (* With every rendered report gone, each protocol misses its lint entry,
     solves the fixpoint as a cache-less run does and rewrites the entry —
     byte-identical to the cold run. *)
  List.iter (fun f -> Sys.remove (Filename.concat dir f)) (entry_files dir);
  let c3 = Cache.open_ ~dir in
  let resolved = lint_fleet ~cache:c3 () in
  let n = List.length Registry.all in
  Alcotest.(check int) "re-solve run: no hits" 0 c3.Cache.stats.Cache.hits;
  Alcotest.(check int) "re-solve run: one lint miss per protocol" n
    c3.Cache.stats.Cache.misses;
  Alcotest.(check int) "re-solve run: one lint entry rewritten per protocol" n
    c3.Cache.stats.Cache.writes;
  List.iter2
    (fun (a : Registry.lint_result) (b : Registry.lint_result) ->
      Alcotest.(check string) ("re-solved " ^ a.Registry.name) a.Registry.human
        b.Registry.human;
      Alcotest.(check int) ("re-solved code " ^ a.Registry.name) a.Registry.code
        b.Registry.code)
    cold resolved;
  ignore (Cache.clear ~dir)

(* Change-impact: after "editing" exactly one protocol, a warm sweep
   re-analyzes that protocol alone — everyone else replays. *)
let test_single_edit_reanalyzes_one () =
  let dir = scratch () in
  let c1 = Cache.open_ ~dir in
  ignore (lint_fleet ~cache:c1 ());
  let c2 = Cache.open_ ~dir in
  let edited = "register-vote" in
  List.iter
    (fun (e : Registry.entry) ->
      let e =
        if String.equal e.Registry.name edited then
          { e with Registry.build = (fun p -> perturb_step 0 (e.Registry.build p)) }
        else e
      in
      ignore (Registry.lint ~cache:c2 ~max_faults:1 e Registry.default_params))
    Registry.all;
  Alcotest.(check int) "hits: everyone else"
    (List.length Registry.all - 1)
    c2.Cache.stats.Cache.hits;
  Alcotest.(check int) "misses: the edited protocol only" 1 c2.Cache.stats.Cache.misses;
  Alcotest.(check int) "writes: its fresh lint entry" 1 c2.Cache.stats.Cache.writes;
  ignore (Cache.clear ~dir)

let suite =
  ( "cache",
    [
      Alcotest.test_case "hashing is deterministic" `Quick test_deterministic;
      Alcotest.test_case "fleet hashes are distinct" `Quick test_fleet_distinct;
      prop_perturbation_moves_hash;
      Alcotest.test_case "f parameter moves the hash" `Quick test_f_parameter_moves_hash;
      Alcotest.test_case "diff classifies changes" `Quick test_diff_classes;
      Alcotest.test_case "corrupt entries quarantined" `Quick test_corrupt_quarantine;
      Alcotest.test_case "stale envelopes dropped" `Quick test_stale_envelope_dropped;
      Alcotest.test_case "stale manifest dropped" `Quick test_stale_manifest_dropped;
      Alcotest.test_case "failed store leaves no tempfile" `Quick
        test_failed_store_leaves_no_tempfile;
      Alcotest.test_case "lint: warm = cold, hit per protocol" `Quick
        test_lint_warm_equals_cold;
      Alcotest.test_case "one edit re-analyzes one protocol" `Quick
        test_single_edit_reanalyzes_one;
    ] )
