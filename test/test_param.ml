(* The parameterized (n, f) layer: symmetry classes, the symbolic fixpoint,
   resilience certificates and cross-parameter cache reuse.

   Soundness is pinned from two directions. The QCheck walk harness drives
   concrete executions — fault-free and with a canonical crash pattern
   delivered in pid order (every intermediate failed set of such a delivery
   is itself canonical, so the whole path lives inside the symbolic
   constraint system) — and requires each final configuration to abstract
   below the symbolic solution at its context. The certificate tests are
   the authority side: certificates must be byte-for-byte what fresh
   concrete per-point lints produce ([cert_disagreements] empty), and the
   golden tob certificate must match Thm 9's range — the guarantee gap
   present exactly where the broadcast service is genuinely f-resilient,
   absent where §2.1.3 makes it effectively reliable. *)

open Helpers
module Value = Ioa.Value
module Iset = Spec.Iset
module Registry = Protocols.Registry
module Param = Analysis.Param
module Reach = Analysis.Reach
module Astate = Analysis.Astate
module Cert = Analysis.Cert
module Cache = Analysis.Cache
module Structhash = Analysis.Structhash
module Codec = Analysis.Codec
module Lint = Analysis.Lint
module Interfere = Analysis.Interfere
module Footprint = Analysis.Footprint

let scratch =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "boost-param-test-%d-%d" (Unix.getpid ()) !counter)
    in
    ignore (Cache.clear ~dir);
    dir

let build name p =
  match Registry.find name with
  | Some e -> e.Registry.build p
  | None -> Alcotest.failf "unknown protocol %s" name

let entry name =
  match Registry.find name with
  | Some e -> e
  | None -> Alcotest.failf "unknown protocol %s" name

let params n f = { Registry.default_params with Registry.n = n; f }

(* --- symmetry classes and canonical signatures --- *)

let test_classes_direct () =
  (* Under the binary staircase inputs, direct at n = 4 has two behavioral
     classes split by input parity: {0,2} and {1,3}. *)
  let cs = Param.classes (build "direct" (params 4 1)) in
  Alcotest.(check (list (pair int (list int))))
    "parity classes"
    [ 0, [ 0; 2 ]; 1, [ 1; 3 ] ]
    (List.map (fun (c : Param.cls) -> c.Param.repr, c.Param.members) cs)

let test_covered_direct () =
  (* Two classes of two at f = 2: signatures (0,0) (1,0) (0,1) (2,0) (1,1)
     (0,2) = 6 canonical unknowns standing for C(4,0)+C(4,1)+C(4,2) = 11
     concrete failed sets. *)
  let cs = Param.classes (build "direct" (params 4 2)) in
  let canonical, full = Param.covered cs ~max_faults:2 in
  Alcotest.(check (pair int int)) "compression" (6, 11) (canonical, full);
  let sets = Param.class_sets cs ~max_faults:2 in
  Alcotest.(check int) "one set per signature" 6 (List.length sets);
  Alcotest.check iset_testable "empty set first" Iset.empty (List.hd sets)

let test_canon_properties () =
  let sys = build "direct" (params 4 2) in
  let cs = Param.classes sys in
  (* Every canonical set is its own canon, and canon is signature-preserving
     and idempotent on arbitrary subsets. *)
  List.iter
    (fun s -> Alcotest.check iset_testable "canonical fixpoint" s (Param.canon cs s))
    (Param.class_sets cs ~max_faults:2);
  let subsets =
    [ Iset.of_list [ 2 ]; Iset.of_list [ 3 ]; Iset.of_list [ 2; 3 ]; Iset.of_list [ 1; 2 ] ]
  in
  List.iter
    (fun s ->
      let c = Param.canon cs s in
      Alcotest.(check (list int)) "signature preserved" (Param.signature cs s)
        (Param.signature cs c);
      Alcotest.check iset_testable "idempotent" c (Param.canon cs c))
    subsets

(* --- the symbolic fixpoint against the full one --- *)

(* The seed unknown is self-contained (no crash predecessors), so both index
   sets must solve it to the very same abstraction — and with it every
   failure-free fact. Dead-task verdicts additionally agree on these
   protocols: their crash contexts are class-symmetric. *)
let test_sym_matches_full_seed () =
  List.iter
    (fun (name, n, f, mf) ->
      let sys = build name (params n f) in
      let full = Reach.analyze ~max_faults:mf sys in
      let sym = Reach.analyze_sym ~max_faults:mf sys in
      let tag = Printf.sprintf "%s n=%d f=%d mf=%d" name n f mf in
      Alcotest.(check bool) (tag ^ ": seed astate equal") true
        (Astate.equal (Reach.seed_info full).Reach.astate
           (Reach.seed_info sym).Reach.astate);
      Alcotest.(check bool) (tag ^ ": proven_blank agrees")
        (Reach.proven_blank full) (Reach.proven_blank sym);
      Alcotest.(check (list int)) (tag ^ ": never_decides agrees")
        (Reach.never_decides full) (Reach.never_decides sym);
      Alcotest.(check (list int)) (tag ^ ": dead tasks agree")
        (List.map fst (Reach.dead_tasks full))
        (List.map fst (Reach.dead_tasks sym)))
    [
      "direct", 3, 1, 1;
      "direct", 4, 2, 2;
      "tob", 3, 1, 1;
      "fd-all", 3, 1, 1;
      "mp-all", 3, 0, 1;
      "split", 3, 0, 1;
    ]

let test_sym_compresses () =
  (* The point of the quotient: fewer unknowns than the concrete powerset. *)
  let sys = build "direct" (params 4 2) in
  let full = Reach.analyze ~max_faults:2 sys in
  let sym = Reach.analyze_sym ~max_faults:2 sys in
  Alcotest.(check int) "full solves 11 unknowns" 11 (Array.length full.Reach.infos);
  Alcotest.(check int) "sym solves 6 unknowns" 6 (Array.length sym.Reach.infos)

(* Abstract-⊇-concrete: a concrete round-robin walk that crashes a canonical
   set in ascending pid order must land below the symbolic solution at that
   context. Pid-order delivery keeps every intermediate failed set canonical
   (within each class the crashed members are always a members-list prefix),
   so the concrete path never leaves the symbolic index set. *)
let test_walks_below_sym =
  let cases =
    [| "direct", 3, 1, 1; "direct", 4, 2, 2; "tob", 3, 1, 1; "fd-all", 3, 1, 1 |]
  in
  qtest "concrete walks stay below the symbolic astate" ~count:60
    QCheck2.Gen.(tup3 (int_bound 1000) (int_bound 1000) (int_bound 6))
    (fun (case_pick, set_pick, stagger) ->
      let name, n, f, mf = cases.(case_pick mod Array.length cases) in
      let sys = build name (params n f) in
      let cs = Param.classes sys in
      let sym = Reach.analyze_sym ~max_faults:mf sys in
      let sets = Param.class_sets cs ~max_faults:mf in
      let failed = List.nth sets (set_pick mod List.length sets) in
      (* Deliver in ascending pid order, staggered a few task turns apart. *)
      let faults =
        List.mapi (fun i pid -> i * (1 + stagger), pid) (Iset.elements failed)
      in
      let final, _, _ = run_rr ~faults sys (List.init n (fun i -> i mod 2)) in
      let info =
        Array.to_list sym.Reach.infos
        |> List.find_opt (fun (inf : Reach.info) -> Iset.equal inf.Reach.failed failed)
      in
      match info with
      | None -> QCheck2.Test.fail_reportf "canonical set missing from the sym index"
      | Some inf ->
        QCheck2.assume (Iset.equal final.Model.State.failed failed);
        Astate.leq (Astate.of_state final) inf.Reach.astate)

(* Class-respecting permutations: transporting a concrete final state of a
   permuted crash pattern back through [Astate.permute_procs] lands below
   the canonical context's astate — the symmetry argument the quotient
   stands on, checked concretely on a fully-connected protocol whose values
   carry no pids. *)
let test_permuted_walk_transports () =
  let sys = build "direct" (params 4 2) in
  let cs = Param.classes sys in
  let sym = Reach.analyze_sym ~max_faults:2 sys in
  (* Crash {2} — class 0's second member; canon is {0}. The transporting
     permutation swaps 0 and 2 (same class, same input parity). *)
  let final, _, _ = run_rr ~faults:[ 0, 2 ] sys [ 0; 1; 0; 1 ] in
  Alcotest.check iset_testable "crashed as planned" (Iset.of_list [ 2 ])
    final.Model.State.failed;
  let canon = Param.canon cs (Iset.of_list [ 2 ]) in
  Alcotest.check iset_testable "canon is {0}" (Iset.of_list [ 0 ]) canon;
  let inf =
    Array.to_list sym.Reach.infos
    |> List.find (fun (inf : Reach.info) -> Iset.equal inf.Reach.failed canon)
  in
  let transported = Astate.permute_procs [| 2; 1; 0; 3 |] (Astate.of_state final) in
  Alcotest.(check bool) "transported state below canonical astate" true
    (Astate.leq transported inf.Reach.astate)

(* --- certificates --- *)

let test_golden_tob_certificate () =
  (* Thm 9's range, statically: the f-resilient broadcast service supports
     termination under f crashes, the protocol claims f+1 — the gap finding
     must be present at exactly the points where the service is genuinely
     f-resilient (f < n − 1) and replaced by the §2.1.3 wait-free-claim
     where f ≥ n − 1 makes it effectively reliable. *)
  let cert = Registry.certify (entry "tob") in
  Alcotest.(check string) "protocol" "tob" cert.Cert.protocol;
  Alcotest.(check int) "nine points" 9 (List.length cert.Cert.points);
  Alcotest.(check (pair (pair int int) (pair int int)))
    "window" ((2, 0), (4, 2)) (Cert.window cert);
  List.iter
    (fun (p : Cert.point) ->
      let tag = Printf.sprintf "(n=%d, f=%d)" p.Cert.pn p.Cert.pf in
      let has rule =
        List.exists (fun (f : Analysis.Lint.finding) -> f.Analysis.Lint.code = rule)
          p.Cert.findings
      in
      if p.Cert.pf < p.Cert.pn - 1 then begin
        Alcotest.(check bool) (tag ^ ": guarantee gap present") true
          (has "guarantee-gap");
        let detail =
          List.find
            (fun (f : Analysis.Lint.finding) ->
              f.Analysis.Lint.code = "guarantee-gap")
            p.Cert.findings
        in
        Alcotest.(check bool) (tag ^ ": claims f+1") true
          (contains detail.Analysis.Lint.detail
             (Printf.sprintf "claimed termination under %d crash(es)" (p.Cert.pf + 1)))
      end
      else begin
        Alcotest.(check bool) (tag ^ ": no gap once wait-free") false
          (has "guarantee-gap");
        if p.Cert.pf < p.Cert.pn then
          (* n − 1 ≤ f < n: wait-free, effectively reliable (§2.1.3). *)
          Alcotest.(check bool) (tag ^ ": wait-free-claim present") true
            (has "wait-free-claim")
        else
          (* f ≥ n: the silencing threshold is unattainable. *)
          Alcotest.(check bool) (tag ^ ": over-resilient flagged") true
            (has "over-resilient")
      end)
    cert.Cert.points;
  Alcotest.(check (list int)) "exit codes: only (2,2) warns"
    [ 0; 0; 1; 0; 0; 0; 0; 0; 0 ]
    (List.map (fun (p : Cert.point) -> p.Cert.code) cert.Cert.points);
  Alcotest.(check (list (pair int int))) "validates against concrete lints" []
    (Registry.cert_disagreements (entry "tob") cert)

let test_kset_universal_gap () =
  (* Thm 2 quantified verbatim: the scope gap is byte-identical at every
     window point, so it lands in [stable] — a universally-quantified
     statement over the whole window. *)
  let cert = Registry.certify (entry "kset") in
  Alcotest.(check bool) "scope gap universal" true
    (List.exists
       (fun (f : Analysis.Lint.finding) ->
         f.Analysis.Lint.code = "guarantee-gap"
         && f.Analysis.Lint.subject = "component scope")
       cert.Cert.stable);
  Alcotest.(check (list (pair int int))) "validates" []
    (Registry.cert_disagreements (entry "kset") cert)

let test_cert_roundtrip () =
  let cert = Registry.certify (entry "direct") in
  let b = Buffer.create 1024 in
  Cert.encode b cert;
  let cert' = Cert.decode (Codec.cursor (Buffer.contents b)) in
  Alcotest.(check string) "json identical through the codec" (Cert.json cert)
    (Cert.json cert');
  (* The derived views are rebuilt, not stored: still present after decode. *)
  Alcotest.(check int) "stable re-derived"
    (List.length cert.Cert.stable)
    (List.length cert'.Cert.stable)

(* --- cross-parameter cache reuse --- *)

let test_warm_sweep_hits () =
  let dir = scratch () in
  let c1 = Cache.open_ ~dir in
  let cold = Registry.certify ~cache:c1 (entry "direct") in
  Alcotest.(check bool) "cold run stores the pcert entry" true
    (c1.Cache.stats.Cache.writes > 0);
  let c2 = Cache.open_ ~dir in
  let warm = Registry.certify ~cache:c2 (entry "direct") in
  Alcotest.(check string) "warm replay byte-identical" (Cert.json cold)
    (Cert.json warm);
  Alcotest.(check int) "warm sweep: one pcert hit" 1 c2.Cache.stats.Cache.hits;
  Alcotest.(check int) "warm sweep: zero misses" 0 c2.Cache.stats.Cache.misses;
  (* The CI gate's shape: hit rate ≥ 50% across the warm sweep. *)
  let s = c2.Cache.stats in
  Alcotest.(check bool) "hit rate ≥ 50%" true
    (2 * s.Cache.hits >= s.Cache.hits + s.Cache.misses);
  ignore (Cache.clear ~dir)

let test_family_key_moves () =
  (* Parameterized hashing: editing any grid point's behavior must move the
     family key, or a stale certificate would replay. The "edit" substitutes
     a behaviorally different system at the n = 4 points only. *)
  let e = entry "direct" in
  let base = Registry.family_key e in
  let edited =
    {
      e with
      Registry.build =
        (fun p ->
          if p.Registry.n = 4 then (entry "tob").Registry.build p
          else e.Registry.build p);
    }
  in
  Alcotest.(check bool) "single-point edit moves the family key" true
    (not (String.equal base (Registry.family_key edited)));
  Alcotest.(check string) "stable otherwise" base (Registry.family_key e)

(* --- the stats JSON kinds census --- *)

let test_stats_json_kinds () =
  let dir = scratch () in
  let c = Cache.open_ ~dir in
  Cache.store c ~kind:"lint" ~key:"k1" "x";
  Cache.store c ~kind:"reach" ~key:"k2" "y";
  Cache.store c ~kind:"pcert" ~key:"k3" "z";
  Cache.store c ~kind:"reach" ~key:"k4" "w";
  let json = Cache.stats_json c in
  Alcotest.(check bool) "kinds object present" true (contains json "\"kinds\"");
  Alcotest.(check bool) "reach counted" true (contains json "\"reach\": 2");
  Alcotest.(check bool) "lint counted" true (contains json "\"lint\": 1");
  Alcotest.(check bool) "pcert counted" true (contains json "\"pcert\": 1");
  (* Deterministic sorted order: lint before pcert before reach. *)
  let idx needle =
    let rec go i =
      if i + String.length needle > String.length json then -1
      else if String.sub json i (String.length needle) = needle then i
      else go (i + 1)
    in
    go 0
  in
  Alcotest.(check bool) "sorted by kind" true
    (idx "\"lint\"" < idx "\"pcert\"" && idx "\"pcert\"" < idx "\"reach\"");
  ignore (Cache.clear ~dir)

let suite =
  ( "param",
    [
    Alcotest.test_case "symmetry classes: direct parity split" `Quick
      test_classes_direct;
    Alcotest.test_case "canonical signatures compress the powerset" `Quick
      test_covered_direct;
    Alcotest.test_case "canon: signature-preserving idempotent" `Quick
      test_canon_properties;
    Alcotest.test_case "sym fixpoint matches full on seed facts" `Slow
      test_sym_matches_full_seed;
    Alcotest.test_case "sym fixpoint solves fewer unknowns" `Quick
      test_sym_compresses;
    test_walks_below_sym;
    Alcotest.test_case "permuted walk transports below canon" `Quick
      test_permuted_walk_transports;
    Alcotest.test_case "golden tob certificate: Thm 9's range" `Slow
      test_golden_tob_certificate;
    Alcotest.test_case "kset scope gap quantifies universally" `Slow
      test_kset_universal_gap;
    Alcotest.test_case "certificate codec round-trips" `Quick test_cert_roundtrip;
    Alcotest.test_case "warm (n, f) sweep: one pcert hit, zero misses" `Quick
      test_warm_sweep_hits;
    Alcotest.test_case "family key moves on a single-point edit" `Quick
      test_family_key_moves;
    Alcotest.test_case "stats JSON groups entries by kind, sorted" `Quick
      test_stats_json_kinds;
  ] )
