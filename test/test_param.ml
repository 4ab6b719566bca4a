(* The parameterized (n, f) layer: resilience certificates, the fixpoint
   they rest on, and cross-parameter cache reuse.

   Soundness is pinned from two directions. The QCheck walk harness drives
   concrete executions — fault-free and with a crash pattern from the
   fixpoint's own index set, delivered in pid order (every intermediate
   failed set of such a delivery is itself in the index) — and requires each
   final configuration to abstract below the fixpoint solution at its
   context. The certificate tests are the authority side: certificates must
   be byte-for-byte what fresh concrete per-point lints produce
   ([cert_disagreements] empty), and the golden tob certificate must match
   Thm 9's range — the guarantee gap present exactly where the broadcast
   service is genuinely f-resilient, absent where §2.1.3 makes it
   effectively reliable. *)

open Helpers
module Iset = Spec.Iset
module Registry = Protocols.Registry
module Reach = Analysis.Reach
module Astate = Analysis.Astate
module Cert = Analysis.Cert
module Cache = Analysis.Cache
module Codec = Analysis.Codec
module Json = Analysis.Json

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

(* --- the fixpoint against concrete walks --- *)

(* Abstract-⊇-concrete: a concrete round-robin walk that crashes one of the
   fixpoint's failed sets in ascending pid order must land below the
   solution at that context. Every intermediate failed set of the delivery
   is a subset of the target, so the concrete path never leaves the index. *)
let test_walks_below_fixpoint =
  let cases =
    [| "direct", 3, 1, 1; "direct", 4, 2, 2; "tob", 3, 1, 1; "fd-all", 3, 1, 1 |]
  in
  qtest "concrete walks stay below the fixpoint astate" ~count:60
    QCheck2.Gen.(tup3 (int_bound 1000) (int_bound 1000) (int_bound 6))
    (fun (case_pick, set_pick, stagger) ->
      let name, n, f, mf = cases.(case_pick mod Array.length cases) in
      let sys = build name (params n f) in
      let full = Reach.analyze ~max_faults:mf sys in
      let info = full.Reach.infos.(set_pick mod Array.length full.Reach.infos) in
      let failed = info.Reach.failed in
      (* Deliver in ascending pid order, staggered a few task turns apart. *)
      let faults =
        List.mapi (fun i pid -> i * (1 + stagger), pid) (Iset.elements failed)
      in
      let final, _, _ = run_rr ~faults sys (List.init n (fun i -> i mod 2)) in
      QCheck2.assume (Iset.equal final.Model.State.failed failed);
      Astate.leq (Astate.of_state final) info.Reach.astate)

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
  Alcotest.(check string) "json identical through the codec"
    (Json.compact (Cert.json cert))
    (Json.compact (Cert.json cert'));
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
  Alcotest.(check string) "warm replay byte-identical"
    (Json.compact (Cert.json cold))
    (Json.compact (Cert.json warm));
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
  Cache.store c ~kind:"pcert" ~key:"k1" "x";
  Cache.store c ~kind:"lint" ~key:"k2" "y";
  Cache.store c ~kind:"pcert" ~key:"k3" "z";
  Cache.write_manifest c [];
  let json = Json.pretty (Cache.stats_json c) in
  Alcotest.(check bool) "kinds object present" true (contains json "\"kinds\"");
  Alcotest.(check bool) "pcert counted" true (contains json "\"pcert\": 2");
  Alcotest.(check bool) "lint counted" true (contains json "\"lint\": 1");
  Alcotest.(check bool) "manifest counted" true (contains json "\"manifest\": 1");
  (* Deterministic sorted order, not store order: lint before manifest
     before pcert. *)
  let idx needle =
    let rec go i =
      if i + String.length needle > String.length json then -1
      else if String.sub json i (String.length needle) = needle then i
      else go (i + 1)
    in
    go 0
  in
  Alcotest.(check bool) "sorted by kind" true
    (idx "\"lint\"" < idx "\"manifest\"" && idx "\"manifest\"" < idx "\"pcert\"");
  ignore (Cache.clear ~dir)

let suite =
  ( "param",
    [
    test_walks_below_fixpoint;
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
