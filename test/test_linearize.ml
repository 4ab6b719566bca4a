(* Model.Linearize: the return-order certificate and the search it falls
   back to. The load-bearing pins:

   1. [check] ≡ [search] on random histories over a register, a counter and
      the nondeterministic k-set type — the certificate is sound, so the
      certificate-first verdict must be the exhaustive oracle's — and the
      histories reach all three outcomes: certified, certificate failed but
      searched linearizable, and rejected;
   2. golden histories for each outcome, read off the certificate and the
      search separately. *)

open Helpers
module L = Model.Linearize
module V = Ioa.Value

let register =
  Spec.Seq_register.make ~values:[ V.int 0; V.int 1 ] ~initial:(V.int 0)

let counter = Spec.Seq_counter.make ()
let kset = Spec.Seq_kset.make ~k:2 ~n:3

(* Per type: the operations a client draws and the responses a wrong return
   draws from. *)
let types =
  [
    ( "register",
      register,
      Spec.Seq_register.[ read; write (V.int 0); write (V.int 1) ],
      Spec.Seq_register.[ ack; value_resp (V.int 0); value_resp (V.int 1) ] );
    ( "counter",
      counter,
      Spec.Seq_counter.[ increment; read ],
      List.init 3 Spec.Seq_counter.count );
    ( "k-set",
      kset,
      List.init 3 Spec.Seq_kset.init,
      List.init 3 Spec.Seq_kset.decide );
  ]

let certifies t h =
  let c = L.cert t in
  List.for_all (L.certify c) h

(* Random histories over three endpoints, drawn against a model object so
   that linearizable histories whose return order is no witness occur. Each
   draw (ep, action, r) is a Call of the r-th operation (action 0, or
   actions 1–2 on an endpoint with nothing outstanding); a silent
   linearization of the endpoint's oldest pending call, taking δ's r-th
   outcome (action 1); a Return of the oldest call with its model response
   if it was linearized (action 2); a Return carrying the r-th response
   (action 3, and action 2 on an unlinearized call); or a Return with no
   call outstanding at all (action 4 with r = 0 on an idle endpoint). *)
let build_history (t : Spec.Seq_type.t) ops resps draws =
  let pending = Array.init 3 (fun _ -> Queue.create ()) in
  let inflight = Array.init 3 (fun _ -> Queue.create ()) in
  let value = ref (List.hd t.Spec.Seq_type.initials) in
  let nth l r = List.nth l (r mod List.length l) in
  List.filter_map
    (fun (ep, action, r) ->
      let outstanding = Queue.length pending.(ep) + Queue.length inflight.(ep) in
      let return resp = Some (L.Return { endpoint = ep; resp }) in
      if action = 4 && outstanding = 0 && r = 0 then return (List.hd resps)
      else if action = 0 || outstanding = 0 then begin
        let op = nth ops r in
        Queue.push op pending.(ep);
        Some (L.Call { endpoint = ep; op })
      end
      else if action = 1 then begin
        (match Queue.take_opt pending.(ep) with
        | Some op ->
          let resp, v = nth (t.Spec.Seq_type.delta op !value) r in
          Queue.push resp inflight.(ep);
          value := v
        | None -> ());
        None
      end
      else
        match Queue.take_opt inflight.(ep) with
        | Some resp -> return (if action = 2 then resp else nth resps r)
        | None ->
          ignore (Queue.pop pending.(ep));
          return (nth resps r))
    draws

let draws_gen =
  QCheck2.Gen.(list_size (int_bound 14) (triple (int_bound 2) (int_bound 4) (int_bound 3)))

let qcheck_check_vs_search =
  List.map
    (fun (name, t, ops, resps) ->
      qtest
        (Printf.sprintf "check ≡ search on random %s histories" name)
        ~count:400 draws_gen
        (fun draws ->
          let h = build_history t ops resps draws in
          Bool.equal (L.check t h) (L.search t h)))
    types

(* The differential above says nothing about an outcome its histories never
   reach: a fixed sample per type must hold certified histories,
   linearizable ones only the search accepts, rejected ones, and ones whose
   certificate first fails at a return with no call. *)
let test_generator_reaches_every_outcome () =
  List.iter
    (fun (name, t, ops, resps) ->
      let rand = Random.State.make [| 24 |] in
      let hs =
        List.map (build_history t ops resps) (QCheck2.Gen.generate ~rand ~n:400 draws_gen)
      in
      let count p = List.length (List.filter p hs) in
      let orphan h =
        (* The certificate holds up to a return with no unreturned call at
           its endpoint: what a certificate that skipped that check would
           wrongly accept. *)
        let c = L.cert t and unreturned = Array.make 3 0 in
        let rec go = function
          | [] -> false
          | (L.Call { endpoint; _ } as ev) :: rest ->
            unreturned.(endpoint) <- unreturned.(endpoint) + 1;
            ignore (L.certify c ev);
            go rest
          | (L.Return { endpoint; _ } as ev) :: rest ->
            unreturned.(endpoint) = 0
            || begin
                 unreturned.(endpoint) <- unreturned.(endpoint) - 1;
                 L.certify c ev && go rest
               end
        in
        go h
      in
      List.iter
        (fun (what, k) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s occur (%d)" name what k)
            true (k > 0))
        [
          "certified histories", count (fun h -> h <> [] && certifies t h);
          ( "searched-only histories",
            count (fun h -> (not (certifies t h)) && L.search t h) );
          "rejected histories", count (fun h -> not (L.search t h));
          "certified prefixes ending in an orphan return", count orphan;
        ])
    types

(* --- golden histories --- *)

let call ep op = L.Call { endpoint = ep; op }
let ret ep resp = L.Return { endpoint = ep; resp }

let verdicts t h = certifies t h, L.search t h, L.check t h

let check_verdicts what expected t h =
  Alcotest.(check (triple bool bool bool)) (what ^ ": (certified, search, check)") expected
    (verdicts t h)

(* A read overlapping a write returns the new value before the write's ack:
   the read's return comes first, so the certificate applies it to the
   initial 0 and fails; the search linearizes the write first. This is the
   canonical object's own case: one endpoint's response overtaken by
   another's later operation. *)
let test_golden_out_of_order () =
  check_verdicts "out-of-order returns" (false, true, true) register
    [
      call 0 (Spec.Seq_register.write (V.int 1));
      call 1 Spec.Seq_register.read;
      ret 1 (Spec.Seq_register.value_resp (V.int 1));
      ret 0 Spec.Seq_register.ack;
    ]

(* A read that starts after a completed write of 1 and returns 0. *)
let test_golden_violation () =
  check_verdicts "stale read" (false, false, false) register
    [
      call 0 (Spec.Seq_register.write (V.int 1));
      ret 0 Spec.Seq_register.ack;
      call 1 Spec.Seq_register.read;
      ret 1 (Spec.Seq_register.value_resp (V.int 0));
    ];
  check_verdicts "return with no call" (false, false, false) counter
    [ call 0 Spec.Seq_counter.increment; ret 1 (Spec.Seq_counter.count 0) ]

(* Calls that never return never take effect in the certificate: endpoint
   0's increment stays pending, endpoint 1's increment and endpoint 2's
   read explain themselves without it, and a second call of endpoint 1
   queues behind its first. *)
let test_golden_certified_with_pending () =
  check_verdicts "certified with pending calls" (true, true, true) counter
    [
      call 0 Spec.Seq_counter.increment;
      call 1 Spec.Seq_counter.increment;
      call 1 Spec.Seq_counter.read;
      ret 1 (Spec.Seq_counter.count 0);
      call 2 Spec.Seq_counter.read;
      ret 2 (Spec.Seq_counter.count 1);
    ]

(* Nondeterministic δ: the certificate takes the first outcome whose
   response matches, whichever of the remembered values was returned. *)
let test_golden_nondeterministic () =
  List.iter
    (fun second ->
      check_verdicts
        (Printf.sprintf "k-set returns %d" second)
        (true, true, true) kset
        [
          call 0 (Spec.Seq_kset.init 2);
          ret 0 (Spec.Seq_kset.decide 2);
          call 1 (Spec.Seq_kset.init 1);
          ret 1 (Spec.Seq_kset.decide second);
        ])
    [ 1; 2 ]

let suite =
  ( "linearize",
    qcheck_check_vs_search
    @ [
        Alcotest.test_case "generator reaches every outcome" `Quick
          test_generator_reaches_every_outcome;
        Alcotest.test_case "out-of-order returns: certificate fails, search accepts" `Quick
          test_golden_out_of_order;
        Alcotest.test_case "violation: certificate fails, search rejects" `Quick
          test_golden_violation;
        Alcotest.test_case "pending calls never take effect in the certificate" `Quick
          test_golden_certified_with_pending;
        Alcotest.test_case "nondeterministic δ: first matching outcome" `Quick
          test_golden_nondeterministic;
      ] )
