type params = { n : int; f : int; groups : int; group_size : int }

let default_params = { n = 2; f = 0; groups = 2; group_size = 2 }

type entry = {
  name : string;
  doc : string;
  build : params -> Model.System.t;
  min_n : int;
  k_of : params -> int;
  claims : params -> Analysis.Guarantee.claim;
}

let one _ = 1

(* What each protocol is held to, as a guarantee claim for the static gap
   pass and for the chaos battery, whose agreement and validity monitors
   follow [agreement]: k-agreement plus validity for [Some k], neither for
   [None] (termination and linearizability are always checked). Honest claims
   (≤ the composed service vector) leave no gap even where the battery
   refutes the protocol one crash beyond its claim; the three boosting
   entries register the over-claim that is their point. *)
let consensus ?(lin = true) ?termination ?(scales = false) () _p =
  {
    Analysis.Guarantee.agreement = Some 1;
    termination;
    linearizable = lin;
    scales;
  }

let all =
  [
    {
      name = "direct";
      doc = "n clients on one f-resilient atomic consensus service";
      build = (fun p -> Direct.system ~n:p.n ~f:p.f);
      min_n = 1;
      k_of = one;
      claims = (fun p -> consensus ~termination:(Analysis.Guarantee.Crashes p.f) () p);
    };
    {
      name = "split";
      doc = "per-process 0-resilient consensus services";
      build = (fun p -> Split.system ~n:p.n);
      min_n = 1;
      k_of = one;
      claims = (fun _ ->
          (* Per-process services claim nothing across processes: no
             agreement claim, so the 2-island scope is not a gap. *)
          { Analysis.Guarantee.no_claim with
            Analysis.Guarantee.termination = Some (Analysis.Guarantee.Crashes 0);
            linearizable = true });
    };
    {
      name = "register-vote";
      doc = "2 processes voting through wait-free registers";
      build = (fun _ -> Register_vote.system ());
      min_n = 1;
      k_of = one;
      claims = consensus ~termination:(Analysis.Guarantee.Crashes 1) ();
    };
    {
      name = "register-wait";
      doc = "2 processes on wait-free registers, flawed resilience claim";
      build = (fun _ -> Register_wait.system ());
      min_n = 1;
      k_of = one;
      claims = (* The flawed resilience claim is a protocol-logic bug, not a typing
         gap: wait-free registers do support termination under one crash. *)
        consensus ~termination:(Analysis.Guarantee.Crashes 1) ();
    };
    {
      name = "tob";
      doc = "n clients on an f-resilient total-order broadcast service";
      build = (fun p -> Tob_direct.system ~n:p.n ~f:p.f);
      min_n = 1;
      k_of = one;
      claims = (fun p ->
          (* The Thm 9 boost: f+1-resilient consensus from an f-resilient
             TO-broadcast service — one more crash than the meet allows. *)
          consensus ~lin:false
            ~termination:(Analysis.Guarantee.Crashes (p.f + 1)) () p);
    };
    {
      name = "fd-all";
      doc = "consensus from an all-connected failure detector";
      build = (fun p -> Fd_allconnected.system ~n:p.n ~f:p.f);
      min_n = 1;
      k_of = one;
      claims = (fun p -> consensus ~termination:(Analysis.Guarantee.Crashes p.f) () p);
    };
    {
      name = "kset";
      doc = "k-set agreement from per-group consensus services";
      build = (fun p -> Kset_boost.system ~groups:p.groups ~group_size:p.group_size);
      min_n = 1;
      k_of = (fun p -> p.groups);
      claims = (fun p ->
          (* Claimed, and held by the chaos battery, to full consensus
             (k = 1); §4 warrants only k = groups. The scope gap is exactly
             that distance (Thm 2). *)
          consensus ~termination:Analysis.Guarantee.Wait_free () p);
    };
    {
      name = "fd-boost";
      doc = "boosting attempt through a failure-detector service";
      build = (fun p -> Fd_boost.system ~n:p.n);
      min_n = 2;
      k_of = one;
      claims = (* §6.3's positive result at n = 2, claimed for all n — Thm 10's
         connectivity hypothesis fails at the n = 3 probe. *)
        consensus ~termination:Analysis.Guarantee.Wait_free ~scales:true ();
    };
    {
      name = "tas";
      doc = "consensus from f-resilient test-and-set";
      build = (fun p -> Tas_consensus.system ~f:p.f);
      min_n = 1;
      k_of = one;
      claims = (fun p -> consensus ~termination:(Analysis.Guarantee.Crashes p.f) () p);
    };
    {
      name = "queue";
      doc = "consensus from an f-resilient shared queue";
      build = (fun p -> Queue_consensus.system ~f:p.f);
      min_n = 1;
      k_of = one;
      claims = (fun p -> consensus ~termination:(Analysis.Guarantee.Crashes p.f) () p);
    };
    {
      name = "mp-all";
      doc = "message-passing consensus, all-to-all delivery";
      build = (fun p -> Mp_consensus.all_system ~n:p.n);
      min_n = 1;
      k_of = one;
      claims = consensus ~lin:false ~termination:(Analysis.Guarantee.Crashes 0) ();
    };
    {
      name = "mp-quorum";
      doc = "message-passing consensus, quorum delivery";
      build = (fun p -> Mp_consensus.quorum_system ~n:p.n);
      min_n = 1;
      k_of = one;
      claims = consensus ~lin:false ~termination:(Analysis.Guarantee.Crashes 1) ();
    };
    {
      name = "universal";
      doc = "universal construction over a shared counter";
      build =
        (fun p ->
          Universal.system ~obj:(Spec.Seq_counter.make ())
            ~ops:(List.init p.n (fun _ -> Spec.Seq_counter.increment)));
      min_n = 1;
      k_of = one;
      claims = (fun _ ->
          (* Decides counter responses, not proposed inputs: linearizability
             and wait-freedom are the claims, agreement is not, so the chaos
             battery checks neither agreement nor validity. *)
          { Analysis.Guarantee.no_claim with
            Analysis.Guarantee.termination = Some Analysis.Guarantee.Wait_free;
            linearizable = true });
    };
  ]

let names = List.map (fun e -> e.name) all

let find name = List.find_opt (fun e -> String.equal e.name name) all

let check_params (e : entry) (p : params) =
  if p.n < e.min_n then
    Error (Printf.sprintf "%s needs at least %d processes, got -n %d" e.name e.min_n p.n)
  else Ok ()

(* --- the guarantee-gap pass ---

   The registered claim against the composed vector, plus — for claims
   quantified over all n — the Thm 10 connectivity check at a larger probe
   size. Shared by the CLI and the cached lint pipeline so both key and
   compute the same analysis. *)

let scaling_probe (e : entry) (p : params) = e.build { p with n = max 3 (p.n + 1) }

let gaps (e : entry) (p : params) sys =
  let claim = e.claims p in
  let base = Analysis.Guarantee.gaps ~claim sys in
  if claim.Analysis.Guarantee.scales then
    base @ Analysis.Guarantee.scaling_gaps ~claim (scaling_probe e p)
  else base

(* --- the cached lint pipeline --- *)

(* Everything a lint result can depend on beyond the system itself: the
   registered claim, and — when the claim scales — the identity of the
   probe system the scaling gaps are computed against. *)
let claim_digest (e : entry) (p : params) =
  let claim = e.claims p in
  let tokens =
    [
      (match claim.Analysis.Guarantee.agreement with
      | None -> "a-"
      | Some k -> "a" ^ string_of_int k);
      (match claim.Analysis.Guarantee.termination with
      | None -> "t-"
      | Some (Analysis.Guarantee.Crashes k) -> "tc" ^ string_of_int k
      | Some Analysis.Guarantee.Wait_free -> "twf");
      (if claim.Analysis.Guarantee.linearizable then "lin" else "nolin");
      (if claim.Analysis.Guarantee.scales then
         "s" ^ Analysis.Structhash.key (Analysis.Structhash.system (scaling_probe e p))
       else "s-");
    ]
  in
  Analysis.Structhash.hex (Analysis.Structhash.mix_tokens tokens)

let lint_key (h : Analysis.Structhash.t) ~max_faults digest =
  Printf.sprintf "%s-mf%d-c%s" (Analysis.Structhash.key h) max_faults digest

type lint_result = {
  name : string;
  human : string;
  findings : Analysis.Lint.finding list;
  code : int;
  hash : Analysis.Structhash.t option;
}

(* Margin-78 buffer rendering — byte-identical to what [Format.printf]
   would produce on an unresized std_formatter (whose default margin is
   78), and stable across cache replays and parallel lint domains. *)
let render_lint name r =
  let b = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer b in
  Format.pp_set_margin ppf 78;
  Format.fprintf ppf "@[<v 2>%s:@,%a@]@." name Analysis.Lint.pp r;
  Buffer.contents b

let lint ?cache ?(max_faults = 1) (e : entry) (p : params) =
  let sys = e.build p in
  let fresh hash =
    let r = Analysis.Lint.analyze ~max_faults ~gaps:(gaps e p sys) sys in
    {
      name = e.name;
      human = render_lint e.name r;
      findings = r.Analysis.Lint.findings;
      code = Analysis.Lint.exit_code r;
      hash;
    }
  in
  match cache with
  | None -> fresh None
  | Some c -> (
    let h = Analysis.Structhash.system sys in
    let key = lint_key h ~max_faults (claim_digest e p) in
    match Analysis.Cache.lint_find c ~key with
    | Some entry ->
      (* Lint hit: replay the rendered report verbatim. *)
      {
        name = e.name;
        human = entry.Analysis.Cache.human;
        findings = entry.Analysis.Cache.findings;
        code = entry.Analysis.Cache.code;
        hash = Some h;
      }
    | None ->
      let res = fresh (Some h) in
      Analysis.Cache.lint_store c ~key
        { Analysis.Cache.human = res.human; findings = res.findings; code = res.code };
      res)

let manifest () =
  List.map
    (fun (e : entry) -> e.name, Analysis.Structhash.system (e.build default_params))
    all

(* --- parameterized certification (`boost lint --param`) --- *)

(* The default window: n ∈ {2,3,4} × f ∈ {0,1,2} — every resilient registry
   protocol's full (n, f ≤ resilience) range, plus the over-budget points
   whose degraded verdicts the certificate records rather than hides. *)
let param_window = [ 2, 0; 2, 1; 2, 2; 3, 0; 3, 1; 3, 2; 4, 0; 4, 1; 4, 2 ]

let param_of (n, f) = { default_params with n; f }

(* Parameterized hashing: the family key folds every window point's
   presentation lint key (full structural hash × analysis parameters ×
   claim digest) into one digest. A behavioral or claim change at any grid
   point moves it, so a pcert entry can never replay across an edit. *)
let family_key ?(window = param_window) ?(max_faults = 1) (e : entry) =
  let tokens =
    List.map
      (fun (n, f) ->
        let p = param_of (n, f) in
        let h = Analysis.Structhash.system (e.build p) in
        Printf.sprintf "(%d,%d)%s" n f (lint_key h ~max_faults (claim_digest e p)))
      window
  in
  Analysis.Structhash.family (("pcert-mf" ^ string_of_int max_faults) :: tokens)

(* Certification is concrete by construction: every point's findings come
   from the ordinary lint pipeline at that instantiation, so the stored
   certificate is byte-for-byte what per-point runs produce. A warm sweep is
   one pcert hit replaying all |window| verdicts. *)
let certify ?cache ?(window = param_window) ?(max_faults = 1) (e : entry) =
  let fam = family_key ~window ~max_faults e in
  let fresh () =
    let points =
      List.map
        (fun (n, f) ->
          let r = lint ?cache ~max_faults e (param_of (n, f)) in
          { Analysis.Cert.pn = n; pf = f; findings = r.findings; code = r.code })
        window
    in
    Analysis.Cert.make ~protocol:e.name ~family:fam ~max_faults points
  in
  match cache with
  | None -> fresh ()
  | Some c -> (
    match Analysis.Cache.pcert_find c ~key:fam with
    | Some cert -> cert
    | None ->
      let cert = fresh () in
      Analysis.Cache.pcert_store c ~key:fam cert;
      cert)

let cert_disagreements ?(max_faults = 1) (e : entry) cert =
  (* Validation is always cache-less: fresh concrete lints at every stored
     point, compared byte-for-byte. *)
  Analysis.Cert.disagreements cert ~fresh:(fun ~n ~f ->
      let r = lint ~max_faults e (param_of (n, f)) in
      r.findings, r.code)
