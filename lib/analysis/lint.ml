module Value = Ioa.Value
module System = Model.System
module Service = Model.Service

type severity = Error | Warning | Info

type finding = { code : string; severity : severity; subject : string; detail : string }

type report = { findings : finding list; reach : Reach.t; footprints : Footprint.t array }

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let compare_finding a b =
  let c = compare (severity_rank a.severity) (severity_rank b.severity) in
  if c <> 0 then c
  else
    let c = String.compare a.code b.code in
    if c <> 0 then c else String.compare a.subject b.subject

let analyze ?(max_faults = 1) ?inputs ?(gaps = []) (sys : System.t) =
  let r = Reach.analyze ~max_faults ?inputs sys in
  let footprints = Footprint.of_system ~reach:r ~max_crashes:max_faults sys in
  let fs = ref [] in
  let add code severity subject detail = fs := { code; severity; subject; detail } :: !fs in
  (* Guarantee-vector typing: the registered claim exceeds the meet of the
     services' vectors. Info, not a defect — for the boosting protocols the
     gap is the point (the static face of the Thm 2/9/10 refutation). *)
  List.iter
    (fun (g : Guarantee.gap) ->
      add "guarantee-gap" Info
        (Printf.sprintf "component %s" g.Guarantee.component)
        (Printf.sprintf "claimed %s, composition supports %s — %s" g.Guarantee.claimed
           g.Guarantee.supported g.Guarantee.theorem))
    gaps;
  (* Write-write/write-read conflicts between tasks that can never share a
     participant: a would-be Lemma 8 violation surfaced statically. *)
  List.iter
    (fun (race : Footprint.race) ->
      add "static-race" Warning
        (Format.asprintf "tasks %a / %a" Model.Task.pp race.Footprint.e Model.Task.pp
           race.Footprint.e')
        (Format.asprintf
           "share written component %a without a shared participant (Lemma 8 gives no \
            commutation discipline for the pair)"
           Footprint.pp_component race.Footprint.component))
    (Footprint.races sys footprints);
  (* §3.1 assumption breaches and endpoint-discipline bugs surfaced by the
     transfer probes. *)
  List.iter
    (fun (i : Transfer.incident) -> add i.Transfer.code Error i.Transfer.subject i.Transfer.detail)
    r.Reach.incidents;
  (* Statically blank: no decide event reachable failure-free. Subsumes the
     per-process dead-decide findings. *)
  if Reach.proven_blank r then
    add "blank-protocol" Error "protocol"
      "no decide event is reachable in any failure-free execution (statically Blank)"
  else
    List.iter
      (fun i ->
        add "dead-decide" Warning
          (Printf.sprintf "process %d" i)
          "provably never emits a decide event in any failure-free execution")
      (Reach.never_decides r);
  (* Tasks whose real action never fires in any analyzed context. *)
  List.iter
    (fun (_, tk) ->
      add "dead-task" Info
        (Format.asprintf "task %a" Model.Task.pp tk)
        "real action fires in no analyzed context (dead or unreachable transition)")
    (Reach.dead_tasks r);
  (* Resilience-interface checks (static metadata, always exact). *)
  let n = System.n_processes sys in
  Array.iter
    (fun (c : Service.t) ->
      let subject = "service " ^ c.Service.id in
      let m = Array.length c.Service.endpoints in
      if c.Service.resilience >= m then
        add "over-resilient" Warning subject
          (Printf.sprintf "resilience f=%d ≥ %d endpoints: the silencing threshold is unattainable"
             c.Service.resilience m)
      else if Service.is_wait_free c && c.Service.cls <> Service.Register then
        add "wait-free-claim" Info subject
          (Printf.sprintf
             "f=%d ≥ |J|−1=%d: wait-free, i.e. effectively reliable (§2.1.3) — boosting results do not apply to it"
             c.Service.resilience (m - 1));
      if not (Service.connected_to_all c ~n) then
        add "not-connected-to-all" Info subject
          "not connected to every process (Theorem 10 assumes fully connected general services)")
    sys.System.services;
  (* Decisions outside the proposed inputs: a validity risk when provable
     on both sides. *)
  (match (Reach.seed_info r).Reach.astate with
  | Astate.Bot -> ()
  | Astate.St st ->
    let all_inputs =
      Array.fold_left
        (fun acc (d : Astate.dopt) ->
          match acc with
          | None -> None
          | Some vs -> if d.Astate.may_none then None else (
            match Vset.elements d.Astate.values with
            | None -> None
            | Some es -> Some (es @ vs)))
        (Some []) st.Astate.inputs
    in
    match all_inputs, Vset.elements (Reach.may_decided_values r) with
    | Some inputs, Some decided ->
      List.iter
        (fun v ->
          if not (List.exists (Value.equal v) inputs) then
            add "decide-outside-inputs" Info
              (Format.asprintf "value %a" Value.pp v)
              "may be decided although no process proposed it (potential validity violation)")
        decided
    | _ -> ());
  { findings = List.sort_uniq compare_finding !fs; reach = r; footprints }

let severity_name = function Error -> "error" | Warning -> "warning" | Info -> "info"

let pp_severity ppf s = Format.pp_print_string ppf (severity_name s)

let pp_finding ppf f =
  Format.fprintf ppf "%a[%s] %s: %s" pp_severity f.severity f.code f.subject f.detail

let pp ppf r =
  Format.fprintf ppf "@[<v>";
  List.iter (fun f -> Format.fprintf ppf "%a@," pp_finding f) r.findings;
  Format.fprintf ppf "%a@,"
    (Footprint.pp_summary r.reach.Reach.sys ~max_crashes:r.reach.Reach.max_faults)
    r.footprints;
  Format.fprintf ppf "%d finding(s); crashes %a; fixpoint in %d iteration(s), %d widening(s)@]"
    (List.length r.findings) Interval.pp
    (Reach.crash_interval r.reach)
    r.reach.Reach.stats.Fixpoint.iterations r.reach.Reach.stats.Fixpoint.widenings

let json_of_finding ~protocol f =
  Json.(
    Obj
      [
        "protocol", String protocol;
        "severity", String (severity_name f.severity);
        "rule", String f.code;
        "subject", String f.subject;
        "message", String f.detail;
      ])

let exit_code r =
  if List.exists (fun f -> f.severity <> Info) r.findings then 1 else 0

(* Artifact ordering: (protocol, severity, code, subject) — a total, input-
   order-independent sort, so the `lint --all --json` artifact is diff-stable
   across parallel runs and cache replays. *)
let sort_for_artifact pairs =
  List.stable_sort
    (fun (p1, f1) (p2, f2) ->
      let c = String.compare p1 p2 in
      if c <> 0 then c else compare_finding f1 f2)
    pairs

(* --- cache serialization --- *)

let severity_tag = function Error -> 0 | Warning -> 1 | Info -> 2

let severity_of_tag = function
  | 0 -> Error
  | 1 -> Warning
  | 2 -> Info
  | n -> raise (Codec.Corrupt (Printf.sprintf "bad severity tag %d" n))

let encode_findings b findings =
  Codec.int_out b (List.length findings);
  List.iter
    (fun f ->
      Codec.int_out b (severity_tag f.severity);
      Codec.string_out b f.code;
      Codec.string_out b f.subject;
      Codec.string_out b f.detail)
    findings

let decode_findings c =
  let n = Codec.int_in c in
  if n < 0 then raise (Codec.Corrupt "negative finding count");
  List.init n (fun _ ->
      let severity = severity_of_tag (Codec.int_in c) in
      let code = Codec.string_in c in
      let subject = Codec.string_in c in
      let detail = Codec.string_in c in
      { code; severity; subject; detail })
