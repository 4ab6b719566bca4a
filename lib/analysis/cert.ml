(* Resilience certificates: the machine-checkable record behind
   `boost lint --param`.

   A certificate stores the lint verdict of one protocol at every (n, f)
   point of a window and derives the universally-quantified statements the
   paper's theorems are phrased in: findings byte-identical at every point
   quantify verbatim ("∀ (n, f) in the window: …"), findings whose
   (code, severity, subject) key recurs everywhere while the detail embeds
   the parameters (e.g. tob's guarantee-gap, whose message names f+1 and f)
   quantify at the key level. Validation is concrete and byte-for-byte:
   [disagreements] re-lints fresh at each point and compares findings and
   exit codes exactly, so a certificate can claim nothing a concrete
   instantiation would not reproduce. *)

type point = { pn : int; pf : int; findings : Lint.finding list; code : int }

type t = {
  protocol : string;
  family : string;
  max_faults : int;
  points : point list;
  stable : Lint.finding list;
  everywhere : (string * Lint.severity * string) list;
}

let finding_equal (a : Lint.finding) (b : Lint.finding) =
  String.equal a.Lint.code b.Lint.code
  && a.Lint.severity = b.Lint.severity
  && String.equal a.Lint.subject b.Lint.subject
  && String.equal a.Lint.detail b.Lint.detail

let key_of (f : Lint.finding) = f.Lint.code, f.Lint.severity, f.Lint.subject

let make ~protocol ~family ~max_faults points =
  let points = List.sort (fun a b -> compare (a.pn, a.pf) (b.pn, b.pf)) points in
  let stable, everywhere =
    match points with
    | [] -> [], []
    | p0 :: rest ->
      let stable =
        List.filter
          (fun f -> List.for_all (fun p -> List.exists (finding_equal f) p.findings) rest)
          p0.findings
      in
      let everywhere =
        p0.findings
        |> List.filter (fun f -> not (List.exists (finding_equal f) stable))
        |> List.filter_map (fun f ->
               let k = key_of f in
               if
                 List.for_all
                   (fun p -> List.exists (fun g -> key_of g = k) p.findings)
                   rest
               then Some k
               else None)
        |> List.sort_uniq compare
      in
      stable, everywhere
  in
  { protocol; family; max_faults; points; stable; everywhere }

let window t =
  match t.points with
  | [] -> (0, 0), (0, 0)
  | p0 :: _ ->
    List.fold_left
      (fun ((nlo, flo), (nhi, fhi)) p ->
        (min nlo p.pn, min flo p.pf), (max nhi p.pn, max fhi p.pf))
      ((p0.pn, p0.pf), (p0.pn, p0.pf))
      t.points

let disagreements t ~fresh =
  List.filter_map
    (fun p ->
      let findings, code = fresh ~n:p.pn ~f:p.pf in
      if
        code = p.code
        && List.length findings = List.length (p.findings)
        && List.for_all2 finding_equal findings p.findings
      then None
      else Some (p.pn, p.pf))
    t.points

(* --- cache serialization (kind "pcert") ---

   Only the validated per-point verdicts persist; [stable]/[everywhere] are
   re-derived by [make] on decode, so the quantified view always matches the
   stored points. *)

let encode b t =
  Codec.string_out b t.protocol;
  Codec.string_out b t.family;
  Codec.int_out b t.max_faults;
  Codec.int_out b (List.length t.points);
  List.iter
    (fun p ->
      Codec.int_out b p.pn;
      Codec.int_out b p.pf;
      Codec.int_out b p.code;
      Lint.encode_findings b p.findings)
    t.points

let decode c =
  let protocol = Codec.string_in c in
  let family = Codec.string_in c in
  let max_faults = Codec.int_in c in
  let np = Codec.int_in c in
  if np < 0 then raise (Codec.Corrupt "negative point count");
  let points =
    List.init np (fun _ ->
        let pn = Codec.int_in c in
        let pf = Codec.int_in c in
        let code = Codec.int_in c in
        let findings = Lint.decode_findings c in
        { pn; pf; findings; code })
  in
  make ~protocol ~family ~max_faults points

(* --- rendering --- *)

let pp ppf t =
  let (nlo, flo), (nhi, fhi) = window t in
  Format.fprintf ppf "@[<v>certificate %s (family %s, max-faults %d)@," t.protocol
    t.family t.max_faults;
  Format.fprintf ppf "window n ∈ [%d, %d], f ∈ [%d, %d], %d point(s)@," nlo nhi flo
    fhi (List.length t.points);
  List.iter
    (fun f -> Format.fprintf ppf "∀ (n, f): %a@," Lint.pp_finding f)
    t.stable;
  List.iter
    (fun (code, sev, subject) ->
      Format.fprintf ppf "∀ (n, f): %a[%s] %s (detail varies with (n, f))@,"
        Lint.pp_severity sev code subject)
    t.everywhere;
  Format.fprintf ppf "@[<h>per-point exit:%t@]@]" (fun ppf ->
      List.iter (fun p -> Format.fprintf ppf "@ (%d,%d)=%d" p.pn p.pf p.code) t.points)

let json t =
  let (nlo, flo), (nhi, fhi) = window t in
  let open Json in
  let findings fs = List (List.map (Lint.json_of_finding ~protocol:t.protocol) fs) in
  let everywhere (code, sev, subject) =
    Obj
      [ "rule", String code; "severity", String (Lint.severity_name sev); "subject", String subject ]
  in
  let point p =
    Obj [ "n", Int p.pn; "f", Int p.pf; "exit", Int p.code; "findings", findings p.findings ]
  in
  Obj
    [
      "certificate", String t.protocol;
      "family", String t.family;
      "max_faults", Int t.max_faults;
      "window", Obj [ "n", List [ Int nlo; Int nhi ]; "f", List [ Int flo; Int fhi ] ];
      "stable", findings t.stable;
      "everywhere", List (List.map everywhere t.everywhere);
      "points", List (List.map point t.points);
    ]
