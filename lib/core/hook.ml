type t = {
  base : int;
  e : Model.Task.t;
  e' : Model.Task.t;
  alpha0 : int;
  mid : int;
  alpha1 : int;
  v0 : Valence.verdict;
  base_path : Model.Task.t list;
}

let pp ppf h =
  Format.fprintf ppf
    "hook@@v%d: e=%a e'=%a, e(α)=v%d (%a), e'(α)=v%d, e(e'(α))=v%d (opposite)" h.base
    Model.Task.pp h.e Model.Task.pp h.e' h.alpha0 Valence.pp_verdict h.v0 h.mid h.alpha1

type search =
  | Hook of t
  | Unbounded of Model.Task.t list
  | Not_bivalent
  | Inexact

let pp_result ppf = function
  | Hook h -> pp ppf h
  | Unbounded path -> Format.fprintf ppf "bivalence preserved past budget (%d steps)" (List.length path)
  | Not_bivalent -> Format.pp_print_string ppf "root not bivalent"
  | Inexact -> Format.pp_print_string ppf "graph incomplete; valences not exact"

let opposite = function
  | Valence.Zero_valent -> Valence.One_valent
  | Valence.One_valent -> Valence.Zero_valent
  | v -> v

(* Does the state of vertex v itself record decision [d]? *)
let decides_now g v d =
  List.exists
    (fun (_, value) -> Ioa.Value.to_int value = d)
    (Model.State.decided_pairs (Graph.state g v))

(* BFS from [src] over edges whose label differs from [avoid]; returns the
   first vertex satisfying [accept] together with the path to it. *)
let bfs_avoiding g ~src ~avoid ~accept =
  let n = Graph.size g in
  let visited = Array.make n false in
  let pred = Array.make n None in
  let queue = Queue.create () in
  visited.(src) <- true;
  Queue.add src queue;
  let result = ref None in
  while Option.is_none !result && not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    if accept u then result := Some u
    else
      List.iter
        (fun (e, v) ->
          let skip = match avoid with Some a -> Model.Task.equal e a | None -> false in
          if (not skip) && not visited.(v) then begin
            visited.(v) <- true;
            pred.(v) <- Some (u, e);
            Queue.add v queue
          end)
        (Graph.succs g u)
  done;
  match !result with
  | None -> None
  | Some dst ->
    let rec build v acc =
      match pred.(v) with None -> acc | Some (u, e) -> build u (e :: acc)
    in
    Some (dst, build dst [])

let verdict_int = function
  | Valence.Zero_valent -> 0
  | Valence.One_valent -> 1
  | Valence.Bivalent | Valence.Blank -> -1

(* Once the Fig. 3 construction terminates at a bivalent vertex [cur] with a
   task [e] such that e(x) is univalent for every descendant x reached
   without scheduling e: locate the hook by the Lemma 5 scan. *)
let locate_hook analysis ~cur ~e ~base_path =
  let g = Valence.graph analysis in
  let v0 =
    match Graph.successor g cur e with
    | None -> invalid_arg "Hook.locate_hook: e not applicable at cur"
    | Some a -> Valence.verdict analysis a
  in
  let opp = opposite v0 in
  let opp_int = verdict_int opp in
  (* A descendant in which some process decides the opposite value. The
     search may traverse e-labeled edges (the proof's second case). *)
  match bfs_avoiding g ~src:cur ~avoid:None ~accept:(fun v -> decides_now g v opp_int) with
  | None -> None
  | Some (_dst, tasks) ->
    (* σ_0 .. σ_m with σ_0 = cur; the scan stops at the first occurrence of e
       (the proof's second case). *)
    let sigmas, stopped_by_e =
      let rec go v = function
        | [] -> [ v, None ], false
        | t :: rest -> (
          match Graph.successor g v t with
          | None -> invalid_arg "Hook.locate_hook: path broke"
          | Some w ->
            if Model.Task.equal t e then [ v, Some t; w, None ], true
            else
              let tail, flag = go w rest in
              ((v, Some t) :: tail, flag))
      in
      go cur tasks
    in
    (* For each σ_j, the valence of e(σ_j). Before the first occurrence of e,
       e is applicable by Lemma 1. If the scan stopped because e occurred,
       the terminal vertex IS e(σ_k) and its own verdict is used. *)
    let valences =
      List.map
        (fun (v, label) ->
          match label, Graph.successor g v e with
          | Some _, Some a -> v, label, Valence.verdict analysis a
          | Some _, None ->
            invalid_arg "Hook.locate_hook: e not applicable along path (Lemma 1)"
          | None, _ when stopped_by_e -> v, None, Valence.verdict analysis v
          | None, Some a -> v, None, Valence.verdict analysis a
          | None, None ->
            invalid_arg "Hook.locate_hook: e not applicable at path end (Lemma 1)")
        sigmas
    in
    let rec scan = function
      | (v, Some label, vj) :: ((_, _, vj1) :: _ as rest) ->
        if
          (not (Model.Task.equal label e))
          && Valence.equal_verdict vj v0 && Valence.equal_verdict vj1 opp
        then begin
          let mid =
            match Graph.successor g v label with
            | Some m -> m
            | None -> assert false
          in
          let alpha0 = Option.get (Graph.successor g v e) in
          let alpha1 = Option.get (Graph.successor g mid e) in
          Some { base = v; e; e' = label; alpha0; mid; alpha1; v0; base_path }
        end
        else scan rest
      | _ -> None
    in
    scan valences

(* Bound on the constructed bivalent path before it is reported [Unbounded]. *)
let max_path = 10_000

let find analysis =
  let g = Valence.graph analysis in
  if not (Graph.complete g) then Inexact
  else if not (Valence.equal_verdict (Valence.verdict analysis (Graph.root g)) Valence.Bivalent)
  then Not_bivalent
  else begin
    let tasks = (Graph.system g).Model.System.tasks in
    let n_tasks = Array.length tasks in
    let rr = ref 0 in
    let cur = ref (Graph.root g) in
    let path = ref [] in
    (* rev path *)
    let result = ref None in
    (try
       while !result = None do
         if List.length !path > max_path then begin
           result := Some (Unbounded (List.rev !path));
           raise Exit
         end;
         (* Next applicable task in round-robin order. *)
         let e =
           let rec next k =
             if k >= n_tasks then raise Exit (* no applicable task: cannot happen *)
             else
               let cand = tasks.((!rr + k) mod n_tasks) in
               match Graph.successor g !cur cand with
               | Some _ -> cand, k
               | None -> next (k + 1)
           in
           let e, k = next 0 in
           rr := (!rr + k + 1) mod n_tasks;
           e
         in
         (* Seek a descendant x, reachable without e, with e(x) bivalent. *)
         match
           bfs_avoiding g ~src:!cur ~avoid:(Some e) ~accept:(fun x ->
             match Graph.successor g x e with
             | Some a -> Valence.equal_verdict (Valence.verdict analysis a) Valence.Bivalent
             | None -> false)
         with
         | Some (x, to_x) ->
           path := e :: List.rev_append to_x !path;
           cur := Option.get (Graph.successor g x e)
         | None -> (
           match locate_hook analysis ~cur:!cur ~e ~base_path:(List.rev !path) with
           | Some h -> result := Some (Hook h)
           | None ->
             (* cur is bivalent but no opposite-deciding descendant exists:
                impossible with exact valences. *)
             assert false)
       done
     with Exit -> ());
    match !result with Some r -> r | None -> assert false
  end

let find_brute analysis =
  let g = Valence.graph analysis in
  let n = Graph.size g in
  let univalent v =
    let vd = Valence.verdict analysis v in
    Valence.equal_verdict vd Valence.Zero_valent || Valence.equal_verdict vd Valence.One_valent
  in
  let rec scan_vertex v =
    if v >= n then None
    else
      let edges = Graph.succs g v in
      let found =
        List.find_map
          (fun (e, a0) ->
            if not (univalent a0) then None
            else
              let v0 = Valence.verdict analysis a0 in
              List.find_map
                (fun (e', mid) ->
                  if Model.Task.equal e e' then None
                  else
                    match Graph.successor g mid e with
                    | Some a1
                      when Valence.equal_verdict (Valence.verdict analysis a1) (opposite v0)
                      ->
                      Some (e, e', a0, mid, a1, v0)
                    | _ -> None)
                edges)
          edges
      in
      match found with
      | Some (e, e', alpha0, mid, alpha1, v0) ->
        let base_path =
          Option.value ~default:[] (Graph.path_between g ~src:(Graph.root g) ~dst:v)
        in
        Some { base = v; e; e'; alpha0; mid; alpha1; v0; base_path }
      | None -> scan_vertex (v + 1)
  in
  scan_vertex 0

let check analysis h =
  let g = Valence.graph analysis in
  let check_edge src e expected_dst what =
    match Graph.successor g src e with
    | Some d when d = expected_dst -> Ok ()
    | Some d -> Error (Printf.sprintf "%s: expected vertex %d, got %d" what expected_dst d)
    | None -> Error (Printf.sprintf "%s: task not applicable" what)
  in
  let ( let* ) = Result.bind in
  let* () = check_edge h.base h.e h.alpha0 "e(base)" in
  let* () = check_edge h.base h.e' h.mid "e'(base)" in
  let* () = check_edge h.mid h.e h.alpha1 "e(e'(base))" in
  let v0 = Valence.verdict analysis h.alpha0 in
  let v1 = Valence.verdict analysis h.alpha1 in
  if not (Valence.equal_verdict v0 h.v0) then Error "recorded v0 differs from analysis"
  else if not (Valence.equal_verdict v1 (opposite h.v0)) then
    Error "alpha1 does not have the opposite valence"
  else if
    not
      (Valence.equal_verdict v0 Valence.Zero_valent
      || Valence.equal_verdict v0 Valence.One_valent)
  then Error "alpha0 not univalent"
  else Ok ()
