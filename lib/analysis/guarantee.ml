module System = Model.System
module Service = Model.Service

(* ---- static vector assignment ------------------------------------------- *)

let termination_of (c : Service.t) =
  if Service.is_wait_free c then Gvector.Term_wait_free
  else Gvector.Term_crashes c.Service.resilience

let of_service (c : Service.t) : Gvector.t =
  let gname = c.Service.gtype.Spec.General_type.name in
  let base =
    match c.Service.cls with
    | Service.Register ->
      {
        Gvector.top with
        Gvector.order = Gvector.Ord_per_object;
        visibility = Gvector.Vis_oblivious;
        recency = Gvector.Rec_fresh;
        idem = Gvector.Dup_safe;
      }
    | Service.Atomic ->
      (* A single linearizable object: totally ordered, but replaying a
         consuming response (dequeue, test&set) changes its meaning. *)
      {
        Gvector.top with
        Gvector.order = Gvector.Ord_total;
        visibility = Gvector.Vis_oblivious;
        recency = Gvector.Rec_fresh;
        idem = Gvector.Dup_unsafe;
      }
    | Service.Oblivious ->
      let order =
        if String.equal gname "totally-ordered-broadcast" then Gvector.Ord_total
        else Gvector.Ord_none
      in
      {
        Gvector.top with
        Gvector.order;
        visibility = Gvector.Vis_oblivious;
        recency = Gvector.Rec_eventual;
        idem = Gvector.Dup_unsafe;
      }
    | Service.General ->
      let visibility, recency =
        if String.equal gname "eventually-perfect-fd" then
          Gvector.Vis_eventual, Gvector.Rec_eventual
        else Gvector.Vis_failures, Gvector.Rec_fresh
      in
      {
        Gvector.top with
        Gvector.order = Gvector.Ord_none;
        visibility;
        recency;
        idem = Gvector.Dup_safe;
      }
  in
  { base with Gvector.termination = termination_of c }

(* ---- composition -------------------------------------------------------- *)

(* Union-find over process ids; each service merges every pair of its
   endpoints that [linked] admits. The number of remaining components among
   0..n-1 is the composed scope: > 1 means no service spans the islands, so
   no cross-island coordination has a carrier (Theorem 2's situation in the
   k-set construction, §4). *)
let islands ?(linked = fun _ _ -> true) (sys : System.t) =
  let n = System.n_processes sys in
  if n = 0 then 0
  else begin
    let parent = Array.init n Fun.id in
    let rec find i = if parent.(i) = i then i else find parent.(i) in
    let union i j =
      let ri = find i and rj = find j in
      if ri <> rj then parent.(ri) <- rj
    in
    Array.iter
      (fun (c : Service.t) ->
        let eps = c.Service.endpoints in
        Array.iter
          (fun i ->
            Array.iter (fun j -> if i < j && j < n && linked i j then union i j) eps)
          eps)
      sys.System.services;
    List.init n find |> List.sort_uniq Int.compare |> List.length
  end

(* The order component only constrains services that retain a sequential
   spec (the ones linearizability is checked against); a broadcast or
   detector without an object interface does not weaken the store's
   ordering. Vacuously total when no service carries a spec. *)
let seq_order (sys : System.t) =
  let rank = function
    | Gvector.Ord_none -> 0
    | Gvector.Ord_per_object -> 1
    | Gvector.Ord_total -> 2
  in
  Array.fold_left
    (fun acc (c : Service.t) ->
      match c.Service.seq with
      | None -> acc
      | Some _ ->
        let v = of_service c in
        if rank v.Gvector.order < rank acc then v.Gvector.order else acc)
    Gvector.Ord_total sys.System.services

let compose (sys : System.t) : Gvector.t =
  let v =
    Array.fold_left
      (fun acc c -> Gvector.meet acc (of_service c))
      Gvector.top sys.System.services
  in
  { v with Gvector.scope = islands sys; order = seq_order sys }

(* ---- registered claims and the gap pass --------------------------------- *)

type resilience = Crashes of int | Wait_free

type claim = {
  agreement : int option;
  termination : resilience option;
  linearizable : bool;
  scales : bool;
}

let no_claim = { agreement = None; termination = None; linearizable = false; scales = false }

type gap = { component : string; theorem : string; claimed : string; supported : string }

let resilience_to_string = function
  | Crashes f -> Printf.sprintf "termination under %d crash(es)" f
  | Wait_free -> "wait-free termination"

let term_of_resilience = function
  | Crashes f -> Gvector.Term_crashes f
  | Wait_free -> Gvector.Term_wait_free

let gaps ~claim (sys : System.t) : gap list =
  let v = compose sys in
  let gs = ref [] in
  let add g = gs := g :: !gs in
  (match claim.agreement with
  | Some k when v.Gvector.scope > k ->
    add
      {
        component = "scope";
        theorem = "Thm 2: no service spans the islands, so cross-island agreement has no carrier";
        claimed = Printf.sprintf "%d-agreement" k;
        supported = Gvector.scope_to_string v.Gvector.scope;
      }
  | _ -> ());
  (match claim.termination with
  | Some r when not (Gvector.term_leq (term_of_resilience r) v.Gvector.termination) ->
    add
      {
        component = "termination";
        theorem =
          "Thm 9: the meet is pinned by the weakest service — boosting cannot raise it";
        claimed = resilience_to_string r;
        supported =
          Printf.sprintf "termination %s"
            (Gvector.termination_to_string v.Gvector.termination);
      }
  | _ -> ());
  if claim.linearizable && v.Gvector.order = Gvector.Ord_none then
    add
      {
        component = "order";
        theorem = "no service carries an ordered sequential interface";
        claimed = "linearizability";
        supported = Printf.sprintf "order %s" (Gvector.order_to_string v.Gvector.order);
      };
  List.rev !gs

(* A claim marked [scales] quantifies over all n; checking it at a probe
   size asks whether the typing still certifies the boost there. Thm 10's
   hypothesis: boosting carried by failure information needs a general
   service connected to every process. §6.3's 2-process construction
   satisfies it (the pairwise detector spans both processes); the same
   protocol at n ≥ 3 does not. *)
let scaling_gaps ~claim (probe : System.t) : gap list =
  match claim.termination with
  | None | Some (Crashes 0) -> []
  | Some r ->
    let n = System.n_processes probe in
    let t = match r with Wait_free -> n - 1 | Crashes t -> t in
    if t <= 0 then []
    else
      let oblivious_coordinator (c : Service.t) =
        (match c.Service.cls with
        | Service.Atomic | Service.Oblivious -> true
        | Service.Register | Service.General -> false)
        && Service.connected_to_all c ~n
        && (Service.is_wait_free c || c.Service.resilience >= t)
      in
      let visible_coordinator (c : Service.t) =
        (of_service c).Gvector.visibility = Gvector.Vis_failures
        && Service.connected_to_all c ~n
      in
      if
        Array.exists oblivious_coordinator probe.System.services
        || Array.exists visible_coordinator probe.System.services
      then []
      else
        [
          {
            component = "visibility";
            theorem =
              Printf.sprintf
                "Thm 10: at n=%d no failure-aware service is connected to every process, \
                 so the claimed boost has no certified carrier (§6.3 warrants it only \
                 where the detector spans all processes)"
                n;
            claimed = resilience_to_string r ^ " at every n";
            supported = "visibility carried by pairwise detectors only";
          };
        ]
