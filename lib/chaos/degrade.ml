module Event = Model.Event
module Exec = Model.Exec
module Service = Model.Service
module System = Model.System
module Gvector = Analysis.Gvector

(* ---- adversary damage, folded from the execution ------------------------ *)

type t = {
  crashed : Spec.Iset.t;
  dropped : (string * int) list;
  mutated : string list;
  active : int list list list;
  was_partitioned : bool;
}

let empty =
  { crashed = Spec.Iset.empty; dropped = []; mutated = []; active = []; was_partitioned = false }

let absorb d = function
  | Event.Fail i -> { d with crashed = Spec.Iset.add i d.crashed }
  | Event.Net { service; endpoint; kind } ->
    let mutated =
      if List.mem service d.mutated then d.mutated else service :: d.mutated
    in
    let dropped =
      match kind with
      | Event.Drop -> (service, endpoint) :: d.dropped
      | Event.Duplicate | Event.Delay _ -> d.dropped
    in
    { d with mutated; dropped }
  | Event.Partition blocks ->
    { d with active = d.active @ [ blocks ]; was_partitioned = true }
  | Event.Heal blocks ->
    let rec remove = function
      | [] -> []
      | b :: bs -> if b = blocks then bs else b :: remove bs
    in
    { d with active = remove d.active }
  | _ -> d

(* Crash-recovery: the inverse of a crash. No adversary event maps to it —
   rejoining is a protocol-layer act (the workload engine's catch-up), not a
   model transition. *)
let uncrash d pid = { d with crashed = Spec.Iset.remove pid d.crashed }

(* Oldest-first, so each heal meets the partition it discharges.
   [List.fold_right] walks [rev_steps] from its tail on the stack instead of
   reversing it into a fresh list. [of_exec] runs at every serve shot's end
   and allocates only at adversary events; [fold], for the rarer per-step
   readers, pays a pair per step. *)
let of_exec exec =
  List.fold_right (fun s d -> absorb d s.Exec.event) exec.Exec.rev_steps empty

let fold f acc exec =
  snd
    (List.fold_right
       (fun s (d, acc) ->
         let d = absorb d s.Exec.event in
         d, f acc d s)
       exec.Exec.rev_steps (empty, acc))

(* ---- partition geometry -------------------------------------------------- *)

let separated d i j = List.exists (fun blocks -> Event.separates blocks i j) d.active

let partition_active d = d.active <> []

let drop_victims d = Spec.Iset.of_list (List.map snd d.dropped)
let dropped d ~service = List.exists (fun (s, _) -> String.equal s service) d.dropped
let mutated d ~service = List.mem service d.mutated

(* ---- the live vector ----------------------------------------------------- *)

let has_network_service (sys : System.t) pid =
  Array.exists
    (fun (c : Service.t) ->
      String.equal c.Service.gtype.Spec.General_type.name "network"
      && Service.endpoint_pos c pid <> None)
    sys.System.services

let service_live_vector d (c : Service.t) =
  let v = Analysis.Guarantee.of_service c in
  let v =
    (* Crashes beyond the resilience threshold may silence the service. *)
    let nc = Spec.Iset.cardinal (Service.failed_endpoints c d.crashed) in
    if nc = 0 then v
    else
      match v.Gvector.termination with
      | Gvector.Term_crashes f ->
        {
          v with
          Gvector.termination =
            (if nc > f then Gvector.Term_none else Gvector.Term_crashes (f - nc));
        }
      | Gvector.Term_wait_free | Gvector.Term_none -> v
  in
  let v =
    if dropped d ~service:c.Service.id then
      (* A stolen response is gone for good: the victim endpoint's liveness
         and the service's freshness are no longer promised. *)
      { v with Gvector.recency = Gvector.Rec_none; termination = Gvector.Term_none }
    else if mutated d ~service:c.Service.id then
      {
        v with
        Gvector.recency =
          Gvector.(if v.recency = Rec_none then Rec_none else Rec_eventual);
      }
    else v
  in
  let v =
    if
      partition_active d
      && Array.exists
           (fun i -> Array.exists (fun j -> separated d i j) c.Service.endpoints)
           c.Service.endpoints
    then
      (* Some pair of participants is cut: delivery across the cut waits for
         the heal (eventual, not lost — partitions hold packets, they do not
         steal them). *)
      {
        v with
        Gvector.recency =
          Gvector.(if v.recency = Rec_none then Rec_none else Rec_eventual);
      }
    else v
  in
  v

let live_vector (sys : System.t) d =
  let v =
    Array.fold_left
      (fun acc c -> Gvector.meet acc (service_live_vector d c))
      Gvector.top sys.System.services
  in
  {
    v with
    Gvector.scope =
      Analysis.Guarantee.islands ~linked:(fun i j -> not (separated d i j)) sys;
    order = (Analysis.Guarantee.compose sys).Gvector.order;
  }

let describe sys exec = Gvector.to_string (live_vector sys (of_exec exec))

(* ---- the vector trajectory ----------------------------------------------- *)

(* One entry per step at which the composed live vector changed: the static
   vector degrading under damage and recovering at heals. Oldest first;
   step indices are 1-based positions in the execution. *)
let trajectory (sys : System.t) exec =
  let baseline = Analysis.Guarantee.compose sys in
  let _, _, out =
    fold
      (fun (i, prev, out) d s ->
        match s.Exec.event with
        | Event.Fail _ | Event.Net _ | Event.Partition _ | Event.Heal _ ->
          let v = live_vector sys d in
          if Gvector.equal v prev then i + 1, prev, out
          else i + 1, v, (i, s.Exec.event, v) :: out
        | _ -> i + 1, prev, out)
      (1, baseline, []) exec
  in
  baseline, List.rev out
