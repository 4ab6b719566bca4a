module Value = Ioa.Value
module Iset = Spec.Iset
module System = Model.System

type info = {
  failed : Iset.t;
  astate : Astate.t;
  decides : (int * Value.t) list;
  decide_havoc : bool;
  real : bool array;
}

type t = {
  sys : System.t;
  max_faults : int;
  infos : info array;
  incidents : Transfer.incident list;
  stats : Fixpoint.stats;
}

module FP = Fixpoint.Make (Astate)
module IMap = Map.Make (Iset)

(* Every failed set of at most [extra] pids; the empty set first, then by
   size, then lexicographic — a deterministic unknown order. *)
let subsets ~n ~extra =
  let rec choose k lst =
    if k = 0 then [ [] ]
    else
      match lst with
      | [] -> []
      | x :: rest -> List.map (fun c -> x :: c) (choose (k - 1) rest) @ choose k rest
  in
  let pids = List.init n Fun.id in
  List.concat_map
    (fun k -> List.map Iset.of_list (choose k pids))
    (List.init (extra + 1) Fun.id)

(* Post-fixpoint fact pass: rerun each transfer once against the solution
   to harvest firing, decide and incident facts — one transfer sweep per
   unknown, after the fixpoint's many. *)
let harvest ~max_faults ~fsets ~values ~stats (sys : System.t) =
  let tasks = sys.System.tasks in
  let incidents = ref [] in
  let note inc =
    if
      not
        (List.exists
           (fun (i : Transfer.incident) ->
             String.equal i.Transfer.code inc.Transfer.code
             && String.equal i.Transfer.subject inc.Transfer.subject)
           !incidents)
    then incidents := inc :: !incidents
  in
  let infos =
    Array.mapi
      (fun u f ->
        let decides = ref [] in
        let decide_havoc = ref false in
        let real =
          Array.map
            (fun tk ->
              let o = Transfer.task sys ~failed:f values.(u) tk in
              List.iter note o.Transfer.incidents;
              decides := o.Transfer.decides @ !decides;
              if o.Transfer.decide_havoc then decide_havoc := true;
              o.Transfer.real)
            tasks
        in
        {
          failed = f;
          astate = values.(u);
          decides =
            List.sort_uniq
              (fun (i, v) (j, w) -> if i <> j then compare i j else Value.compare v w)
              !decides;
          decide_havoc = !decide_havoc;
          real;
        })
      fsets
  in
  { sys; max_faults; infos; incidents = List.rev !incidents; stats }

let default_inputs (sys : System.t) =
  List.init (Array.length sys.System.processes) (fun i -> Value.int (i mod 2))

let analyze ?(max_faults = 1) ?inputs (sys : System.t) =
  let inputs = match inputs with Some l -> l | None -> default_inputs sys in
  let seed_astate = Astate.of_state (System.initialize sys inputs) in
  let n = Array.length sys.System.processes in
  let fsets = Array.of_list (subsets ~n ~extra:max_faults) in
  let index = Array.to_seq fsets |> Seq.mapi (fun i f -> f, i) |> IMap.of_seq in
  let crash_preds =
    Array.map
      (fun f -> Iset.elements f |> List.map (fun i -> IMap.find (Iset.remove i f) index))
      fsets
  in
  let dependents =
    Array.mapi
      (fun u f ->
        let supers =
          if Iset.cardinal f >= max_faults then []
          else
            List.filter_map
              (fun i -> if Iset.mem i f then None else IMap.find_opt (Iset.add i f) index)
              (List.init n Fun.id)
        in
        u :: supers)
      fsets
  in
  let tasks = sys.System.tasks in
  let rhs ~get u =
    let contrib = if u = 0 then seed_astate else Astate.Bot in
    let contrib =
      List.fold_left (fun a p -> Astate.join a (get p)) contrib crash_preds.(u)
    in
    let here = get u in
    Array.fold_left
      (fun a tk -> Astate.join a (Transfer.task sys ~failed:fsets.(u) here tk).Transfer.post)
      contrib tasks
  in
  let values, stats =
    FP.solve ~n:(Array.length fsets) ~bot:Astate.Bot ~rhs
      ~dependents:(fun u -> dependents.(u))
  in
  harvest ~max_faults ~fsets ~values ~stats sys

let seed_info t = t.infos.(0)

let may_decided_values t =
  match (seed_info t).astate with
  | Astate.Bot -> Vset.bot
  | Astate.St st ->
    Array.fold_left (fun a (d : Astate.dopt) -> Vset.join a d.Astate.values) Vset.bot
      st.Astate.decisions

let proven_blank t =
  let s = seed_info t in
  s.decides = [] && not s.decide_havoc

let never_decides t =
  let s = seed_info t in
  if s.decide_havoc then []
  else
    List.filter
      (fun i -> not (List.exists (fun (j, _) -> j = i) s.decides))
      (List.init (Array.length t.sys.System.processes) Fun.id)

let dead_tasks t =
  let tasks = t.sys.System.tasks in
  List.filter_map
    (fun ti ->
      if Array.exists (fun inf -> inf.real.(ti)) t.infos then None else Some (ti, tasks.(ti)))
    (List.init (Array.length tasks) Fun.id)

let crash_interval t =
  Interval.hull (Array.to_list (Array.map (fun inf -> Iset.cardinal inf.failed) t.infos))
