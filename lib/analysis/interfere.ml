module System = Model.System
module Task = Model.Task

type t = {
  sys : System.t;
  fps : Footprint.t array;
  max_crashes : int;
}

let analyze ?reach ?max_crashes (sys : System.t) =
  let max_crashes =
    match max_crashes with
    | Some k -> max 0 k
    | None -> Array.length sys.System.processes
  in
  let fps = Array.map snd (Footprint.of_system ?reach ~max_crashes sys) in
  { sys; fps; max_crashes }

let footprint t tk =
  let rec go i =
    if i >= Array.length t.sys.System.tasks then
      invalid_arg (Format.asprintf "Interfere.footprint: unknown task %a" Task.pp tk)
    else if Task.equal t.sys.System.tasks.(i) tk then t.fps.(i)
    else go (i + 1)
  in
  go 0

let clash_witness (f1 : Footprint.t) (f2 : Footprint.t) =
  let open Footprint in
  let w12 = Cset.inter f1.writes (Cset.union f2.reads f2.writes) in
  let w21 = Cset.inter f2.writes f1.reads in
  let w = Cset.union w12 w21 in
  if Cset.is_empty w then None else Some (Cset.min_elt w)

let clashes f1 f2 = Option.is_some (clash_witness f1 f2)

let interferes t e e' = Task.equal e e' || clashes (footprint t e) (footprint t e')

let independent t e e' = not (interferes t e e')

(* Static participants: the union of {!System.participants} over every
   action the task can take in any configuration. A process task's next
   action is an internal step, a decide, or an invocation of a may-invoked
   service; service tasks act for their service (outputs additionally
   deliver to their endpoint process). *)
let static_participants t tk =
  match tk with
  | Task.Proc i ->
    let fp = footprint t tk in
    System.P i
    :: Footprint.Cset.fold
         (fun c acc ->
           match c with Footprint.Svc_inv (svc, _) -> System.S svc :: acc | _ -> acc)
         fp.Footprint.writes []
  | Task.Svc_perform { svc; _ } | Task.Svc_compute { svc; _ } -> [ System.S svc ]
  | Task.Svc_output { svc; endpoint } -> [ System.S svc; System.P endpoint ]

let participant_equal a b =
  match a, b with
  | System.P i, System.P j | System.S i, System.S j -> i = j
  | System.P _, System.S _ | System.S _, System.P _ -> false

type race = { e : Task.t; e' : Task.t; component : Footprint.component }

let races t =
  (* A shared written component between tasks that can never share a
     participant: no hook discipline (paper Lemma 8 / Claim 2) covers the
     conflict. Structurally impossible for well-wired systems — every
     buffer/value write is owned by a service the writer participates in —
     so any hit marks an interface breach. *)
  let ts = t.sys.System.tasks in
  let acc = ref [] in
  for i = 0 to Array.length ts - 1 do
    for j = i + 1 to Array.length ts - 1 do
      match clash_witness t.fps.(i) t.fps.(j) with
      | Some component ->
        let ps = static_participants t ts.(i) and ps' = static_participants t ts.(j) in
        if not (List.exists (fun p -> List.exists (participant_equal p) ps') ps) then
          acc := { e = ts.(i); e' = ts.(j); component } :: !acc
      | None -> ()
    done
  done;
  List.rev !acc

let independent_pairs t =
  let ts = t.sys.System.tasks in
  let n = Array.length ts in
  let indep = ref 0 and total = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      incr total;
      if not (clashes t.fps.(i) t.fps.(j)) then incr indep
    done
  done;
  !indep, !total

let pp_summary ppf t =
  let indep, total = independent_pairs t in
  Format.fprintf ppf "@[<v>task footprints (≤%d crash(es)):@," t.max_crashes;
  Array.iteri
    (fun i tk -> Format.fprintf ppf "  %a: %a@," Task.pp tk Footprint.pp t.fps.(i))
    t.sys.System.tasks;
  Format.fprintf ppf "%d of %d task pair(s) statically independent@]" indep total
