module System = Model.System
module Service = Model.Service
module Task = Model.Task
module Process = Model.Process

type component =
  | Pstate of int
  | Decision of int
  | Crash_bit of int
  | Svc_value of int
  | Svc_inv of int * int
  | Svc_resp of int * int
  | Net_topology

module Cset = Set.Make (struct
  type t = component

  let compare = Stdlib.compare
end)

type t = { reads : Cset.t; writes : Cset.t }

(* --- what a process task may do ---

   The refined path reuses the Reach/Transfer machinery: the solved abstract
   states bound every program state process i can ever be in (any context,
   any crash pattern within the analysis bound), and probing the very same
   [Process.step] the transfer functions call yields the exact set of
   services it may invoke and whether it may decide. Anything imprecise
   (a Top value set, a probe raising — Transfer reports those as incidents)
   falls back to the structural answer: every connected service, may
   decide. *)

type proc_may = { invokes : int list; decides : bool }

let conservative_proc_may (sys : System.t) i =
  let invokes = ref [] in
  Array.iteri
    (fun svc (c : Service.t) ->
      if Option.is_some (Service.endpoint_pos c i) then invokes := svc :: !invokes)
    sys.System.services;
  { invokes = List.rev !invokes; decides = true }

let proc_may ?reach (sys : System.t) i =
  let conservative = conservative_proc_may sys i in
  match reach with
  | None -> conservative
  | Some (r : Reach.t) -> (
    let joined =
      Array.fold_left
        (fun acc (inf : Reach.info) ->
          match inf.Reach.astate with
          | Astate.Bot -> acc
          | Astate.St st -> Vset.join acc st.Astate.procs.(i))
        Vset.bot r.Reach.infos
    in
    match Vset.elements joined with
    | None -> conservative
    | Some vs -> (
      try
        let invokes = ref [] and decides = ref false in
        List.iter
          (fun v ->
            match sys.System.processes.(i).Process.step v with
            | Process.Invoke { service; _ } ->
              invokes := System.service_pos sys service :: !invokes
            | Process.Decide _ -> decides := true
            | Process.Internal _ -> ())
          vs;
        { invokes = List.sort_uniq Int.compare !invokes; decides = !decides }
      with _ -> conservative))

(* --- crash-bit read sets ---

   [max_crashes] bounds the total failures in the configurations the
   footprint describes; with it, reads the concrete semantics performs but
   whose outcome provably cannot vary are dropped:

   - the silencing threshold [|failed ∩ J| > f] can only trip when more
     than f crashes are possible, so at most f crashes leave only the
     task's own membership bit observable;
   - a non-General service's δ ignores the failed set by construction
     ({!Spec.General_type.of_oblivious} / [of_sequential] drop it);
   - a compute task's all-endpoints-failed dummy guard needs |J| crashes. *)

let endpoint_bits (c : Service.t) =
  Array.to_list (Array.map (fun j -> Crash_bit j) c.Service.endpoints)

let io_crash_reads ~max_crashes (c : Service.t) i =
  if max_crashes > c.Service.resilience then Crash_bit i :: endpoint_bits c
  else [ Crash_bit i ]

let perform_crash_reads ~max_crashes (c : Service.t) i =
  if c.Service.cls = Service.General then Crash_bit i :: endpoint_bits c
  else io_crash_reads ~max_crashes c i

let compute_crash_reads ~max_crashes (c : Service.t) =
  if
    c.Service.cls = Service.General
    || max_crashes > c.Service.resilience
    || max_crashes >= Array.length c.Service.endpoints
  then endpoint_bits c
  else []

let of_task ?reach ~max_crashes (sys : System.t) (tk : Task.t) =
  match tk with
  | Task.Proc i ->
    let may = proc_may ?reach sys i in
    let base = [ Pstate i; Crash_bit i ] in
    let reads = Cset.of_list (if may.decides then Decision i :: base else base) in
    let writes =
      Cset.of_list
        ((Pstate i :: (if may.decides then [ Decision i ] else []))
        @ List.map (fun svc -> Svc_inv (svc, i)) may.invokes)
    in
    { reads; writes }
  | Task.Svc_perform { svc; endpoint = i } ->
    let c = sys.System.services.(svc) in
    let resp_all = Array.to_list (Array.map (fun j -> Svc_resp (svc, j)) c.Service.endpoints) in
    let touched = Svc_inv (svc, i) :: Svc_value svc :: resp_all in
    {
      reads = Cset.of_list (touched @ perform_crash_reads ~max_crashes c i);
      writes = Cset.of_list touched;
    }
  | Task.Svc_output { svc; endpoint = i } ->
    let c = sys.System.services.(svc) in
    let touched = [ Svc_resp (svc, i); Pstate i ] in
    {
      (* An output turn consults the cross-block delivery state: an active
         partition can hold the buffered response back (the chaos scheduler's
         [blocked] gate), so the turn's outcome may observe the topology. *)
      reads = Cset.of_list ((Net_topology :: touched) @ io_crash_reads ~max_crashes c i);
      writes = Cset.of_list touched;
    }
  | Task.Svc_compute { svc; glob = _ } ->
    let c = sys.System.services.(svc) in
    let resp_all = Array.to_list (Array.map (fun j -> Svc_resp (svc, j)) c.Service.endpoints) in
    let touched = Svc_value svc :: resp_all in
    {
      reads = Cset.of_list (touched @ compute_crash_reads ~max_crashes c);
      writes = Cset.of_list touched;
    }

let of_system ?reach ?max_crashes (sys : System.t) =
  let max_crashes =
    match max_crashes with Some k -> max 0 k | None -> Array.length sys.System.processes
  in
  Array.map (of_task ?reach ~max_crashes sys) sys.System.tasks

(* --- interference between two tasks ---

   One task's writes overlap the other's reads or writes. A crash bit is
   never written, so the fault bound never moves a clash. *)

let clash_witness f1 f2 =
  let w12 = Cset.inter f1.writes (Cset.union f2.reads f2.writes) in
  let w21 = Cset.inter f2.writes f1.reads in
  Cset.min_elt_opt (Cset.union w12 w21)

let independent f1 f2 = Option.is_none (clash_witness f1 f2)

(* Static participants: the union of {!System.participants} over every
   action the task can take in any configuration. A process task's next
   action is an internal step, a decide, or an invocation of a may-invoked
   service; service tasks act for their service (outputs additionally
   deliver to their endpoint process). *)
let static_participants tk fp =
  match tk with
  | Task.Proc i ->
    System.P i
    :: Cset.fold
         (fun c acc -> match c with Svc_inv (svc, _) -> System.S svc :: acc | _ -> acc)
         fp.writes []
  | Task.Svc_perform { svc; _ } | Task.Svc_compute { svc; _ } -> [ System.S svc ]
  | Task.Svc_output { svc; endpoint } -> [ System.S svc; System.P endpoint ]

type race = { e : Task.t; e' : Task.t; component : component }

let races (sys : System.t) fps =
  (* A shared written component between tasks that can never share a
     participant: no hook discipline (paper Lemma 8 / Claim 2) covers the
     conflict. Structurally impossible for well-wired systems — every
     buffer/value write is owned by a service the writer participates in —
     so any hit marks an interface breach. *)
  let ts = sys.System.tasks and acc = ref [] in
  for i = 0 to Array.length ts - 1 do
    for j = i + 1 to Array.length ts - 1 do
      Option.iter
        (fun component ->
          let ps' = static_participants ts.(j) fps.(j) in
          if not (List.exists (fun p -> List.mem p ps') (static_participants ts.(i) fps.(i)))
          then acc := { e = ts.(i); e' = ts.(j); component } :: !acc)
        (clash_witness fps.(i) fps.(j))
    done
  done;
  List.rev !acc

let pp_component ppf = function
  | Pstate i -> Format.fprintf ppf "proc[%d]" i
  | Decision i -> Format.fprintf ppf "decision[%d]" i
  | Crash_bit i -> Format.fprintf ppf "crash[%d]" i
  | Svc_value k -> Format.fprintf ppf "svc[%d].value" k
  | Svc_inv (k, i) -> Format.fprintf ppf "svc[%d].inv[%d]" k i
  | Svc_resp (k, i) -> Format.fprintf ppf "svc[%d].resp[%d]" k i
  | Net_topology -> Format.fprintf ppf "net.topology"

let pp_cset ppf s =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ") pp_component)
    (Cset.elements s)

let pp ppf { reads; writes } =
  Format.fprintf ppf "@[reads %a@ writes %a@]" pp_cset reads pp_cset writes

let pp_summary (sys : System.t) ~max_crashes ppf fps =
  let n = Array.length fps and indep = ref 0 in
  Array.iteri
    (fun i f -> Array.iteri (fun j g -> if i < j && independent f g then incr indep) fps)
    fps;
  Format.fprintf ppf "@[<v>task footprints (≤%d crash(es)):@," max_crashes;
  Array.iteri
    (fun i tk -> Format.fprintf ppf "  %a: %a@," Task.pp tk pp fps.(i))
    sys.System.tasks;
  Format.fprintf ppf "%d of %d task pair(s) statically independent@]" !indep (n * (n - 1) / 2)
