module Value = Ioa.Value

type abuf = { items : Vset.t; len : Interval.t }
type asvc = { value : Vset.t; inv : abuf array; resp : abuf array }
type dopt = { may_none : bool; values : Vset.t }

type st = {
  procs : Vset.t array;
  svcs : asvc array;
  decisions : dopt array;
  inputs : dopt array;
}

type t = Bot | St of st

let bot = Bot

let buf_make ~items ~len =
  match Vset.elements items with
  | Some qs -> { items; len = Interval.hull (List.map (fun q -> List.length (Value.to_list q)) qs) }
  | None -> { items; len }

let buf_of_queue q = buf_make ~items:(Vset.singleton (Value.list q)) ~len:Interval.bot
let buf_top ~len = { items = Vset.top; len }

let dopt_none = { may_none = true; values = Vset.bot }
let dopt_of = function None -> dopt_none | Some v -> { may_none = false; values = Vset.singleton v }

let dopt_leq a b = (b.may_none || not a.may_none) && Vset.leq a.values b.values
let dopt_join a b = { may_none = a.may_none || b.may_none; values = Vset.join a.values b.values }

let dopt_widen a b =
  { may_none = a.may_none || b.may_none; values = Vset.widen a.values b.values }

let dopt_equal a b = a.may_none = b.may_none && Vset.equal a.values b.values

let buf_leq a b = Vset.leq a.items b.items && Interval.leq a.len b.len
let buf_join a b = buf_make ~items:(Vset.join a.items b.items) ~len:(Interval.join a.len b.len)
let buf_widen a b = buf_make ~items:(Vset.widen a.items b.items) ~len:(Interval.widen a.len b.len)
let buf_equal a b = Vset.equal a.items b.items && Interval.equal a.len b.len

let svc_leq a b =
  Vset.leq a.value b.value
  && Array.for_all2 buf_leq a.inv b.inv
  && Array.for_all2 buf_leq a.resp b.resp

let svc_merge fv fb a b =
  { value = fv a.value b.value; inv = Array.map2 fb a.inv b.inv; resp = Array.map2 fb a.resp b.resp }

let svc_equal a b =
  Vset.equal a.value b.value
  && Array.for_all2 buf_equal a.inv b.inv
  && Array.for_all2 buf_equal a.resp b.resp

let of_state (s : Model.State.t) =
  St
    {
      procs = Array.map Vset.singleton s.Model.State.procs;
      svcs =
        Array.map
          (fun (svc : Model.State.svc) ->
            {
              value = Vset.singleton svc.Model.State.value;
              inv = Array.map buf_of_queue svc.Model.State.inv_bufs;
              resp = Array.map buf_of_queue svc.Model.State.resp_bufs;
            })
          s.Model.State.svcs;
      decisions = Array.map dopt_of s.Model.State.decisions;
      inputs = Array.map dopt_of s.Model.State.inputs;
    }

let leq a b =
  match a, b with
  | Bot, _ -> true
  | _, Bot -> false
  | St a, St b ->
    Array.for_all2 Vset.leq a.procs b.procs
    && Array.for_all2 svc_leq a.svcs b.svcs
    && Array.for_all2 dopt_leq a.decisions b.decisions
    && Array.for_all2 dopt_leq a.inputs b.inputs

let merge fv fb fd a b =
  match a, b with
  | Bot, x | x, Bot -> x
  | St a, St b ->
    St
      {
        procs = Array.map2 fv a.procs b.procs;
        svcs = Array.map2 (svc_merge fv fb) a.svcs b.svcs;
        decisions = Array.map2 fd a.decisions b.decisions;
        inputs = Array.map2 fd a.inputs b.inputs;
      }

let join a b = merge Vset.join buf_join dopt_join a b
let widen a b = merge Vset.widen buf_widen dopt_widen a b

let equal a b =
  match a, b with
  | Bot, Bot -> true
  | St a, St b ->
    Array.for_all2 Vset.equal a.procs b.procs
    && Array.for_all2 svc_equal a.svcs b.svcs
    && Array.for_all2 dopt_equal a.decisions b.decisions
    && Array.for_all2 dopt_equal a.inputs b.inputs
  | _ -> false

let pp_dopt ppf d =
  Format.fprintf ppf "%s%a" (if d.may_none then "·|" else "") Vset.pp d.values

let pp_buf ppf b = Format.fprintf ppf "%a#%a" Vset.pp b.items Interval.pp b.len

let pp ppf = function
  | Bot -> Format.fprintf ppf "⊥"
  | St a ->
    Format.fprintf ppf "@[<v 2>astate:";
    Array.iteri (fun i v -> Format.fprintf ppf "@,P%d ∈ %a" i Vset.pp v) a.procs;
    Array.iteri
      (fun k svc ->
        Format.fprintf ppf "@,S#%d val ∈ %a" k Vset.pp svc.value;
        Array.iteri (fun p b -> Format.fprintf ppf "@,  inv[%d] %a" p pp_buf b) svc.inv;
        Array.iteri (fun p b -> Format.fprintf ppf "@,  resp[%d] %a" p pp_buf b) svc.resp)
      a.svcs;
    Array.iteri (fun i d -> Format.fprintf ppf "@,dec[%d] %a" i pp_dopt d) a.decisions;
    Format.fprintf ppf "@]"
