type cls = Register | Atomic | Oblivious | General

type t = {
  id : string;
  endpoints : int array;
  resilience : int;
  cls : cls;
  gtype : Spec.General_type.t;
  seq : Spec.Seq_type.t option;
  coalesce : bool;
}

let sorted_endpoints endpoints =
  let a = Array.of_list (List.sort_uniq Int.compare endpoints) in
  if Array.length a = 0 then invalid_arg "Service: empty endpoint set";
  a

let make ~id ~endpoints ~f ~cls ~coalesce ?seq gtype =
  if f < 0 then invalid_arg "Service: negative resilience";
  { id; endpoints = sorted_endpoints endpoints; resilience = f; cls; gtype; seq; coalesce }

let atomic ~id ~endpoints ~f seq =
  make ~id ~endpoints ~f ~cls:Atomic ~coalesce:false ~seq
    (Spec.General_type.of_sequential (Spec.Seq_type.determinize seq))

let register ~id ~endpoints seq =
  let f = List.length (List.sort_uniq Int.compare endpoints) - 1 in
  make ~id ~endpoints ~f ~cls:Register ~coalesce:false ~seq
    (Spec.General_type.of_sequential (Spec.Seq_type.determinize seq))

let oblivious ~id ~endpoints ~f u =
  make ~id ~endpoints ~f ~cls:Oblivious ~coalesce:false
    (Spec.General_type.of_oblivious (Spec.Service_type.determinize u))

let general ?(coalesce = false) ~id ~endpoints ~f g =
  make ~id ~endpoints ~f ~cls:General ~coalesce (Spec.General_type.determinize g)

let is_wait_free t = t.resilience >= Array.length t.endpoints - 1

let endpoint_pos t i =
  let rec go lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      if t.endpoints.(mid) = i then Some mid
      else if t.endpoints.(mid) < i then go (mid + 1) hi
      else go lo mid
  in
  go 0 (Array.length t.endpoints)

let failed_endpoints t failed =
  Array.to_list t.endpoints |> List.filter (fun i -> Spec.Iset.mem i failed) |> Spec.Iset.of_list

let connected_to_all t ~n =
  Array.length t.endpoints = n && Array.for_all (fun i -> i < n) t.endpoints
