open Ioa

type svc = {
  value : Value.t;
  inv_bufs : Value.t list array;
  resp_bufs : Value.t list array;
  svc_hash : int;
}

type t = {
  procs : Value.t array;
  svcs : svc array;
  failed : Spec.Iset.t;
  decisions : Value.t option array;
  inputs : Value.t option array;
  hash : int;
}

(* --- Hashing ---

   A hash is a wrapping sum of one mixed part per component, so replacing a
   component subtracts its old part and adds its new one. A part mixes the
   component's own hash with a salt naming its kind and position, so equal
   values at different positions (a process and a decision, or an
   invocation buffer and the response buffer beside it) cannot cancel or
   alias. A service's hash is itself such a sum over its value and its
   buffers; each buffer folds its elements from a sentinel seed. *)

(* A 63-bit finalizer in the style of MurmurHash3's fmix64: every input bit
   reaches the low bits, which [Hashtbl] uses. *)
let mix x =
  let x = (x lxor (x lsr 33)) * 0x3c79ac492ba7b653 in
  let x = (x lxor (x lsr 29)) * 0x1c69b3f74ac4ae35 in
  x lxor (x lsr 32)

let salt tag i = ((tag lsl 24) + i) * 0x9e3779b97f4a7c1
let part tag i h = mix (salt tag i lxor h)

(* Component kinds, the [tag] of [salt]. *)
let t_proc = 1
let t_svc = 2
let t_decision = 3
let t_input = 4
let t_failed = 5
let t_value = 6
let t_inv = 7
let t_resp = 8

let fold_step h v = (h lxor Value.hash v) * 0x100000001b3
let buf_seed = 0x5eed
let buf_hash q = List.fold_left fold_step buf_seed q
let opt_hash = function None -> 0x17 | Some v -> Value.hash v + 1
let failed_hash failed =
  Spec.Iset.fold (fun i h -> (h lxor (i + 1)) * 0x100000001b3) failed 0xfa1

let make_svc ~value ~inv_bufs ~resp_bufs =
  let h = ref (part t_value 0 (Value.hash value)) in
  for pos = 0 to Array.length inv_bufs - 1 do
    h := !h + part t_inv pos (buf_hash inv_bufs.(pos))
  done;
  for pos = 0 to Array.length resp_bufs - 1 do
    h := !h + part t_resp pos (buf_hash resp_bufs.(pos))
  done;
  { value; inv_bufs; resp_bufs; svc_hash = !h }

let make ~procs ~svcs ~failed ~decisions ~inputs =
  let h = ref (part t_failed 0 (failed_hash failed)) in
  for i = 0 to Array.length procs - 1 do
    h := !h + part t_proc i (Value.hash procs.(i))
  done;
  for i = 0 to Array.length svcs - 1 do
    h := !h + part t_svc i svcs.(i).svc_hash
  done;
  for i = 0 to Array.length decisions - 1 do
    h := !h + part t_decision i (opt_hash decisions.(i))
  done;
  for i = 0 to Array.length inputs - 1 do
    h := !h + part t_input i (opt_hash inputs.(i))
  done;
  { procs; svcs; failed; decisions; inputs; hash = !h }

let hash s = s.hash land max_int

(* --- Ordering --- *)

let compare_list cmp xs ys =
  let rec go xs ys =
    match xs, ys with
    | [], [] -> 0
    | [], _ :: _ -> -1
    | _ :: _, [] -> 1
    | x :: xs', y :: ys' ->
      let c = cmp x y in
      if c <> 0 then c else go xs' ys'
  in
  go xs ys

(* Physically equal components are skipped: they are structurally equal,
   and a successor shares every component its step did not touch. *)
let compare_array cmp a b =
  let c = Int.compare (Array.length a) (Array.length b) in
  if c <> 0 then c
  else
    let rec go i =
      if i >= Array.length a then 0
      else
        let c = if a.(i) == b.(i) then 0 else cmp a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

let compare_svc s1 s2 =
  if s1 == s2 then 0
  else
    let c = Value.compare s1.value s2.value in
    if c <> 0 then c
    else
      let c = compare_array (compare_list Value.compare) s1.inv_bufs s2.inv_bufs in
      if c <> 0 then c
      else compare_array (compare_list Value.compare) s1.resp_bufs s2.resp_bufs

let compare_opt cmp a b =
  match a, b with
  | None, None -> 0
  | None, Some _ -> -1
  | Some _, None -> 1
  | Some x, Some y -> cmp x y

let compare s1 s2 =
  let c = compare_array Value.compare s1.procs s2.procs in
  if c <> 0 then c
  else
    let c = compare_array compare_svc s1.svcs s2.svcs in
    if c <> 0 then c
    else
      let c = Spec.Iset.compare s1.failed s2.failed in
      if c <> 0 then c
      else
        let c = compare_array (compare_opt Value.compare) s1.decisions s2.decisions in
        if c <> 0 then c
        else compare_array (compare_opt Value.compare) s1.inputs s2.inputs

let equal s1 s2 = s1 == s2 || (s1.hash = s2.hash && compare s1 s2 = 0)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

module Cursor_tbl = Hashtbl.Make (struct
  type nonrec t = int * t

  let equal (c1, s1) (c2, s2) = c1 = c2 && equal s1 s2
  let hash (c, s) = hash s lxor (c * 31)
end)

let pp_buf ppf q =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") Value.pp)
    q

let pp ppf s =
  Format.fprintf ppf "@[<v 2>state:";
  Array.iteri (fun i v -> Format.fprintf ppf "@,P%d = %a" i Value.pp v) s.procs;
  Array.iteri
    (fun i svc ->
      Format.fprintf ppf "@,S#%d val=%a" i Value.pp svc.value;
      Array.iteri (fun p q -> if q <> [] then Format.fprintf ppf " inv[%d]=%a" p pp_buf q) svc.inv_bufs;
      Array.iteri (fun p q -> if q <> [] then Format.fprintf ppf " resp[%d]=%a" p pp_buf q) svc.resp_bufs)
    s.svcs;
  Format.fprintf ppf "@,failed=%a" Spec.Iset.pp s.failed;
  Array.iteri
    (fun i d -> match d with Some v -> Format.fprintf ppf "@,decided[%d]=%a" i Value.pp v | None -> ())
    s.decisions;
  Format.fprintf ppf "@]"

(* --- Updates: each swaps one component's part of the cached hash ---

   Replacing a component by itself (a process step that returns its own
   state, a read that keeps the service value, a coalesced response)
   returns the state unchanged. *)

let with_proc s i v =
  let old = s.procs.(i) in
  if v == old then s
  else
    let procs = Array.copy s.procs in
    procs.(i) <- v;
    let hash = s.hash - part t_proc i (Value.hash old) + part t_proc i (Value.hash v) in
    { s with procs; hash }

let with_svc s idx svc =
  let old = s.svcs.(idx) in
  if svc == old then s
  else
    let svcs = Array.copy s.svcs in
    svcs.(idx) <- svc;
    let hash = s.hash - part t_svc idx old.svc_hash + part t_svc idx svc.svc_hash in
    { s with svcs; hash }

let with_opt tag a i v h =
  let a' = Array.copy a in
  a'.(i) <- Some v;
  a', h - part tag i (opt_hash a.(i)) + part tag i (opt_hash a'.(i))

let with_decision s i v =
  let decisions, hash = with_opt t_decision s.decisions i v s.hash in
  { s with decisions; hash }

let with_input s i v =
  let inputs, hash = with_opt t_input s.inputs i v s.hash in
  { s with inputs; hash }

let with_failed s failed =
  let hash =
    s.hash - part t_failed 0 (failed_hash s.failed) + part t_failed 0 (failed_hash failed)
  in
  { s with failed; hash }

let svc_with_value svc value =
  if value == svc.value then svc
  else
    let old_part = part t_value 0 (Value.hash svc.value) in
    let svc_hash = svc.svc_hash - old_part + part t_value 0 (Value.hash value) in
    { svc with value; svc_hash }

(* Replace one buffer; [old_h]/[new_h] are the two buffers' folds. *)
let with_inv svc pos q ~old_h ~new_h =
  let inv_bufs = Array.copy svc.inv_bufs in
  inv_bufs.(pos) <- q;
  let svc_hash = svc.svc_hash - part t_inv pos old_h + part t_inv pos new_h in
  { svc with inv_bufs; svc_hash }

let with_resp svc pos q ~old_h ~new_h =
  let resp_bufs = Array.copy svc.resp_bufs in
  resp_bufs.(pos) <- q;
  let svc_hash = svc.svc_hash - part t_resp pos old_h + part t_resp pos new_h in
  { svc with resp_bufs; svc_hash }

let svc_push_inv svc ~pos a =
  let q = svc.inv_bufs.(pos) in
  let old_h = buf_hash q in
  with_inv svc pos (q @ [ a ]) ~old_h ~new_h:(fold_step old_h a)

let svc_pop_inv svc ~pos =
  match svc.inv_bufs.(pos) with
  | [] -> None
  | a :: rest as q ->
    Some (a, with_inv svc pos rest ~old_h:(buf_hash q) ~new_h:(buf_hash rest))

let rec last = function [] -> None | [ x ] -> Some x | _ :: rest -> last rest

let svc_push_resp ?(coalesce = false) svc ~pos b =
  let q = svc.resp_bufs.(pos) in
  if coalesce && (match last q with Some b' -> Value.equal b b' | None -> false) then svc
  else
    let old_h = buf_hash q in
    with_resp svc pos (q @ [ b ]) ~old_h ~new_h:(fold_step old_h b)

let svc_pop_resp svc ~pos =
  match svc.resp_bufs.(pos) with
  | [] -> None
  | b :: rest as q ->
    Some (b, with_resp svc pos rest ~old_h:(buf_hash q) ~new_h:(buf_hash rest))

let svc_drop_resp svc ~pos =
  match svc.resp_bufs.(pos) with
  | [] -> None
  | _ :: rest as q ->
    Some (with_resp svc pos rest ~old_h:(buf_hash q) ~new_h:(buf_hash rest))

let svc_dup_resp svc ~pos =
  match svc.resp_bufs.(pos) with
  | [] -> None
  | b :: _ as q ->
    let old_h = buf_hash q in
    Some (with_resp svc pos (q @ [ b ]) ~old_h ~new_h:(fold_step old_h b))

let svc_delay_resp svc ~pos ~lag =
  match svc.resp_bufs.(pos) with
  | [] | [ _ ] -> None
  | b :: rest as q ->
    let lag = min lag (List.length rest) in
    if lag <= 0 then None
    else begin
      let rec insert n q = if n = 0 then b :: q else match q with [] -> [ b ] | x :: q' -> x :: insert (n - 1) q' in
      let q' = insert lag rest in
      Some (with_resp svc pos q' ~old_h:(buf_hash q) ~new_h:(buf_hash q'))
    end

let decided_pairs s =
  Array.to_list s.decisions
  |> List.mapi (fun i d -> Option.map (fun v -> i, v) d)
  |> List.filter_map Fun.id

let decided_values s =
  decided_pairs s |> List.map snd |> List.sort_uniq Value.compare
