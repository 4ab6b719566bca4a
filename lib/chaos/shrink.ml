type stats = { candidates : int; runs : int }

(* Give up a duplication before a drop, a drop before a delay, a delay
   before a crash, and weaken a partition last. *)
let shrink_priority = function
  | Schedule.Duplicate _ -> 0
  | Schedule.Drop _ -> 1
  | Schedule.Delay _ -> 2
  | Schedule.Crash _ -> 3
  | Schedule.Silence _ -> 4
  | Schedule.Partition _ -> 5

(* One round of improvement candidates, most aggressive first:
   1. drop a fault entirely (cheapest kinds first);
   2. downgrade the silencing adversary to the helpful one;
   3. drop a per-task override;
   4. weaken a fault in place: shorten a delay, heal a partition earlier,
      merge partition blocks into the residual block;
   5. pull a crash earlier (to 0, then halfway, then one step);
   6. clamp steps that reference points beyond the violating prefix
      ([exec_len]) back into it — a minimized schedule must not carry fault
      indices past the execution that witnesses it. *)
let candidates ~exec_len (s : Schedule.t) =
  let without i = List.filteri (fun j _ -> j <> i) s.Schedule.faults in
  let replace i f' =
    Schedule.
      { s with faults = List.mapi (fun j f -> if j = i then f' else f) s.Schedule.faults }
  in
  let drops =
    List.mapi (fun i f -> shrink_priority f, Schedule.{ s with faults = without i }) s.Schedule.faults
    |> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.map snd
  in
  let helpful =
    match s.Schedule.default_pref with
    | Model.System.Prefer_dummy ->
      [ Schedule.{ s with default_pref = Model.System.Prefer_real } ]
    | Model.System.Prefer_real -> []
  in
  let override_drops =
    List.mapi
      (fun i _ ->
        Schedule.
          { s with overrides = List.filteri (fun j _ -> j <> i) s.Schedule.overrides })
      s.Schedule.overrides
  in
  let weaken =
    List.concat
      (List.mapi
         (fun i fault ->
           match fault with
           | Schedule.Delay { step; service; endpoint; lag } when lag > 1 ->
             List.filter_map
               (fun lag' ->
                 if lag' >= 1 && lag' < lag then
                   Some (replace i (Schedule.delay ~step ~service ~endpoint ~lag:lag'))
                 else None)
               (List.sort_uniq Int.compare [ 1; lag / 2 ])
           | Schedule.Partition { step; blocks; heal_at } ->
             let heal_earlier =
               List.filter_map
                 (fun h ->
                   if h > step && h < heal_at then
                     Some (replace i (Schedule.partition ~step ~blocks ~heal_at:h))
                   else None)
                 (List.sort_uniq Int.compare [ step + 1; (step + heal_at) / 2 ])
             in
             let merge_blocks =
               (* Releasing a block into the implicit residual block merges
                  it with the unlisted processes — a strictly weaker split. *)
               if List.length blocks > 1 then
                 List.mapi
                   (fun k _ ->
                     replace i
                       (Schedule.partition ~step
                          ~blocks:(List.filteri (fun j _ -> j <> k) blocks)
                          ~heal_at))
                   blocks
               else []
             in
             heal_earlier @ merge_blocks
           | _ -> [])
         s.Schedule.faults)
  in
  let earlier =
    List.concat
      (List.mapi
         (fun i fault ->
           match fault with
           | Schedule.Crash { step; pid } when step > 0 ->
             List.filter_map
               (fun step' ->
                 if step' < step then Some (replace i (Schedule.crash ~step:step' ~pid))
                 else None)
               (List.sort_uniq Int.compare [ 0; step / 2; step - 1 ])
           | _ -> [])
         s.Schedule.faults)
  in
  let clamps =
    List.concat
      (List.mapi
         (fun i fault ->
           match fault with
           | Schedule.Partition { step; blocks; heal_at }
             when heal_at > exec_len + 1 && exec_len + 1 > step ->
             [ replace i (Schedule.partition ~step ~blocks ~heal_at:(exec_len + 1)) ]
           | Schedule.Partition _ -> []
           | _ ->
             if Schedule.step fault > exec_len then
               [ replace i (Schedule.with_step exec_len fault) ]
             else [])
         s.Schedule.faults)
  in
  drops @ helpful @ override_drops @ weaken @ earlier @ clamps

let shrink ?monitors ?max_steps ?interleave ?inputs sys (v : Explore.violation) =
  let tried = ref 0 and runs = ref 0 in
  (* Does [schedule] still violate the same monitor as [v]? *)
  let reproduces (v : Explore.violation) schedule =
    incr runs;
    let r = Runner.run ?monitors ?max_steps ?interleave ?inputs ~schedule sys in
    match Explore.violation_of ~degrade:(v.degraded_to <> None) sys schedule r with
    | Some v' when String.equal v'.Explore.monitor v.monitor -> Some v'
    | _ -> None
  in
  let rec fixpoint (v : Explore.violation) =
    let rec first = function
      | [] -> None
      | c :: rest ->
        incr tried;
        (* Re-normalize so fault delivery order stays canonical. *)
        let c =
          Schedule.make ~default_pref:c.Schedule.default_pref ~overrides:c.Schedule.overrides
            c.Schedule.faults
        in
        if Schedule.equal c v.Explore.schedule then first rest
          (* Mutations can produce schedules the compiler would reject
             (e.g. a clamp inverting a partition's span): re-validate before
             running, skip on failure. *)
        else if Result.is_error (Schedule.validate sys c) then first rest
        else (
          match reproduces v c with
          | Some v' -> Some v'
          | None -> first rest)
    in
    match first (candidates ~exec_len:v.Explore.steps v.Explore.schedule) with
    | Some v' -> fixpoint v'
    | None -> v
  in
  let v = fixpoint v in
  v, { candidates = !tried; runs = !runs }
