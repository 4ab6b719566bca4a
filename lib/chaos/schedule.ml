type fault =
  | Crash of { step : int; pid : int }
  | Silence of { step : int; service : string }
  | Drop of { step : int; service : string; endpoint : int }
  | Duplicate of { step : int; service : string; endpoint : int }
  | Delay of { step : int; service : string; endpoint : int; lag : int }
  | Partition of { step : int; blocks : int list list; heal_at : int }

type kind = Crash_k | Silence_k | Drop_k | Dup_k | Delay_k | Partition_k

let all_kinds = [ Crash_k; Silence_k; Drop_k; Dup_k; Delay_k; Partition_k ]

let kind_of_fault = function
  | Crash _ -> Crash_k
  | Silence _ -> Silence_k
  | Drop _ -> Drop_k
  | Duplicate _ -> Dup_k
  | Delay _ -> Delay_k
  | Partition _ -> Partition_k

let kind_to_string = function
  | Crash_k -> "crash"
  | Silence_k -> "silence"
  | Drop_k -> "drop"
  | Dup_k -> "dup"
  | Delay_k -> "delay"
  | Partition_k -> "partition"

let pp_kind ppf k = Format.pp_print_string ppf (kind_to_string k)

let kind_of_string = function
  | "crash" -> Some Crash_k
  | "silence" -> Some Silence_k
  | "drop" -> Some Drop_k
  | "dup" | "duplicate" -> Some Dup_k
  | "delay" -> Some Delay_k
  | "partition" -> Some Partition_k
  | _ -> None

let parse_kinds s =
  String.split_on_char ',' s
  |> List.map String.trim
  |> List.filter (fun tok -> tok <> "")
  |> List.fold_left
       (fun acc tok ->
         Result.bind acc (fun ks ->
             match kind_of_string tok with
             | Some k -> Ok (if List.mem k ks then ks else ks @ [ k ])
             | None ->
               Error
                 (Printf.sprintf "unknown fault kind %S; accepted kinds: %s (e.g. --faults crash)"
                    tok
                    (String.concat ", " (List.map kind_to_string all_kinds)))))
       (Ok [])
  |> function
  | Ok [] ->
    Error
      (Printf.sprintf "empty fault-kind list; accepted kinds: %s (e.g. --faults crash)"
         (String.concat ", " (List.map kind_to_string all_kinds)))
  | r -> r

type t = {
  faults : fault list;
  default_pref : Model.System.pref;
  overrides : (Model.Task.t * Model.System.pref) list;
}

let crash ~step ~pid = Crash { step; pid }
let silence ~step ~service = Silence { step; service }
let drop ~step ~service ~endpoint = Drop { step; service; endpoint }
let duplicate ~step ~service ~endpoint = Duplicate { step; service; endpoint }
let delay ~step ~service ~endpoint ~lag = Delay { step; service; endpoint; lag }
let partition ~step ~blocks ~heal_at = Partition { step; blocks; heal_at }

let step = function
  | Crash { step; _ }
  | Silence { step; _ }
  | Drop { step; _ }
  | Duplicate { step; _ }
  | Delay { step; _ }
  | Partition { step; _ } -> step

let make ?(default_pref = Model.System.Prefer_dummy) ?(overrides = []) faults =
  let faults = List.stable_sort (fun a b -> Int.compare (step a) (step b)) faults in
  { faults; default_pref; overrides }

let empty = make []

(* Shrinking minimizes along this kind order: duplications are the cheapest
   faults to give up, partitions the dearest (ISSUE 5 — "drop a Duplicate
   before weakening a Partition"). *)
let kind_rank = function
  | Crash _ -> 0
  | Silence _ -> 1
  | Drop _ -> 2
  | Duplicate _ -> 3
  | Delay _ -> 4
  | Partition _ -> 5

let compare_blocks = List.compare (List.compare Int.compare)

let compare_fault a b =
  match a, b with
  | Crash a, Crash b ->
    let c = Int.compare a.step b.step in
    if c <> 0 then c else Int.compare a.pid b.pid
  | Silence a, Silence b ->
    let c = Int.compare a.step b.step in
    if c <> 0 then c else String.compare a.service b.service
  | Drop a, Drop b ->
    let c = Int.compare a.step b.step in
    if c <> 0 then c
    else
      let c = String.compare a.service b.service in
      if c <> 0 then c else Int.compare a.endpoint b.endpoint
  | Duplicate a, Duplicate b ->
    let c = Int.compare a.step b.step in
    if c <> 0 then c
    else
      let c = String.compare a.service b.service in
      if c <> 0 then c else Int.compare a.endpoint b.endpoint
  | Delay a, Delay b ->
    let c = Int.compare a.step b.step in
    if c <> 0 then c
    else
      let c = String.compare a.service b.service in
      if c <> 0 then c
      else
        let c = Int.compare a.endpoint b.endpoint in
        if c <> 0 then c else Int.compare a.lag b.lag
  | Partition a, Partition b ->
    let c = Int.compare a.step b.step in
    if c <> 0 then c
    else
      let c = Int.compare a.heal_at b.heal_at in
      if c <> 0 then c else compare_blocks a.blocks b.blocks
  | a, b -> Int.compare (kind_rank a) (kind_rank b)

let equal_fault a b = compare_fault a b = 0

let equal a b =
  List.equal equal_fault a.faults b.faults
  && a.default_pref = b.default_pref
  && List.equal
       (fun (t1, p1) (t2, p2) -> Model.Task.equal t1 t2 && p1 = p2)
       a.overrides b.overrides

let pref_rank = function Model.System.Prefer_dummy -> 0 | Model.System.Prefer_real -> 1

let compare a b =
  let c = List.compare compare_fault a.faults b.faults in
  if c <> 0 then c
  else
    let c = Int.compare (pref_rank a.default_pref) (pref_rank b.default_pref) in
    if c <> 0 then c
    else
      List.compare
        (fun (t1, p1) (t2, p2) ->
          let c = Model.Task.compare t1 t2 in
          if c <> 0 then c else Int.compare (pref_rank p1) (pref_rank p2))
        a.overrides b.overrides

let map_steps f t =
  let faults =
    List.map
      (function
        | Crash { step; pid } -> Crash { step = f step; pid }
        | Silence { step; service } -> Silence { step = f step; service }
        | Drop { step; service; endpoint } -> Drop { step = f step; service; endpoint }
        | Duplicate { step; service; endpoint } -> Duplicate { step = f step; service; endpoint }
        | Delay { step; service; endpoint; lag } -> Delay { step = f step; service; endpoint; lag }
        | Partition { step; blocks; heal_at } ->
          (* Rebase both edges; keep heal strictly after onset so the result
             still validates. *)
          let step' = f step in
          Partition { step = step'; blocks; heal_at = max (f heal_at) (step' + 1) })
      t.faults
  in
  make ~default_pref:t.default_pref ~overrides:t.overrides faults

let crashes t =
  List.filter_map (function Crash { step; pid } -> Some (step, pid) | _ -> None) t.faults

let n_crashes t = List.length (crashes t)
let crashed_pids t = List.sort_uniq Int.compare (List.map snd (crashes t))
let n_faults t = List.length t.faults

let net_faults t =
  List.filter
    (function Drop _ | Duplicate _ | Delay _ | Partition _ -> true | Crash _ | Silence _ -> false)
    t.faults

let is_crash_only t =
  List.for_all (function Crash _ -> true | _ -> false) t.faults

let pp_blocks = Model.Event.pp_blocks

let pp_fault ppf = function
  | Crash { step; pid } -> Format.fprintf ppf "crash@%d:%d" step pid
  | Silence { step; service } -> Format.fprintf ppf "silence@%d:%s" step service
  | Drop { step; service; endpoint } -> Format.fprintf ppf "drop@%d:%s:%d" step service endpoint
  | Duplicate { step; service; endpoint } ->
    Format.fprintf ppf "dup@%d:%s:%d" step service endpoint
  | Delay { step; service; endpoint; lag } ->
    Format.fprintf ppf "delay@%d:%s:%d:%d" step service endpoint lag
  | Partition { step; blocks; heal_at } ->
    Format.fprintf ppf "partition@%d:%a:%d" step pp_blocks blocks heal_at

let pp_pref ppf = function
  | Model.System.Prefer_real -> Format.pp_print_string ppf "helpful"
  | Model.System.Prefer_dummy -> Format.pp_print_string ppf "silencing"

let pp ppf t =
  Format.fprintf ppf "@[<h>%a adversary" pp_pref t.default_pref;
  if t.faults = [] then Format.fprintf ppf ", no faults"
  else
    Format.fprintf ppf ": %a"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ") pp_fault)
      t.faults;
  List.iter
    (fun (task, pref) ->
      Format.fprintf ppf ",@ %a->%a" Model.Task.pp task pp_pref pref)
    t.overrides;
  Format.fprintf ppf "@]"

let to_string t =
  let faults = List.map (Format.asprintf "%a" pp_fault) t.faults in
  let parts =
    match t.default_pref with
    | Model.System.Prefer_real -> "helpful" :: faults
    | Model.System.Prefer_dummy -> faults
  in
  String.concat "," parts

let parse s =
  let s =
    (* Witness files append '#'-prefixed annotation lines (the degradation
       trajectory) after the schedule; drop them so witnesses round-trip. *)
    String.split_on_char '\n' s
    |> List.filter (fun line ->
           let line = String.trim line in
           line = "" || line.[0] <> '#')
    |> String.concat ","
  in
  let tokens =
    String.split_on_char ',' s
    |> List.concat_map (String.split_on_char ' ')
    |> List.map String.trim
    |> List.filter (fun tok -> tok <> "")
  in
  let parse_int what str =
    (* Decimal digits only: [int_of_string] would also take "0x10" or "1_0",
       giving one schedule several spellings. *)
    match int_of_string_opt str with
    | Some n when String.for_all (fun c -> c >= '0' && c <= '9') str -> Ok n
    | _ -> Error (Printf.sprintf "bad %s %S" what str)
  in
  let parse_blocks str =
    (* pids joined by '.', blocks by '|': "0.1|2" *)
    String.split_on_char '|' str
    |> List.fold_left
         (fun acc blk ->
           Result.bind acc (fun blocks ->
               String.split_on_char '.' blk
               |> List.fold_left
                    (fun acc p ->
                      Result.bind acc (fun pids ->
                          Result.map (fun p -> p :: pids) (parse_int "pid" p)))
                    (Ok [])
               |> Result.map (fun pids -> List.rev pids :: blocks)))
         (Ok [])
    |> Result.map List.rev
  in
  let ( let* ) = Result.bind in
  let rec go acc pref = function
    | [] -> Ok (make ?default_pref:pref (List.rev acc))
    | "helpful" :: rest -> go acc (Some Model.System.Prefer_real) rest
    | "silencing" :: rest -> go acc (Some Model.System.Prefer_dummy) rest
    | tok :: rest -> (
      match String.index_opt tok '@' with
      | Some i ->
        let kind = String.sub tok 0 i in
        let body = String.sub tok (i + 1) (String.length tok - i - 1) in
        let parts = String.split_on_char ':' body in
        let* fault =
          match kind, parts with
          | "crash", [ step; pid ] ->
            let* step = parse_int "step" step in
            let* pid = parse_int "pid" pid in
            Ok (crash ~step ~pid)
          | "silence", [ step; service ] ->
            let* step = parse_int "step" step in
            Ok (silence ~step ~service)
          | "drop", [ step; service; ep ] ->
            let* step = parse_int "step" step in
            let* endpoint = parse_int "endpoint" ep in
            Ok (drop ~step ~service ~endpoint)
          | ("dup" | "duplicate"), [ step; service; ep ] ->
            let* step = parse_int "step" step in
            let* endpoint = parse_int "endpoint" ep in
            Ok (duplicate ~step ~service ~endpoint)
          | "delay", [ step; service; ep; lag ] ->
            let* step = parse_int "step" step in
            let* endpoint = parse_int "endpoint" ep in
            let* lag = parse_int "lag" lag in
            Ok (delay ~step ~service ~endpoint ~lag)
          | "partition", [ step; blocks; heal ] ->
            let* step = parse_int "step" step in
            let* blocks = parse_blocks blocks in
            let* heal_at = parse_int "heal step" heal in
            Ok (partition ~step ~blocks ~heal_at)
          | ("crash" | "silence" | "drop" | "dup" | "duplicate" | "delay" | "partition"), _ ->
            Error (Printf.sprintf "malformed %s fault %S" kind tok)
          | k, _ -> Error (Printf.sprintf "unknown fault kind %S" k)
        in
        go (fault :: acc) pref rest
      | None -> (
        (* Shorthand STEP:PID for a crash, matching round_robin's faults. *)
        match String.split_on_char ':' tok with
        | [ step; pid ] ->
          let* step = parse_int "step" step in
          let* pid = parse_int "pid" pid in
          go (crash ~step ~pid :: acc) pref rest
        | _ -> Error (Printf.sprintf "expected STEP:PID in %S" tok)))
  in
  go [] None tokens

let validate sys t =
  let n = Model.System.n_processes sys in
  let find_service service =
    Array.find_opt
      (fun (c : Model.Service.t) -> String.equal c.Model.Service.id service)
      sys.Model.System.services
  in
  let check_endpoint what service endpoint =
    match find_service service with
    | None -> Error (Printf.sprintf "%s at unknown service %S" what service)
    | Some c ->
      if Array.exists (fun i -> i = endpoint) c.Model.Service.endpoints then Ok ()
      else
        Error
          (Printf.sprintf "%s endpoint %d is not connected to service %S" what endpoint service)
  in
  let check = function
    | Crash { pid; step } ->
      if pid < 0 || pid >= n then Error (Printf.sprintf "crash pid %d out of range" pid)
      else if step < 0 then Error (Printf.sprintf "negative crash step %d" step)
      else Ok ()
    | Silence { service; _ } ->
      if Option.is_some (find_service service) then Ok ()
      else Error (Printf.sprintf "silence of unknown service %S" service)
    | Drop { service; endpoint; _ } -> check_endpoint "drop" service endpoint
    | Duplicate { service; endpoint; _ } -> check_endpoint "dup" service endpoint
    | Delay { service; endpoint; lag; _ } ->
      if lag < 1 then Error (Printf.sprintf "delay lag %d must be >= 1" lag)
      else check_endpoint "delay" service endpoint
    | Partition { step; blocks; heal_at } ->
      if blocks = [] || List.exists (fun b -> b = []) blocks then
        Error "partition with an empty block"
      else if heal_at <= step then
        Error (Printf.sprintf "partition heals at %d, not after step %d" heal_at step)
      else
        let pids = List.concat blocks in
        if List.exists (fun i -> i < 0 || i >= n) pids then
          Error "partition block pid out of range"
        else if List.length (List.sort_uniq Int.compare pids) <> List.length pids then
          Error "partition blocks overlap"
        else Ok ()
  in
  List.fold_left
    (fun acc fault -> Result.bind acc (fun () -> check fault))
    (Ok ()) t.faults

type delivery =
  | Deliver_fail of int
  | Deliver_net of { service : string; endpoint : int; kind : Model.Event.net_kind }
  | Deliver_partition of { blocks : int list list; heal_at : int }
  | Deliver_heal of int list list

type compiled = {
  now : int ref;
  pending : (int * delivery) list ref;  (* deliveries, sorted by step *)
  silences : (int * int) list;  (* (service position, activation step) *)
  latest_silence : int;
  partitions : (int * int * int list list) list;  (* (from, heal_at, blocks) *)
  policy : Model.System.policy;
}

let deliveries t =
  List.concat_map
    (function
      | Crash { step; pid } -> [ step, Deliver_fail pid ]
      | Silence _ -> []
      | Drop { step; service; endpoint } ->
        [ step, Deliver_net { service; endpoint; kind = Model.Event.Drop } ]
      | Duplicate { step; service; endpoint } ->
        [ step, Deliver_net { service; endpoint; kind = Model.Event.Duplicate } ]
      | Delay { step; service; endpoint; lag } ->
        [ step, Deliver_net { service; endpoint; kind = Model.Event.Delay lag } ]
      | Partition { step; blocks; heal_at } ->
        [ step, Deliver_partition { blocks; heal_at }; heal_at, Deliver_heal blocks ])
    t.faults
  |> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b)

let compile t sys =
  (match validate sys t with Ok () -> () | Error e -> invalid_arg ("Chaos.Schedule: " ^ e));
  let now = ref (-1) in
  let silences =
    List.filter_map
      (function
        | Silence { step; service } -> Some (Model.System.service_pos sys service, step)
        | _ -> None)
      t.faults
  in
  let latest_silence = List.fold_left (fun acc (_, s) -> max acc s) 0 silences in
  let partitions =
    List.filter_map
      (function
        | Partition { step; blocks; heal_at } -> Some (step, heal_at, blocks)
        | _ -> None)
      t.faults
  in
  let silenced svc =
    List.exists (fun (pos, step) -> pos = svc && step <= !now) silences
  in
  let policy task =
    match List.find_opt (fun (t', _) -> Model.Task.equal t' task) t.overrides with
    | Some (_, pref) -> pref
    | None -> (
      match task with
      | Model.Task.Svc_perform { svc; _ }
      | Model.Task.Svc_output { svc; _ }
      | Model.Task.Svc_compute { svc; _ }
        when silenced svc ->
        Model.System.Prefer_dummy
      | _ -> t.default_pref)
  in
  { now; pending = ref (deliveries t); silences; latest_silence; partitions; policy }

let policy c = c.policy

let due c ~step =
  c.now := max !(c.now) step;
  match !(c.pending) with
  | (at, d) :: rest when step >= at ->
    c.pending := rest;
    Some d
  | _ -> None

let exhausted c = !(c.pending) = []

let undelivered c =
  List.length
    (List.filter (function _, Deliver_fail _ -> true | _ -> false) !(c.pending))

let undelivered_net c =
  List.length
    (List.filter
       (function _, (Deliver_net _ | Deliver_partition _) -> true | _ -> false)
       !(c.pending))

let fully_active c ~step = exhausted c && step >= c.latest_silence

(* Which block of an active partition holds pid [i]; [None] means the
   implicit residual block of processes not listed. *)
let block_idx blocks i =
  let rec go idx = function
    | [] -> None
    | b :: rest -> if List.mem i b then Some idx else go (idx + 1) rest
  in
  go 0 blocks

let separated c i j =
  i <> j
  && List.exists
       (fun (from, heal_at, blocks) ->
         from <= !(c.now)
         && !(c.now) < heal_at
         && block_idx blocks i <> block_idx blocks j)
       c.partitions

(* A service-output turn is held back by an active partition when the
   response waiting at the head of the endpoint's buffer crossed a block
   boundary: for network packets the sender is in the payload; for other
   services the (atomic, shared) service is reachable as long as any other
   endpoint shares the endpoint's block — only a fully isolated process
   loses it (§6.3: the service is no longer "connected to" that process). *)
let blocked_endpoint c sys s ~svc ~endpoint =
  c.partitions <> []
  &&
  let service : Model.Service.t = sys.Model.System.services.(svc) in
  match Model.Service.endpoint_pos service endpoint with
  | None -> false
  | Some pos -> (
    match s.Model.State.svcs.(svc).Model.State.resp_bufs.(pos) with
    | [] -> false
    | b :: _ ->
      if Services.Network.is_packet b then
        let _, src = Services.Network.packet_parts b in
        separated c src endpoint
      else
        Array.length service.Model.Service.endpoints > 1
        && Array.for_all
             (fun j -> j = endpoint || separated c j endpoint)
             service.Model.Service.endpoints)

let blocked c sys s task =
  match task with
  | Model.Task.Svc_output { svc; endpoint } -> blocked_endpoint c sys s ~svc ~endpoint
  | _ -> false
