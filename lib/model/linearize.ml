module Value = Ioa.Value

type event =
  | Call of { endpoint : int; op : Value.t }
  | Return of { endpoint : int; resp : Value.t }

let history exec ~service =
  List.filter_map
    (fun (step : Exec.step) ->
      match step.Exec.event with
      | Event.Invoke (i, k, op) when String.equal k service -> Some (Call { endpoint = i; op })
      | Event.Respond (i, k, resp) when String.equal k service ->
        Some (Return { endpoint = i; resp })
      | _ -> None)
    (Exec.steps exec)

(* Search state: position in the event list, per-endpoint FIFO of invoked but
   not-yet-linearized operations, per-endpoint FIFO of linearized responses
   awaiting their Return event, and the object value. Encoded structurally
   for memoization. *)
let encode_key idx pending inflight value =
  Value.list [ Value.int idx; pending; inflight; value ]

let push_q m i x =
  let q = Value.map_get ~default:Value.queue_empty (Value.int i) m in
  Value.map_add (Value.int i) (Value.queue_push x q) m

let pop_q m i =
  let q = Value.map_get ~default:Value.queue_empty (Value.int i) m in
  match Value.queue_pop q with
  | None -> None
  | Some (x, rest) -> Some (x, Value.map_add (Value.int i) rest m)

let endpoints_with_pending m =
  List.filter_map
    (fun (k, q) -> if Value.queue_is_empty q then None else Some (Value.to_int k))
    (Value.map_bindings m)

(* --- incremental frontier --- *)

(* A configuration of the search between windows: the per-endpoint pending
   queues (invoked, not yet linearized), the per-endpoint inflight queues
   (linearized, response not yet returned) and the object value. The
   windowed checker is the subset construction over these: a history is
   linearizable iff some configuration survives every window. *)
type config = { pending : Value.t; inflight : Value.t; value : Value.t }

let config_key c = Value.list [ c.pending; c.inflight; c.value ]

let init_configs (t : Spec.Seq_type.t) =
  List.map
    (fun v0 -> { pending = Value.map_empty; inflight = Value.map_empty; value = v0 })
    t.Spec.Seq_type.initials

let advance ?(max_nodes = 200_000) (t : Spec.Seq_type.t) configs events =
  let events = Array.of_list events in
  let n = Array.length events in
  let nodes = ref 0 in
  let out = Value.Tbl.create 64 in
  let visited = Value.Tbl.create 64 in
  let overflow = ref false in
  (* Exhaustive DFS (no short-circuit: every accepting end configuration is
     collected — dropping one would make a later window's failure
     unsound). *)
  let rec go idx pending inflight value =
    incr nodes;
    if !nodes > max_nodes then overflow := true
    else begin
      let key = encode_key idx pending inflight value in
      if not (Value.Tbl.mem visited key) then begin
        Value.Tbl.replace visited key ();
        consume idx pending inflight value;
        linearize_now idx pending inflight value
      end
    end
  and consume idx pending inflight value =
    if idx >= n then begin
      let c = { pending; inflight; value } in
      Value.Tbl.replace out (config_key c) c
    end
    else
      match events.(idx) with
      | Call { endpoint; op } -> go (idx + 1) (push_q pending endpoint op) inflight value
      | Return { endpoint; resp } -> (
        match pop_q inflight endpoint with
        | Some (r, inflight') when Value.equal r resp -> go (idx + 1) pending inflight' value
        | _ -> ())
  and linearize_now idx pending inflight value =
    List.iter
      (fun endpoint ->
        match pop_q pending endpoint with
        | None -> ()
        | Some (op, pending') ->
          List.iter
            (fun (resp, value') -> go idx pending' (push_q inflight endpoint resp) value')
            (t.Spec.Seq_type.delta op value))
      (endpoints_with_pending pending)
  in
  List.iter (fun c -> go 0 c.pending c.inflight c.value) configs;
  if !overflow then None
  else Some (Value.Tbl.fold (fun _ c acc -> c :: acc) out [])

let search (t : Spec.Seq_type.t) events =
  let events = Array.of_list events in
  let n = Array.length events in
  let visited = Value.Tbl.create 64 in
  (* DFS over (idx, pending, inflight, value); returns true iff some
     completion linearizes the suffix from this configuration. *)
  let rec go idx pending inflight value =
    let key = encode_key idx pending inflight value in
    if Value.Tbl.mem visited key then false
      (* already explored and failed: successful paths return immediately *)
    else begin
      let result =
        consume idx pending inflight value || linearize_now idx pending inflight value
      in
      if not result then Value.Tbl.replace visited key ();
      result
    end
  and consume idx pending inflight value =
    if idx >= n then true
    else
      match events.(idx) with
      | Call { endpoint; op } -> go (idx + 1) (push_q pending endpoint op) inflight value
      | Return { endpoint; resp } -> (
        (* The response must be the oldest linearized-but-unreturned result
           of this endpoint. *)
        match pop_q inflight endpoint with
        | Some (r, inflight') when Value.equal r resp -> go (idx + 1) pending inflight' value
        | _ -> false)
  and linearize_now idx pending inflight value =
    List.exists
      (fun endpoint ->
        match pop_q pending endpoint with
        | None -> false
        | Some (op, pending') ->
          List.exists
            (fun (resp, value') ->
              go idx pending' (push_q inflight endpoint resp) value')
            (t.Spec.Seq_type.delta op value))
      (endpoints_with_pending pending)
  in
  List.exists
    (fun v0 -> go 0 Value.map_empty Value.map_empty v0)
    t.Spec.Seq_type.initials

(* --- the return-order certificate --- *)

(* Every operation takes effect at its own Return, as its endpoint's oldest
   unreturned call, applied by δ to one replay value. Calls that never
   return never take effect. *)
type cert = {
  obj : Spec.Seq_type.t;
  calls : (int, Value.t Queue.t) Hashtbl.t;  (* per endpoint, oldest first *)
  mutable value : Value.t;
}

let cert (t : Spec.Seq_type.t) =
  { obj = t; calls = Hashtbl.create 16; value = List.hd t.Spec.Seq_type.initials }

let certify c = function
  | Call { endpoint; op } ->
    (match Hashtbl.find_opt c.calls endpoint with
    | Some q -> Queue.push op q
    | None ->
      let q = Queue.create () in
      Queue.push op q;
      Hashtbl.add c.calls endpoint q);
    true
  | Return { endpoint; resp } -> (
    match Option.bind (Hashtbl.find_opt c.calls endpoint) Queue.take_opt with
    | None -> false
    | Some op -> (
      let outcomes = c.obj.Spec.Seq_type.delta op c.value in
      match List.find_opt (fun (r, _) -> Value.equal r resp) outcomes with
      | Some (_, value) ->
        c.value <- value;
        true
      | None -> false))

let check t events = List.for_all (certify (cert t)) events || search t events
