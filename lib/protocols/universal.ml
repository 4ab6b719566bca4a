open Ioa
open Proto_util

let register_id pid = Printf.sprintf "op%d" pid
let slot_id t = Printf.sprintf "slot%d" t

(* States:
   - idle [op]                         -- published op fixed at construction
   - publish [op]                      -- write own register
   - wrote [op]                        -- waiting for the ack
   - propose [t; replica; log]         -- about to propose for slot t
   - deciding [t; replica; log]        -- slot consensus outstanding
   - fetch [t; w; replica; log]        -- reading the winner's register
   - fetching [t; w; replica; log]
   - finish [resp]                     -- own op committed, output response
   - done [resp]
   [log] is the queue of winners so far. *)

let client ~obj ~n ~op pid =
  let step s =
    if is "publish" s then
      Model.Process.Invoke
        {
          service = register_id pid;
          op = Spec.Seq_register.write op;
          next = st "wrote" [];
        }
    else if is "propose" s then begin
      let t = Value.to_int (field s 0) in
      Model.Process.Invoke
        {
          service = slot_id t;
          op = Spec.Seq_consensus.init pid;
          next = st "deciding" [ field s 0; field s 1; field s 2 ];
        }
    end
    else if is "fetch" s then begin
      let w = Value.to_int (field s 1) in
      Model.Process.Invoke
        {
          service = register_id w;
          op = Spec.Seq_register.read;
          next = st "fetching" (fields s);
        }
    end
    else if is "finish" s then
      Model.Process.Decide { value = field s 0; next = st "done" [ field s 0 ] }
    else Model.Process.Internal s
  in
  let on_init s _v = if is "idle" s then st "publish" [] else s in
  let on_response s ~service b =
    if is "wrote" s && String.equal service (register_id pid) && Spec.Op.is "ack" b then
      st "propose"
        [ Value.int 0; List.hd obj.Spec.Seq_type.initials; Value.queue_empty ]
    else if is "deciding" s && Spec.Op.is "decide" b then begin
      let t = Value.to_int (field s 0) in
      if String.equal service (slot_id t) then
        st "fetch" [ field s 0; Value.int (Spec.Seq_consensus.decided_value b); field s 1; field s 2 ]
      else s
    end
    else if is "fetching" s && Spec.Op.is "val" b then begin
      let t = Value.to_int (field s 0) and w = Value.to_int (field s 1) in
      if String.equal service (register_id w) then begin
        let winner_op = Spec.Seq_register.read_value b in
        if is_none winner_op then st "fetch" [ field s 0; field s 1; field s 2; field s 3 ]
        else begin
          let resp, replica' = Spec.Seq_type.apply obj winner_op (field s 2) in
          let log' = Value.queue_push (Value.int w) (field s 3) in
          if w = pid then st "finish" [ resp ]
          else if t + 1 >= n then
            (* All slots exhausted without committing: impossible while we
               keep proposing, but keep the state machine total. *)
            st "stuck" [ replica'; log' ]
          else st "propose" [ Value.int (t + 1); replica'; log' ]
        end
      end
      else s
    end
    else s
  in
  Model.Process.make ~pid ~start:(st "idle" [ op ]) ~step ~on_init ~on_response ()

let system ~obj ~ops =
  let n = List.length ops in
  let endpoints = List.init n Fun.id in
  let values = Proto_util.none :: obj.Spec.Seq_type.invocations in
  let registers =
    List.init n (fun pid ->
      Model.Service.register ~id:(register_id pid) ~endpoints
        (Spec.Seq_register.make ~values ~initial:Proto_util.none))
  in
  let slots =
    List.init n (fun t ->
      Model.Service.atomic ~id:(slot_id t) ~endpoints ~f:(n - 1)
        (Spec.Seq_consensus.make ~values:endpoints ()))
  in
  let processes = List.mapi (fun pid op -> client ~obj ~n ~op pid) ops in
  Model.System.make ~processes ~services:(registers @ slots)

let state_fields_with_replica ps =
  if is "propose" ps || is "deciding" ps then Some (field ps 1, field ps 2)
  else if is "fetch" ps || is "fetching" ps then Some (field ps 2, field ps 3)
  else if is "stuck" ps then Some (field ps 0, field ps 1)
  else None

let log_of (s : Model.State.t) ~pid =
  match state_fields_with_replica s.Model.State.procs.(pid) with
  | Some (_, log) -> List.map Value.to_int (Value.to_list log)
  | None -> []
