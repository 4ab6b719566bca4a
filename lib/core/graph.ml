type t = {
  system : Model.System.t;
  states : Model.State.t array;
  index : int Model.State.Tbl.t;
  succs_arr : (Model.Task.t * int) list array;
  complete : bool;
}

let explore ?(max_states = 200_000) (sys : Model.System.t) start =
  let index = Model.State.Tbl.create 1024 in
  let states = ref [] in
  let n_states = ref 0 in
  let succs = ref [] in
  (* Vertices are appended in BFS order; succs are collected in the same
     order, so the two lists stay aligned. *)
  let queue = Queue.create () in
  let complete = ref true in
  let add_state s =
    match Model.State.Tbl.find_opt index s with
    | Some i -> i
    | None ->
      let i = !n_states in
      Model.State.Tbl.replace index s i;
      states := s :: !states;
      incr n_states;
      Queue.add s queue;
      i
  in
  ignore (add_state start);
  let tasks = Array.to_list sys.Model.System.tasks in
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    if !n_states > max_states then begin
      complete := false;
      succs := [] :: !succs
    end
    else begin
      let edges =
        List.filter_map
          (fun e ->
            match Model.System.transition sys s e with
            | None -> None
            | Some (_event, s') -> Some (e, add_state s'))
          tasks
      in
      succs := edges :: !succs
    end
  done;
  let states = Array.of_list (List.rev !states) in
  let succs_list = List.rev !succs in
  let succs_arr =
    Array.init (Array.length states) (fun _ -> ([] : (Model.Task.t * int) list))
  in
  List.iteri (fun i edges -> if i < Array.length succs_arr then succs_arr.(i) <- edges) succs_list;
  { system = sys; states; index; succs_arr; complete = !complete }

let system g = g.system
let size g = Array.length g.states
let complete g = g.complete
let root _ = 0
let state g i = g.states.(i)
let succs g i = g.succs_arr.(i)
let index_of g s = Model.State.Tbl.find_opt g.index s

let successor g i e =
  List.find_map
    (fun (e', j) -> if Model.Task.equal e e' then Some j else None)
    g.succs_arr.(i)

let path_between g ~src ~dst =
  if src = dst then Some []
  else begin
    let n = Array.length g.states in
    let pred = Array.make n None in
    let visited = Array.make n false in
    visited.(src) <- true;
    let queue = Queue.create () in
    Queue.add src queue;
    let found = ref false in
    while (not !found) && not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      List.iter
        (fun (e, v) ->
          if not visited.(v) then begin
            visited.(v) <- true;
            pred.(v) <- Some (u, e);
            if v = dst then found := true else Queue.add v queue
          end)
        g.succs_arr.(u)
    done;
    if not !found then None
    else begin
      let rec build v acc =
        match pred.(v) with
        | None -> acc
        | Some (u, e) -> build u (e :: acc)
      in
      Some (build dst [])
    end
  end

let find_state g p =
  let rec go i =
    if i >= Array.length g.states then None
    else if p g.states.(i) then Some i
    else go (i + 1)
  in
  go 0

let iter_states g f = Array.iteri f g.states
