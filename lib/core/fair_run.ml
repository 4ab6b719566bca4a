type outcome = Decided | Lasso of { period : int } | Budget

let pp_outcome ppf = function
  | Decided -> Format.pp_print_string ppf "goal reached"
  | Lasso { period } -> Format.fprintf ppf "lasso (period %d): provably non-terminating" period
  | Budget -> Format.pp_print_string ppf "step budget exhausted"

let run ?policy ?(max_steps = 200_000) ~goal (sys : Model.System.t) exec =
  let tasks = sys.Model.System.tasks in
  let n_tasks = Array.length tasks in
  let seen = Model.State.Cursor_tbl.create 1024 in
  let rec go exec cursor step =
    let s = Model.Exec.last_state exec in
    if goal s then exec, Decided
    else if step >= max_steps then exec, Budget
    else begin
      let key = cursor, s in
      match Model.State.Cursor_tbl.find_opt seen key with
      | Some prior_step -> exec, Lasso { period = step - prior_step }
      | None ->
        Model.State.Cursor_tbl.replace seen key step;
        let exec =
          match Model.Exec.append_task ?policy sys exec tasks.(cursor) with
          | Some exec -> exec
          | None -> exec
        in
        go exec ((cursor + 1) mod n_tasks) (step + 1)
    end
  in
  go exec 0 0
