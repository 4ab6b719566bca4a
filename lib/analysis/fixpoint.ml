type stats = { iterations : int; widenings : int }

(* Updates an unknown takes by plain join before widening. *)
let widen_delay = 3

module Make (L : Lattice.S) = struct
  let solve ~n ~bot ~rhs ~dependents =
    let values = Array.make n bot in
    let updates = Array.make n 0 in
    let queued = Array.make n false in
    let queue = Queue.create () in
    let push u =
      if not queued.(u) then begin
        queued.(u) <- true;
        Queue.add u queue
      end
    in
    for u = 0 to n - 1 do
      push u
    done;
    let iterations = ref 0 in
    let widenings = ref 0 in
    let get u = values.(u) in
    while not (Queue.is_empty queue) do
      let u = Queue.take queue in
      queued.(u) <- false;
      incr iterations;
      let nv = rhs ~get u in
      if not (L.leq nv values.(u)) then begin
        let joined = L.join values.(u) nv in
        updates.(u) <- updates.(u) + 1;
        let next =
          if updates.(u) > widen_delay then begin
            incr widenings;
            L.widen values.(u) joined
          end
          else joined
        in
        values.(u) <- next;
        List.iter push (dependents u)
      end
    done;
    values, { iterations = !iterations; widenings = !widenings }
end
