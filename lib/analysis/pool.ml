let map ?(stop = fun () -> false) ~jobs n f =
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let failure = Atomic.make None in
  let rec work () =
    if stop () then Atomic.set next n
    else
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        results.(i) <- Some (f i);
        work ()
      end
  in
  let worker () =
    try work ()
    with e ->
      let bt = Printexc.get_raw_backtrace () in
      ignore (Atomic.compare_and_set failure None (Some (e, bt)));
      Atomic.set next n
  in
  (* Clamped to the machine: past the core count, every minor-collection
     barrier waits on descheduled domains to reach a safepoint. *)
  let domains = max 1 (min (min jobs (Domain.recommended_domain_count ())) n) in
  let spawned = List.init (domains - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join spawned;
  Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) (Atomic.get failure);
  results
