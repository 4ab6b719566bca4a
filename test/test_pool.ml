(* The shared-counter domain pool behind every [-j] (Analysis.Pool): index
   order, exactly-once execution, exception propagation with every spawned
   domain joined, and the stop poll — at jobs 1, 2 and 4 over n = 0, 1, 100. *)

let jobs_list = [ 1; 2; 4 ]
let sizes = [ 0; 1; 100 ]

let grid f = List.iter (fun jobs -> List.iter (fun n -> f ~jobs ~n) sizes) jobs_list

let spin () =
  (* Enough work per index for the domains to overlap. *)
  let acc = ref 0 in
  for i = 1 to 20_000 do
    acc := !acc + (i land 7)
  done;
  ignore (Sys.opaque_identity !acc)

let test_order_exactly_once () =
  grid (fun ~jobs ~n ->
      let runs = Array.init n (fun _ -> Atomic.make 0) in
      let got =
        Analysis.Pool.map ~jobs n (fun i ->
            Atomic.incr runs.(i);
            spin ();
            i * i)
      in
      let label what = Printf.sprintf "%s (jobs %d, n %d)" what jobs n in
      Alcotest.(check (array (option int)))
        (label "index order") (Array.init n (fun i -> Some (i * i))) got;
      Alcotest.(check (array int))
        (label "each index once") (Array.make n 1) (Array.map Atomic.get runs))

exception Boom of int

let wait_until cond =
  (* Bounded: spawning a domain can take milliseconds. *)
  let spins = ref 0 in
  while (not (cond ())) && !spins < 2_000_000 do
    incr spins;
    Domain.cpu_relax ()
  done

let test_raise_joins () =
  (* When the caller's domain draws the failing index, it raises only once a
     sibling is parked inside [f] waiting for [map] to return. A pool that
     joins before re-raising returns after the park times out; one that
     leaks the sibling returns first, and the sibling then sees [returned].
     Which domain draws the failing index is up to the scheduler, so each
     case repeats over several failing indices. *)
  let caller = Domain.self () in
  grid (fun ~jobs ~n ->
      for round = 1 to 4 do
        if n > 0 then begin
          let bad = round * 37 mod n in
          let siblings = min jobs (Domain.recommended_domain_count ()) > 1 && bad < n - 1 in
          let active = Atomic.make 0 in
          let bad_drawn = Atomic.make false and parked = Atomic.make false in
          let returned = Atomic.make false and late = Atomic.make false in
          let f i =
            let on_caller = Domain.self () = caller in
            if i = bad then begin
              if on_caller && siblings then begin
                Atomic.set bad_drawn true;
                wait_until (fun () -> Atomic.get parked)
              end;
              raise (Boom i)
            end
            else if (not on_caller) && Atomic.get bad_drawn then begin
              Atomic.set parked true;
              wait_until (fun () -> Atomic.get returned);
              if Atomic.get returned then Atomic.set late true
            end;
            i
          in
          let raised =
            try
              ignore
                (Analysis.Pool.map ~jobs n (fun i ->
                     Atomic.incr active;
                     Fun.protect ~finally:(fun () -> Atomic.decr active) (fun () -> f i)));
              None
            with Boom i -> Some i
          in
          Atomic.set returned true;
          wait_until (fun () -> Atomic.get active = 0);
          let label what = Printf.sprintf "%s (jobs %d, n %d, index %d)" what jobs n bad in
          Alcotest.(check (option int)) (label "re-raised") (Some bad) raised;
          Alcotest.(check bool) (label "no call ran after the re-raise") false
            (Atomic.get late);
          Alcotest.(check (array (option int)))
            (label "second call succeeds")
            (Array.init n (fun i -> Some i))
            (Analysis.Pool.map ~jobs n Fun.id)
        end
      done)

let test_stop_first () =
  grid (fun ~jobs ~n ->
      let calls = Atomic.make 0 in
      let got =
        Analysis.Pool.map ~stop:(fun () -> true) ~jobs n (fun i ->
            Atomic.incr calls;
            i)
      in
      let label what = Printf.sprintf "%s (jobs %d, n %d)" what jobs n in
      Alcotest.(check (array (option int))) (label "every slot empty") (Array.make n None) got;
      Alcotest.(check int) (label "f never called") 0 (Atomic.get calls))

let suite =
  ( "pool",
    [
      Alcotest.test_case "index order, each index once" `Quick test_order_exactly_once;
      Alcotest.test_case "exception re-raised after every join" `Quick test_raise_joins;
      Alcotest.test_case "stop already true leaves every slot empty" `Quick test_stop_first;
    ] )
