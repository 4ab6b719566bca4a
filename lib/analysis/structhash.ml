(* Canonical structural hash of a system's analysis-relevant identity.

   One hash, [full], is computed per system: everything the analyses and
   their rendered reports can depend on, including service identifiers, the
   service-array order and the declared type names. Every cache entry is
   keyed by it, so a renamed or service-permuted system is simply a
   different system and is re-analyzed.

   Behavior is hashed by *probing*, not by inspecting closures: a bounded
   breadth-first walk over each process's reachable local states (driven by
   [step], [on_init] over the seed input alphabet, and [on_response] over
   each connected service's declared response alphabet) and over each
   service's reachable type values (driven by [delta_inv] across every
   invocation × endpoint × a bounded family of failed-sets, and
   [delta_glob] across the declared global tasks). Every transition's
   observable outcome is folded into the hash, so any behavioral change a
   bounded analysis could see moves the hash; hash-equal units may still
   differ beyond the probe bound, which costs at most a spurious cache hit
   on behavior no analysis in this repository reaches. Probe caps are folded
   into the hash themselves, so a capped walk never collides with an
   uncapped one.

   [analyzer_version] salts every hash: bump it whenever the transfer
   functions, the abstract domains or the probing scheme change, and every
   existing cache entry self-invalidates. *)

module Value = Ioa.Value
module Iset = Spec.Iset
module System = Model.System
module Service = Model.Service
module Process = Model.Process

(* Bump on any change to Transfer/Astate/Vset/Interval semantics or to the
   probing scheme below. *)
let analyzer_version = 1

type t = { full : int }

(* --- FNV-1a folding, the same shape as {!Ioa.Value.hash} --- *)

let fnv_prime = 16777619
let seed = 2166136261
let mix h x = ((h * fnv_prime) lxor x) land max_int
let mix_int h i = mix (mix h 3) i
let mix_bool h b = mix (mix h 7) (if b then 1 else 0)
let mix_str h s = mix (mix h 4) (Hashtbl.hash s)
let mix_value h v = mix (mix h 5) (Value.hash v)
let mix_hash h x = mix (mix h 11) x

let mix_tokens tokens = List.fold_left mix_str seed tokens

let hex h = Printf.sprintf "%016x" h

(* Parameterized hashing: a family key folds the per-instantiation keys of
   a whole (n, f) window into one filename-safe digest, so a single cache
   entry (kind "pcert") replays verdicts across the entire sweep. Any
   behavioral change at any grid point moves the family key. *)
let family tokens = hex (mix_tokens ("family" :: tokens))

(* --- probe bounds (folded into the hash when they bite) --- *)

let state_cap = 96
let call_cap = 4096

(* Bounded BFS driver: [trans h v] folds the observable outcomes of every
   transition out of [v] into [h] and returns the successor states. *)
let probe ~init ~trans h0 =
  let seen = Value.Tbl.create 64 in
  let queue = Queue.create () in
  let h = ref h0 in
  let calls = ref 0 in
  let capped = ref false in
  List.iter (fun v -> Queue.add v queue) init;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    if not (Value.Tbl.mem seen v) then begin
      if Value.Tbl.length seen >= state_cap || !calls >= call_cap then capped := true
      else begin
        Value.Tbl.replace seen v ();
        let h', succs = trans !h v in
        calls := !calls + 1;
        h := h';
        List.iter (fun v' -> Queue.add v' queue) succs
      end
    end
  done;
  let h = mix_bool !h !capped in
  mix_int h (Value.Tbl.length seen)

(* --- services --- *)

let probe_failed_sets (c : Service.t) =
  let eps = Array.to_list c.Service.endpoints in
  let sets = (Iset.empty :: List.map (fun i -> Iset.of_list [ i ]) eps) @ [ Iset.of_list eps ] in
  List.sort_uniq Iset.compare sets

let mix_iset h f = List.fold_left mix_int (mix h 13) (Iset.elements f)

let mix_rmap (c : Service.t) h (rmap : Spec.Service_type.response_map) =
  (* Response-map keys are endpoint pids; canonicalize to endpoint position
     so the map hashes the same whatever the pid numbering convention. *)
  List.fold_left
    (fun h (pid, resps) ->
      let h =
        mix_int h (match Service.endpoint_pos c pid with Some p -> p | None -> -1 - pid)
      in
      List.fold_left mix_value (mix h 17) resps)
    (mix h 19) rmap

let mix_outcomes c h outs =
  List.fold_left
    (fun h (rmap, v') -> mix_value (mix_rmap c h rmap) v')
    (mix_int h (List.length outs))
    outs

let service_behavior (c : Service.t) =
  let g = c.Service.gtype in
  let failed_sets = probe_failed_sets c in
  let h = mix_str seed "svc" in
  (* Structure and wiring: endpoint pids, resilience, class, coalescing. *)
  let h = Array.fold_left mix_int (mix h 23) c.Service.endpoints in
  let h = mix_int h c.Service.resilience in
  let h =
    mix_int h
      (match c.Service.cls with
      | Service.Register -> 0
      | Service.Atomic -> 1
      | Service.Oblivious -> 2
      | Service.General -> 3)
  in
  let h = mix_bool h c.Service.coalesce in
  (* Declared alphabets — these parameterize every analysis probe. *)
  let h = List.fold_left mix_value (mix h 29) g.Spec.General_type.initials in
  let h = List.fold_left mix_value (mix h 31) g.Spec.General_type.invocations in
  let h = List.fold_left mix_value (mix h 37) g.Spec.General_type.responses in
  let h = List.fold_left mix_str (mix h 41) g.Spec.General_type.global_tasks in
  (* δ behavior over the reachable value set. *)
  let trans h v =
    let succs = ref [] in
    let h = ref (mix_value (mix h 43) v) in
    List.iter
      (fun a ->
        Array.iter
          (fun pid ->
            List.iter
              (fun failed ->
                let h' = mix_iset (mix_value (mix_int !h pid) a) failed in
                match g.Spec.General_type.delta_inv a pid v ~failed with
                | exception _ -> h := mix_str h' "raise"
                | outs ->
                  h := mix_outcomes c h' outs;
                  List.iter (fun (_, v') -> succs := v' :: !succs) outs)
              failed_sets)
          c.Service.endpoints)
      g.Spec.General_type.invocations;
    List.iter
      (fun glob ->
        List.iter
          (fun failed ->
            let h' = mix_iset (mix_str !h glob) failed in
            match g.Spec.General_type.delta_glob glob v ~failed with
            | exception _ -> h := mix_str h' "raise"
            | outs ->
              h := mix_outcomes c h' outs;
              List.iter (fun (_, v') -> succs := v' :: !succs) outs)
          failed_sets)
      g.Spec.General_type.global_tasks;
    !h, List.rev !succs
  in
  let h = probe ~init:g.Spec.General_type.initials ~trans h in
  (* The sequential witness spec, when present: the linearizability monitor
     and the seq-type lints read it, so its behavior is part of identity. *)
  match c.Service.seq with
  | None -> mix_int h 47
  | Some sq ->
    let h = mix_int h 53 in
    let h = List.fold_left mix_value h sq.Spec.Seq_type.initials in
    let h = List.fold_left mix_value h sq.Spec.Seq_type.invocations in
    let h = List.fold_left mix_value h sq.Spec.Seq_type.responses in
    let trans h v =
      let succs = ref [] in
      let h = ref (mix_value h v) in
      List.iter
        (fun a ->
          match sq.Spec.Seq_type.delta a v with
          | exception _ -> h := mix_str (mix_value !h a) "raise"
          | outs ->
            h := mix_int (mix_value !h a) (List.length outs);
            List.iter
              (fun (r, v') ->
                h := mix_value (mix_value !h r) v';
                succs := v' :: !succs)
              outs)
        sq.Spec.Seq_type.invocations;
      !h, List.rev !succs
    in
    probe ~init:sq.Spec.Seq_type.initials ~trans h

(* --- processes --- *)

(* The seed input alphabet: what {!Reach.analyze} and the chaos runner
   initialize processes with by default. *)
let probe_inputs = [ Value.int 0; Value.int 1 ]

let process_behavior ~responses (p : Process.t) =
  let h = mix_str seed "proc" in
  let h = mix_value h p.Process.start in
  let trans h s =
    let succs = ref [] in
    let h = ref (mix_value (mix h 59) s) in
    (match p.Process.step s with
    | exception _ -> h := mix_str !h "raise"
    | Process.Invoke { service; op; next } ->
      h := mix_value (mix_value (mix_str (mix_str !h "I") service) op) next;
      succs := next :: !succs
    | Process.Decide { value; next } ->
      h := mix_value (mix_value (mix_str !h "D") value) next;
      succs := next :: !succs
    | Process.Internal v ->
      h := mix_value (mix_str !h "N") v;
      succs := v :: !succs);
    List.iter
      (fun v ->
        match p.Process.on_init s v with
        | exception _ -> h := mix_str (mix_value (mix_str !h "i") v) "raise"
        | s' ->
          h := mix_value (mix_value (mix_str !h "i") v) s';
          succs := s' :: !succs)
      probe_inputs;
    List.iter
      (fun (id, resps) ->
        List.iter
          (fun r ->
            match p.Process.on_response s ~service:id r with
            | exception _ ->
              h := mix_str (mix_value (mix_str (mix_str !h "r") id) r) "raise"
            | s' ->
              h := mix_value (mix_value (mix_str (mix_str !h "r") id) r) s';
              succs := s' :: !succs)
          resps)
      responses;
    !h, List.rev !succs
  in
  probe ~init:[ p.Process.start ] ~trans h

(* --- systems --- *)

let salt h =
  mix_int (mix_str h "boost-structhash") analyzer_version

let system (sys : System.t) =
  let responses_of pid =
    Array.to_list sys.System.services
    |> List.filter_map (fun (c : Service.t) ->
           if Array.exists (fun e -> e = pid) c.Service.endpoints then
             Some (c.Service.id, c.Service.gtype.Spec.General_type.responses)
           else None)
  in
  let procs =
    Array.map
      (fun (p : Process.t) -> process_behavior ~responses:(responses_of p.Process.pid) p)
      sys.System.processes
  in
  let h = salt seed in
  let h = mix_int h (Array.length sys.System.processes) in
  let h = Array.fold_left mix_hash (mix h 61) procs in
  let full =
    Array.fold_left
      (fun h (c : Service.t) ->
        mix_hash
          (mix_str (mix_str h c.Service.id) c.Service.gtype.Spec.General_type.name)
          (service_behavior c))
      (mix h 67) sys.System.services
  in
  { full }

let key t = hex t.full
