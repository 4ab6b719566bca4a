module L = Model.Linearize

type verdict = Ok | Violation of string | Truncated of string

type t = {
  obj : Spec.Seq_type.t;
  max_nodes : int;
  soft_outstanding : int;
  hard_buffer : int;
  mutable cert : L.cert option;  (* [None] once the certificate has failed *)
  mutable retained : L.event array list;  (* certified windows, newest first *)
  mutable frontier : L.config list;  (* the search's, live after a fallback *)
  mutable buffer : L.event list;  (* newest first *)
  mutable buffered : int;
  mutable outstanding : int;
  mutable windows : int;
  mutable certified : int;
  mutable searched : int;
  mutable events : int;
  mutable max_window : int;
  mutable max_frontier : int;
  mutable verdict : verdict;
}

let create ?(max_nodes = 200_000) ?(soft_outstanding = 4) ?(hard_buffer = 2048) obj =
  let frontier = L.init_configs obj in
  {
    obj;
    max_nodes;
    soft_outstanding;
    hard_buffer;
    cert = Some (L.cert obj);
    retained = [];
    frontier;
    buffer = [];
    buffered = 0;
    outstanding = 0;
    windows = 0;
    certified = 0;
    searched = 0;
    events = 0;
    max_window = 0;
    max_frontier = List.length frontier;
    verdict = Ok;
  }

let verdict t = t.verdict
let windows t = t.windows
let certified t = t.certified
let searched t = t.searched
let events t = t.events
let max_window t = t.max_window
let max_frontier t = t.max_frontier
let outstanding t = t.outstanding

let record t ev =
  if t.verdict = Ok then begin
    t.buffer <- ev :: t.buffer;
    t.buffered <- t.buffered + 1;
    t.events <- t.events + 1;
    (match ev with
    | L.Call _ -> t.outstanding <- t.outstanding + 1
    | L.Return _ -> t.outstanding <- t.outstanding - 1)
  end

(* Window [number], ending at event [through], through the exhaustive search
   from the current frontier. *)
let search t ~number ~through window =
  let size = Array.length window in
  match L.advance ~max_nodes:t.max_nodes t.obj t.frontier (Array.to_list window) with
  | None ->
    t.verdict <-
      Truncated
        (Printf.sprintf "window %d (%d events) exhausted the %d-node search budget" number
           size t.max_nodes)
  | Some [] ->
    t.verdict <-
      Violation
        (Printf.sprintf "window %d (%d events, through event %d) admits no linearization"
           number size through)
  | Some frontier ->
    t.frontier <- frontier;
    t.max_frontier <- max t.max_frontier (List.length frontier)

(* The certificate failed: drop it, and rebuild the search frontier it stood
   in for by searching every certified window again, in order, under its
   original number. *)
let fall_back t =
  t.cert <- None;
  ignore
    (List.fold_left
       (fun (number, through) window ->
         let through = through + Array.length window in
         if t.verdict = Ok then search t ~number ~through window;
         number + 1, through)
       (1, 0) (List.rev t.retained));
  t.retained <- []

let flush t =
  if t.verdict = Ok && t.buffered > 0 then begin
    (* Filled in place from the newest-first buffer: [Array.of_list (List.rev
       ...)] copies the list once more per window, which raised
       serve-sequential's peak heap from 55.9 to 57.0 MB. *)
    let size = t.buffered in
    let window = Array.make size (List.hd t.buffer) in
    List.iteri (fun i ev -> window.(size - 1 - i) <- ev) t.buffer;
    t.buffer <- [];
    t.buffered <- 0;
    t.windows <- t.windows + 1;
    t.max_window <- max t.max_window size;
    match t.cert with
    | Some c when Array.for_all (L.certify c) window ->
      t.certified <- t.certified + 1;
      t.retained <- window :: t.retained
    | cert ->
      if Option.is_some cert then fall_back t;
      t.searched <- t.searched + 1;
      if t.verdict = Ok then search t ~number:t.windows ~through:t.events window
  end;
  t.verdict

(* The flush policy, which matters once the search runs: the frontier stays
   small when few operations straddle the window boundary (each
   called-but-unreturned op multiplies the reachable configurations), so
   defer flushing until the history is nearly quiescent — but never let the
   buffer grow past [hard_buffer], accepting a possible truncation instead
   of unbounded memory. *)
let tick t =
  if
    t.verdict = Ok && t.buffered > 0
    && (t.outstanding <= t.soft_outstanding || t.buffered >= t.hard_buffer)
  then flush t
  else t.verdict

let finish t = flush t
