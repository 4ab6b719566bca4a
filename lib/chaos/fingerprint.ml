type key = {
  cursor : int;
  obs : int;
  state : Model.State.t;
}

let key ~cursor exec =
  { cursor; obs = Model.Exec.obs_fingerprint exec; state = Model.Exec.last_state exec }

let equal a b =
  a.cursor = b.cursor && a.obs = b.obs && Model.State.equal a.state b.state

let hash k =
  let prime = 0x100000001b3 in
  let combine h x = (h lxor x) * prime in
  combine (combine (combine 0x9e3779b9 k.cursor) k.obs) (Model.State.hash k.state)
  land max_int

module H = Hashtbl.Make (struct
  type t = key

  let equal = equal
  let hash = hash
end)

module Visited = struct
  type shard = { lock : Mutex.t; tbl : (int * int) H.t }
  type t = shard array

  let create ?(shards = 64) () =
    Array.init (max 1 shards) (fun _ -> { lock = Mutex.create (); tbl = H.create 64 })

  let shard (t : t) k = t.(hash k mod Array.length t)

  let with_lock s f =
    Mutex.lock s.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock s.lock) f

  let find t k =
    let s = shard t k in
    with_lock s (fun () -> H.find_opt s.tbl k)

  let add t k ~suffix_steps ~suffix_truncations =
    let s = shard t k in
    with_lock s (fun () ->
        (* Keep the largest recorded suffix: pruning guards on
           [step + suffix <= max_steps], so a larger suffix only makes the
           guard more conservative when histories disagree. *)
        match H.find_opt s.tbl k with
        | Some (prior, _) when prior >= suffix_steps -> ()
        | _ -> H.replace s.tbl k (suffix_steps, suffix_truncations))

  let size t = Array.fold_left (fun acc s -> acc + H.length s.tbl) 0 t
end
