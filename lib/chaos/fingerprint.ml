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

module Visited = struct
  type entry = { key : key; suffix_steps : int; suffix_truncations : int }
  type t = entry option Atomic.t array

  let create ?(slots = 64) () =
    Array.init (max 1 slots) (fun _ -> Atomic.make None)

  let slot (t : t) k = t.(hash k mod Array.length t)

  let find t k =
    match Atomic.get (slot t k) with
    | Some e when equal e.key k -> Some (e.suffix_steps, e.suffix_truncations)
    | _ -> None

  let add t key ~suffix_steps ~suffix_truncations =
    Atomic.set (slot t key) (Some { key; suffix_steps; suffix_truncations })
end
