open Ioa

type status = Up | Down of { rejoin_at : int } | Recovering

module Key = struct
  type t = int * int

  let equal (a1, b1) (a2, b2) = a1 = a2 && b1 = b2
  let hash (a, b) = (a * 0x10001) lxor b
end

module Tbl = Hashtbl.Make (Key)

type t = {
  id : int;
  obj : Spec.Seq_type.t;
  mutable status : status;
  mutable value : Value.t;
  mutable applied : int;  (* commit-log entries applied so far *)
  mutable dedup : Value.t Tbl.t;  (* (client, seq) -> response *)
  mutable duplicates_skipped : int;
  mutable crashes : int;
  mutable crashed_at : int;
  mutable replayed : int;  (* total catch-up entries replayed *)
}

let initial_value obj = List.hd obj.Spec.Seq_type.initials

let create ~id ~obj =
  {
    id;
    obj;
    status = Up;
    value = initial_value obj;
    applied = 0;
    dedup = Tbl.create 64;
    duplicates_skipped = 0;
    crashes = 0;
    crashed_at = 0;
    replayed = 0;
  }

let is_up r = r.status = Up

(* Apply one commit-log entry: the idempotency table makes re-committed
   (client, seq) pairs no-ops, so every pair changes the object at most once
   no matter how many log entries carry it. Deterministic — every replica
   skips exactly the same entries. *)
let apply_cmd r (c : Cmd.t) =
  let key = Cmd.key c in
  match Tbl.find_opt r.dedup key with
  | Some resp ->
    r.duplicates_skipped <- r.duplicates_skipped + 1;
    r.applied <- r.applied + 1;
    `Duplicate resp
  | None ->
    let resp, value = Spec.Seq_type.apply r.obj c.Cmd.op r.value in
    r.value <- value;
    Tbl.replace r.dedup key resp;
    r.applied <- r.applied + 1;
    `Applied resp

(* A crash loses all volatile state: object value, applied position and the
   idempotency table. Catch-up rebuilds all three from the commit log. *)
let crash r ~tick ~rejoin_at =
  r.status <- Down { rejoin_at };
  r.value <- initial_value r.obj;
  r.applied <- 0;
  r.dedup <- Tbl.create 64;
  r.crashes <- r.crashes + 1;
  r.crashed_at <- tick

let start_recovery r = r.status <- Recovering

(* Replay up to [rate] of the first [len] commit-log entries. Returns
   [`Caught_up] when the replica has applied all [len] — the rejoin point;
   its state is then byte-equal to a replica that never crashed, because
   replay runs the same deterministic apply (dedup included) a live replica
   ran incrementally. *)
let catch_up ?len r ~log ~rate =
  let target = Option.value len ~default:(Array.length log) in
  let before = r.applied in
  let stop = min target (before + rate) in
  while r.applied < stop do
    ignore (apply_cmd r log.(r.applied))
  done;
  r.replayed <- r.replayed + (stop - before);
  if r.applied >= target then begin
    r.status <- Up;
    `Caught_up
  end
  else `Recovering
