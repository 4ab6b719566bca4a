(* Persistent on-disk analysis cache, keyed by {!Structhash}.

   Layout: one file per entry under the cache directory (default
   [_boost_cache/]), named [<kind>-<key>.entry]. Every file opens with a
   one-line versioned envelope header

     boost-cache <envelope version> <analyzer version> <kind> <key>

   so entries self-invalidate when either the envelope format or the
   analyzer (via {!Structhash.analyzer_version}) changes — a mismatched
   header counts as [stale] and the entry is dropped. Files that fail the
   header or payload decode are quarantined: renamed to [*.corrupt], counted,
   and never consulted again. Writes go through a tempfile in the same
   directory plus an atomic [Sys.rename], so concurrent readers (parallel
   lint domains, concurrent CI jobs sharing a directory) never observe a
   half-written entry. Cache failures of any kind degrade to a miss; the
   cache can make an analysis faster, never wrong and never crash it. *)

let envelope_version = 2
let default_dir = "_boost_cache"

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable stale : int;
  mutable corrupt : int;
  mutable writes : int;
}

type t = { dir : string; lock : Mutex.t; stats : stats }

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let open_ ~dir =
  mkdir_p dir;
  {
    dir;
    lock = Mutex.create ();
    stats = { hits = 0; misses = 0; stale = 0; corrupt = 0; writes = 0 };
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let bump t f = locked t (fun () -> f t.stats)

(* Keys land in filenames: keep them to a conservative alphabet. *)
let sanitize key =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '.' -> c | _ -> '_')
    key

let file t ~kind ~key = Filename.concat t.dir (kind ^ "-" ^ sanitize key ^ ".entry")
let header ~kind ~key =
  Printf.sprintf "boost-cache %d %d %s %s" envelope_version Structhash.analyzer_version
    kind (sanitize key)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let quarantine_path path =
  try Sys.rename path (path ^ ".corrupt") with Sys_error _ -> ()

type raw = Hit of string | Miss | Stale | Bad

let find_raw t ~kind ~key =
  let path = file t ~kind ~key in
  if not (Sys.file_exists path) then Miss
  else
    match read_file path with
    | exception Sys_error _ | exception End_of_file ->
      quarantine_path path;
      Bad
    | content -> (
      match String.index_opt content '\n' with
      | None ->
        quarantine_path path;
        Bad
      | Some i ->
        let line = String.sub content 0 i in
        let payload = String.sub content (i + 1) (String.length content - i - 1) in
        if String.equal line (header ~kind ~key) then Hit payload
        else if String.length line >= 11 && String.equal (String.sub line 0 11) "boost-cache"
        then begin
          (* A well-formed entry from another envelope or analyzer version:
             stale, not corrupt — silently dropped, rewritten on next store. *)
          (try Sys.remove path with Sys_error _ -> ());
          Stale
        end
        else begin
          quarantine_path path;
          Bad
        end)

(* [lookup] is the counting wrapper every typed accessor goes through: a
   payload that fails its decoder is demoted from hit to corrupt (and the
   file quarantined), so the statistics always describe usable entries. *)
let lookup t ~kind ~key ~decode =
  match find_raw t ~kind ~key with
  | Miss ->
    bump t (fun s -> s.misses <- s.misses + 1);
    None
  | Stale ->
    bump t (fun s -> s.stale <- s.stale + 1);
    None
  | Bad ->
    bump t (fun s -> s.corrupt <- s.corrupt + 1);
    None
  | Hit payload -> (
    match decode payload with
    | Some v ->
      bump t (fun s -> s.hits <- s.hits + 1);
      Some v
    | None | (exception _) ->
      quarantine_path (file t ~kind ~key);
      bump t (fun s -> s.corrupt <- s.corrupt + 1);
      None)

let store t ~kind ~key payload =
  match
    mkdir_p t.dir;
    Filename.temp_file ~temp_dir:t.dir ".write" ".tmp"
  with
  | exception Sys_error _ -> ()
  | tmp -> (
    try
      Out_channel.with_open_bin tmp (fun oc ->
          output_string oc (header ~kind ~key);
          output_char oc '\n';
          output_string oc payload);
      Sys.rename tmp (file t ~kind ~key);
      bump t (fun s -> s.writes <- s.writes + 1)
    with Sys_error _ -> ( try Sys.remove tmp with Sys_error _ -> ()))

(* --- maintenance --- *)

let is_cache_file name =
  Filename.check_suffix name ".entry"
  || Filename.check_suffix name ".corrupt"
  || Filename.check_suffix name ".tmp"

let clear ~dir =
  if not (Sys.file_exists dir) then 0
  else
    Array.fold_left
      (fun n name ->
        if is_cache_file name then begin
          (try Sys.remove (Filename.concat dir name) with Sys_error _ -> ());
          n + 1
        end
        else n)
      0 (Sys.readdir dir)

(* Entries on disk, grouped by kind: (kind, count, total bytes). *)
let entries ~dir =
  if not (Sys.file_exists dir) then []
  else begin
    let tally = Hashtbl.create 8 in
    Array.iter
      (fun name ->
        if Filename.check_suffix name ".entry" then begin
          let kind =
            match String.index_opt name '-' with
            | Some i -> String.sub name 0 i
            | None -> "?"
          in
          let size =
            try
              let ic = open_in_bin (Filename.concat dir name) in
              let n = in_channel_length ic in
              close_in_noerr ic;
              n
            with Sys_error _ -> 0
          in
          let c, b = Option.value (Hashtbl.find_opt tally kind) ~default:(0, 0) in
          Hashtbl.replace tally kind (c + 1, b + size)
        end)
      (Sys.readdir dir);
    Hashtbl.fold (fun kind (c, b) acc -> (kind, c, b) :: acc) tally []
    |> List.sort (fun (k1, _, _) (k2, _, _) -> String.compare k1 k2)
  end

let corrupt_count ~dir =
  if not (Sys.file_exists dir) then 0
  else
    Array.fold_left
      (fun n name -> if Filename.check_suffix name ".corrupt" then n + 1 else n)
      0 (Sys.readdir dir)

(* --- statistics --- *)

let pp_stats ppf t =
  let s = t.stats in
  Format.fprintf ppf
    "cache: %d hit(s), %d miss(es), %d stale, %d corrupt, %d write(s)"
    s.hits s.misses s.stale s.corrupt s.writes

let stats_json t =
  let s = t.stats in
  let kinds = List.map (fun (kind, count, _bytes) -> kind, Json.Int count) (entries ~dir:t.dir) in
  Json.(
    Obj
      [
        "hits", Int s.hits;
        "misses", Int s.misses;
        "stale", Int s.stale;
        "corrupt", Int s.corrupt;
        "writes", Int s.writes;
        "kinds", Obj kinds;
      ])

(* --- the fleet manifest --- *)

let encode_structhash b (h : Structhash.t) = Codec.int_out b h.Structhash.full
let decode_structhash c = { Structhash.full = Codec.int_in c }

let manifest_key = "fleet"

let write_manifest t manifest =
  let b = Buffer.create 512 in
  Codec.int_out b (List.length manifest);
  List.iter
    (fun (name, h) ->
      Codec.string_out b name;
      encode_structhash b h)
    manifest;
  store t ~kind:"manifest" ~key:manifest_key (Buffer.contents b)

(* Manifest reads do not count toward hit/miss statistics: they are
   bookkeeping around the analyses, not analysis reuse. *)
let read_manifest t =
  match find_raw t ~kind:"manifest" ~key:manifest_key with
  | Miss | Stale | Bad -> None
  | Hit payload -> (
    try
      let c = Codec.cursor payload in
      let n = Codec.int_in c in
      if n < 0 then raise (Codec.Corrupt "negative manifest size");
      Some
        (List.init n (fun _ ->
             let name = Codec.string_in c in
             name, decode_structhash c))
    with _ ->
      quarantine_path (file t ~kind:"manifest" ~key:manifest_key);
      None)

(* --- the Goblint-style diff pass --- *)

type change =
  | Unchanged
  | Changed
  | Added

type change_report = { changes : (string * change) list; removed : string list }

let change_of (old : Structhash.t option) (h : Structhash.t) =
  match old with
  | None -> Added
  | Some o -> if o.Structhash.full = h.Structhash.full then Unchanged else Changed

let diff old_manifest manifest =
  let changes =
    List.map
      (fun (name, h) -> name, change_of (List.assoc_opt name old_manifest) h)
      manifest
  in
  let removed =
    List.filter_map
      (fun (name, _) ->
        if List.mem_assoc name manifest then None else Some name)
      old_manifest
  in
  { changes; removed }

let pp_change ppf = function
  | Unchanged -> Format.pp_print_string ppf "unchanged"
  | Changed -> Format.pp_print_string ppf "changed (re-analysis required)"
  | Added -> Format.pp_print_string ppf "new (no cache entry)"

(* --- typed accessors: rendered lint reports --- *)

type lint_entry = { human : string; findings : Lint.finding list; code : int }

let lint_store t ~key e =
  let b = Buffer.create 512 in
  Codec.int_out b e.code;
  Codec.string_out b e.human;
  Lint.encode_findings b e.findings;
  store t ~kind:"lint" ~key (Buffer.contents b)

let lint_find t ~key =
  lookup t ~kind:"lint" ~key ~decode:(fun payload ->
      let c = Codec.cursor payload in
      let code = Codec.int_in c in
      let human = Codec.string_in c in
      let findings = Lint.decode_findings c in
      Some { human; findings; code })

(* --- typed accessors: resilience certificates --- *)

(* Keyed by {!Structhash.family} over the whole (n, f) window, so one entry
   replays the verdicts of an entire parameter sweep — the cross-parameter
   reuse the parameterized hashing buys. *)

let pcert_store t ~key cert =
  let b = Buffer.create 2048 in
  Cert.encode b cert;
  store t ~kind:"pcert" ~key (Buffer.contents b)

let pcert_find t ~key =
  lookup t ~kind:"pcert" ~key ~decode:(fun payload ->
      Some (Cert.decode (Codec.cursor payload)))
