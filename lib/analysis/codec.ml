(* Compact text codec for the persistent analysis cache: the strings and
   integers the lint, pcert and manifest payloads are built from, in a
   prefix encoding with no lookahead. Strings use OCaml %S escaping, so encoded
   payloads never contain raw newlines and envelope files stay line-structured.
   Decoders raise {!Corrupt} on any malformed input; the cache layer turns
   that into a quarantined entry, never a crash. *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

type cursor = { s : string; mutable pos : int }

let cursor s = { s; pos = 0 }

let peek c = if c.pos >= String.length c.s then corrupt "unexpected end" else c.s.[c.pos]

let next c =
  let ch = peek c in
  c.pos <- c.pos + 1;
  ch

let expect c ch =
  let got = next c in
  if got <> ch then corrupt "expected %C, got %C at %d" ch got (c.pos - 1)

(* --- strings --- *)

let string_out b s = Buffer.add_string b (Printf.sprintf "%S" s)

let string_in c =
  expect c '"';
  let start = c.pos in
  let rec scan () =
    match next c with
    | '"' -> ()
    | '\\' ->
      ignore (next c);
      scan ()
    | _ -> scan ()
  in
  scan ();
  let quoted = String.sub c.s (start - 1) (c.pos - start + 1) in
  match Scanf.sscanf_opt quoted "%S%!" Fun.id with
  | Some s -> s
  | None -> corrupt "bad string literal %s" quoted

(* --- integers --- *)

let int_out b i =
  Buffer.add_string b (string_of_int i);
  Buffer.add_char b ';'

let int_in c =
  let start = c.pos in
  let rec scan () = if peek c = ';' then () else (c.pos <- c.pos + 1; scan ()) in
  scan ();
  let tok = String.sub c.s start (c.pos - start) in
  c.pos <- c.pos + 1;
  match int_of_string_opt tok with
  | Some i -> i
  | None -> corrupt "bad integer %s" tok
