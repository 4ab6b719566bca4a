type t = Bool of bool | Int of int | String of string | List of t list | Obj of (string * t) list

let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when c < ' ' -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* [depth] is [None] for the compact form, else the nesting depth. *)
let rec add ~depth b v =
  let indent k = Option.iter (fun d -> Printf.bprintf b "\n%*s" (2 * (d + k)) "") depth in
  let seq opening closing add_item items =
    Buffer.add_char b opening;
    if items <> [] then begin
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char b ',';
          indent 1;
          add_item item)
        items;
      indent 0
    end;
    Buffer.add_char b closing
  in
  let inner = Option.map succ depth in
  match v with
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Int n -> Buffer.add_string b (string_of_int n)
  | String s -> add_string b s
  | List vs -> seq '[' ']' (add ~depth:inner b) vs
  | Obj kvs ->
    seq '{' '}'
      (fun (k, v) ->
        add_string b k;
        Buffer.add_string b (if depth = None then ":" else ": ");
        add ~depth:inner b v)
      kvs

let to_string ~depth v =
  let b = Buffer.create 256 in
  add ~depth b v;
  Buffer.contents b

let compact v = to_string ~depth:None v
let pretty v = to_string ~depth:(Some 0) v ^ "\n"
