open Ioa

type entry = {
  inputs : Value.t list;
  analysis : Valence.t;
  verdict : Valence.verdict;
}

let entry_of ?max_states sys inputs =
  let start = Model.System.initialize sys inputs in
  let graph = Graph.explore ?max_states sys start in
  let analysis = Valence.analyze graph in
  let verdict = Valence.verdict analysis (Graph.root graph) in
  { inputs; analysis; verdict }

let staircase ?max_states sys =
  let n = Model.System.n_processes sys in
  List.init (n + 1) (fun i ->
    let inputs = List.init n (fun p -> Value.int (if p < i then 1 else 0)) in
    entry_of ?max_states sys inputs)

let all_binary ?max_states sys =
  let n = Model.System.n_processes sys in
  if n > 16 then invalid_arg "Initialization.all_binary: too many processes";
  List.init (1 lsl n) (fun bits ->
    let inputs = List.init n (fun p -> Value.int ((bits lsr p) land 1)) in
    entry_of ?max_states sys inputs)

let find_bivalent ?max_states sys =
  List.find_opt
    (fun e -> Valence.equal_verdict e.verdict Valence.Bivalent)
    (staircase ?max_states sys)

let staircase_flip entries =
  let rec go = function
    | a :: (b :: _ as rest) ->
      if Valence.equal_verdict a.verdict Valence.Bivalent then None
      else if
        Valence.equal_verdict a.verdict Valence.Zero_valent
        && not (Valence.equal_verdict b.verdict Valence.Zero_valent)
      then Some (a, b)
      else go rest
    | _ -> None
  in
  go entries

let pp_entry ppf e =
  Format.fprintf ppf "@[<h>inputs=[%a] -> %a (graph: %d states%s)@]"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ";") Value.pp)
    e.inputs Valence.pp_verdict e.verdict
    (Graph.size (Valence.graph e.analysis))
    (if Valence.is_exact e.analysis then "" else ", bounded")
