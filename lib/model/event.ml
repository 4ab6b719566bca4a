module Value = Ioa.Value

type net_kind = Drop | Duplicate | Delay of int

type t =
  | Init of int * Value.t
  | Fail of int
  | Invoke of int * string * Value.t
  | Respond of int * string * Value.t
  | Decide of int * Value.t
  | Proc_internal of int
  | Perform of string * int
  | Compute of string * string
  | Dummy of Task.t
  | Net of { service : string; endpoint : int; kind : net_kind }
  | Partition of int list list
  | Heal of int list list

let equal a b = Stdlib.compare a b = 0

let pp_net_kind ppf = function
  | Drop -> Format.pp_print_string ppf "drop"
  | Duplicate -> Format.pp_print_string ppf "dup"
  | Delay lag -> Format.fprintf ppf "delay(%d)" lag

let pp_blocks ppf blocks =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_char ppf '|')
    (fun ppf block ->
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.pp_print_char ppf '.')
        Format.pp_print_int ppf block)
    ppf blocks

let separates blocks i j =
  let rec block k idx = function
    | [] -> -1
    | b :: rest -> if List.mem k b then idx else block k (idx + 1) rest
  in
  i <> j && block i 0 blocks <> block j 0 blocks

let pp ppf = function
  | Init (i, v) -> Format.fprintf ppf "init(%a)_%d" Value.pp v i
  | Fail i -> Format.fprintf ppf "fail_%d" i
  | Invoke (i, k, a) -> Format.fprintf ppf "%a_{%d,%s}" Value.pp a i k
  | Respond (i, k, b) -> Format.fprintf ppf "%a_{%d,%s}^out" Value.pp b i k
  | Decide (i, v) -> Format.fprintf ppf "decide(%a)_%d" Value.pp v i
  | Proc_internal i -> Format.fprintf ppf "step_%d" i
  | Perform (k, i) -> Format.fprintf ppf "perform_{%d,%s}" i k
  | Compute (k, g) -> Format.fprintf ppf "compute_{%s,%s}" g k
  | Dummy e -> Format.fprintf ppf "dummy(%a)" Task.pp e
  | Net { service; endpoint; kind } ->
    Format.fprintf ppf "%a_{%d,%s}" pp_net_kind kind endpoint service
  | Partition blocks -> Format.fprintf ppf "partition(%a)" pp_blocks blocks
  | Heal blocks -> Format.fprintf ppf "heal(%a)" pp_blocks blocks

let to_string t = Format.asprintf "%a" pp t

let is_external = function Init _ | Fail _ | Decide _ -> true | _ -> false
let is_dummy = function Dummy _ -> true | _ -> false

let to_ioa = function
  | Init (i, v) -> Services.Sig_names.init i v
  | Fail i -> Services.Sig_names.fail i
  | Invoke (i, k, a) -> Services.Sig_names.invoke i k a
  | Respond (i, k, b) -> Services.Sig_names.respond i k b
  | Decide (i, v) -> Services.Sig_names.decide i v
  | Proc_internal i -> Services.Sig_names.step i
  | Perform (k, i) -> Services.Sig_names.perform i k
  | Compute (k, g) -> Services.Sig_names.compute g k
  | Dummy (Task.Proc i) -> Services.Sig_names.step i
  | Dummy (Task.Svc_perform { svc; endpoint }) ->
    Services.Sig_names.dummy_perform endpoint (string_of_int svc)
  | Dummy (Task.Svc_output { svc; endpoint }) ->
    Services.Sig_names.dummy_output endpoint (string_of_int svc)
  | Dummy (Task.Svc_compute { svc; glob }) ->
    Services.Sig_names.dummy_compute glob (string_of_int svc)
  | Net { service; endpoint; kind } ->
    let k, lag = match kind with Drop -> "drop", 0 | Duplicate -> "dup", 0 | Delay l -> "delay", l in
    Services.Sig_names.net_fault k endpoint service lag
  | Partition blocks -> Services.Sig_names.partition blocks
  | Heal blocks -> Services.Sig_names.heal blocks
