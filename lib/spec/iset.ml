include Set.Make (Int)

let pp ppf s =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       Format.pp_print_int)
    (elements s)

let to_value s = Ioa.Value.set_of_list (List.map Ioa.Value.int (elements s))
let of_value v = of_list (List.map Ioa.Value.to_int (Ioa.Value.set_elements v))
