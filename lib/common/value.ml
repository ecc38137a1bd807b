type t =
  | Null
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type ty = Tint | Tfloat | Tstr | Tbool

let equal a b =
  match a, b with
  | Null, Null -> true
  | Int x, Int y -> x = y
  | Float x, Float y -> Float.equal x y
  | Str x, Str y -> String.equal x y
  | Bool x, Bool y -> Bool.equal x y
  | (Null | Int _ | Float _ | Str _ | Bool _), _ -> false

let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Float _ -> 3
  | Str _ -> 4

let compare a b =
  match a, b with
  | Null, Null -> 0
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  (* Cross-numeric comparison: an Int and a Float compare by value, so
     that a restructuring changing a field's carrier type does not
     change sort order. *)
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | Str x, Str y -> String.compare x y
  | Bool x, Bool y -> Bool.compare x y
  | a, b -> Int.compare (rank a) (rank b)

let equal_ty a b =
  match a, b with
  | Tint, Tint | Tfloat, Tfloat | Tstr, Tstr | Tbool, Tbool -> true
  | (Tint | Tfloat | Tstr | Tbool), _ -> false

let rank_ty = function Tbool -> 0 | Tint -> 1 | Tfloat -> 2 | Tstr -> 3
let compare_ty a b = Int.compare (rank_ty a) (rank_ty b)

let ty_of = function
  | Null -> None
  | Int _ -> Some Tint
  | Float _ -> Some Tfloat
  | Str _ -> Some Tstr
  | Bool _ -> Some Tbool

let conforms v ty =
  match ty_of v with None -> true | Some ty' -> equal_ty ty ty'

let is_null = function Null -> true | Int _ | Float _ | Str _ | Bool _ -> false

let default = function
  | Tint -> Int 0
  | Tfloat -> Float 0.
  | Tstr -> Str ""
  | Tbool -> Bool false

let numeric_op name fint ffloat a b =
  match a, b with
  | Int x, Int y -> Int (fint x y)
  | Float x, Float y -> Float (ffloat x y)
  | Int x, Float y -> Float (ffloat (float_of_int x) y)
  | Float x, Int y -> Float (ffloat x (float_of_int y))
  | _ -> invalid_arg (name ^ ": non-numeric operand")

let add a b = numeric_op "Value.add" ( + ) ( +. ) a b
let sub a b = numeric_op "Value.sub" ( - ) ( -. ) a b
let mul a b = numeric_op "Value.mul" ( * ) ( *. ) a b

let concat a b =
  match a, b with
  | Str x, Str y -> Str (x ^ y)
  | _ -> invalid_arg "Value.concat: non-string operand"

let pp ppf = function
  | Null -> Fmt.string ppf "NULL"
  | Int i -> Fmt.int ppf i
  | Float f -> Fmt.float ppf f
  | Str s -> Fmt.pf ppf "%S" s
  | Bool b -> Fmt.string ppf (if b then "TRUE" else "FALSE")

let pp_ty ppf ty =
  Fmt.string ppf
    (match ty with
    | Tint -> "INT"
    | Tfloat -> "FLOAT"
    | Tstr -> "STR"
    | Tbool -> "BOOL")

(* Same bytes as [Fmt.str "%a" pp v] without a formatter: [show] is on
   the hot path of every record-key rendering. *)
let show = function
  | Null -> "NULL"
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | Str s -> "\"" ^ String.escaped s ^ "\""
  | Bool true -> "TRUE"
  | Bool false -> "FALSE"

let show_ty ty = Fmt.str "%a" pp_ty ty

let to_display = function
  | Null -> "NULL"
  | Int i -> string_of_int i
  | Float f -> string_of_float f
  | Str s -> s
  | Bool b -> if b then "TRUE" else "FALSE"

let of_literal s =
  let n = String.length s in
  if n = 0 then None
  else if n >= 2 && (s.[0] = '\'' || s.[0] = '"') && s.[n - 1] = s.[0] then
    Some (Str (String.sub s 1 (n - 2)))
  else
    match String.uppercase_ascii s with
    | "NULL" -> Some Null
    | "TRUE" -> Some (Bool true)
    | "FALSE" -> Some (Bool false)
    | _ -> (
        match int_of_string_opt s with
        | Some i -> Some (Int i)
        | None -> (
            match float_of_string_opt s with
            | Some f -> Some (Float f)
            | None -> None))

let hash = function
  | Null -> 17
  | Int i -> Hashtbl.hash (1, i)
  | Float f -> Hashtbl.hash (2, f)
  | Str s -> Hashtbl.hash (3, s)
  | Bool b -> Hashtbl.hash (4, b)

module Key = struct
  type nonrec t = t list

  let equal a b = List.compare compare a b = 0

  let hash_value = function
    | Int i -> Hashtbl.hash (float_of_int i)
    | Float f -> Hashtbl.hash f
    | v -> hash v

  let hash k = List.fold_left (fun h v -> (h * 31) + hash_value v) 0 k

  module Tbl = Hashtbl.Make (struct
    type nonrec t = t

    let equal = equal
    let hash = hash
  end)

  module Rec_tbl = Hashtbl.Make (struct
    type nonrec t = string * t

    let equal (n, k) (n', k') = String.equal n n' && equal k k'
    let hash (n, k) = (Hashtbl.hash n * 65599) + hash k
  end)

  module Link_tbl = Hashtbl.Make (struct
    type nonrec t = string * t * t

    let equal (n, l, r) (n', l', r') =
      String.equal n n' && equal l l' && equal r r'

    let hash (n, l, r) = (((Hashtbl.hash n * 65599) + hash l) * 65599) + hash r
  end)
end
