type t =
  | String of string
  | Int of int
  | Float of float
  | Bool of bool

let string s = String s
let int i = Int i
let float f = Float f
let bool b = Bool b

let to_string = function
  | String s -> s
  | Int i -> string_of_int i
  | Float f ->
    (* Avoid the "3." OCaml spelling: print integral floats as integers. *)
    if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.0f" f
    else Printf.sprintf "%g" f
  | Bool b -> string_of_bool b

(* No int, float ([inf], [nan], hex and decimal forms) or bool lexeme
   starts with an ASCII letter other than these, so a name-like value
   skips the three conversions. *)
let may_be_literal s =
  match s with
  | "" -> true
  | _ ->
    (match String.unsafe_get s 0 with
     | 'i' | 'I' | 'n' | 'N' | 't' | 'f' -> true
     | 'a' .. 'z' | 'A' .. 'Z' -> false
     | _ -> true)

(* The value of the decimal digits [s.[i, n)], or -1 if one is not a
   digit. *)
let rec digits_value s i n acc =
  if i = n then acc
  else
    match String.unsafe_get s i with
    | '0' .. '9' as c -> digits_value s (i + 1) n ((acc * 10) + Char.code c - 48)
    | _ -> -1

let of_string s =
  if not (may_be_literal s) then String s
  else
    (* A plain decimal, an optional '-' and up to 18 digits, is read
       here; it cannot overflow, and [int_of_string] agrees. *)
    let n = String.length s in
    let neg = n > 1 && String.unsafe_get s 0 = '-' in
    let first = if neg then 1 else 0 in
    let v = if n > first && n - first <= 18 then digits_value s first n 0 else -1 in
    if v >= 0 then Int (if neg then -v else v)
    else
      match int_of_string_opt s with
      | Some i -> Int i
      | None ->
        (match float_of_string_opt s with
         | Some f -> Float f
         | None ->
           (match bool_of_string_opt s with
            | Some b -> Bool b
            | None -> String s))

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | String _ | Bool _ -> None

let equal a b =
  match a, b with
  | String x, String y -> String.equal x y
  | Bool x, Bool y -> Bool.equal x y
  | Int x, Int y -> Int.equal x y
  | Float x, Float y -> Float.equal x y
  | Int x, Float y | Float y, Int x -> Float.equal (float_of_int x) y
  | (String _ | Bool _ | Int _ | Float _), _ -> false

let kind_rank = function
  | String _ -> 0
  | Int _ | Float _ -> 1
  | Bool _ -> 2

let compare a b =
  match a, b with
  | String x, String y -> String.compare x y
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | a, b ->
    let r = Int.compare (kind_rank a) (kind_rank b) in
    if r <> 0 then r else String.compare (to_string a) (to_string b)

(* --- Join-key normalisation -------------------------------------------- *)

(* One hashable shape per {!equal}-equivalence class, shared by the
   plan layer's hash joins and both backends' grouping/dedup keys so
   every consumer agrees on what "the same value" means. [Int i] and
   [Float f] normalise to the same key when [float_of_int i = f], all
   NaNs collapse to one key, and [0.] / [-0.] collapse to one key
   ([Float.equal] holds on signed zeros, hence {!equal} does).
   Integers beyond the 2^53 float range coarsen onto their nearest
   float — consumers that must be exact re-check the original
   predicate on each hash hit. *)
type key =
  | KString of string
  | KNum of int64 (* IEEE bits; NaNs and -0. canonicalised *)
  | KBool of bool

let key = function
  | String s -> KString s
  | Bool b -> KBool b
  | Int i -> KNum (Int64.bits_of_float (float_of_int i))
  | Float f ->
    (* [+. 0.] maps [-0.] onto [0.] and is the identity elsewhere, so
       the two zeros — equal under IEEE, hence under {!equal} — share
       IEEE bits; a raw [bits_of_float] would put them in different
       hash buckets and make a join miss matches the naive
       interpreter emits. *)
    KNum (Int64.bits_of_float (if Float.is_nan f then Float.nan else f +. 0.))

let pp fmt a = Format.pp_print_string fmt (to_string a)
