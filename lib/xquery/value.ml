module Xml = Clip_xml

type item =
  | Node of Xml.Node.t
  | Atomic of Xml.Atom.t

type t = item list

let empty = []
let of_node n = [ Node n ]
let of_atom a = [ Atomic a ]

let rec node_string_value = function
  | Xml.Node.Text a -> Xml.Atom.to_string a
  | Xml.Node.Element e ->
    String.concat "" (List.map node_string_value e.children)

let string_value = function
  | Node n -> node_string_value n
  | Atomic a -> Xml.Atom.to_string a

let atomize_item = function
  | Atomic a -> a
  | Node (Xml.Node.Text a) -> a
  | Node (Xml.Node.Element _ as n) -> Xml.Atom.of_string (node_string_value n)

let atomize v = List.map atomize_item v

let effective_bool = function
  | [] -> false
  | Node _ :: _ -> true
  | [ Atomic a ] ->
    (match a with
     | Xml.Atom.Bool b -> b
     | Xml.Atom.Int i -> i <> 0
     | Xml.Atom.Float f -> f <> 0. && not (Float.is_nan f)
     | Xml.Atom.String s -> String.length s > 0)
  | Atomic _ :: _ :: _ ->
    invalid_arg "effective_bool: a sequence of more than one atomic value"

let item_equal a b =
  match a, b with
  | Node x, Node y -> Xml.Node.equal x y
  | Atomic x, Atomic y -> Xml.Atom.equal x y
  | Node _, Atomic _ | Atomic _, Node _ -> false

let equal a b = List.length a = List.length b && List.for_all2 item_equal a b

let identical a b =
  a == b
  ||
  match a, b with
  | Node (Xml.Node.Element x), Node (Xml.Node.Element y) -> x == y
  | Node x, Node y -> x == y
  | Atomic x, Atomic y -> x == y
  | Node _, Atomic _ | Atomic _, Node _ -> false

let pp fmt v =
  let pp_item fmt = function
    | Node n -> Xml.Node.pp fmt n
    | Atomic a -> Xml.Atom.pp fmt a
  in
  Format.fprintf fmt "(%a)"
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ", ") pp_item)
    v
