(** XQuery values: sequences of items (nodes or atomics), plus the
    atomization / effective-boolean-value rules the evaluator needs. *)

type item =
  | Node of Clip_xml.Node.t
  | Atomic of Clip_xml.Atom.t

type t = item list

val empty : t
val of_node : Clip_xml.Node.t -> t
val of_atom : Clip_xml.Atom.t -> t

(** [atomize v] — typed-value extraction: atomics pass through, an
    element node yields its string value (concatenated descendant
    text), re-typed through {!Clip_xml.Atom.of_string} so numeric
    comparisons behave. *)
val atomize : t -> Clip_xml.Atom.t list

(** XPath string value of one item. *)
val string_value : item -> string

(** Effective boolean value: empty → false; a leading node → true;
    a single atomic → by kind (non-zero / non-empty / the boolean).
    @raise Invalid_argument on multi-atomic sequences (per spec). *)
val effective_bool : t -> bool

val item_equal : item -> item -> bool

(** Node identity: [true] when both items are the same element of one
    tree, however often it was wrapped, or physically the same item.
    Never [true] for two different nodes, so it is sound as a memo key
    comparison ({!Clip_plan.enclosing}); equal atoms that are not
    physically one value compare [false]. *)
val identical : item -> item -> bool

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
