(** A struct-of-arrays (columnar) document representation.

    Nodes carry preorder ids (the root is 0; every parent precedes its
    descendants; sibling ids increase in document order). Per-node
    properties live in flat arrays — interned tag symbols, parent /
    first-child / next-sibling links, attribute ranges — and every
    atomic value is an index into one shared, deduplicated atom table,
    so traversals are int-array sweeps instead of pointer chases. This
    is the substrate of the vectorized execution path (the [`Columnar]
    representation of {!Clip_core.Engine.run_result}).

    {!of_node} keeps a back-pointer to the original boxed node of each
    id, so {!to_node} is O(1) and returns the {e physically identical}
    subtree — identity-keyed caches ({!Index}, provenance) and
    byte-identical outputs keep working when columnar and tree
    execution mix. {!rebuild} is the genuine array-to-tree
    reconstruction, sharing nothing with the input; [rebuild d 0] is
    {!Node.equal} to the converted document.

    Atoms are deduplicated by {e exact representation} (floats as IEEE
    bits), never by the looser {!Atom.equal} classes, so values read
    through the columnar path print and compare exactly like the boxed
    originals. Both conversions are total and stack-safe (explicit
    worklists — depth-proportional heap, constant OCaml stack). *)

type t = private {
  tags : int array;  (** per node: [(element.sym :> int)]; [-1] = text *)
  parent : int array;  (** [-1] for the root *)
  first_child : int array;  (** [-1] when childless *)
  next_sibling : int array;  (** [-1] for a last sibling *)
  nchildren : int array;  (** per node: child count (elements and texts) *)
  attr_start : int array;  (** per node: first slot in [attr_names] *)
  attr_len : int array;  (** per node: attribute count *)
  attr_names : string array;  (** per attribute slot *)
  attr_value : int array;  (** per attribute slot: index into [atoms] *)
  text_atom : int array;  (** per text node: index into [atoms]; else [-1] *)
  text_value : int array;
      (** per element: precomputed {!Node.text_value} atom; [-1] = none *)
  atoms : Atom.t array;  (** shared deduplicated atom table *)
  nodes : Node.t array;  (** per node: the original boxed subtree *)
  by_elem : (int, int) Hashtbl.t;
      (** [Node.element.id] -> node id; filled only when [elem_map] is
          empty *)
  elem_lo : int;  (** base of [elem_map] *)
  elem_map : int array;
      (** dense [Node.element.id - elem_lo] -> node id map ([-1] =
          absent); empty when the document's allocation ids are too
          sparse, and lookups use [by_elem] instead *)
  elements : int;
}

(** The document-representation switch threaded from
    {!Clip_core.Engine.run_result} down to both backends: [`Tree] runs the
    boxed-tree interpreters (the differential oracle), [`Columnar] the
    array path, [`Auto] picks columnar when the document is large
    enough that conversion pays for itself. All representations are
    output-identical. *)
type repr = [ `Tree | `Columnar | `Auto ]

(** [of_node root] — one conversion pass: preorder numbering, sibling
    links, attribute ranges, atom interning. Total and stack-safe on
    documents of any depth. *)
val of_node : Node.t -> t

(** [to_node t id] — the original boxed subtree rooted at [id]; O(1)
    and physically identical to the corresponding subtree of the
    converted document.
    @raise Invalid_argument when [id] is out of range. *)
val to_node : t -> int -> Node.t

(** [rebuild t id] — reconstruct the subtree at [id] purely from the
    arrays (fresh nodes, nothing shared with the input). Stack-safe.
    [rebuild t 0] is {!Node.equal} to the document [t] was built from.
    @raise Invalid_argument when [id] is out of range. *)
val rebuild : t -> int -> Node.t

(** [id_of t e] — the preorder id of (the last occurrence of) element
    [e] in [t], keyed by its allocation id; [None] for elements not
    part of the converted document (e.g. nodes constructed during
    evaluation — callers fall back to the tree path). *)
val id_of : t -> Node.element -> int option

(** [find_id t e] — like {!id_of} but non-allocating: the preorder id,
    or [-1] for elements not part of the converted document. The
    per-step lookup of the columnar evaluators. *)
val find_id : t -> Node.element -> int

(** Total number of nodes (elements + texts). *)
val length : t -> int

val element_count : t -> int
val is_element : t -> int -> bool

(** [tag t id] — the interned tag of element [id].
    @raise Invalid_argument on a text node or an out-of-range id. *)
val tag : t -> int -> Symbol.t

(** [text_value_of t id] — the precomputed {!Node.text_value} of
    element [id]: an O(1) array read on the columnar path. *)
val text_value_of : t -> int -> Atom.t option

(** [attr t id name] — attribute lookup through the attribute-range
    arrays; same semantics as {!Node.attr}. *)
val attr : t -> int -> string -> Atom.t option

(** [children_ids t id] — child ids of [id] (elements and texts), in
    document order, off the sibling chain. *)
val children_ids : t -> int -> int list
