(* A struct-of-arrays (columnar) document representation.

   Nodes are numbered in preorder (document order): the root is id 0
   and every parent precedes its descendants. Each per-node property
   lives in its own flat array — interned tag symbols, parent /
   first-child / next-sibling links, attribute ranges — and every
   atomic value (text payloads, attribute values, precomputed element
   text values) is an index into one shared, deduplicated atom table.
   Traversals become int-array sweeps with no pointer chasing and no
   per-step allocation, which is what the vectorized execution path
   ({!Clip_plan}, both backend evaluators under [`Columnar]) runs on.

   [of_node] additionally records the original boxed node of every id,
   so [to_node] is an O(1) array read returning the {e physically
   identical} subtree. That choice is load-bearing: identity-keyed
   caches ({!Index}, provenance seen-sets) and byte-identical output
   guarantees keep holding when columnar and tree execution mix in one
   run. [rebuild] is the genuine array-to-tree reconstruction — used
   by round-trip tests and, later, by cross-domain document shipping —
   and shares nothing with the input.

   Atom deduplication is by exact representation ([Float] payloads
   compared as IEEE bits), never by the looser [Atom.equal] classes:
   [Int 3] and [Float 3.] stay separate atoms, so a value read through
   the columnar path prints and compares exactly like the boxed
   original and outputs cannot drift across representations. *)

type t = {
  tags : int array;
      (* per node: [(Node.element.sym :> int)]; [-1] for text nodes *)
  parent : int array; (* [-1] for the root *)
  first_child : int array; (* [-1] when childless *)
  next_sibling : int array; (* [-1] for a last sibling *)
  nchildren : int array;
      (* per node: child count (elements and texts); the smallness
         test of {!Index} reads it instead of re-walking the sibling
         chain on every probe *)
  attr_start : int array; (* per node: first slot in [attr_names] *)
  attr_len : int array; (* per node: attribute count; 0 for text *)
  attr_names : string array; (* per attribute slot *)
  attr_value : int array; (* per attribute slot: index into [atoms] *)
  text_atom : int array; (* per text node: index into [atoms]; else -1 *)
  text_value : int array;
      (* per element: precomputed {!Node.text_value} as an index into
         [atoms]; [-1] = no text children. Makes value/predicate reads
         an O(1) array load on the columnar path. *)
  atoms : Atom.t array; (* shared deduplicated atom table *)
  nodes : Node.t array; (* per node: the original boxed subtree *)
  by_elem : (int, int) Hashtbl.t;
      (* Node.element.id -> node id, filled only when [elem_map] is
         empty (sparse ids); empty otherwise *)
  elem_lo : int;
  elem_map : int array;
      (* dense element-id -> node-id map: slot [e.id - elem_lo] holds
         the node id, [-1] when no element of the document has that
         allocation id. Built when the document's allocation ids are
         near-contiguous (a tree parsed or built in one go), which
         makes the per-step element lookup three instructions instead
         of a generic hash; empty when the ids are too sparse, and
         [find_id] falls back to [by_elem]. *)
  elements : int;
}

(* The document representation switch threaded from the engine down to
   both backends: [`Tree] runs the boxed interpreters (the oracle),
   [`Columnar] the array path, [`Auto] picks columnar for documents
   large enough that conversion pays for itself. *)
type repr = [ `Tree | `Columnar | `Auto ]

let length t = Array.length t.tags
let element_count t = t.elements

(* --- Conversion: tree -> arrays ---------------------------------------- *)

(* Dedup key preserving the exact atom representation: floats by IEEE
   bits (so [0.] / [-0.] and distinct NaN payloads never merge), ints
   and floats in separate namespaces (so [Int 3] never aliases
   [Float 3.]). *)
type akey = AString of string | AInt of int | AFloat of int64 | ABool of bool

let akey = function
  | Atom.String s -> AString s
  | Atom.Int i -> AInt i
  | Atom.Float f -> AFloat (Int64.bits_of_float f)
  | Atom.Bool b -> ABool b

let of_node root =
  (* Pass 1: size everything, including the range of element
     allocation ids (stack-safe worklist). *)
  let n = ref 0 and nattrs = ref 0 and nelems = ref 0 in
  let elem_lo = ref max_int and elem_hi = ref min_int in
  let stack = ref [ root ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | node :: rest ->
      incr n;
      (match node with
       | Node.Text _ -> stack := rest
       | Node.Element e ->
         incr nelems;
         elem_lo := min !elem_lo e.Node.id;
         elem_hi := max !elem_hi e.Node.id;
         nattrs := !nattrs + List.length e.Node.attrs;
         stack := List.rev_append (List.rev e.Node.children) rest)
  done;
  (* Dense lookup only when the id range is close to the element
     count: hash-consing allocates ids monotonically, so a tree built
     in one go is contiguous; a document assembled from widely-spaced
     builds keeps a hashtable instead of a mostly-empty array. Exactly
     one of the two is filled. *)
  let dense = !nelems > 0 && !elem_hi - !elem_lo + 1 <= 4 * !nelems in
  let elem_lo = if dense then !elem_lo else 0 in
  let elem_map = if dense then Array.make (!elem_hi - elem_lo + 1) (-1) else [||] in
  let by_elem = Hashtbl.create (if dense then 1 else 2 * !nelems) in
  let n = !n in
  let tags = Array.make n (-1) in
  let parent = Array.make n (-1) in
  let first_child = Array.make n (-1) in
  let next_sibling = Array.make n (-1) in
  let attr_start = Array.make n 0 in
  let attr_len = Array.make n 0 in
  let nchildren = Array.make n 0 in
  let attr_names = Array.make !nattrs "" in
  let attr_value = Array.make !nattrs (-1) in
  let text_atom = Array.make n (-1) in
  let text_value = Array.make n (-1) in
  let nodes = Array.make n root in
  (* Atom table: deduplicated, in first-seen order. *)
  let atom_ids : (akey, int) Hashtbl.t = Hashtbl.create 64 in
  let atoms_rev = ref [] and natoms = ref 0 in
  let atom_id a =
    let k = akey a in
    match Hashtbl.find_opt atom_ids k with
    | Some i -> i
    | None ->
      let i = !natoms in
      incr natoms;
      Hashtbl.add atom_ids k i;
      atoms_rev := a :: !atoms_rev;
      i
  in
  (* Pass 2: preorder numbering. Popping a node assigns the next id;
     its children are pushed front-first so the whole subtree is
     numbered before any following sibling. *)
  let next = ref 0 in
  let anext = ref 0 in
  let stack = ref [ (root, -1) ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | (node, p) :: rest ->
      stack := rest;
      let id = !next in
      incr next;
      nodes.(id) <- node;
      parent.(id) <- p;
      (match node with
       | Node.Text a -> text_atom.(id) <- atom_id a
       | Node.Element e ->
         tags.(id) <- (e.Node.sym :> int);
         nchildren.(id) <- List.length e.Node.children;
         (* A later occurrence of a shared element overwrites an
            earlier one, in either map. *)
         if dense then elem_map.(e.Node.id - elem_lo) <- id
         else Hashtbl.replace by_elem e.Node.id id;
         (match Node.text_value e with
          | Some a -> text_value.(id) <- atom_id a
          | None -> ());
         attr_start.(id) <- !anext;
         List.iter
           (fun (name, v) ->
             attr_names.(!anext) <- name;
             attr_value.(!anext) <- atom_id v;
             incr anext)
           e.Node.attrs;
         attr_len.(id) <- !anext - attr_start.(id);
         stack :=
           List.fold_left (fun acc c -> (c, id) :: acc) !stack
             (List.rev e.Node.children))
  done;
  (* Sibling links: sweep ids in reverse — siblings carry increasing
     preorder ids, so each id pushes itself in front of the current
     first child of its parent. *)
  for id = n - 1 downto 1 do
    let p = parent.(id) in
    next_sibling.(id) <- first_child.(p);
    first_child.(p) <- id
  done;
  {
    tags;
    parent;
    first_child;
    next_sibling;
    attr_start;
    attr_len;
    nchildren;
    attr_names;
    attr_value;
    text_atom;
    text_value;
    atoms = Array.of_list (List.rev !atoms_rev);
    nodes;
    by_elem;
    elem_lo;
    elem_map;
    elements = !nelems;
  }

(* --- Reads -------------------------------------------------------------- *)

let check t id fn =
  if id < 0 || id >= Array.length t.tags then
    invalid_arg (Printf.sprintf "Doc.%s: node id %d out of range" fn id)

let to_node t id =
  check t id "to_node";
  t.nodes.(id)

(* The per-step element lookup, non-allocating for hot paths: an
   option cell — and a generic hash — per child step is measurable
   across a whole run. With the dense map, a document element costs an
   offset and a bounds test, and a foreign (evaluator-built) element
   falls off the range immediately: allocation ids only grow, so
   nothing built after conversion can land inside it. *)
let find_id t (e : Node.element) =
  let off = e.Node.id - t.elem_lo in
  if off >= 0 && off < Array.length t.elem_map then Array.unsafe_get t.elem_map off
  else if Array.length t.elem_map > 0 then -1
  else
    match Hashtbl.find t.by_elem e.Node.id with
    | id -> id
    | exception Not_found -> -1

let id_of t e =
  let id = find_id t e in
  if id >= 0 then Some id else None

let is_element t id = t.tags.(id) >= 0

let tag t id =
  check t id "tag";
  Symbol.of_int t.tags.(id)

let text_value_of t id =
  check t id "text_value_of";
  let v = t.text_value.(id) in
  if v < 0 then None else Some t.atoms.(v)

let attr t id name =
  check t id "attr";
  let stop = t.attr_start.(id) + t.attr_len.(id) in
  let rec go i =
    if i >= stop then None
    else if String.equal t.attr_names.(i) name then Some t.atoms.(t.attr_value.(i))
    else go (i + 1)
  in
  go t.attr_start.(id)

let children_ids t id =
  check t id "children_ids";
  let rec go acc c = if c < 0 then List.rev acc else go (c :: acc) t.next_sibling.(c) in
  go [] t.first_child.(id)

(* --- Reconstruction: arrays -> tree ------------------------------------- *)

type frame = { id : int; mutable next : int; mutable kids_rev : Node.t list }

let rebuild t id0 =
  check t id0 "rebuild";
  let text id = Node.text t.atoms.(t.text_atom.(id)) in
  let mk_elem id kids_rev =
    let tag = Symbol.name (Symbol.of_int t.tags.(id)) in
    let attrs =
      List.init t.attr_len.(id) (fun k ->
          let a = t.attr_start.(id) + k in
          (t.attr_names.(a), t.atoms.(t.attr_value.(a))))
    in
    Node.elem ~attrs tag (List.rev kids_rev)
  in
  if t.tags.(id0) < 0 then text id0
  else begin
    (* Post-order assembly over an explicit frame stack: a frame walks
       its sibling chain, descending into element children; when the
       chain is exhausted the element is built and handed to its
       parent frame. Depth-proportional heap, constant OCaml stack. *)
    let stack = ref [ { id = id0; next = t.first_child.(id0); kids_rev = [] } ] in
    let result = ref None in
    while !result = None do
      match !stack with
      | [] -> assert false
      | f :: rest ->
        if f.next >= 0 then begin
          let c = f.next in
          f.next <- t.next_sibling.(c);
          if t.tags.(c) < 0 then f.kids_rev <- text c :: f.kids_rev
          else stack := { id = c; next = t.first_child.(c); kids_rev = [] } :: !stack
        end
        else begin
          let node = mk_elem f.id f.kids_rev in
          stack := rest;
          match rest with
          | [] -> result := Some node
          | parentf :: _ -> parentf.kids_rev <- node :: parentf.kids_rev
        end
    done;
    match !result with Some node -> node | None -> assert false
  end
