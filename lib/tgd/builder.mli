(** The shared target-construction core of the tgd semantics.

    Every executor of a nested tgd — the {!Eval} tree-walk and the
    relational backend ([Clip_rel]) — builds the target instance the
    same way: a mutable build tree rooted at the target root, with
    three creation disciplines per target generator ([Driven] — one
    fresh element per binding; [Completion] — memoised once per parent
    context under minimum cardinality; [Grouped] — memoised per
    normalised grouping key), completion singletons materialised along
    intermediate target-path steps, and leaf assignments that reject
    conflicting values. This module owns that construction state plus
    the scalar kernel (functions, comparisons, aggregates), so every
    executor produces byte-identical targets and identical dynamic
    error messages ([CLIP-TGD-001]).

    The emission entry points ({!instantiate_target},
    {!apply_assertion}, {!pre_instantiate}, {!emit_binding}) are
    generic over the executor's environment type: an {!type-ops} record
    supplies variable lookup/binding, scalar evaluation and provenance
    recording, which is all the construction semantics needs from the
    source side. *)

(** A mutable target element under construction. [bprov] accumulates
    the contributing source elements (instance-level lineage, see
    {!Eval.run_traced_result}); [bseen] is its identity seen-set. *)
type bnode = {
  id : int;
  btag : string;
  mutable battrs : (string * Clip_xml.Atom.t) list; (* reversed *)
  mutable btext : Clip_xml.Atom.t option;
  mutable bchildren : bnode list; (* reversed *)
  mutable bprov : Clip_xml.Node.element list; (* reversed *)
  mutable bseen : unit Clip_xml.Index.Tbl.t option;
}

val fresh_bnode : string -> bnode

(** Freeze a build tree into an immutable {!Clip_xml.Node.t}. *)
val bnode_to_node : bnode -> Clip_xml.Node.t

(** One target instance under construction: the root plus the
    completion and group memo tables ([min_card] selects the paper's
    minimum-cardinality semantics; without it completion generators
    create driven elements). *)
type t

val create : min_card:bool -> target_root:string -> t
val root : t -> bnode
val min_card : t -> bool

val append_child : bnode -> bnode -> unit
val completion_child : t -> bnode -> string -> bnode
val driven_child : bnode -> string -> bnode
val grouped_child : t -> bnode -> string -> Clip_plan.Key.t -> bnode

(** [resolve_target bld ~target_root ~lookup e] — the base build node
    of target expression [e] (the target root, or a bound target
    variable through [lookup]) and its projection steps. [lookup]
    returns [None] for unbound names (reported here) and is expected to
    raise the evaluator's own diagnostic for source-bound names. *)
val resolve_target :
  t ->
  target_root:string ->
  lookup:(string -> bnode option) ->
  Term.expr ->
  bnode * Clip_schema.Path.step list

(** Materialise intermediate child steps as completion singletons. *)
val descend_completion : t -> bnode -> Clip_schema.Path.step list -> bnode

val split_last : 'a list -> ('a list * 'a) option

(** [set_leaf b step atom] — assign an attribute or text value,
    rejecting conflicting reassignment. *)
val set_leaf : bnode -> Clip_schema.Path.step -> Clip_xml.Atom.t -> unit

(** {1 Scalar kernel} *)

(** The scalar function symbols every backend accepts. *)
val scalar_functions : string list

val apply_fn : string -> Clip_xml.Atom.t list -> Clip_xml.Atom.t
val atomize_items : Clip_xquery.Value.item list -> Clip_xml.Atom.t list
val compare_atoms : Tgd.cmp_op -> Clip_xml.Atom.t -> Clip_xml.Atom.t -> bool
val aggregate : Tgd.agg_kind -> Clip_xquery.Value.item list -> Clip_xml.Atom.t option

(** Raise a [CLIP-TGD-001] dynamic-error diagnostic. *)
val error : ('a, unit, string, 'b) format4 -> 'a

(** {1 Env-generic emission} *)

(** The evaluator-side operations emission needs. *)
type 'env ops = {
  lookup_tgt : 'env -> string -> bnode option;
  bind_tgt : 'env -> string -> bnode -> 'env;
  eval_scalar : 'env -> Term.scalar -> Clip_xml.Atom.t list;
  eval_items : 'env -> Term.expr -> Clip_xquery.Value.item list;
  record_provenance : 'env -> bnode -> unit;
}

(** Instantiate one target generator under [env], returning the
    extended environment. *)
val instantiate_target :
  t -> ops:'env ops -> target_root:string -> 'env -> Tgd.target_gen -> 'env

val apply_assertion :
  t -> ops:'env ops -> target_root:string -> 'env -> Tgd.assertion -> unit

(** Instantiate the leading completion generators of [m] once per
    parent context (the paper's constant tags). *)
val pre_instantiate :
  t -> ops:'env ops -> target_root:string -> 'env -> Tgd.t -> unit

(** The per-binding body: instantiate [m]'s target generators, apply
    its assertions, then hand the extended environment to [children]. *)
val emit_binding :
  t ->
  ops:'env ops ->
  target_root:string ->
  ('env -> unit) ->
  'env ->
  Tgd.t ->
  unit
