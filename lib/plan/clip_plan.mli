(** A backend-agnostic physical-plan layer shared by the nested-tgd
    engine and the XQuery evaluator.

    Both backends' inner loop is a chain of generators (variables bound
    to items enumerated by an expression), a conjunction of filter
    conditions, and a per-binding action. The planner turns that
    logical shape into a physical plan:

    - {b condition pushdown} — each condition is checked at the
      earliest generator position at which all its variables are bound
      (conditions decided by the outer environment are checked once,
      before any enumeration);
    - {b hash joins} — an equality condition linking earlier-bound
      variables to a later generator turns that generator — together
      with the contiguous chain of feeder generators it depends on,
      when that chain is independent of the probe side — into a
      hash-table probe; the table enumerates the segment once per
      environment in which its inputs are fixed and is probed with the
      earlier side's key;
    - {b memoised probes} — a segment that reads nothing outside
      itself but the enclosing rules' variables is a function of the
      items those variables are bound to. A correlated equality, whose
      probe side is bound entirely by the enclosing rules (a nested
      child rule [g in db.grant where c.@cid = g.@recipient] under
      [c in db.company]), or a chain-internal equality whose per-step
      build does not pay (the paper's Fig. 7 child rule
      [p2 in pj, r in d.regEmp where p2.@pid = r.@pid]), turns such a
      segment into a probe whose table lives in a per-run {!Run.t}
      slot next to those items. The table is built at the second probe
      with the same items (the first scans the segment) and kept until
      the items change — instead of the segment being re-scanned once
      per enclosing binding. A segment reading no enclosing variable
      is the zero-read case: its table is document-invariant and built
      once per run, at the first probe;
    - {b streaming execution} — bindings are folded into an [emit]
      callback; the full Cartesian product is never materialised.

    The planner is language-agnostic: it sees only variable-dependency
    sets and evaluation closures, so both backends plug their own
    expression evaluators in. Enumeration order is preserved exactly
    (probes yield matches in build-side document order), so plan-based
    runs are output-identical to the naive interpreters. *)

(** Hashable join/dedup keys over XML atoms: composite (tuple) keys
    over the per-atom normalisation {!Clip_xml.Atom.key}, the single
    definition shared with both backends, so key equality coincides
    with {!Clip_xml.Atom.equal} ([Int 3] and [Float 3.] are one key;
    all NaNs are one key; [0.] and [-0.] are one key). Integers
    beyond the 2^53 float range coarsen onto their nearest float —
    exact consumers re-check the original condition per hit. *)
module Key : sig
  type norm = Clip_xml.Atom.key

  type t = norm list

  val norm_atom : Clip_xml.Atom.t -> norm

  (** Singleton key of one atom. *)
  val of_atom : Clip_xml.Atom.t -> t

  (** Composite key of an atom tuple (grouping keys). *)
  val of_atoms : Clip_xml.Atom.t list -> t

  val equal : t -> t -> bool
  val hash : t -> int
end

(** The engine switch threaded from {!Clip_core.Engine.run_result} down to
    both backends: [`Naive] runs the legacy interpreters (kept as
    differential-testing oracles), [`Indexed] forces the plan layer —
    every eligible equality becomes a hash join and the
    {!Clip_xml.Index} tag index is always on, [`Auto] (the default)
    also runs through the plan layer but lets the cost model decide
    per chain, from {!Clip_xml.Stats} cardinalities, whether each join
    and the tag index pay for themselves. All three modes are
    output-identical on every input whose evaluation does not raise. *)
type mode = [ `Naive | `Indexed | `Auto ]

(** Join policy given to {!val-plan}: [`Force] turns every eligible
    equality into a hash join (the [`Indexed] behaviour, and the
    strongest differential oracle); [`Cost] builds a table only when
    {!join_pays} says the estimated work saved beats the build. *)
type policy = [ `Force | `Cost ]

(** {1 Planner input} *)

type ('env, 'item) gen = {
  var : string;  (** the variable this generator binds *)
  deps : string list;  (** variables its expression reads *)
  est : int option;
      (** estimated items per evaluation, from {!Clip_xml.Stats}
          cardinalities; [None] = unknown, priced as large by the cost
          model (unknown inputs are the ones a quadratic blow-up
          hurts) *)
  eval : 'env -> 'item list;  (** enumerate the items, in order *)
  bind : 'env -> 'item -> 'env;
}

type 'env pred = {
  pvars : string list;  (** variables the predicate reads *)
  test : 'env -> bool;
}

(** One side of an equality condition as hashable keys: one key per
    atom of the (possibly multi-valued) side. The condition holds when
    the sides share at least one key. *)
type 'env keyed = {
  kvars : string list;
  keys : 'env -> Key.t list;
}

type 'env cond =
  | Eq of { left : 'env keyed; right : 'env keyed; orig : 'env pred }
      (** an equality the planner may turn into a hash join; [orig] is
          the exact original test, re-checked on every probe hit *)
  | Other of 'env pred

(** {1 Physical plans} *)

(** A step covers one generator ([Scan]) or a contiguous segment of
    generators ([Probe]) replaced wholesale by a hash-table lookup
    storing bound item tuples; a plain single-generator hash join is
    the segment of length one. [build] says when the table is built;
    [preds] are re-checked on every hit (they include the original
    equality, so key coarsening can never widen the join). *)
type ('env, 'item) stage =
  | Scan of { gen : ('env, 'item) gen; preds : 'env pred list }
  | Probe of ('env, 'item) probe

and ('env, 'item) probe = {
  gens : ('env, 'item) gen array;
  slot : int;
  build : build;
  build_keys : 'env -> Key.t list;
  probe_keys : 'env -> Key.t list;
  preds : 'env pred list;
}

(** The two build kinds. [At i]: the table is built on entry to step
    [i], once per binding of the steps before it. [Memo]: the segment
    reads nothing outside itself but the enclosing variables [reads]
    (sorted), so the table is a function of their items. Slot [id] of
    the run's {!Run.t} remembers the items of the last probe; the table
    is built at a probe that arrives with the same items as the one
    before it, and kept until a probe brings different ones, so the
    slot holds one table at a time. A probe with fresh items scans the
    segment instead: a table serving one probe would not pay. With
    [reads = []] the table is document-invariant and built once per
    run, at the first probe. *)
and build = At of int | Memo of { id : int; reads : string list }

type ('env, 'item) t = {
  pre : 'env pred list;
  stages : ('env, 'item) stage array;
  builds : int list array;
  nslots : int;
  notes : string list;
      (** planner decisions, one line per equality condition: the
          chosen strategy (hash join / pushed-down filter) plus the
          cost-model inputs that justified it (estimated outer/inner
          cardinalities, {!join_pays} verdict, structural guards) *)
}

val stage_gens : ('env, 'item) stage -> ('env, 'item) gen array

(** One-line plan rendering, e.g. ["scan(p) probe(d.e@0)"] — for tests
    and debugging. A memoised probe shows its reads after the [@]
    (["probe(r@d)"]), or [run] when it reads none. *)
val describe : ('env, 'item) t -> string

(** Multi-line EXPLAIN rendering: one line per stage (strategy,
    cardinality estimate, pushed-down filter count) followed by the
    planner's decision {!field-notes}. Purely static — no timings, no
    execution — so the output is stable for golden tests. Every line
    is indented two spaces and newline-terminated. *)
val explain : ('env, 'item) t -> string

(** {1 Cost model} *)

(** Estimate cap; products of per-generator estimates saturate here so
    they cannot overflow. *)
val est_cap : int

(** [join_pays ~outer ~seg] — is a hash join over a segment of
    estimated cardinality [seg], probed once per binding of the
    estimated [outer] prefix, cheaper than re-enumerating the segment
    per prefix binding? Compares [outer * seg] (naive enumerations)
    against [seg + outer] builds/probes with a constant-factor tax for
    hashing and tuple allocation. [None] (unknown) is priced as large,
    i.e. the join is taken. *)
val join_pays : outer:int option -> seg:int option -> bool

(** [plan ?policy ~bound ~gens ~conds] — the physical plan for one
    generator chain. [bound] lists the variables already bound by the
    outer environment. [policy] (default [`Force]) selects between forced and cost-based join
    selection; condition pushdown is free and happens under both.

    A probe's segment always ends at the build side's generator.
    Regardless of policy, an equality whose probe side reads no chain
    generator variable (a constant or outer-bound key) is never turned
    into a per-step join. When the probe side reads outer-bound
    variables only (a correlated child rule), it becomes a [Memo]
    probe, under both policies, if some segment reads nothing outside
    itself but enclosing variables that the probe side does not
    merely repeat; otherwise, and always for a key-less side such as
    [y.a = 5], it stays a pushed-down filter. Under [`Cost], a
    chain-internal equality whose per-step ([At]) build the cost
    model rejects becomes a [Memo] probe in a nested chain
    ([bound <> []]) when such a segment exists, and a filter
    otherwise. If a generator shadows an outer variable or a sibling
    generator, the planner degrades to checking every condition at the
    innermost position (naive semantics are always preserved). *)
val plan :
  ?policy:policy ->
  bound:string list ->
  gens:('env, 'item) gen list ->
  conds:'env cond list ->
  unit ->
  ('env, 'item) t

(** [revisit_prone t] — can executing [t] enumerate the same parent
    element more than once? True when some stage is a per-step ([At])
    probe (its table may be rebuilt per outer binding) or some later
    scan is independent of the variable bound immediately before it.
    A [Memo] probe enumerates its segment once per run, or once per
    binding of the enclosing variables it reads, and does not count.
    The lazy tag index only pays on such plans; straight-line chains
    never reuse a grouping. *)
val revisit_prone : ('env, 'item) t -> bool

(** How a run reads the enclosing rules' bindings: [find env x] is
    the item enclosing variable [x] is bound to in [env] ([None] when
    it is unbound or not an item), and [same] is node identity on
    items. It only has to be sound: [same a b] may answer [false] for
    one node reached twice (that costs a scan or a rebuild), never
    [true] for two different ones. *)
type ('env, 'item) enclosing = {
  find : 'env -> string -> 'item option;
  same : 'item -> 'item -> bool;
}

(** The per-run home of memoised tables: one slot per [Memo] probe,
    holding the enclosing items it was last probed with and the table
    built for them, if any. A plan holds no mutable state — plans are
    memoised per session and shared across runs and domains — so each
    backend run creates one handle and passes it to every execution of
    every plan of that run. [create ?enclosing ()] takes the backend's
    reader of enclosing items; without one, a [Memo] probe that reads
    enclosing variables never finds its items again and always scans. *)
module Run : sig
  type ('env, 'item) t

  val create : ?enclosing:('env, 'item) enclosing -> unit -> ('env, 'item) t
end

(** [execute ?obs ~run t ~tick ~env ~emit] streams every surviving
    binding of the chain into [emit], in exactly the naive enumeration
    order. [tick] is called once per item enumerated at every stage,
    so step budgets keep metering enumerated bindings (CLIP-LIM-004);
    that includes the items a [Memo] probe's scan or table build
    enumerates, except the one build of a zero-read table ([At] builds
    are not metered either). [Memo] probes keep their
    slots in [run]. [?obs] counts hash-join builds and probes; a [Memo]
    probe that scans counts as a probe. *)
val execute :
  ?obs:Clip_obs.Counters.t ->
  run:('env, 'item) Run.t ->
  ('env, 'item) t ->
  tick:(unit -> unit) ->
  env:'env ->
  emit:('env -> unit) ->
  unit

(** [batchable t] — true when every per-step hash-join build of [t]
    fires before stage 0 (memoised tables are looked up per probe, so
    they never need a per-cell snapshot), so a breadth-first frontier
    can share one table set and {!execute_batch} runs its allocation-free sweep.
    Correlated (later-stage) builds force the batch executor onto a
    per-cell table-snapshot path that costs more than the depth-first
    {!execute}; evaluators use this predicate to batch exactly the
    plans where batching pays. *)
val batchable : ('env, 'item) t -> bool

(** [scan_only t] — true when [t] has no hash-probe stages at all: the
    plan is a pure navigation sweep. Implies {!batchable} (builds
    exist only for probes). The strictest batching criterion an
    evaluator can pick when probe-stage frontiers don't pay on its
    workloads. *)
val scan_only : ('env, 'item) t -> bool

(** [execute_batch ?obs ~run t ~tick ~env ~emit] — the vectorized executor:
    instead of one recursive descent per binding, each stage runs as
    one sweep over a frontier chunk of environments (id vectors, on
    the columnar document path). Emission order, survivors and the
    per-item [tick] count are exactly those of {!execute} — only the
    iteration schedule changes: ticks, cancellation polls and fault
    windows land stage-by-stage at batch granularity. Frontier chunks
    are bounded (a few thousand cells) and each chunk runs to
    completion before the next, so memory stays proportional to chunk
    width x stage fan-out, not to the full cross product. [?obs]
    additionally counts [batches_executed] / [batch_width]. *)
val execute_batch :
  ?obs:Clip_obs.Counters.t ->
  run:('env, 'item) Run.t ->
  ('env, 'item) t ->
  tick:(unit -> unit) ->
  env:'env ->
  emit:('env -> unit) ->
  unit
