(** End-to-end execution of a Clip mapping over a source instance.

    Four backends implement the same semantics:
    - [`Tgd] — compile to a nested tgd and run the {!Clip_tgd.Eval}
      data-exchange engine directly;
    - [`Rel] — when the mapping's source schema is relational-shaped
      (the {!Clip_schema.Relational} encoding: tables under a bare
      root), compile the same tgd to a {!Clip_rel} program and run it
      over an in-memory column store with hash joins; rejects nested
      sources statically with [CLIP-REL-003];
    - [`Xquery] — compile to a tgd, generate the XQuery of Sec. VI with
      {!To_xquery}, and evaluate it with {!Clip_xquery.Eval};
    - [`Xquery_text] — like [`Xquery], but round-tripping the query
      through its concrete syntax ({!Clip_xquery.Pretty} then
      {!Clip_xquery.Parser}): exactly what an external XQuery processor
      would receive.

    The test suite asserts all backends agree on every scenario; the
    benchmark harness compares their cost.

    Orthogonally to the backend, [?plan] selects the physical
    evaluation strategy: [`Auto] (the default) runs through the shared
    {!Clip_plan} layer with cost-based join selection (from
    {!Clip_xml.Stats} cardinalities) and adaptive tag indexing;
    [`Indexed] forces every eligible hash join and the index
    unconditionally; [`Naive] runs the original interpreters, kept as
    differential-testing oracles. All three produce identical target
    instances. [?steps_out], when given, receives the number of
    evaluation-budget steps consumed.

    Also orthogonally, [?repr] selects the document representation
    ({!Clip_xml.Doc.repr}, default [`Tree]): [`Columnar] converts the
    source to the struct-of-arrays {!Clip_xml.Doc} — cached per
    document by a {!Session} — and both backends then run child steps
    as id-vector probes and physical plans through the vectorized
    {!Clip_plan.execute_batch}; [`Auto] picks columnar when the
    document is large enough to repay conversion. Every representation
    produces byte-identical target instances.

    For repeated runs against one source instance, a {!Session}
    amortises the per-document and per-mapping analysis — compile,
    translation, statistics, tag index, physical plans — across
    runs.

    Every execution entry point returns a [result]: each failure, on
    every backend, plan, representation and shard mode, is a list of
    stable [CLIP-*] diagnostics, never an exception. Only caller errors
    raise [Invalid_argument]: an empty {!run_staged_result} chain, or
    [~minimum_cardinality:false] on a backend other than [`Tgd]. *)

type backend = [ `Tgd | `Xquery | `Xquery_text | `Rel ]

(** How one (large) source document is executed:
    - [`Whole] (the default everywhere except {!run_stream_result}) —
      the sequential whole-document evaluation, unchanged; the oracle
      every other mode must match byte for byte;
    - [`Sharded] — when {!Clip_shard.plan} designates a safe cut and
      the document holds at least two shard units, cut the document at
      the topmost repeated element the mapping quantifies over,
      evaluate the shards on [?jobs] domains through the unchanged
      backend executors (one backend session per shard, tgd and query
      compiled once), and merge the per-shard targets into exactly the
      whole-document output. Join-bearing and otherwise unsafe mappings
      fall back to [`Whole] (EXPLAIN says why, see {!explain_result});
    - [`Auto] — [`Sharded], but only when the document overflows one
      [?shard_bytes] budget, so small documents keep the zero-overhead
      whole path.

    Sharded runs preserve outputs, diagnostics (the lowest shard's
    failure, i.e. the first the sequential run would hit) and counter
    totals; only the per-shard step budget differs ([?limits] bounds
    each shard evaluation, not their sum). *)
type mode = [ `Whole | `Sharded | `Auto ]

(** The default shard byte budget (1 MiB of estimated serialisation
    per shard). *)
val default_shard_bytes : int

(** A per-source-document cache: the backends' sessions (tag index,
    instance statistics, compiled physical plans) plus this layer's
    compile caches (mapping to tgd, tgd to XQuery). Create one per
    document and hand every run to it; repeated runs of the same
    mapping pay analysis once and only re-execute. Sessions are not
    thread-safe.

    {b Document identity and mutation.} A session pins the exact
    document {e value} passed to {!create}: every cached artifact
    (statistics, tag index, plan cardinality estimates) describes that
    value, and reuse is keyed by {e physical} identity ([==]).
    {!Clip_xml.Node.t} values are immutable, so a document can never
    change under a live session — "mutating" a document means building
    a new [Node.t], and the correct move is a {b new session} for it.
    Both safety nets are automatic: a session handed a run against a
    different (even structurally equal) document simply bypasses its
    per-document caches, and a rebuilt document is a new allocation,
    so it can never be mistaken for the pinned one and served stale
    statistics or plans. What a session does {e not} do is notice that
    the new document is "the same file, edited" — cross-document cache
    reuse is deliberately out of scope.

    Sessions are single-domain values: for parallel evaluation give
    each task its own session (see {!Clip_par}); never share one
    across domains. *)
module Session : sig
  type t

  val create : Clip_xml.Node.t -> t
  val source : t -> Clip_xml.Node.t

  (** [run_result session mapping] — like {!val-run_result} over the
      session's document, reusing every cached artifact. [?ctx]
      supplies the execution context whose counter sink and tracer
      observe the run (default: a fresh silent context). *)
  val run_result :
    ?ctx:Clip_run.t ->
    ?limits:Clip_diag.Limits.t ->
    ?backend:backend ->
    ?minimum_cardinality:bool ->
    ?plan:Clip_plan.mode ->
    ?repr:Clip_xml.Doc.repr ->
    ?steps_out:int ref ->
    ?mode:mode ->
    ?shard_bytes:int ->
    ?jobs:int ->
    t ->
    Mapping.t ->
    (Clip_xml.Node.t, Clip_diag.t list) result
end

(** The backend contract, made explicit: everything the engine needs
    from an execution backend in one signature. A backend provides a
    shard-ready compiled form ([query], prepared once per run and
    shared by every shard), whole-document evaluation through the
    {!Session} caches ([eval_result] — phase spans, counters,
    cancellation and the step budget flow through the [ctx]), per-shard
    evaluation against fresh backend state ([eval_shard]), and the
    static plan renderer behind [clip explain] ([explain_result]). Every
    function that can fail reports diagnostics.

    Engine dispatch is a lookup in the {!backends} table of first-class
    modules, so adding a backend means writing one module satisfying
    this signature and appending one row — no new match arms. The
    existing differential suites pin that the tgd and XQuery backends
    behave byte-identically through this interface to the former
    hard-wired dispatch. *)
module type BACKEND = sig
  type query

  val id : backend
  val name : string

  (** One clause for the [--backend] option's documentation. *)
  val doc : string

  val prepare_result :
    ?limits:Clip_diag.Limits.t ->
    ?obs:Clip_obs.Counters.t ->
    ctx:Clip_run.t ->
    ?session:Session.t ->
    mapping:Mapping.t ->
    Clip_tgd.Tgd.t ->
    (query, Clip_diag.t list) result

  val eval_result :
    ?limits:Clip_diag.Limits.t ->
    ctx:Clip_run.t ->
    minimum_cardinality:bool ->
    ?plan:Clip_plan.mode ->
    ?repr:Clip_xml.Doc.repr ->
    ?steps_out:int ref ->
    Session.t ->
    Mapping.t ->
    Clip_tgd.Tgd.t ->
    (Clip_xml.Node.t, Clip_diag.t list) result

  val eval_shard :
    ?limits:Clip_diag.Limits.t ->
    minimum_cardinality:bool ->
    ?plan:Clip_plan.mode ->
    ?repr:Clip_xml.Doc.repr ->
    ctl:Clip_run.Control.t ->
    obs:Clip_obs.Counters.t option ->
    steps_out:int ref ->
    query ->
    Clip_xml.Node.t ->
    (Clip_xml.Node.t, Clip_diag.t list) result

  val explain_result :
    ?obs:Clip_obs.Counters.t ->
    ?plan:Clip_plan.mode ->
    Session.t ->
    Mapping.t ->
    Clip_tgd.Tgd.t ->
    (string, Clip_diag.t list) result
end

(** A backend packed with its (existential) query type — the row type
    of the registry. *)
type packed = Backend : (module BACKEND with type query = 'q) -> packed

(** The registry: every execution backend, in the order the CLI lists
    them. *)
val backends : packed list

(** [backend_module id] — the registry row implementing [id]. *)
val backend_module : backend -> packed

(** [backend_of_name name] — the backend whose CLI name is [name]
    ([None] for unknown names; the CLI derives its [--backend] parser
    from this registry). *)
val backend_of_name : string -> packed option

(** The CLI name of every registered backend, paired with its
    identifier — the alternatives of the [--backend] option. *)
val backend_names : (string * backend) list

(** [run_result mapping source] — the target instance. Default backend
    [`Tgd]; default minimum-cardinality on; default plan [`Auto];
    default mode [`Whole]. [?ctx] supplies the execution context —
    counter sink, tracer, and the one-shot session memo that lets
    repeated runs over the same document under one context reuse its
    analysis; without it, the per-domain {!Clip_run.ambient} shim is
    used (silent, domain-local).

    Every failure stage is reported as diagnostics: [CLIP-VAL-*]
    validity errors, [CLIP-CMP-*] compile errors, [CLIP-XQG-001]
    translation gaps, [CLIP-REL-003] non-relational sources on [`Rel],
    [CLIP-XQ-*] parse errors of the round-tripped query on
    [`Xquery_text], [CLIP-TGD-001]/[CLIP-XQ-002] dynamic errors,
    [CLIP-LIM-004] exhausted step budgets, [CLIP-LIM-005]/[CLIP-LIM-006]
    deadline and cancellation, and injected [CLIP-FLT-*] faults.
    @raise Invalid_argument on [~minimum_cardinality:false] with a
    backend other than [`Tgd]. *)
val run_result :
  ?ctx:Clip_run.t ->
  ?limits:Clip_diag.Limits.t ->
  ?backend:backend ->
  ?minimum_cardinality:bool ->
  ?plan:Clip_plan.mode ->
  ?repr:Clip_xml.Doc.repr ->
  ?steps_out:int ref ->
  ?mode:mode ->
  ?shard_bytes:int ->
  ?jobs:int ->
  Mapping.t ->
  Clip_xml.Node.t ->
  (Clip_xml.Node.t, Clip_diag.t list) result

(** [run_staged_result mappings source] — run a non-empty chain of
    mappings stage by stage, the output document of each stage feeding
    the next. All stages share one execution context (counters, tracer,
    deadline, cancellation) and the same engine options; [?steps_out]
    receives the total across stages. The first failing stage aborts
    the chain with its diagnostics. This is the fallback execution
    strategy of {!Clip_algebra.Pipeline} when composition is rejected.
    @raise Invalid_argument on an empty chain. *)
val run_staged_result :
  ?ctx:Clip_run.t ->
  ?limits:Clip_diag.Limits.t ->
  ?backend:backend ->
  ?minimum_cardinality:bool ->
  ?plan:Clip_plan.mode ->
  ?repr:Clip_xml.Doc.repr ->
  ?steps_out:int ref ->
  ?mode:mode ->
  ?shard_bytes:int ->
  ?jobs:int ->
  Mapping.t list ->
  Clip_xml.Node.t ->
  (Clip_xml.Node.t, Clip_diag.t list) result

(** [run_stream_result mapping stream] — run a mapping over a byte
    stream ({!Clip_xml.Stream.source}, e.g. {!Clip_xml.Stream.of_channel})
    instead of a materialised document.

    Default [?mode] is [`Auto]. When the resolved decision is a safe
    cut whose shards need no document prologue, the run is {e fully
    streaming}: the {!Clip_shard.cutter} materialises one shard at a
    time straight off the byte feed, [?jobs] domains evaluate shards
    through {!Clip_par.stream_results}, and the merger folds outputs
    strictly in document order — peak residency is the in-flight
    window of shards plus the merged target, never the source tree.
    Every other case (mode [`Whole], unsafe mapping, prologue-bearing
    shards, a root that does not open the expected container chain)
    materialises the document first and proceeds exactly as
    {!run_result} on it.

    Output, diagnostics and counters are identical to parsing the same
    bytes and calling {!run_result} — the input-size limit included:
    as documented in {!Clip_xml.Stream}, an oversized feed reports
    [CLIP-LIM-001] even when an early chunk is syntactically broken,
    exactly as the up-front check of the whole-string parse would. *)
val run_stream_result :
  ?ctx:Clip_run.t ->
  ?limits:Clip_diag.Limits.t ->
  ?backend:backend ->
  ?minimum_cardinality:bool ->
  ?plan:Clip_plan.mode ->
  ?repr:Clip_xml.Doc.repr ->
  ?steps_out:int ref ->
  ?mode:mode ->
  ?shard_bytes:int ->
  ?jobs:int ->
  Mapping.t ->
  Clip_xml.Stream.source ->
  (Clip_xml.Node.t, Clip_diag.t list) result

(** [explain_result ?backend ?plan mapping source] — a static, deterministic
    EXPLAIN of how a run with the same arguments would execute: the
    resolved strategy (e.g. [`Auto] dropping to the direct interpreter
    below the planning threshold), then per source clause the chosen
    physical step (nested-loop scan, pushed-down filter, hash join)
    with the cost-model inputs that justified it — estimated
    outer/inner cardinalities, {!Clip_plan.join_pays} verdicts,
    threshold triggers. Nothing is executed and no timings appear, so
    output is golden-testable.

    When [?mode] is given, a final [sharding: ...] line states the
    resolved sharding decision for this document — the designated cut,
    or the whole-document fallback with its reason. Without [?mode]
    the output is unchanged.

    Failures are the diagnostics the same {!run_result} would report
    before executing: [CLIP-VAL-*] for an invalid mapping,
    [CLIP-CMP-*], [CLIP-XQG-001] and [CLIP-REL-003]. *)
val explain_result :
  ?ctx:Clip_run.t ->
  ?backend:backend ->
  ?plan:Clip_plan.mode ->
  ?mode:mode ->
  ?shard_bytes:int ->
  Mapping.t ->
  Clip_xml.Node.t ->
  (string, Clip_diag.t list) result

(** [diagnose mapping] — every diagnostic for a mapping in one pass:
    all validity issues (warnings included) and, when the mapping is
    valid enough to compile, any compile- or translation-stage
    errors. Empty means clean. *)
val diagnose : Mapping.t -> Clip_diag.t list

(** [run_traced_result mapping source] — run on the tgd backend and
    also return instance-level lineage: which source elements each
    created target element came from (see
    {!Clip_tgd.Eval.run_traced_result}). Diagnostics as
    {!run_result}. *)
val run_traced_result :
  ?ctx:Clip_run.t ->
  ?minimum_cardinality:bool ->
  ?plan:Clip_plan.mode ->
  Mapping.t ->
  Clip_xml.Node.t ->
  (Clip_xml.Node.t * Clip_tgd.Eval.trace_entry list, Clip_diag.t list) result

(** The generated XQuery text for a mapping (Sec. VI output).
    @raise Compile.Invalid when the mapping is invalid
    @raise To_xquery.Unsupported when the query fragment cannot express
    it. *)
val xquery_text : Mapping.t -> string

(** The compiled nested tgd in the paper's notation (Sec. IV output).
    @raise Compile.Invalid when the mapping is invalid. *)
val tgd_text : ?unicode:bool -> Mapping.t -> string
