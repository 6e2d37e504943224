(** The XML lexer: a pull-based (SAX-style) event reader over an
    incremental byte feed, and the library's only implementation of
    the XML subset Clip reads (names, attributes, quoted values,
    entities and character references, comments, CDATA, prolog misc,
    text trimming). {!Parser} is {!of_string} plus {!parse_result}.

    Bytes are pulled on demand from a producer ({!of_channel},
    {!of_chunks}, {!of_string}) into a sliding window whose residency
    is one chunk plus the longest pending token, and scanned in place:
    a token is copied out once, and only a token that spans a refill
    is collected in a buffer. Line and column are computed when a
    diagnostic needs them, not per byte. This is also the substrate of
    bounded-memory ingestion and the shard cutter ({!Clip_shard}).

    Well-formedness beyond the basic grammar: a repeated attribute
    name, and a character reference outside [&#[0-9]+;] /
    [&#x[0-9a-fA-F]+;] or naming a character outside 1-127, are
    rejected with [CLIP-XML-001].

    Two contracts are pinned by test/test_stream.ml and the [--xml]
    fuzz sweep against a test-only reference parser
    (test/oracle/xml_oracle.ml):

    - {b chunk-boundary independence}: the event sequence, and the
      document {!parse_result} builds from it, is the same whether the
      bytes arrive one at a time, in arbitrary chunks, or as a single
      string;
    - {b diagnostic identity}: malformed input produces the
      reference's [CLIP-XML-001] / [CLIP-LIM-001] / [CLIP-LIM-002]
      code, message and absolute span. The input-size limit included:
      on an oversized document that is also broken early, a chunked
      feed drains and sizes the rest of the feed before surfacing any
      other failure and reports [CLIP-LIM-001] at offset 0, as an
      up-front check of the whole input does. *)

(** One markup event. Text is delivered as the tree stores it:
    whitespace-only runs dropped, surrounding space trimmed
    ([String.trim]'s set), entities decoded, typed by
    [Atom.of_string]; CDATA kept raw as [Atom.String]. [End] carries
    the (already match-checked) tag. *)
type event =
  | Start of { tag : string; attrs : (string * Atom.t) list }
  | Text of Atom.t
  | End of string

type source

(** [of_chunks refill] — a source pulling bytes from [refill]: [Some
    chunk] to append bytes (empty chunks are skipped), [None] once the
    feed is exhausted. [refill] is called lazily, only when the lexer
    needs more bytes. *)
val of_chunks : ?limits:Clip_diag.Limits.t -> (unit -> string option) -> source

(** [of_string s] — the whole string as one chunk: the size limit is
    checked before any byte is scanned. *)
val of_string : ?limits:Clip_diag.Limits.t -> string -> source

(** [of_channel ic] — read [ic] in [chunk_bytes]-sized chunks (default
    64 KiB). The channel is not closed. *)
val of_channel :
  ?limits:Clip_diag.Limits.t -> ?chunk_bytes:int -> in_channel -> source

(** [next_result src] — the next event, [Ok None] once the document
    (root element plus trailing misc) has been fully consumed, or the
    diagnostics of the first failure. A failed source latches: every
    subsequent call returns the same error. The [xml.parse]
    {!Clip_fault} site fires once, before the first byte is
    consumed. *)
val next_result : source -> (event option, Clip_diag.t list) result

(** [pos src] — the absolute byte offset of the next unconsumed byte;
    after an [End] event this is the end of the closing tag. The shard
    cutter uses deltas of this as true per-subtree byte sizes. *)
val pos : source -> int

(** [subtree_result src ~tag ~attrs] — having just received
    [Start {tag; attrs}], consume events up to (and including) the
    matching [End] and build that subtree. The shard cutter uses this
    to materialise one repeated element at a time while skipping the
    rest of the document. *)
val subtree_result :
  source ->
  tag:string ->
  attrs:(string * Atom.t) list ->
  (Node.t, Clip_diag.t list) result

(** [parse_result src] — drive the source to completion and build the
    document (attributes in document order), or the diagnostics of the
    first failure. The builder runs the raw event step under one
    diagnostic guard for the whole document. *)
val parse_result : source -> (Node.t, Clip_diag.t list) result
