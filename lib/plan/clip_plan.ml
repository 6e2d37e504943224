(* A backend-agnostic physical-plan layer.

   Both execution backends (the nested-tgd engine and the XQuery
   evaluator) share the same inner loop: a chain of generators binding
   variables to items, a conjunction of filter conditions, and a
   per-binding action. The naive interpreters enumerate the full
   Cartesian product of the generators and only then filter; this
   module separates that logical shape from a physical evaluation plan:

   - condition pushdown: each condition is checked at the earliest
     generator position at which all its variables are bound;
   - hash joins: an equality condition between earlier-bound variables
     and a later generator turns that generator — together with the
     contiguous chain of generators feeding it, when that chain is
     independent of the probe side — into a hash-table probe, built
     once per environment in which the segment's inputs are fixed;
   - memoised probes: a segment that reads nothing outside itself but
     the enclosing rules' variables is a function of the items those
     variables are bound to. A correlated equality (a nested child
     rule joined to its parent's variable), or a chain-internal one
     whose per-step build does not pay, turns it into a probe whose
     table lives in a per-run [Run.t] slot, tagged with those items:
     built at the second probe with the same items (the first scans)
     and kept until they change — not re-scanned once per parent
     binding. A segment that reads no enclosing variable is the
     zero-read case: its document-invariant table is built once per
     run;
   - streaming execution: bindings are folded into an [emit] callback
     instead of being materialised as a list.

   The planner works on an abstract description — variable-dependency
   sets plus evaluation closures — so it does not depend on either
   backend's expression language. Enumeration order is preserved
   exactly: pushdown never reorders generators, and a hash probe
   yields its matches in build-side (document) order, so a plan-based
   run is byte-identical to the naive interpreter on every input whose
   evaluation does not raise. (Error behaviour may differ: pushdown
   can evaluate a failing condition that the naive interpreter would
   never reach because a later generator is empty, and vice versa.) *)

module Key = struct
  (* Hashable join/dedup keys over atoms. The per-atom normalisation —
     the one spot where "which atoms are the same join key" is decided
     — lives in [Clip_xml.Atom.key], shared with both backend
     evaluators; this module only lifts it to composite (tuple) keys. *)
  type norm = Clip_xml.Atom.key

  type t = norm list

  let norm_atom = Clip_xml.Atom.key
  let of_atom a = [ norm_atom a ]
  let of_atoms atoms = List.map norm_atom atoms
  let equal (a : t) (b : t) = a = b
  let hash (k : t) = Hashtbl.hash k
end

type mode = [ `Naive | `Indexed | `Auto ]
type policy = [ `Force | `Cost ]

(* --- Planner input ----------------------------------------------------- *)

type ('env, 'item) gen = {
  var : string;  (** the variable this generator binds *)
  deps : string list;  (** variables its expression reads *)
  est : int option;
      (** estimated items per evaluation (from {!Clip_xml.Stats});
          [None] = unknown, priced as large *)
  eval : 'env -> 'item list;  (** enumerate the items, in order *)
  bind : 'env -> 'item -> 'env;
}

type 'env pred = {
  pvars : string list;  (** variables the predicate reads *)
  test : 'env -> bool;
}

(* One side of an equality condition, as hashable keys. [keys] returns
   one key per atom of the (possibly multi-valued) side; the condition
   holds when the two sides share at least one key. *)
type 'env keyed = {
  kvars : string list;
  keys : 'env -> Key.t list;
}

type 'env cond =
  | Eq of { left : 'env keyed; right : 'env keyed; orig : 'env pred }
  | Other of 'env pred

(* --- Physical plan ----------------------------------------------------- *)

(* A step covers one generator (Scan) or a contiguous run of
   generators (Probe) replaced wholesale by a hash-table lookup: the
   table enumerates the whole segment once per build environment and
   stores the bound item tuples, so probing restores every segment
   variable at once. A single-generator hash join is the segment of
   length one. *)
type ('env, 'item) stage =
  | Scan of { gen : ('env, 'item) gen; preds : 'env pred list }
  | Probe of ('env, 'item) probe

and ('env, 'item) probe = {
  gens : ('env, 'item) gen array;
      (** the segment's generators, in enumeration order *)
  slot : int;  (** table slot, unique per probe *)
  build : build;
  build_keys : 'env -> Key.t list;
      (** keys of one build-side tuple (evaluated with the whole
          segment bound) *)
  probe_keys : 'env -> Key.t list;
  preds : 'env pred list;
      (** residual predicates, including the original equality —
          re-checked so key coarsening can never widen the join — and
          every condition pushdown placed inside the segment *)
}

(* When a probe's table is built. [At i]: on entry to step [i], once
   per binding of the steps before it. [Memo]: the segment reads
   nothing outside itself but the enclosing variables [reads], so its
   table is a function of their items; it lives in the {!Run.t} slot
   [id] next to those items, built at the second probe that brings
   them and kept until they change. With no reads the table is
   document-invariant and built once per run, at the first probe. *)
and build = At of int | Memo of { id : int; reads : string list }

type ('env, 'item) t = {
  pre : 'env pred list;  (** conditions decided by the outer environment *)
  stages : ('env, 'item) stage array;  (** steps, in enumeration order *)
  builds : int list array;
      (** [builds.(i)]: probe steps whose table is built on entry to
          step [i] (once per binding of the steps [< i]); memoised
          probes are built lazily and never listed here *)
  nslots : int;
  notes : string list;
      (** planner decisions, one line per equality condition: the
          chosen strategy plus the cost-model inputs that justified it *)
}

let stage_gens = function Scan { gen; _ } -> [| gen |] | Probe { gens; _ } -> gens
let est_str = function Some e -> string_of_int e | None -> "?"
let reads_str reads = String.concat "," reads

let describe t =
  String.concat " "
    (Array.to_list
       (Array.map
          (function
            | Scan { gen; preds } ->
              Printf.sprintf "scan(%s%s)" gen.var
                (if preds = [] then "" else Printf.sprintf "/%d" (List.length preds))
            | Probe { gens; build; _ } ->
              Printf.sprintf "probe(%s@%s)"
                (String.concat "." (Array.to_list (Array.map (fun g -> g.var) gens)))
                (match build with
                 | At i -> string_of_int i
                 | Memo { reads = []; _ } -> "run"
                 | Memo { reads; _ } -> reads_str reads))
          t.stages))

(* --- Cost model --------------------------------------------------------- *)

(* Estimates are capped so products cannot overflow; the cap is far
   above any threshold the model compares against. *)
let est_cap = 1_000_000

(* [join_pays ~outer ~seg] — is a hash join over a segment of
   estimated cardinality [seg], probed once per binding of the
   [outer] estimated prefix, cheaper than re-enumerating the segment
   per prefix binding? Naive cost ~ outer*seg enumerations; join cost
   ~ seg (build) + outer (probes), with a constant-factor tax for
   hashing and tuple allocation. [None] (unknown) is priced as large:
   unknown inputs are exactly the ones a quadratic blow-up hurts. *)
let join_pays ~outer ~seg =
  match outer, seg with
  | Some o, Some s -> o * s >= (2 * (o + s)) + 16
  | None, _ | _, None -> true

(* Saturating product of a segment's per-generator estimates; [None]
   when any member is unknown — mirrors the planner's [est_range]. *)
let est_product gens =
  Array.fold_left
    (fun acc g ->
      match acc, g.est with
      | Some a, Some e -> Some (min est_cap (a * min (max e 0) est_cap))
      | None, _ | _, None -> None)
    (Some 1) gens

let explain t =
  let b = Buffer.create 256 in
  if t.pre <> [] then
    Printf.bprintf b "  pre: %d condition(s) decided by the outer environment\n"
      (List.length t.pre);
  let filters label = function
    | 0 -> ""
    | 1 -> Printf.sprintf " [1 %s]" label
    | k -> Printf.sprintf " [%d %ss]" k label
  in
  Array.iteri
    (fun i stage ->
      match stage with
      | Scan { gen; preds } ->
        Printf.bprintf b "  stage %d: scan %s (est %s)%s\n" i gen.var
          (est_str gen.est)
          (filters "filter" (List.length preds))
      | Probe { gens; build; preds; _ } ->
        Printf.bprintf b "  stage %d: hash probe %s (%s, est %s)%s\n" i
          (String.concat "." (Array.to_list (Array.map (fun g -> g.var) gens)))
          (match build with
           | At k -> Printf.sprintf "built at step %d" k
           | Memo { reads = []; _ } -> "built once per run"
           | Memo { reads; _ } -> "built once per binding of " ^ reads_str reads)
          (est_str (est_product gens))
          (filters "residual filter" (List.length preds)))
    t.stages;
  List.iter (fun line -> Printf.bprintf b "  note: %s\n" line) t.notes;
  Buffer.contents b

(* --- Planning ---------------------------------------------------------- *)

(* Keys of memoised tables in a {!Run.t}: unique across every plan of
   the process, so one handle serves all the plans of a mapping tree. *)
let memo_ids = Atomic.make 0

let plan ?(policy = `Force) ~bound ~gens ~conds () =
  (* Fault boundary: planning happens inside the backends' guarded
     entry points, so an injected planner fault escapes as a
     structured [Error]. *)
  Clip_fault.hit Clip_fault.Site.plan_build;
  let gens = Array.of_list gens in
  let n = Array.length gens in
  (* Pushdown and joins rely on each variable having exactly one
     binding site; if a generator shadows an outer variable or a
     sibling generator, fall back to checking every condition at the
     innermost position, exactly like the naive interpreters. *)
  let shadowed =
    let seen = Hashtbl.create 8 in
    List.iter (fun v -> Hashtbl.replace seen v ()) bound;
    Array.exists
      (fun g ->
        Hashtbl.mem seen g.var
        ||
        (Hashtbl.replace seen g.var ();
         false))
      gens
  in
  (* [level vars] — the smallest stage count [i] such that every
     variable is bound by the outer environment or by generators
     [0..i-1]; [n] when some variable is never bound (the predicate
     then fails or errors at the innermost position, as it would
     naively). *)
  let level vars =
    let rec go i remaining =
      match remaining with
      | [] -> i
      | _ when i >= n -> n
      | _ ->
        go (i + 1)
          (List.filter (fun v -> not (String.equal v gens.(i).var)) remaining)
    in
    go 0 (List.filter (fun v -> not (List.mem v bound)) vars)
  in
  let preds_at = Array.make (n + 1) [] in
  let attach j p = preds_at.(j) <- p :: preds_at.(j) in
  (* A chosen join claims the contiguous generator range [g..s]; the
     probe replaces the whole segment. [seg_start.(g)] records the
     segment's extent and sides; [claimed.(t)] marks every covered
     stage so segments never overlap. *)
  let claimed = Array.make (max 1 n) false in
  let seg_start = Array.make (max 1 n) None in
  let nslots = ref 0 in
  let notes = ref [] in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  if shadowed && n > 0 then
    note "variable shadowing: every condition is checked at the innermost position";
  List.iter
    (fun cond ->
      match cond with
      | Other p -> attach (if shadowed then n else min (level p.pvars) n) p
      | Eq { left; right; orig } ->
        let j = if shadowed then n else level orig.pvars in
        attach j orig;
        let vars = String.concat "," (List.sort_uniq compare orig.pvars) in
        if (not shadowed) && j = 0 then
          note "eq(%s): decided by the outer environment, checked before any enumeration"
            vars;
        if (not shadowed) && j >= 1 && j <= n && claimed.(j - 1) then
          note "eq(%s): generator already covered by a join, kept as filter" vars;
        if (not shadowed) && j >= 1 && j <= n && not claimed.(j - 1) then begin
          let s = j - 1 in
          let ll = level left.kvars and lr = level right.kvars in
          (* The build side is the one that reads the stage-[s]
             variable; the probe side must be decided earlier. *)
          let sides =
            if ll = j && lr < j then Some (left, right)
            else if lr = j && ll < j then Some (right, left)
            else None
          in
          match sides with
          | None ->
            note "eq(%s): no build/probe orientation, kept as pushed-down filter" vars
          | Some (build, probe) ->
            (* Try segments [g..s], shortest first. [ext g] is what
               the segment reads from outside itself — the generators'
               dependencies plus the build keys, minus the segment's
               own variables. *)
            let ext g =
              let seg_var v =
                let rec mem t = t <= s && (String.equal gens.(t).var v || mem (t + 1)) in
                mem g
              in
              let vars = ref (List.filter (fun v -> not (seg_var v)) build.kvars) in
              for t = g to s do
                vars := List.filter (fun v -> not (seg_var v)) gens.(t).deps @ !vars
              done;
              !vars
            in
            (* Estimated bindings of generators [lo..hi]; [None] when
               any member is unknown. *)
            let est_range lo hi =
              let rec go i acc =
                if i > hi then Some acc
                else
                  match gens.(i).est with
                  | None -> None
                  | Some e -> go (i + 1) (min est_cap (acc * min (max e 0) est_cap))
              in
              go lo 1
            in
            let seg_vars g =
              String.concat "." (List.init (s - g + 1) (fun t -> gens.(g + t).var))
            in
            let claim g build_point =
              let slot = !nslots in
              incr nslots;
              for t = g to s do
                claimed.(t) <- true
              done;
              seg_start.(g) <- Some (s, slot, build_point, build, probe)
            in
            (* The shortest memoisable segment [g..s] with [g >= lo],
               and the enclosing variables it reads. Everything it
               reads from outside itself must be bound by the enclosing
               rules ([level = 0]), and the probe side must read a
               variable the segment does not: otherwise every probe
               arrives with fresh enclosing items and the slot would
               only rebuild. (Shortest first: a longer segment reads no
               fewer enclosing variables and builds a bigger table.) *)
            let rec memo_segment lo g =
              if g < lo || claimed.(g) then None
              else
                let reads = List.sort_uniq String.compare (ext g) in
                if
                  level reads = 0
                  && List.exists (fun v -> not (List.mem v reads)) probe.kvars
                then Some (g, reads)
                else memo_segment lo (g - 1)
            in
            let memo g reads =
              claim g (Memo { id = Atomic.fetch_and_add memo_ids 1; reads })
            in
            let built reads =
              if reads = [] then "once per run" else "once per binding of " ^ reads_str reads
            in
            let lp = level probe.kvars in
            if lp >= 1 then begin
              (* An equi-join between generators of this chain. [bp] is
                 the level at which all of [ext g] is bound. The join
                 pays off only when the table survives at least one
                 generator outside the segment ([bp < g]; [bp = g]
                 would rebuild it per probe), and is only possible when
                 the probe keys are decided by then ([lp <= g]).
                 Growing the segment downward absorbs feeder generators
                 (e.g. [d2] in [d2 in source.dept, r in d2.regEmp])
                 whose presence would otherwise pin [bp] to [s]. *)
              let cost_rejected = ref None in
              let cost_ok g =
                match policy with
                | `Force -> true
                | `Cost ->
                  let outer = est_range 0 (g - 1) and seg = est_range g s in
                  join_pays ~outer ~seg
                  ||
                  (if !cost_rejected = None then cost_rejected := Some (outer, seg);
                   false)
              in
              let rec pick g =
                if g < 1 || g < lp || claimed.(g) then None
                else if level (ext g) < g && cost_ok g then Some g
                else pick (g - 1)
              in
              (* When the per-step build does not pay, a nested chain
                 ([bound <> []], run once per enclosing binding) can
                 still keep a table across its runs: a segment reading
                 only enclosing variables is memoised on their items,
                 so a table is built only once two probes in a row
                 share them (fig. 7: [r in d.regEmp], probed once per
                 project [p2] of the department [d]). *)
              match pick s with
              | None ->
                (match !cost_rejected with
                 | Some (outer, seg) ->
                   (match if bound = [] then None else memo_segment lp s with
                    | Some (g, reads) ->
                      note
                        "eq(%s): hoisted hash join over %s, built %s (a per-step build does not pay: outer~%s, seg~%s)"
                        vars (seg_vars g) (built reads)
                        (est_str (est_range 0 (g - 1)))
                        (est_str (est_range g s));
                      memo g reads
                    | None ->
                      note
                        "eq(%s): hash join rejected by cost model (outer~%s, seg~%s: join does not pay)"
                        vars (est_str outer) (est_str seg))
                 | None ->
                   note "eq(%s): no independent feeder segment, kept as pushed-down filter"
                     vars)
              | Some g ->
                (match policy with
                 | `Force -> note "eq(%s): hash join over %s (forced)" vars (seg_vars g)
                 | `Cost ->
                   let outer = est_range 0 (g - 1) and seg = est_range g s in
                   note "eq(%s): hash join over %s (outer~%s, seg~%s: join pays)" vars
                     (seg_vars g) (est_str outer) (est_str seg));
                claim g (At (level (ext g)))
            end
            else if probe.kvars <> [] then begin
              (* A correlated equality: every probe-side variable is
                 bound by the enclosing rules — the nested child rule
                 [g in db.grant where c.@cid = g.@recipient] under
                 [c in db.company]. This chain then runs once per
                 enclosing binding, so a table built per execution
                 would be rebuilt per parent. A segment that reads
                 nothing outside itself ([ext g = []]: no enclosing and
                 no earlier chain variable, in its generators or its
                 build keys) enumerates the same tuples under every
                 enclosing binding, so its table is document-invariant
                 and is hoisted: built once per run, at the first
                 probe, and shared by every later probe. A segment that
                 also reads enclosing variables ([r in d.regEmp where
                 r.@pid = pj.@pid]) is memoised on their items instead.
                 A memoised probe never costs more than the filter: a
                 build replaces at least the one enumeration its probe
                 would have scanned anyway, and a probe whose items do
                 not repeat scans. So no cost check is needed. *)
              match memo_segment 0 s with
              | None ->
                note "eq(%s): probe side reads no chain generator, kept as pushed-down filter"
                  vars
              | Some (g, reads) ->
                (match policy with
                 | `Force ->
                   note "eq(%s): hoisted hash join over %s, built %s (forced)" vars
                     (seg_vars g) (built reads)
                 | `Cost ->
                   note
                     "eq(%s): hoisted hash join over %s, built %s (probe keys from the enclosing rules, seg~%s)"
                     vars (seg_vars g) (built reads)
                     (est_str (est_range g s)));
                memo g reads
            end
            else
              (* Structural guard, independent of the cost model: an
                 equality whose probe side is a constant (e.g.
                 [y.a = 5]) carries no equi-join key at all — turning
                 it into a table build would trade a pushed-down filter
                 for allocation. *)
              note "eq(%s): probe side reads no chain generator, kept as pushed-down filter"
                vars
        end)
    conds;
  (* Lay out the steps: each segment collapses to one probe step whose
     residual predicates are every condition pushdown placed inside it
     (they run after the whole segment binds — same surviving
     bindings, though a failing predicate may be evaluated on tuples
     the naive order would have pruned, and vice versa). *)
  let steps_rev = ref [] in
  let starts_rev = ref [] in
  let i = ref 0 in
  while !i < n do
    starts_rev := !i :: !starts_rev;
    (match seg_start.(!i) with
    | Some (s, slot, build_point, build, probe) ->
      let preds = ref [] in
      for t = s + 1 downto !i + 1 do
        preds := List.rev_append preds_at.(t) !preds
      done;
      steps_rev :=
        Probe
          {
            gens = Array.sub gens !i (s - !i + 1);
            slot;
            build = build_point (* [At] holds a generator level for now; mapped below *);
            build_keys = build.keys;
            probe_keys = probe.keys;
            preds = !preds;
          }
        :: !steps_rev;
      i := s + 1
    | None ->
      steps_rev := Scan { gen = gens.(!i); preds = List.rev preds_at.(!i + 1) } :: !steps_rev;
      incr i)
  done;
  let stages = Array.of_list (List.rev !steps_rev) in
  let starts = Array.of_list (List.rev !starts_rev) in
  (* Map each probe's build point — a generator level — onto the first
     step boundary that binds at least that many generators. (A build
     point inside another segment rounds up past it: the segment binds
     atomically, so the earliest usable entry is the next step.) *)
  let step_of_level lvl =
    let k = ref (Array.length starts) in
    for idx = Array.length starts - 1 downto 0 do
      if starts.(idx) >= lvl then k := idx
    done;
    !k
  in
  Array.iteri
    (fun idx step ->
      match step with
      | Probe ({ build = At lvl; _ } as p) ->
        stages.(idx) <- Probe { p with build = At (step_of_level lvl) }
      | Probe { build = Memo _; _ } | Scan _ -> ())
    stages;
  let builds = Array.make (Array.length stages + 1) [] in
  Array.iteri
    (fun idx stage ->
      match stage with
      | Probe { build = At k; _ } -> builds.(k) <- idx :: builds.(k)
      | Probe { build = Memo _; _ } | Scan _ -> ())
    stages;
  Array.iteri (fun idx l -> builds.(idx) <- List.rev l) builds;
  { pre = List.rev preds_at.(0); stages; builds; nslots = !nslots; notes = List.rev !notes }

(* [revisit_prone t] — can executing [t] enumerate the same parent
   element more than once? This is what decides whether the lazy tag
   index ({!Clip_xml.Index}) can pay for itself: a grouping is only
   reused when some element's children are listed at least twice.
   That happens when a probe table is rebuilt per outer binding, or
   when a scan at stage [i >= 1] does not depend on the variable bound
   immediately before it — its expression then re-enumerates the same
   elements once per binding of that variable. A straight-line chain
   (every scan reads the previous stage's variable) never revisits, so
   indexing it only adds memoisation overhead; neither does a memoised
   probe, whose segment is enumerated once per run or once per binding
   of the enclosing variables it reads. *)
let revisit_prone t =
  let n = Array.length t.stages in
  let last_var i =
    let gens = stage_gens t.stages.(i) in
    gens.(Array.length gens - 1).var
  in
  let rec go i =
    i < n
    &&
    match t.stages.(i) with
    | Probe { build = Memo _; _ } -> go (i + 1)
    | Probe { build = At _; _ } -> true
    | Scan { gen; _ } ->
      (i >= 1 && not (List.mem (last_var (i - 1)) gen.deps)) || go (i + 1)
  in
  go 0

(* --- Execution --------------------------------------------------------- *)

module KeyTbl = Hashtbl.Make (Key)

(* A probe table: bound segment tuples under their keys, each tagged
   with its enumeration sequence number. *)
type 'item table = (int * 'item list) KeyTbl.t

(* How the executor reads an enclosing variable's item out of an
   environment, and when two such items are the same (node identity):
   what a memoised probe compares to decide whether its table is
   still good. *)
type ('env, 'item) enclosing = {
  find : 'env -> string -> 'item option;
  same : 'item -> 'item -> bool;
}

module Run = struct
  (* The memoised tables of one run: one slot per [Memo] id, holding
     the enclosing items it was last probed with and, once a second
     probe reused them, the table built for them. A plan is memoised
     per session and shared across runs and domains, so it holds no
     table itself; each backend run creates one handle, with its
     reader of enclosing items, and passes it to every execution of
     every plan of that run. *)
  type ('env, 'item) t = {
    enclosing : ('env, 'item) enclosing option;
    slots : (int, 'item option list * 'item table option) Hashtbl.t;
  }

  let create ?enclosing () = { enclosing; slots = Hashtbl.create 4 }
end

(* Enumerate a probe's whole segment under [env] into a fresh table,
   inserting each bound tuple as it is enumerated — no intermediate
   list, so a large build leaves no extra garbage to promote. Each
   tuple carries its enumeration sequence number; [Hashtbl.add] stacks
   (and resizing keeps the stacking order), so [find_all] lists a
   key's tuples newest first. Keys are deduped per tuple so a
   multi-valued build side never yields the same tuple twice. [tick],
   when given, fires once per enumerated item. *)
let build_table ?obs ?(tick = ignore) (p : ('env, 'item) probe) ~(env : 'env) :
    'item table =
  Clip_obs.hash_join_build obs;
  let gens = p.gens in
  let m = Array.length gens in
  let tbl = KeyTbl.create 16 in
  let seq = ref 0 in
  let rec enum d env tuple_rev =
    if d = m then begin
      let entry = (!seq, List.rev tuple_rev) in
      incr seq;
      List.iter (fun key -> KeyTbl.add tbl key entry) (List.sort_uniq compare (p.build_keys env))
    end
    else
      List.iter
        (fun item ->
          tick ();
          enum (d + 1) (gens.(d).bind env item) (item :: tuple_rev))
        (gens.(d).eval env)
  in
  enum 0 env [];
  tbl

(* Build probe stage [k]'s per-step ([At]) table into [tables]. Shared
   by the depth-first interpreter and the vectorized executor — builds
   depend on the environment they run under, so each caller decides
   which tables array (shared vs per-frontier-cell snapshot) receives
   the result. *)
let build_into ?obs (t : ('env, 'item) t) (tables : 'item table option array)
    ~(env : 'env) k =
  match t.stages.(k) with
  | Probe p -> tables.(p.slot) <- Some (build_table ?obs p ~env)
  | Scan _ -> ()

(* The table a probe reads under [env]: its per-step table, or for a
   memoised probe the run's slot. A zero-read table never goes stale,
   so it is built at the first probe. Otherwise the slot remembers the
   enclosing items of the last probe, and a table is built only when
   the next probe arrives with the same ones (by [same]; an unreadable
   item never matches): a table that would serve a single probe costs
   more to build than the scan it replaces, so a probe with fresh
   items gets [None] and scans the segment instead. The slot holds one
   table at a time. A build that may repeat ticks once per enumerated
   item, as the scan it replaces would have; the zero-read build, once
   per run, is not metered, like an [At] build. *)
let probe_table ?obs ~tick (run : ('env, 'item) Run.t)
    (tables : 'item table option array) (p : ('env, 'item) probe) ~(env : 'env) =
  match p.build with
  | At _ -> (match tables.(p.slot) with Some _ as tbl -> tbl | None -> assert false)
  | Memo { id; reads } ->
    let items, same =
      match run.enclosing with
      | Some e ->
        ( List.map (e.find env) reads,
          fun a b -> match a, b with Some a, Some b -> e.same a b | _ -> false )
      | None -> (List.map (fun _ -> None) reads, fun _ _ -> false)
    in
    let build ~tick =
      let tbl = build_table ?obs ~tick p ~env in
      Hashtbl.replace run.slots id (items, Some tbl);
      Some tbl
    in
    (match Hashtbl.find_opt run.slots id with
     | Some (built_for, tbl) when List.equal same built_for items ->
       (match tbl with Some _ -> tbl | None -> build ~tick)
     | _ when reads = [] -> build ~tick:ignore
     | _ ->
       Hashtbl.replace run.slots id (items, None);
       None)

(* Tuples of [tbl] matching any of [keys] (sorted, deduped), in
   enumeration (document) order. *)
let probe_tuples tbl keys =
  match keys with
  | [] -> []
  | [ k ] -> List.rev_map snd (KeyTbl.find_all tbl k)
  | ks ->
    (* Multi-valued side: union the per-key hits, dedup by
       sequence number, restore document order. *)
    let hits = List.concat_map (fun k -> KeyTbl.find_all tbl k) ks in
    let seen = Hashtbl.create 16 in
    let uniq =
      List.filter
        (fun (s, _) ->
          if Hashtbl.mem seen s then false
          else begin
            Hashtbl.add seen s ();
            true
          end)
        hits
    in
    List.map snd (List.sort (fun (a, _) (b, _) -> compare a b) uniq)

(* One probe of stage [p] under [env]: every matching tuple is bound
   back onto [env] (one [tick] per hit, as a scan ticks per item), and
   the bindings that pass the residual predicates go to [k]. Without a
   table the segment is scanned under [env], ticking per item: the
   residual predicates include the original equality, so they alone
   select the same tuples, in the same (enumeration) order. *)
let probe_each ?obs run tables (p : ('env, 'item) probe) ~tick ~(env : 'env) k =
  Clip_obs.hash_join_probe obs;
  let pass env' = if List.for_all (fun q -> q.test env') p.preds then k env' in
  match probe_table ?obs ~tick run tables p ~env with
  | Some tbl ->
    List.iter
      (fun tuple ->
        tick ();
        pass
          (List.fold_left (fun (d, env) item -> (d + 1, p.gens.(d).bind env item)) (0, env) tuple
          |> snd))
      (probe_tuples tbl (List.sort_uniq compare (p.probe_keys env)))
  | None ->
    let m = Array.length p.gens in
    let rec scan d env =
      if d = m then pass env
      else
        List.iter
          (fun item ->
            tick ();
            scan (d + 1) (p.gens.(d).bind env item))
          (p.gens.(d).eval env)
    in
    scan 0 env

let execute ?obs ~(run : ('env, 'item) Run.t) (t : ('env, 'item) t) ~(tick : unit -> unit)
    ~(env : 'env) ~(emit : 'env -> unit) : unit =
  let n = Array.length t.stages in
  let tables : 'item table option array = Array.make (max 1 t.nslots) None in
  let rec go i env =
    if i = n then emit env
    else begin
      List.iter (build_into ?obs t tables ~env) t.builds.(i);
      match t.stages.(i) with
      | Scan { gen; preds } ->
        List.iter
          (fun item ->
            tick ();
            let env' = gen.bind env item in
            if List.for_all (fun p -> p.test env') preds then go (i + 1) env')
          (gen.eval env)
      | Probe p -> probe_each ?obs run tables p ~tick ~env (go (i + 1))
    end
  in
  if List.for_all (fun p -> p.test env) t.pre then go 0 env

(* --- Vectorized execution ---------------------------------------------- *)

(* Frontier chunk bound: a single stage expansion widens a chunk by at
   most its fan-out before the split in [execute_batch] re-bounds it,
   so frontier memory never exceeds chunk x fan-out cells. *)
let batch_chunk = 4096

let rec take_chunk k acc l =
  match l with
  | rest when k = 0 -> (List.rev acc, rest)
  | [] -> (List.rev acc, [])
  | x :: tl -> take_chunk (k - 1) (x :: acc) tl

(* Specialisation of {!execute_batch} for plans whose builds all fire
   before the first stage (the build sides depend only on the outer
   environment — the overwhelmingly common shape): every frontier cell
   sees the same tables, so the per-item [(env, tables)] pairing of the
   general executor — two extra words per item per stage, right in the
   hot loop — disappears, and the frontier itself is a flat growable
   ['env array] swept in place: one doubling buffer per stage
   expansion instead of a cons cell plus a reversal cell per surviving
   binding. Counter traces are identical to the general executor: same
   expansions, same widths, same per-cell probe counts. *)
let execute_batch_shared ?obs ~run (t : ('env, 'item) t) ~(tick : unit -> unit)
    ~(env : 'env) ~(emit : 'env -> unit) : unit =
  let n = Array.length t.stages in
  let tables : 'item table option array = Array.make (max 1 t.nslots) None in
  let expand i (src : 'env array) lo hi (sink : 'env -> unit) =
    Clip_obs.batch_executed obs;
    if Clip_obs.enabled obs then Clip_obs.batch_width obs (hi - lo);
    match t.stages.(i) with
    | Scan { gen; preds } ->
      for j = lo to hi - 1 do
        let env = src.(j) in
        List.iter
          (fun item ->
            tick ();
            let env' = gen.bind env item in
            if List.for_all (fun p -> p.test env') preds then sink env')
          (gen.eval env)
      done
    | Probe p ->
      for j = lo to hi - 1 do
        probe_each ?obs run tables p ~tick ~env:src.(j) sink
      done
  in
  let rec run i (src : 'env array) lo hi =
    if hi > lo then begin
      if i = n then
        for j = lo to hi - 1 do
          emit src.(j)
        done
      else if i = n - 1 then
        (* Last stage: fuse expansion with emission — survivors stream
           into [emit] while their environments are hot instead of
           parking in a frontier first. Order, ticks and counters are
           those of materialise-then-emit, verbatim. *)
        expand i src lo hi emit
      else begin
        (* [env] doubles as the (never-read) fill element of fresh
           buffers, so frontiers need no option boxing. *)
        let buf = ref (Array.make 64 env) and len = ref 0 in
        let push e =
          if !len = Array.length !buf then begin
            let nb = Array.make (2 * !len) env in
            Array.blit !buf 0 nb 0 !len;
            buf := nb
          end;
          !buf.(!len) <- e;
          incr len
        in
        expand i src lo hi push;
        let dst = !buf and m = !len in
        let j = ref 0 in
        while !j < m do
          let hi' = min m (!j + batch_chunk) in
          run (i + 1) dst !j hi';
          j := hi'
        done
      end
    end
  in
  if List.for_all (fun p -> p.test env) t.pre then begin
    if n > 0 then List.iter (build_into ?obs t tables ~env) t.builds.(0);
    run 0 [| env |] 0 1
  end

let batchable (t : ('env, 'item) t) =
  let n = Array.length t.stages in
  let ok = ref true in
  for i = 1 to n - 1 do
    if t.builds.(i) <> [] then ok := false
  done;
  !ok

let scan_only (t : ('env, 'item) t) =
  Array.for_all (function Scan _ -> true | Probe _ -> false) t.stages

let execute_batch ?obs ~run (t : ('env, 'item) t) ~(tick : unit -> unit)
    ~(env : 'env) ~(emit : 'env -> unit) : unit =
  if batchable t then execute_batch_shared ?obs ~run t ~tick ~env ~emit
  else begin
  let n = Array.length t.stages in
  (* One frontier cell: an environment plus its private view of the
     probe tables. Builds depend on the environment they run under, so
     a breadth-first frontier cannot share the single mutable tables
     array the depth-first executor uses — a cell snapshots the array
     ([nslots] is tiny) whenever a stage triggers builds for it; cells
     that trigger no builds share their parent's snapshot. *)
  let expand i cells =
    Clip_obs.batch_executed obs;
    if Clip_obs.enabled obs then Clip_obs.batch_width obs (List.length cells);
    let out = ref [] in
    List.iter
      (fun (env, tables) ->
        let tables =
          match t.builds.(i) with
          | [] -> tables
          | builds ->
            let tables = Array.copy tables in
            List.iter (build_into ?obs t tables ~env) builds;
            tables
        in
        match t.stages.(i) with
        | Scan { gen; preds } ->
          List.iter
            (fun item ->
              tick ();
              let env' = gen.bind env item in
              if List.for_all (fun p -> p.test env') preds then
                out := (env', tables) :: !out)
            (gen.eval env)
        | Probe p ->
          probe_each ?obs run tables p ~tick ~env (fun env' ->
              out := (env', tables) :: !out))
      cells;
    List.rev !out
  in
  (* Run a chunk of frontier cells through stages [i..n): expand one
     stage as an array sweep over the whole chunk, split the result,
     and run each piece to completion before the next. Pieces stay in
     frontier order and every cell's descendants are emitted before
     its successor's, so emission order is exactly the depth-first
     lexicographic order of {!execute}; [tick] still fires once per
     item enumerated at every stage, so step budgets, cancellation
     polls and fault windows land on the same counts — at batch
     granularity rather than per recursive call. *)
  let rec run i cells =
    match cells with
    | [] -> ()
    | _ ->
      if i = n then List.iter (fun (env, _) -> emit env) cells
      else begin
        let rec pieces l =
          match l with
          | [] -> ()
          | l ->
            let chunk, rest = take_chunk batch_chunk [] l in
            run (i + 1) chunk;
            pieces rest
        in
        pieces (expand i cells)
      end
  in
    if List.for_all (fun p -> p.test env) t.pre then
      run 0 [ (env, Array.make (max 1 t.nslots) None) ]
  end
