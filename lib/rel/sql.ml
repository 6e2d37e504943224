module Xml = Clip_xml
module Path = Clip_schema.Path
module Tgd = Clip_tgd.Tgd
module Term = Clip_tgd.Term

(* SQL text generation from a compiled relational program: one SELECT
   per flattened tgd rule ({!Tgd.rules}). Every source generator of a
   rule ranges over a whole table (enforced by
   {!Program.compile_result}), so the FROM clause is exactly the rule's
   generator chain; the nesting of the target side survives only as
   the rule comments and GROUP BY keys. Output is deterministic text — golden-tested by
   [test/cram/rel.t] — not fed to any database. *)

let quote_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '\'';
  String.iter
    (fun c ->
      if c = '\'' then Buffer.add_string b "''" else Buffer.add_char b c)
    s;
  Buffer.add_char b '\'';
  Buffer.contents b

let atom_sql (a : Xml.Atom.t) =
  match a with
  | Xml.Atom.String s -> quote_string s
  | Xml.Atom.Int i -> string_of_int i
  | Xml.Atom.Float f -> Printf.sprintf "%g" f
  | Xml.Atom.Bool b -> if b then "TRUE" else "FALSE"

(* Row variables name their binding directly, so [g.@cid] is [g.cid]
   and [c.cname/value] is [c.cname]: attribute and value-child columns
   live in one SQL namespace (the {!Shape} translation guarantees the
   names cannot collide with nested structure). *)
let rec expr_sql (e : Term.expr) =
  match e with
  | Term.Root r -> r
  | Term.Var v -> v
  | Term.Proj (inner, Path.Attr a) -> Printf.sprintf "%s.%s" (expr_sql inner) a
  | Term.Proj (inner, Path.Child c) -> Printf.sprintf "%s.%s" (expr_sql inner) c
  | Term.Proj (inner, Path.Value) -> expr_sql inner

let rec scalar_sql (s : Term.scalar) =
  match s with
  | Term.E e -> expr_sql e
  | Term.Const a -> atom_sql a
  | Term.Fn (name, args) ->
    let args_sql = List.map scalar_sql args in
    (match (name, args_sql) with
     | "concat", _ -> "(" ^ String.concat " || " args_sql ^ ")"
     | "add", [ a; b ] -> Printf.sprintf "(%s + %s)" a b
     | "sub", [ a; b ] -> Printf.sprintf "(%s - %s)" a b
     | "mul", [ a; b ] -> Printf.sprintf "(%s * %s)" a b
     | "div", [ a; b ] -> Printf.sprintf "(%s / %s)" a b
     | "upper", [ a ] -> Printf.sprintf "UPPER(%s)" a
     | "lower", [ a ] -> Printf.sprintf "LOWER(%s)" a
     | _ -> Printf.sprintf "%s(%s)" name (String.concat ", " args_sql))

let op_sql (op : Tgd.cmp_op) =
  match op with
  | Tgd.Eq -> "="
  | Tgd.Ne -> "<>"
  | Tgd.Lt -> "<"
  | Tgd.Le -> "<="
  | Tgd.Gt -> ">"
  | Tgd.Ge -> ">="
  | Tgd.In -> "IN"

let comparison_sql (c : Tgd.comparison) =
  match c.Tgd.op with
  | Tgd.In ->
    Printf.sprintf "%s IN (%s)" (scalar_sql c.Tgd.left) (scalar_sql c.Tgd.right)
  | op ->
    Printf.sprintf "%s %s %s" (scalar_sql c.Tgd.left) (op_sql op)
      (scalar_sql c.Tgd.right)

let agg_sql (k : Tgd.agg_kind) =
  match k with
  | Tgd.Count -> "COUNT"
  | Tgd.Sum -> "SUM"
  | Tgd.Avg -> "AVG"
  | Tgd.Min -> "MIN"
  | Tgd.Max -> "MAX"

(* The leaf an assertion assigns, as the output-column alias. *)
let leaf_alias (e : Term.expr) =
  match e with
  | Term.Proj (_, Path.Attr a) -> a
  | Term.Proj (_, Path.Child c) -> c
  | Term.Proj (_, Path.Value) | Term.Root _ | Term.Var _ ->
    (match e with
     | Term.Proj (Term.Proj (_, Path.Child c), Path.Value) -> c
     | _ -> "value")

let rule_sql i (r : Tgd.rule) =
  let b = Buffer.create 256 in
  let chain =
    match r.Tgd.r_chain with
    | [] -> "(constant target)"
    | gens ->
      String.concat "/"
        (List.map (fun (g : Tgd.target_gen) -> g.Tgd.tvar) gens)
  in
  Printf.bprintf b "-- rule %d: populates %s\n" i chain;
  let selects, checks =
    List.fold_left
      (fun (sel, chk) (a : Tgd.assertion) ->
        match a with
        | Tgd.St_eq (tgt, src) ->
          ( sel @ [ Printf.sprintf "%s AS %s" (scalar_sql src) (leaf_alias tgt) ],
            chk )
        | Tgd.Agg (tgt, kind, arg) ->
          ( sel
            @ [
                Printf.sprintf "%s(%s) AS %s" (agg_sql kind) (expr_sql arg)
                  (leaf_alias tgt);
              ],
            chk )
        | Tgd.Target_cond (tgt, op, atom) ->
          ( sel,
            chk
            @ [
                Printf.sprintf "-- check: %s %s %s" (expr_sql tgt)
                  (op_sql op) (atom_sql atom);
              ] ))
      ([], []) r.Tgd.r_assertions
  in
  List.iter (fun c -> Printf.bprintf b "%s\n" c) checks;
  Printf.bprintf b "SELECT %s\n"
    (match selects with [] -> "*" | _ -> String.concat ", " selects);
  (match r.Tgd.r_foralls with
   | [] -> ()
   | gens ->
     Printf.bprintf b "FROM %s\n"
       (String.concat ", "
          (List.map
             (fun (g : Tgd.source_gen) ->
               match g.Tgd.sexpr with
               | Term.Proj (Term.Root _, Path.Child t) ->
                 Printf.sprintf "%s AS %s" t g.Tgd.svar
               | e -> Printf.sprintf "(%s) AS %s" (Term.expr_to_string e) g.Tgd.svar)
             gens)));
  (match r.Tgd.r_cond with
   | [] -> ()
   | cs ->
     Printf.bprintf b "WHERE %s\n"
       (String.concat "\n  AND " (List.map comparison_sql cs)));
  let group_keys =
    List.concat_map
      (fun (g : Tgd.target_gen) ->
        match g.Tgd.mode with
        | Tgd.Grouped { keys } -> List.map scalar_sql keys
        | Tgd.Driven | Tgd.Completion -> [])
      r.Tgd.r_chain
  in
  let group_keys = List.sort_uniq String.compare group_keys in
  (match group_keys with
   | [] -> ()
   | ks -> Printf.bprintf b "GROUP BY %s\n" (String.concat ", " ks));
  Buffer.add_string b ";\n";
  Buffer.contents b

let of_program (p : Program.t) =
  let rules = Tgd.rules p.Program.tgd in
  let b = Buffer.create 1024 in
  Printf.bprintf b "-- mapping over relational source %s (%s)\n"
    p.Program.source_root
    (String.concat ", " (Shape.table_names p.Program.shape));
  List.iteri (fun i r -> Buffer.add_char b '\n'; Buffer.add_string b (rule_sql i r)) rules;
  Buffer.contents b
