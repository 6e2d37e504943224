(* Tests for the mapping DSL (Clip_core.Dsl): parsing, printing,
   round-trips over every paper figure, and error reporting. *)

module S = Clip_scenarios
module Dsl = Clip_core.Dsl
module Mapping = Clip_core.Mapping
module Node = Clip_xml.Node

(* A result-returning run's value, or the test fails with its
   diagnostics. *)
let get_ok = function
  | Ok v -> v
  | Error ds -> Alcotest.fail (Clip_diag.render_list ds)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let full_example =
  {|
  schema source {
    dept [1..*] {
      dname: string
      Proj [0..*] { @pid: int  pname: string }
      regEmp [0..*] { @pid: int  ename: string  sal: int }
    }
    ref dept.regEmp.@pid -> dept.Proj.@pid
  }
  schema target {
    department [1..*] {
      project [0..*] { @name: string }
      employee [0..*] { @name: string }
    }
  }
  mapping {
    node d: source.dept as $d -> target.department {
      node p: source.dept.Proj as $p -> target.department.project
      node e: source.dept.regEmp as $r -> target.department.employee
        where $r.sal.value > 11000
    }
    value source.dept.Proj.pname.value -> target.department.project.@name
    value source.dept.regEmp.ename.value -> target.department.employee.@name
  }
  |}

let parse_tests =
  [
    Alcotest.test_case "full example parses" `Quick (fun () ->
        let m = Dsl.parse full_example in
        checki "1 root" 1 (List.length m.roots);
        checki "3 nodes" 3 (List.length (Mapping.all_nodes m));
        checki "2 values" 2 (List.length m.values);
        checkb "valid" true (Clip_core.Validity.is_valid m));
    Alcotest.test_case "where clause carries the predicate" `Quick (fun () ->
        let m = Dsl.parse full_example in
        let e = Option.get (Mapping.node_by_id m "e") in
        checki "1 predicate" 1 (List.length e.bn_cond));
    Alcotest.test_case "group nodes and aggregates" `Quick (fun () ->
        let m =
          Dsl.parse
            {|
            schema s { a [0..*] { x: string  b [0..*] { y: int } } }
            schema t { g [1..*] { @k: string @n: int @tot: int } }
            mapping {
              group gg: s.a as $a by $a.x.value -> t.g
              value s.a.x.value -> t.g.@k
              value <<count>> s.a.b -> t.g.@n
              value <<sum>> s.a.b.y.value -> t.g.@tot
            }
            |}
        in
        let g = Option.get (Mapping.node_by_id m "gg") in
        checki "1 key" 1 (List.length g.bn_group_by);
        checkb "aggregates parsed" true
          (List.exists
             (fun (vm : Mapping.value_mapping) ->
               vm.vm_fn = Mapping.Aggregate Clip_tgd.Tgd.Sum)
             m.values));
    Alcotest.test_case "scalar function value mappings" `Quick (fun () ->
        let m =
          Dsl.parse
            {|
            schema s { a [0..*] { x: string  y: string } }
            schema t { b [0..*] { @full: string } }
            mapping {
              node n: s.a as $a -> t.b
              value concat(s.a.x.value, s.a.y.value) -> t.b.@full
            }
            |}
        in
        checkb "scalar" true
          (match (List.hd m.values).vm_fn with
           | Mapping.Scalar "concat" -> true
           | _ -> false);
        checki "2 sources" 2 (List.length (List.hd m.values).vm_sources));
    Alcotest.test_case "constant value mappings" `Quick (fun () ->
        let m =
          Dsl.parse
            {|
            schema s { a [0..*] }
            schema t { b [0..*] { @v: string } }
            mapping {
              node n: s.a as $a -> t.b
              value "fixed" -> t.b.@v
            }
            |}
        in
        checkb "constant" true
          ((List.hd m.values).vm_fn = Mapping.Constant (Clip_xml.Atom.String "fixed")));
    Alcotest.test_case "context-only nodes (no output)" `Quick (fun () ->
        let m =
          Dsl.parse
            {|
            schema s { a [0..*] { b [0..*] { x: string } } }
            schema t { c [1..*] { @x: string } }
            mapping {
              node outer: s.a as $a {
                node inner: s.a.b as $b -> t.c
              }
              value s.a.b.x.value -> t.c.@x
            }
            |}
        in
        let outer = Option.get (Mapping.node_by_id m "outer") in
        checkb "no output" true (outer.bn_output = None);
        checki "1 child" 1 (List.length outer.bn_children));
    Alcotest.test_case "multiple inputs (join node)" `Quick (fun () ->
        let m =
          Dsl.parse
            {|
            schema s { a [0..*] { @k: int }  b [0..*] { @k: int } }
            schema t { c [1..*] { @x: int } }
            mapping {
              node j: s.a as $a, s.b as $b -> t.c where $a.@k = $b.@k
              value s.a.@k -> t.c.@x
            }
            |}
        in
        let j = Option.get (Mapping.node_by_id m "j") in
        checki "2 inputs" 2 (List.length j.bn_inputs));
  ]

let literal_tests =
  [
    Alcotest.test_case "numeric and boolean literals in predicates" `Quick (fun () ->
        let m =
          Dsl.parse
            {|
            schema s { a [0..*] { x: float  ok: bool } }
            schema t { b [0..*] { @x: float } }
            mapping {
              node n: s.a as $a -> t.b
                where $a.x.value >= 1.5, $a.ok.value = true
              value s.a.x.value -> t.b.@x
            }
            |}
        in
        let n = Option.get (Mapping.node_by_id m "n") in
        checki "2 predicates" 2 (List.length n.bn_cond);
        checkb "float literal" true
          (List.exists
             (fun (p : Mapping.predicate) ->
               p.p_right = Mapping.O_const (Clip_xml.Atom.Float 1.5))
             n.bn_cond);
        checkb "bool literal" true
          (List.exists
             (fun (p : Mapping.predicate) ->
               p.p_right = Mapping.O_const (Clip_xml.Atom.Bool true))
             n.bn_cond));
    Alcotest.test_case "cardinality range [1..2] lexes past the dots" `Quick
      (fun () ->
        let s = Clip_schema.Dsl.parse "schema r { a [1..2] }" in
        checkb "repeating" true (Clip_schema.Schema.is_repeating s
          (Result.get_ok (Clip_schema.Path.of_string "r.a"))));
    Alcotest.test_case "string literals with escapes" `Quick (fun () ->
        let m =
          Dsl.parse
            {|
            schema s { a [0..*] }
            schema t { b [0..*] { @v: string } }
            mapping {
              node n: s.a as $a -> t.b
              value "line\nbreak \"quoted\"" -> t.b.@v
            }
            |}
        in
        checkb "decoded" true
          ((List.hd m.values).vm_fn
           = Mapping.Constant (Clip_xml.Atom.String "line\nbreak \"quoted\"")));
  ]

let error_tests =
  [
    Alcotest.test_case "missing mapping keyword" `Quick (fun () ->
        checkb "raises" true
          (match Dsl.parse "schema a { x } schema b { y } nonsense {}" with
           | exception Dsl.Syntax_error _ -> true
           | _ -> false));
    Alcotest.test_case "group without by" `Quick (fun () ->
        checkb "raises" true
          (match
             Dsl.parse
               "schema s { a [0..*] } schema t { b [0..*] } mapping { group g: s.a as $a -> t.b }"
           with
           | exception Dsl.Syntax_error _ -> true
           | _ -> false));
    Alcotest.test_case "unknown aggregate" `Quick (fun () ->
        checkb "raises" true
          (match
             Dsl.parse
               "schema s { a [0..*] } schema t { b [0..*] { @n: int } } mapping { value <<median>> s.a -> t.b.@n }"
           with
           | exception Dsl.Syntax_error _ -> true
           | _ -> false));
    Alcotest.test_case "trailing garbage" `Quick (fun () ->
        checkb "raises" true
          (match Dsl.parse (full_example ^ " extra") with
           | exception Dsl.Syntax_error _ -> true
           | _ -> false));
    Alcotest.test_case "errors carry positions" `Quick (fun () ->
        match Dsl.parse "schema s { a }\nschema t { b }\nmapping {\n  value -> t.b\n}" with
        | exception Dsl.Syntax_error { line; _ } -> checki "line 4" 4 line
        | _ -> Alcotest.fail "expected a syntax error");
  ]

(* Round-trips: to_string then parse gives a mapping with the same
   compiled semantics (same tgd up to variable renaming) and the same
   behaviour on the paper instance. *)
let roundtrip_tests =
  List.map
    (fun (sc : S.Figures.t) ->
      Alcotest.test_case (sc.name ^ " round-trips") `Quick (fun () ->
          let text = Dsl.to_string sc.mapping in
          let m' = Dsl.parse text in
          checkb "tgd alpha-equal" true
            (Clip_tgd.Tgd.alpha_equal
               (Clip_core.Compile.to_tgd sc.mapping)
               (Clip_core.Compile.to_tgd m'));
          let a =
            get_ok
              (Clip_core.Engine.run_result ~minimum_cardinality:sc.minimum_cardinality
                 sc.mapping S.Deptdb.instance)
          in
          let b =
            get_ok
              (Clip_core.Engine.run_result ~minimum_cardinality:sc.minimum_cardinality m'
                 S.Deptdb.instance)
          in
          checkb "same output" true (Node.equal a b)))
    S.Figures.all

let render_tests =
  [
    Alcotest.test_case "render mentions every builder and value mapping" `Quick
      (fun () ->
        let s = Clip_core.Render.to_string S.Figures.fig7.mapping in
        let contains needle =
          let n = String.length needle and m = String.length s in
          let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
          go 0
        in
        checkb "group legend" true (contains "group-by $pj.pname.value");
        checkb "builder legend" true (contains "builder: source.dept.Proj x source.dept.regEmp");
        checkb "value legend" true (contains "(v1) value:");
        checkb "columns" true (contains " | "));
  ]

let () =
  Alcotest.run "dsl"
    [
      ("parse", parse_tests);
      ("literals", literal_tests);
      ("errors", error_tests);
      ("roundtrips", roundtrip_tests);
      ("render", render_tests);
    ]
