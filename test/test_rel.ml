(* The relational backend, differentially tested against the tgd
   backend: on every relational-shaped mapping the two must produce
   byte-identical targets under every plan mode and document
   representation, and byte-identical dynamic error diagnostics.
   Nested sources must be rejected statically with CLIP-REL-003. *)

module S = Clip_scenarios
module Node = Clip_xml.Node
module Engine = Clip_core.Engine
module Shape = Clip_rel.Shape
module Program = Clip_rel.Program
module Sql = Clip_rel.Sql

(* A result-returning run's value, or the test fails with its
   diagnostics. *)
let get_ok = function
  | Ok v -> v
  | Error ds -> Alcotest.fail (Clip_diag.render_list ds)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* Table I scenarios carry only value mappings; route them through the
   Clio generator to obtain runnable mappings (same as the figures
   pipeline). *)
let runnable (sc : S.Table1.scenario) =
  let m = sc.S.Table1.mapping in
  Clip_clio.Generate.to_clip m (Clip_clio.Generate.forest ~extension:true m)

let plans = [ (`Naive, "naive"); (`Indexed, "indexed"); (`Auto, "auto") ]
let reprs = [ (`Tree, "tree"); (`Columnar, "columnar") ]

(* The cram scenario as a DSL text, for scaled instances: a proper
   join (company ⋈ grant) with attribute and value-child columns. *)
let grants_dsl =
  {|schema db {
  company [0..*] {
    @cid: int
    cname: string
  }
  grant [0..*] {
    @gid: int
    @recipient: int
    amount: int
  }
  ref grant.@recipient -> company.@cid
}
schema web {
  organization [0..*] {
    @name: string
    funding [0..*] {
      @fid: int
      @amount: int
    }
  }
}
mapping {
  node n2: db.company as $c -> web.organization {
    node n1: db.grant as $g -> web.organization.funding where $c.@cid = $g.@recipient
  }
  value db.company.cname.value -> web.organization.@name
  value db.grant.@gid -> web.organization.funding.@fid
  value db.grant.amount.value -> web.organization.funding.@amount
}|}

let grants_mapping =
  match Clip_core.Dsl.parse_result grants_dsl with
  | Ok m -> m
  | Error _ -> assert false

(* A scaled instance: [n] companies, [3n] grants hitting every company. *)
let grants_instance n =
  let b = Buffer.create 4096 in
  Buffer.add_string b "<db>";
  for i = 1 to n do
    Printf.bprintf b "<company cid=\"%d\"><cname>C%d</cname></company>" i i
  done;
  for j = 1 to 3 * n do
    Printf.bprintf b
      "<grant gid=\"%d\" recipient=\"%d\"><amount>%d</amount></grant>" j
      ((j mod n) + 1) (j * 10)
  done;
  Buffer.add_string b "</db>";
  Clip_xml.Parser.parse_string (Buffer.contents b)

let differential name mapping source =
  Alcotest.test_case name `Quick (fun () ->
      let expected = get_ok (Engine.run_result ~backend:`Tgd mapping source) in
      List.iter
        (fun (plan, pname) ->
          List.iter
            (fun (repr, rname) ->
              let out = get_ok (Engine.run_result ~backend:`Rel ~plan ~repr mapping source) in
              checkb
                (Printf.sprintf "%s/%s identical" pname rname)
                true (Node.equal expected out))
            reprs)
        plans)

let shape_tests =
  [
    Alcotest.test_case "accepts the relational Table I scenario" `Quick
      (fun () ->
        match
          Shape.of_schema S.Table1.translating_fig1.S.Table1.mapping.source
        with
        | Ok shape ->
          checki "2 tables" 2 (List.length shape.Shape.tables);
          Alcotest.(check (list string))
            "table names" [ "company"; "grant" ]
            (Shape.table_names shape)
        | Error reason -> Alcotest.failf "rejected: %s" reason);
    Alcotest.test_case "rejects the nested Table I scenarios" `Quick (fun () ->
        List.iter
          (fun (sc : S.Table1.scenario) ->
            checkb
              (Printf.sprintf "%s rejected" sc.S.Table1.label)
              true
              (match Shape.of_schema sc.S.Table1.mapping.source with
               | Error _ -> true
               | Ok _ -> false))
          [ S.Table1.nested_fig1; S.Table1.nested_fig3; S.Table1.this_paper_fig1 ]);
    Alcotest.test_case "compile rejects nested sources with CLIP-REL-003" `Quick
      (fun () ->
        let m = runnable S.Table1.nested_fig1 in
        match
          Clip_core.Compile.to_tgd_result m
        with
        | Error _ -> Alcotest.fail "scenario should compile to a tgd"
        | Ok tgd ->
          (match
             Program.compile_result ~source:m.source
               ~target_root:m.target.root.name tgd
           with
           | Ok _ -> Alcotest.fail "expected rejection"
           | Error ds ->
             checks "code" "CLIP-REL-003" (List.hd ds).Clip_diag.code));
  ]

let differential_tests =
  [
    differential "translating_fig1: rel == tgd on every plan x repr"
      (runnable S.Table1.translating_fig1)
      S.Table1.translating_fig1.S.Table1.instance;
    differential "grants join, scale 20: rel == tgd on every plan x repr"
      grants_mapping (grants_instance 20);
    Alcotest.test_case "sharded/auto modes agree too" `Quick (fun () ->
        let source = grants_instance 10 in
        let expected = get_ok (Engine.run_result ~backend:`Tgd grants_mapping source) in
        List.iter
          (fun mode ->
            checkb "identical" true
              (Node.equal expected
                 (get_ok (Engine.run_result ~backend:`Rel ~mode ~jobs:2 grants_mapping source))))
          [ `Whole; `Sharded; `Auto ]);
    Alcotest.test_case "engine sessions reuse rel state across runs" `Quick
      (fun () ->
        let source = grants_instance 5 in
        let s = Engine.Session.create source in
        let expected = get_ok (Engine.Session.run_result ~backend:`Tgd s grants_mapping) in
        for _ = 1 to 3 do
          checkb "identical" true
            (Node.equal expected
               (get_ok (Engine.Session.run_result ~backend:`Rel s grants_mapping)))
        done);
  ]

let error_tests =
  [
    Alcotest.test_case "run_result reports CLIP-REL-003 on nested sources"
      `Quick (fun () ->
        let sc = S.Table1.nested_fig1 in
        match
          Engine.run_result ~backend:`Rel (runnable sc) sc.S.Table1.instance
        with
        | Ok _ -> Alcotest.fail "expected rejection"
        | Error ds ->
          checks "code" "CLIP-REL-003" (List.hd ds).Clip_diag.code);
    Alcotest.test_case "dynamic errors are byte-identical to the tgd backend"
      `Quick (fun () ->
        (* a wrong-rooted document: both backends must fail with the
           same CLIP-TGD-001 message *)
        let wrong = Clip_xml.Parser.parse_string "<notdb><company/></notdb>" in
        let diag backend =
          match Engine.run_result ~backend grants_mapping wrong with
          | Ok _ -> Alcotest.fail "expected a dynamic error"
          | Error ds ->
            let d = List.hd ds in
            (d.Clip_diag.code, d.Clip_diag.message)
        in
        let ct, mt = diag `Tgd in
        let cr, mr = diag `Rel in
        checks "code" ct cr;
        checks "message" mt mr);
    Alcotest.test_case "step budget still meters rel runs (CLIP-LIM-004)"
      `Quick (fun () ->
        let limits = { Clip_diag.Limits.default with max_eval_steps = 10 } in
        match
          Engine.run_result ~limits ~backend:`Rel grants_mapping
            (grants_instance 10)
        with
        | Ok _ -> Alcotest.fail "expected the budget to trip"
        | Error ds ->
          checks "code" "CLIP-LIM-004" (List.hd ds).Clip_diag.code);
    Alcotest.test_case "the universal-solution ablation stays tgd-only" `Quick
      (fun () ->
        checkb "raises" true
          (match
             Engine.run_result ~backend:`Rel ~minimum_cardinality:false
               grants_mapping (grants_instance 2)
           with
           | exception Invalid_argument _ -> true
           | _ -> false));
  ]

let sql_tests =
  [
    Alcotest.test_case "emitted SQL covers every rule" `Quick (fun () ->
        let m = grants_mapping in
        let tgd = Clip_core.Compile.to_tgd m in
        let prog =
          get_ok (Program.compile_result ~source:m.source ~target_root:m.target.root.name tgd)
        in
        let sql = Sql.of_program prog in
        let contains sub =
          let n = String.length sub and len = String.length sql in
          let rec go i =
            i + n <= len && (String.equal (String.sub sql i n) sub || go (i + 1))
          in
          go 0
        in
        List.iter
          (fun sub -> checkb sub true (contains sub))
          [
            "SELECT c.cname AS name";
            "FROM company AS c";
            "WHERE c.cid = g.recipient";
            "FROM company AS c, grant AS g";
          ]);
    Alcotest.test_case "explain is deterministic and names the backend" `Quick
      (fun () ->
        let source = grants_instance 3 in
        let e1 = get_ok (Engine.explain_result ~backend:`Rel grants_mapping source) in
        let e2 = get_ok (Engine.explain_result ~backend:`Rel grants_mapping source) in
        checks "stable" e1 e2;
        checkb "header" true
          (String.length e1 > 12 && String.equal (String.sub e1 0 12) "backend: rel"));
  ]

let contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec go i = i + n <= m && (String.equal (String.sub hay i n) needle || go (i + 1)) in
  go 0

(* The child rule's correlated join is a hoisted probe: its table is
   built once per run, not once per company, so evaluation work grows
   linearly with the instance. Budget steps are deterministic, so the
   guard needs no timing. *)
let scaling_tests =
  let sizes = [ 100; 200; 400 ] in
  let sources = List.map (fun n -> (n, grants_instance n)) sizes in
  [
    Alcotest.test_case "the correlated join scales linearly on every backend" `Quick
      (fun () ->
        let expected =
          List.map
            (fun (n, src) -> (n, get_ok (Engine.run_result ~backend:`Tgd ~plan:`Naive grants_mapping src)))
            sources
        in
        List.iter
          (fun (backend, bname) ->
            List.iter
              (fun (plan, pname) ->
                let steps =
                  List.map
                    (fun (n, src) ->
                      let steps_out = ref 0 in
                      let out = get_ok (Engine.run_result ~backend ~plan ~steps_out grants_mapping src) in
                      checkb
                        (Printf.sprintf "%s/%s at %d: same output as naive" bname pname n)
                        true
                        (Node.equal (List.assoc n expected) out);
                      !steps_out)
                    sources
                in
                let rec doubling = function
                  | a :: (b :: _ as rest) ->
                    checkb
                      (Printf.sprintf "%s/%s: %d steps then %d at twice the size" bname
                         pname a b)
                      true
                      (float_of_int b <= 2.5 *. float_of_int a);
                    doubling rest
                  | [ _ ] | [] -> ()
                in
                doubling steps)
              [ (`Indexed, "indexed"); (`Auto, "auto") ])
          [ (`Tgd, "tgd"); (`Rel, "rel"); (`Xquery, "xquery") ]);
    Alcotest.test_case "explain shows the hoisted probe and no tag index" `Quick
      (fun () ->
        let source = grants_instance 100 in
        let tgd = get_ok (Engine.explain_result ~backend:`Tgd grants_mapping source) in
        checkb "tgd strategy" true
          (contains tgd
             "strategy: physical plans, cost-based joins; tag index off (straight-line \
              plan, no element revisits)\n");
        List.iter
          (fun backend ->
            let e = get_ok (Engine.explain_result ~backend grants_mapping source) in
            checkb "hoisted probe" true
              (contains e "stage 0: hash probe g (built once per run, est ");
            checkb "plan" true (contains e "plan: probe(g@run)"))
          [ `Tgd; `Rel; `Xquery ]);
  ]

let () =
  Alcotest.run "rel"
    [
      ("shape", shape_tests);
      ("differential", differential_tests);
      ("errors", error_tests);
      ("sql", sql_tests);
      ("scaling", scaling_tests);
    ]
