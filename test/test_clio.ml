(* Tests for Clip_clio: tableaux (Sec. V-A), skeletons, activation and
   subsumption, baseline generation (the Fig. 1 defect), the Sec. V-B
   extension (Fig. 10 and the Fig. 1 repair), and the Table I
   flexibility analysis. *)

module S = Clip_scenarios
module Path = Clip_schema.Path
module Tableau = Clip_clio.Tableau
module Skeleton = Clip_clio.Skeleton
module Generate = Clip_clio.Generate
module Enumerate = Clip_clio.Enumerate
module Node = Clip_xml.Node

(* A result-returning run's value, or the test fails with its
   diagnostics. *)
let get_ok = function
  | Ok v -> v
  | Error ds -> Alcotest.fail (Clip_diag.render_list ds)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checksl = Alcotest.(check (list string))

let contains haystack needle =
  let n = String.length needle and len = String.length haystack in
  let rec go i = i + n <= len && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let path s =
  match Path.of_string s with
  | Ok p -> p
  | Error m -> Alcotest.failf "bad path %S: %s" s m

(* --- Tableaux ---------------------------------------------------------------- *)

let tableau_tests =
  [
    Alcotest.test_case "the paper's three source tableaux (Sec. V-A)" `Quick
      (fun () ->
        checksl "tableaux"
          [ "{dept}"; "{dept-Proj}"; "{dept-Proj-regEmp, @pid=@pid}" ]
          (List.map Tableau.to_string (Tableau.compute S.Deptdb.source)));
    Alcotest.test_case "target tableaux of the Fig. 1 target" `Quick (fun () ->
        checksl "tableaux"
          [ "{department}"; "{department-project}"; "{department-employee}" ]
          (List.map Tableau.to_string (Tableau.compute S.Deptdb.target_dp)));
    Alcotest.test_case "fig10 source tableaux: A, AB, ABC, AD, ADE" `Quick (fun () ->
        checksl "tableaux"
          [ "{A}"; "{A-B}"; "{A-B-C}"; "{A-D}"; "{A-D-E}" ]
          (List.map Tableau.to_string (Tableau.compute S.Generic.source)));
    Alcotest.test_case "fig10 target tableaux: F, FG" `Quick (fun () ->
        checksl "tableaux" [ "{F}"; "{F-G}" ]
          (List.map Tableau.to_string (Tableau.compute S.Generic.target)));
    Alcotest.test_case "subset and equal" `Quick (fun () ->
        let a = Tableau.make [ path "s.A" ] in
        let ab = Tableau.make [ path "s.A"; path "s.A.B" ] in
        checkb "A <= AB" true (Tableau.subset a ab);
        checkb "AB !<= A" false (Tableau.subset ab a);
        checkb "A = A" true (Tableau.equal a (Tableau.make [ path "s.A" ])));
    Alcotest.test_case "covers respects repeating boundaries" `Quick (fun () ->
        let dp = Tableau.make [ path "source.dept"; path "source.dept.Proj" ] in
        checkb "pname" true (Tableau.covers S.Deptdb.source dp (path "source.dept.Proj.pname.value"));
        checkb "ename crosses regEmp" false
          (Tableau.covers S.Deptdb.source dp (path "source.dept.regEmp.ename.value"));
        checkb "dname" true (Tableau.covers S.Deptdb.source dp (path "source.dept.dname.value")));
    Alcotest.test_case "parents drop one maximal generator with its conditions"
      `Quick (fun () ->
        let chased =
          List.find
            (fun t -> Tableau.to_string t = "{dept-Proj-regEmp, @pid=@pid}")
            (Tableau.compute S.Deptdb.source)
        in
        let parents = List.map Tableau.to_string (Tableau.parents chased) in
        checkb "drops Proj (condition goes too)" true
          (List.mem "{dept-regEmp}" parents);
        checkb "drops regEmp" true (List.mem "{dept-Proj}" parents));
    Alcotest.test_case "singleton tableaux have no parents" `Quick (fun () ->
        checki "none" 0 (List.length (Tableau.parents (Tableau.make [ path "s.A" ]))));
    Alcotest.test_case "relational encodings: one tableau per table, chased over FKs"
      `Quick (fun () ->
        let db =
          Clip_schema.Relational.database "db"
            ~foreign_keys:
              [
                {
                  Clip_schema.Relational.fk_table = "grant";
                  fk_columns = [ "recipient" ];
                  pk_table = "company";
                  pk_columns = [ "cid" ];
                };
              ]
            [
              Clip_schema.Relational.table "company"
                [
                  Clip_schema.Relational.column "cid" Clip_schema.Atomic_type.T_int;
                ];
              Clip_schema.Relational.table "grant"
                [
                  Clip_schema.Relational.column "recipient"
                    Clip_schema.Atomic_type.T_int;
                ];
            ]
        in
        let s = Clip_schema.Relational.to_schema db in
        (* generators are depth-then-name ordered, so company sorts first *)
        checksl "tableaux"
          [ "{company}"; "{company-grant, @cid=@recipient}" ]
          (List.map Tableau.to_string (Tableau.compute s)));
    Alcotest.test_case "a chain of foreign keys chases transitively" `Quick
      (fun () ->
        let s =
          Clip_schema.Dsl.parse
            {|schema db {
                a [0..*] { @id: int }
                b [0..*] { @id: int @fa: int }
                c [0..*] { @fb: int }
                ref b.@fa -> a.@id
                ref c.@fb -> b.@id
              }|}
        in
        checkb "c chases through b to a" true
          (List.exists
             (fun t ->
               let s = Tableau.to_string t in
               let contains needle =
                 let n = String.length needle and m = String.length s in
                 let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
                 go 0
               in
               contains "c" && contains "b" && contains "a")
             (Tableau.compute s)));
  ]

(* --- Skeletons ----------------------------------------------------------------- *)

let skeleton_tests =
  [
    Alcotest.test_case "matrix size is |src| x |tgt|" `Quick (fun () ->
        checki "9" 9 (List.length (Skeleton.matrix S.Deptdb.source S.Deptdb.target_dp)));
    Alcotest.test_case "activation covers and prunes" `Quick (fun () ->
        let m = S.Figures.fig1_values in
        let actives = Skeleton.activate m (Skeleton.matrix m.source m.target) in
        checksl "active skeletons"
          [
            "{dept-Proj} -> {department-project}";
            "{dept-Proj-regEmp, @pid=@pid} -> {department-employee}";
          ]
          (List.map (fun (s, _) -> Skeleton.to_string s) actives));
    Alcotest.test_case "aligned parents walk both sides up" `Quick (fun () ->
        let s =
          {
            Skeleton.src = Tableau.make [ path "s.A"; path "s.A.B" ];
            tgt = Tableau.make [ path "t.F"; path "t.F.G" ];
          }
        in
        checksl "parents" [ "{A} -> {F}" ] (List.map Skeleton.to_string (Skeleton.parents s)));
    Alcotest.test_case "ancestors is the transitive closure" `Quick (fun () ->
        let s =
          {
            Skeleton.src = Tableau.make [ path "s.A"; path "s.A.B"; path "s.A.B.C" ];
            tgt = Tableau.make [ path "t.F"; path "t.F.G" ];
          }
        in
        checki "1 (deeper source has no matching target step after F)" 1
          (List.length (Skeleton.ancestors s)));
  ]

(* --- Baseline generation: the Fig. 1 defect --------------------------------------- *)

let run_tgd tgd =
  get_ok (Clip_tgd.Eval.run_result ~source:S.Deptdb.instance ~target_root:"target" tgd)

let baseline_tests =
  [
    Alcotest.test_case "baseline reproduces the Fig. 1 defective output" `Quick
      (fun () ->
        let out = run_tgd (Generate.generate S.Figures.fig1_values) in
        checkb "matches" true (Node.equal_unordered out S.Figures.fig1_clio_output));
    Alcotest.test_case "baseline wraps every value in its own department" `Quick
      (fun () ->
        let out = run_tgd (Generate.generate S.Figures.fig1_values) in
        checki "11 departments" 11 (Node.count_elements out "department"));
    Alcotest.test_case "baseline forest has two unnested roots" `Quick (fun () ->
        checki "2 roots" 2 (List.length (Generate.forest S.Figures.fig1_values)));
  ]

(* --- The extension ------------------------------------------------------------------ *)

let extension_tests =
  [
    Alcotest.test_case "extension activates {dept}->{department} and nests" `Quick
      (fun () ->
        let forest = Generate.forest ~extension:true S.Figures.fig1_values in
        checki "1 root" 1 (List.length forest);
        let root = List.hd forest in
        checkb "root skeleton" true
          (Skeleton.to_string root.skeleton = "{dept} -> {department}");
        checki "2 children" 2 (List.length root.children));
    Alcotest.test_case "extension output is the Sec. I desired instance" `Quick
      (fun () ->
        let out = run_tgd (Generate.generate ~extension:true S.Figures.fig1_values) in
        checkb "matches fig5 expected" true
          (Node.equal_unordered out (Option.get S.Figures.fig5.expected)));
    Alcotest.test_case "fig10: extension finds A -> F" `Quick (fun () ->
        let forest = Generate.forest ~extension:true S.Generic.mapping in
        checki "1 root" 1 (List.length forest);
        checkb "A -> F" true
          (Skeleton.to_string (List.hd forest).skeleton = "{A} -> {F}");
        checki "AB->FG and AD->FG below" 2 (List.length (List.hd forest).children));
    Alcotest.test_case "fig10 second example: A(BxD) nests under A -> F" `Quick
      (fun () ->
        let abd = Tableau.make S.Generic.abd_gens in
        let forest =
          Generate.forest ~extension:true ~extra_source_tableaux:[ abd ]
            S.Generic.mapping
        in
        checki "1 root" 1 (List.length forest);
        let root = List.hd forest in
        checkb "contains the Cartesian submapping" true
          (List.exists
             (fun (n : Generate.nested) ->
               Skeleton.to_string n.skeleton = "{A-B-D} -> {F-G}")
             root.children));
    Alcotest.test_case "extension on fig10 produces the paper's nested tgd" `Quick
      (fun () ->
        let tgd = Generate.generate ~extension:true S.Generic.mapping in
        let s = Clip_tgd.Pretty.to_string ~unicode:false tgd in
        let contains needle =
          let n = String.length needle and m = String.length s in
          let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
          go 0
        in
        checkb "root" true (contains "forall a in ROOT.A -> exists f' in ROOT2.F");
        checkb "B child" true (contains "forall b in a.B -> exists g' in f'.G");
        checkb "att2" true (contains "g'.@att2 = b.value");
        checkb "att3" true (contains ".@att3 = d.value"));
    Alcotest.test_case "extension without enough roots is a no-op" `Quick (fun () ->
        (* a single value mapping yields a single active mapping *)
        let m =
          Clip_core.Mapping.make ~source:S.Deptdb.source ~target:S.Deptdb.target_dp
            [
              Clip_core.Mapping.value
                [ path "source.dept.Proj.pname.value" ]
                (path "target.department.project.@name");
            ]
        in
        checki "same forests"
          (List.length (Generate.forest m))
          (List.length (Generate.forest ~extension:true m)));
  ]

(* --- to_clip round-trip --------------------------------------------------------------- *)

let to_clip_tests =
  [
    Alcotest.test_case "extension forest renders as a valid Clip mapping" `Quick
      (fun () ->
        let forest = Generate.forest ~extension:true S.Figures.fig1_values in
        let clip = Generate.to_clip S.Figures.fig1_values forest in
        checkb "valid" true (Clip_core.Validity.is_valid clip));
    Alcotest.test_case "rendered Clip mapping runs to the same output" `Quick
      (fun () ->
        let forest = Generate.forest ~extension:true S.Figures.fig1_values in
        let clip = Generate.to_clip S.Figures.fig1_values forest in
        let via_clip = get_ok (Clip_core.Engine.run_result clip S.Deptdb.instance) in
        let via_tgd = run_tgd (Generate.to_tgd S.Figures.fig1_values forest) in
        checkb "same result" true (Node.equal_unordered via_clip via_tgd));
    Alcotest.test_case "baseline forests with multi-element mappings are rejected"
      `Quick (fun () ->
        let forest = Generate.forest S.Figures.fig1_values in
        checkb "raises" true
          (match Generate.to_clip S.Figures.fig1_values forest with
           | exception Failure _ -> true
           | _ -> false));
  ]

(* --- Generated tgds are well-formed and produce conforming outputs -------------- *)

let wellformedness_tests =
  [
    Alcotest.test_case "generated tgds are well-formed (baseline and extension)"
      `Quick (fun () ->
        List.iter
          (fun (sc : S.Table1.scenario) ->
            List.iter
              (fun extension ->
                let tgd = Generate.generate ~extension sc.mapping in
                Alcotest.(check (list string))
                  (sc.label ^ if extension then " (ext)" else "")
                  []
                  (List.map Clip_tgd.Wellformed.error_to_string
                     (Clip_tgd.Wellformed.check
                        ~source_root:sc.mapping.source.root.name
                        ~target_root:sc.mapping.target.root.name tgd)))
              [ false; true ])
          S.Table1.all);
    Alcotest.test_case "extension outputs conform to the target schema" `Quick
      (fun () ->
        List.iter
          (fun (sc : S.Table1.scenario) ->
            let tgd = Generate.generate ~extension:true sc.mapping in
            let out =
              get_ok
                (Clip_tgd.Eval.run_result ~source:sc.instance
                   ~target_root:sc.mapping.target.root.name tgd)
            in
            let non_card =
              List.filter
                (fun (v : Clip_schema.Validate.violation) ->
                  let s = v.reason in
                  let needle = "cardinality" in
                  let n = String.length needle and m = String.length s in
                  let rec go i =
                    i + n <= m && (String.sub s i n = needle || go (i + 1))
                  in
                  not (go 0))
                (Clip_schema.Validate.check sc.mapping.target out)
            in
            Alcotest.(check (list string))
              sc.label []
              (List.map Clip_schema.Validate.violation_to_string non_card))
          S.Table1.all);
  ]

(* --- End to end: generated mappings through the whole pipeline ------------------ *)

(* Random subsets of each Table I scenario's value mappings, pushed
   through the entire toolchain: Sec. V-B generation, the Clip
   rendering, Sec. III validity, Sec. IV compilation and
   well-formedness, then execution on both backends under a counter
   sink. Baseline forests with multi-element mappings cannot render as
   Clip (to_clip refuses); those subsets are skipped, not failed. *)
let end_to_end_property =
  QCheck.Test.make ~count:60
    ~name:"generated mappings: valid, well-formed, backend-identical, sane counters"
    QCheck.(pair (int_range 0 1000) (int_range 1 1000))
    (fun (pick, mask) ->
      let sc = List.nth S.Table1.all (pick mod List.length S.Table1.all) in
      let values =
        List.filteri
          (fun i _ -> (mask lsr (i mod 10)) land 1 = 1 || mask mod 7 = i mod 7)
          sc.S.Table1.mapping.Clip_core.Mapping.values
      in
      QCheck.assume (values <> []);
      let m =
        Clip_core.Mapping.make ~source:sc.S.Table1.mapping.source
          ~target:sc.S.Table1.mapping.target values
      in
      let forest = Generate.forest ~extension:true m in
      match Generate.to_clip m forest with
      | exception Failure _ -> QCheck.assume_fail ()
      | clip ->
        if not (Clip_core.Validity.is_valid clip) then
          QCheck.Test.fail_reportf "%s: generated mapping is invalid" sc.label;
        let tgd = Clip_core.Compile.to_tgd clip in
        if
          Clip_tgd.Wellformed.check ~source_root:m.source.root.name
            ~target_root:m.target.root.name tgd
          <> []
        then QCheck.Test.fail_reportf "%s: compiled tgd is ill-formed" sc.label;
        let counted backend =
          let c = Clip_obs.Counters.create () in
          let out =
            get_ok
              (Clip_core.Engine.run_result
                 ~ctx:(Clip_run.create ~counters:c ())
                 ~backend clip sc.S.Table1.instance)
          in
          (out, c)
        in
        let out_t, ct = counted `Tgd in
        let out_x, cx = counted `Xquery in
        if not (Node.equal_unordered out_t out_x) then
          QCheck.Test.fail_reportf "%s: backends disagree" sc.label;
        List.iter
          (fun (bname, (c : Clip_obs.Counters.t)) ->
            if c.lim_ticks <= 0 then
              QCheck.Test.fail_reportf "%s/%s: no budget ticks recorded"
                sc.label bname;
            if c.child_steps <= 0 then
              QCheck.Test.fail_reportf "%s/%s: no child steps recorded"
                sc.label bname;
            if c.index_hits > c.index_probes then
              QCheck.Test.fail_reportf "%s/%s: index hits %d > probes %d"
                sc.label bname c.index_hits c.index_probes)
          [ ("tgd", ct); ("xquery", cx) ];
        true)

(* --- Table I ----------------------------------------------------------------------------- *)

let table1_tests =
  List.map
    (fun (sc : S.Table1.scenario) ->
      Alcotest.test_case sc.label `Quick (fun () ->
          checki "value mappings" sc.value_mappings
            (List.length sc.mapping.values);
          let report = Enumerate.flexibility ~instance:sc.instance sc.mapping in
          checki
            (Printf.sprintf "extra meaningful mappings (paper: %d)" sc.paper_extra)
            sc.paper_extra
            (Enumerate.extra_count report)))
    S.Table1.all

let enumeration_detail_tests =
  [
    Alcotest.test_case "this-paper variants are the four expected classes" `Quick
      (fun () ->
        let report =
          Enumerate.flexibility ~instance:S.Deptdb.instance S.Figures.fig1_values
        in
        let accepted =
          List.filter_map
            (fun (v : Enumerate.variant) ->
              match v.outcome with
              | Enumerate.Accepted _ -> Some v.label
              | _ -> None)
            report.variants
        in
        checki "4 accepted" 4 (List.length accepted);
        checkb "two drop-arc" true
          (List.length (List.filter (fun l -> String.length l >= 8 && String.sub l 0 8 = "drop-arc") accepted) = 2);
        checkb "two group" true
          (List.length (List.filter (fun l -> String.length l >= 5 && String.sub l 0 5 = "group") accepted) = 2));
    Alcotest.test_case "accepted variants are pairwise distinct" `Quick (fun () ->
        let report =
          Enumerate.flexibility ~instance:S.Deptdb.instance S.Figures.fig1_values
        in
        let outputs =
          List.filter_map
            (fun (v : Enumerate.variant) ->
              match v.outcome with Enumerate.Accepted out -> Some out | _ -> None)
            report.variants
        in
        List.iteri
          (fun i a ->
            List.iteri
              (fun j b ->
                if i < j then checkb "distinct" false (Node.equal_unordered a b))
              outputs)
          outputs);
    Alcotest.test_case "a base mapping failing at run time reports its CLIP-* code"
      `Quick (fun () ->
        let wrong_root = Clip_xml.Parser.parse_string "<sauce><dept/></sauce>" in
        match
          Enumerate.flexibility_result ~instance:wrong_root S.Figures.fig1_values
        with
        | Ok _ -> Alcotest.fail "the base mapping ran over a wrong-root instance"
        | Error ds ->
          checksl "codes" [ Clip_diag.Codes.clio_not_expressible ]
            (List.map (fun (d : Clip_diag.t) -> d.code) ds);
          let msg = (List.hd ds).message in
          checkb
            (Printf.sprintf "names the run's CLIP-TGD-001 (%s)" msg)
            true
            (contains msg "base mapping failed: error[CLIP-TGD-001]: source root is <sauce>"));
    Alcotest.test_case "failed variants report their CLIP-* code" `Quick (fun () ->
        let failed =
          List.concat_map
            (fun (sc : S.Table1.scenario) ->
              let report = Enumerate.flexibility ~instance:sc.instance sc.mapping in
              List.filter_map
                (fun (v : Enumerate.variant) ->
                  match v.outcome with Enumerate.Failed m -> Some m | _ -> None)
                report.variants)
            S.Table1.all
        in
        checkb "some variant fails" true (failed <> []);
        List.iter
          (fun m -> checkb m true (contains m "error[CLIP-TGD-001]: conflicting values"))
          failed);
    Alcotest.test_case "all accepted variants are valid mappings" `Quick (fun () ->
        let report =
          Enumerate.flexibility ~instance:S.Deptdb.instance S.Figures.fig1_values
        in
        List.iter
          (fun (v : Enumerate.variant) ->
            match v.outcome with
            | Enumerate.Accepted _ ->
              checkb v.label true (Clip_core.Validity.is_valid v.mapping)
            | _ -> ())
          report.variants);
  ]

let () =
  Alcotest.run "clio"
    [
      ("tableaux", tableau_tests);
      ("skeletons", skeleton_tests);
      ("baseline", baseline_tests);
      ("extension", extension_tests);
      ("to-clip", to_clip_tests);
      ("wellformedness", wellformedness_tests);
      ("table1", table1_tests);
      ("enumeration", enumeration_detail_tests);
      ("end-to-end", [ QCheck_alcotest.to_alcotest end_to_end_property ]);
    ]
