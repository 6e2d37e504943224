(* Analytics over the running department database: grouping and
   aggregates (Figs. 7 and 9 style) on a larger synthetic instance —
   a per-project roster built with a group node, and a per-department
   dashboard built with aggregate value mappings.

     dune exec examples/analytics.exe
*)

module S = Clip_scenarios
module Mapping = Clip_core.Mapping
module Path = Clip_schema.Path
module Tgd = Clip_tgd.Tgd

let p s = Result.get_ok (Path.of_string s)

(* A dashboard target: one row per department with KPIs, plus a global
   summary computed by driverless (whole-document) aggregates. *)
let dashboard_target =
  Clip_schema.Dsl.parse
    {|
    schema dashboard {
      row [0..*] {
        @dept: string
        @headcount: int
        @projects: int
        @avg-sal ?: float
        @max-sal ?: float
      }
      summary {
        @total-emps: int
        @total-projs: int
      }
    }
    |}

let dashboard =
  Mapping.make ~source:S.Deptdb.source ~target:dashboard_target
    ~roots:
      [
        Mapping.node ~id:"dept" ~output:(p "dashboard.row")
          [ Mapping.input ~var:"d" (p "source.dept") ];
      ]
    [
      Mapping.value [ p "source.dept.dname.value" ] (p "dashboard.row.@dept");
      Mapping.value ~fn:(Mapping.Aggregate Tgd.Count) [ p "source.dept.regEmp" ]
        (p "dashboard.row.@headcount");
      Mapping.value ~fn:(Mapping.Aggregate Tgd.Count) [ p "source.dept.Proj" ]
        (p "dashboard.row.@projects");
      Mapping.value ~fn:(Mapping.Aggregate Tgd.Avg)
        [ p "source.dept.regEmp.sal.value" ]
        (p "dashboard.row.@avg-sal");
      Mapping.value ~fn:(Mapping.Aggregate Tgd.Max)
        [ p "source.dept.regEmp.sal.value" ]
        (p "dashboard.row.@max-sal");
      (* No builder drives these: their scope is the whole document. *)
      Mapping.value ~fn:(Mapping.Aggregate Tgd.Count)
        [ p "source.dept.regEmp" ]
        (p "dashboard.summary.@total-emps");
      Mapping.value ~fn:(Mapping.Aggregate Tgd.Count)
        [ p "source.dept.Proj" ]
        (p "dashboard.summary.@total-projs");
    ]

(* A per-project roster: projects grouped by name across departments,
   each listing the employees working on it (Fig. 7's construction). *)
let roster_target =
  Clip_schema.Dsl.parse
    {|
    schema roster {
      project [0..*] {
        @name: string
        member [0..*] { @name: string }
      }
    }
    |}

let roster =
  Mapping.make ~source:S.Deptdb.source ~target:roster_target
    ~roots:
      [
        Mapping.node ~id:"group" ~output:(p "roster.project")
          ~group_by:[ ("pj", [ Path.Child "pname"; Path.Value ]) ]
          ~children:
            [
              Mapping.node ~id:"member" ~output:(p "roster.project.member")
                ~cond:
                  [
                    {
                      Mapping.p_left = Mapping.O_path ("p2", [ Path.Attr "pid" ]);
                      p_op = Tgd.Eq;
                      p_right = Mapping.O_path ("r", [ Path.Attr "pid" ]);
                    };
                  ]
                [
                  Mapping.input ~var:"p2" (p "source.dept.Proj");
                  Mapping.input ~var:"r" (p "source.dept.regEmp");
                ];
            ]
          [ Mapping.input ~var:"pj" (p "source.dept.Proj") ];
      ]
    [
      Mapping.value [ p "source.dept.Proj.pname.value" ] (p "roster.project.@name");
      Mapping.value [ p "source.dept.regEmp.ename.value" ]
        (p "roster.project.member.@name");
    ]

(* Every run reports failures as [CLIP-*] diagnostics; an example has
   no recovery to offer, so it prints them and stops. *)
let ok_or_exit = function
  | Ok v -> v
  | Error ds ->
    prerr_endline (Clip_diag.render_list ds);
    exit 1

let () =
  (* A synthetic instance: 6 departments, 5 projects and 8 employees each. *)
  let instance = S.Deptdb.synthetic_instance ~depts:6 ~projs:5 ~emps:8 in

  print_endline "== dashboard mapping (aggregates, Fig. 9 style) ==";
  print_endline (Clip_core.Engine.tgd_text ~unicode:false dashboard);
  let out = ok_or_exit (Clip_core.Engine.run_result dashboard instance) in
  print_endline "\n== dashboard ==";
  print_endline (Clip_xml.Printer.to_tree_string out);
  (match Clip_schema.Validate.check dashboard_target out with
   | [] -> print_endline "dashboard validates"
   | vs ->
     List.iter (fun v -> print_endline (Clip_schema.Validate.violation_to_string v)) vs);

  print_endline "\n== roster mapping (grouping + join, Fig. 7 style) ==";
  let out = ok_or_exit (Clip_core.Engine.run_result roster instance) in
  let root = Clip_xml.Node.as_element out in
  Printf.printf "projects: %d\n" (List.length (Clip_xml.Node.children_named root "project"));
  List.iter
    (fun proj ->
      Printf.printf "  %-14s %d member(s)\n"
        (match Clip_xml.Node.attr proj "name" with
         | Some a -> Clip_xml.Atom.to_string a
         | None -> "?")
        (List.length (Clip_xml.Node.children_named proj "member")))
    (Clip_xml.Node.children_named root "project");
  match Clip_schema.Validate.check roster_target out with
  | [] -> print_endline "roster validates"
  | vs ->
    List.iter (fun v -> print_endline (Clip_schema.Validate.violation_to_string v)) vs
