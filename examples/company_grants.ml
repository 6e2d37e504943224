(* The relational bridge: Clip "also works with relational schemas, as
   long as they are converted in a canonical way into XML Schemas".

   A relational funding database (companies + grants with a foreign
   key) is encoded canonically, Clio's generator derives the mapping
   from two value couplings alone — the chase over the foreign key
   introduces the join — and the result is published as nested XML.

     dune exec examples/company_grants.exe
*)

module Rel = Clip_schema.Relational
module Atom = Clip_xml.Atom
module Mapping = Clip_core.Mapping

let db =
  Rel.database "funding"
    ~foreign_keys:
      [
        {
          Rel.fk_table = "grants";
          fk_columns = [ "recipient" ];
          pk_table = "companies";
          pk_columns = [ "cid" ];
        };
      ]
    [
      Rel.table ~primary_key:[ "cid" ] "companies"
        [
          Rel.column "cid" Clip_schema.Atomic_type.T_int;
          Rel.column "cname" Clip_schema.Atomic_type.T_string;
          Rel.column "city" Clip_schema.Atomic_type.T_string;
        ];
      Rel.table ~primary_key:[ "gid" ] "grants"
        [
          Rel.column "gid" Clip_schema.Atomic_type.T_int;
          Rel.column "recipient" Clip_schema.Atomic_type.T_int;
          Rel.column "amount" Clip_schema.Atomic_type.T_int;
        ];
    ]

let rows =
  [
    ( "companies",
      [
        [ Atom.Int 1; Atom.String "Acme Robotics"; Atom.String "Milano" ];
        [ Atom.Int 2; Atom.String "Globex Analytics"; Atom.String "Roma" ];
        [ Atom.Int 3; Atom.String "Initech Mapping"; Atom.String "Torino" ];
      ] );
    ( "grants",
      [
        [ Atom.Int 100; Atom.Int 1; Atom.Int 50_000 ];
        [ Atom.Int 101; Atom.Int 1; Atom.Int 75_000 ];
        [ Atom.Int 102; Atom.Int 2; Atom.Int 120_000 ];
      ] );
  ]

let target =
  Clip_schema.Dsl.parse
    {|
    schema web {
      organization [0..*] {
        @name: string
        funding [0..*] { @amount: int }
      }
    }
    |}

let p s = Result.get_ok (Clip_schema.Path.of_string s)

(* Every run reports failures as [CLIP-*] diagnostics; an example has
   no recovery to offer, so it prints them and stops. *)
let ok_or_exit = function
  | Ok v -> v
  | Error ds ->
    prerr_endline (Clip_diag.render_list ds);
    exit 1

let () =
  let source = Rel.to_schema db in
  let instance = Rel.instance db rows in

  print_endline "== the canonical XML encoding of the relational schema ==";
  print_string (Clip_schema.Schema.to_tree_string source);

  (* Only value couplings are given; the builders and the join come out
     of Clio's generator (Sec. V) with the Clip extension. *)
  let couplings =
    Mapping.make ~source ~target
      [
        Mapping.value [ p "funding.companies.@cname" ] (p "web.organization.@name");
        Mapping.value [ p "funding.grants.@amount" ] (p "web.organization.funding.@amount");
      ]
  in
  let forest = Clip_clio.Generate.forest ~extension:true couplings in
  print_endline "\n== generated nested mapping (chased over the foreign key) ==";
  print_string (Clip_clio.Generate.forest_to_string forest);

  let mapping = Clip_clio.Generate.to_clip couplings forest in
  print_endline "\n== as an explicit Clip mapping ==";
  print_string (Clip_core.Dsl.to_string mapping);

  print_endline "\n== result ==";
  let out = ok_or_exit (Clip_core.Engine.run_result mapping instance) in
  print_endline (Clip_xml.Printer.to_tree_string out);

  (* The target conforms to its schema. *)
  match Clip_schema.Validate.check target out with
  | [] -> print_endline "\ntarget instance validates against the web schema"
  | vs ->
    List.iter
      (fun v -> print_endline (Clip_schema.Validate.violation_to_string v))
      vs
