(* Bootstrapping a mapping from nothing but two schemas — the
   Sec. VII future-work workflow, end to end:

   1. load the source schema from an XSD file (the subset reader),
   2. let the schema matcher suggest the value couplings,
   3. let Clio + the Sec. V-B extension generate the nested mapping,
   4. render it as an explicit Clip mapping and run it,
   5. inspect static lineage and instance-level provenance.

     dune exec examples/bootstrap.exe
*)

module S = Clip_scenarios

let source_xsd =
  {|<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
      <xs:element name="store">
        <xs:complexType><xs:sequence>
          <xs:element name="order" minOccurs="0" maxOccurs="unbounded">
            <xs:complexType>
              <xs:sequence>
                <xs:element name="customer" type="xs:string"/>
                <xs:element name="item" minOccurs="0" maxOccurs="unbounded">
                  <xs:complexType>
                    <xs:sequence>
                      <xs:element name="product" type="xs:string"/>
                    </xs:sequence>
                    <xs:attribute name="qty" type="xs:int" use="required"/>
                  </xs:complexType>
                </xs:element>
              </xs:sequence>
              <xs:attribute name="oid" type="xs:int" use="required"/>
            </xs:complexType>
          </xs:element>
        </xs:sequence></xs:complexType>
      </xs:element>
    </xs:schema>|}

let target_dsl =
  {|
  schema shop {
    purchase [0..*] {
      @customer: string
      @oid: int
      line [0..*] {
        @product: string
        @qty: int
      }
    }
  }
  |}

let instance =
  Clip_xml.Parser.parse_string
    {|<store>
        <order oid="1">
          <customer>Ada</customer>
          <item qty="2"><product>widget</product></item>
          <item qty="1"><product>gadget</product></item>
        </order>
        <order oid="2">
          <customer>Grace</customer>
          <item qty="5"><product>widget</product></item>
        </order>
      </store>|}

(* Every run reports failures as [CLIP-*] diagnostics; an example has
   no recovery to offer, so it prints them and stops. *)
let ok_or_exit = function
  | Ok v -> v
  | Error ds ->
    prerr_endline (Clip_diag.render_list ds);
    exit 1

let () =
  let source = Clip_schema.Xsd.of_string source_xsd in
  let target = Clip_schema.Dsl.parse target_dsl in

  print_endline "== 1. the source schema, imported from XSD ==";
  print_string (Clip_schema.Schema.to_tree_string source);

  print_endline "\n== 2. matcher suggestions ==";
  let suggestions = Clip_clio.Matcher.suggest source target in
  List.iter
    (fun s -> print_endline ("  " ^ Clip_clio.Matcher.suggestion_to_string s))
    suggestions;

  print_endline "\n== 3. generated nested mapping (Sec. V + extension) ==";
  let couplings = Clip_clio.Matcher.bootstrap source target in
  let forest = Clip_clio.Generate.forest ~extension:true couplings in
  print_string (Clip_clio.Generate.forest_to_string forest);

  print_endline "\n== 4. as an explicit Clip mapping, executed ==";
  let mapping = Clip_clio.Generate.to_clip couplings forest in
  print_string (Clip_core.Dsl.to_string mapping);
  let out, trace =
    ok_or_exit (Clip_core.Engine.run_traced_result mapping instance)
  in
  print_endline "";
  print_endline (Clip_xml.Printer.to_tree_string out);
  (match Clip_schema.Validate.check target out with
   | [] -> print_endline "\nthe result validates against the target schema"
   | vs ->
     List.iter (fun v -> print_endline (Clip_schema.Validate.violation_to_string v)) vs);

  print_endline "\n== 5a. static lineage (impact analysis) ==";
  print_string (Clip_core.Lineage.report_to_string mapping);

  print_endline "\n== 5b. instance-level provenance ==";
  List.iter
    (fun (t : Clip_tgd.Eval.trace_entry) ->
      if t.sources <> [] then
        Printf.printf "  /%s <- %s\n"
          (String.concat "/" (List.map string_of_int t.target_path))
          (String.concat ", "
             (List.map
                (fun n ->
                  match n with
                  | Clip_xml.Node.Element e -> "<" ^ e.tag ^ ">"
                  | Clip_xml.Node.Text a -> Clip_xml.Atom.to_string a)
                t.sources)))
    trace
