(* Quickstart: define two schemas and a mapping in the textual DSL,
   validate it, inspect the compiled tgd and generated XQuery, and run
   it over an instance.

     dune exec examples/quickstart.exe
*)

let mapping_text =
  {|
  schema library {
    book [0..*] {
      title: string
      year: int
      author [1..*] { name: string }
    }
  }

  schema catalog {
    entry [0..*] {
      @title: string
      writer [0..*] { @name: string }
    }
  }

  mapping {
    # One catalog entry per book...
    node b: library.book as $b -> catalog.entry {
      # ...collecting the book's own authors (the context arc keeps
      # each author inside its book's entry).
      node a: library.book.author as $a -> catalog.entry.writer
    }
    value library.book.title.value -> catalog.entry.@title
    value library.book.author.name.value -> catalog.entry.writer.@name
  }
  |}

let instance_text =
  {|
  <library>
    <book>
      <title>Data on the Web</title><year>1999</year>
      <author><name>Abiteboul</name></author>
      <author><name>Buneman</name></author>
      <author><name>Suciu</name></author>
    </book>
    <book>
      <title>Foundations of Databases</title><year>1995</year>
      <author><name>Abiteboul</name></author>
      <author><name>Hull</name></author>
      <author><name>Vianu</name></author>
    </book>
  </library>
  |}

(* Every run reports failures as [CLIP-*] diagnostics; an example has
   no recovery to offer, so it prints them and stops. *)
let ok_or_exit = function
  | Ok v -> v
  | Error ds ->
    prerr_endline (Clip_diag.render_list ds);
    exit 1

let () =
  let mapping = Clip_core.Dsl.parse mapping_text in

  print_endline "== the mapping, rendered (the GUI stand-in) ==";
  print_string (Clip_core.Render.to_string mapping);

  print_endline "\n== validity (Sec. III) ==";
  (match Clip_core.Validity.check mapping with
   | [] -> print_endline "no issues"
   | issues ->
     List.iter (fun i -> print_endline (Clip_core.Validity.issue_to_string i)) issues);

  print_endline "\n== the compiled nested tgd (Sec. IV) ==";
  print_endline (Clip_core.Engine.tgd_text ~unicode:false mapping);

  print_endline "\n== the generated XQuery (Sec. VI) ==";
  print_string (Clip_core.Engine.xquery_text mapping);

  let source = Clip_xml.Parser.parse_string instance_text in
  print_endline "\n== result (direct tgd engine) ==";
  let out = ok_or_exit (Clip_core.Engine.run_result mapping source) in
  print_endline (Clip_xml.Printer.to_tree_string out);

  (* Both backends implement the same semantics. *)
  let out' =
    ok_or_exit (Clip_core.Engine.run_result ~backend:`Xquery mapping source)
  in
  Printf.printf "\nbackends agree: %b\n" (Clip_xml.Node.equal out out')
