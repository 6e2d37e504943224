(* Tests for the XML lexer (Clip_xml.Stream): chunk-boundary
   independence and diagnostic identity against the reference parser
   in test/oracle, the two contracts the shard cutter and the CLI's
   --stream path stand on. *)

open Clip_xml

let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* Render a parse outcome — document or diagnostics, spans included —
   to one comparable string. *)
let outcome = function
  | Ok node -> "ok: " ^ Printer.to_string node
  | Error ds -> "error: " ^ String.concat "\n" (List.map Clip_diag.render ds)

(* Feed [bytes] as chunks cut at the given (sorted, in-range)
   positions. *)
let chunked ?limits bytes cuts =
  let cuts = List.sort_uniq compare (List.filter (fun c -> c > 0 && c < String.length bytes) cuts) in
  let pieces =
    let rec go start = function
      | [] -> [ String.sub bytes start (String.length bytes - start) ]
      | c :: rest -> String.sub bytes start (c - start) :: go c rest
    in
    if bytes = "" then [] else go 0 cuts
  in
  let remaining = ref pieces in
  Stream.of_chunks ?limits (fun () ->
      match !remaining with
      | [] -> None
      | p :: rest ->
        remaining := rest;
        Some p)

let byte_by_byte ?limits bytes =
  let i = ref 0 in
  Stream.of_chunks ?limits (fun () ->
      if !i >= String.length bytes then None
      else begin
        let c = String.sub bytes !i 1 in
        incr i;
        Some c
      end)

(* The three stream feeds and the reference parser must agree on
   [bytes] — same document, or same diagnostics (codes, messages, spans). *)
let assert_all_agree ?limits bytes =
  let reference = outcome (Xml_oracle.parse_string_result ?limits bytes) in
  checks "of_string" reference
    (outcome (Stream.parse_result (Stream.of_string ?limits bytes)));
  checks "byte-by-byte" reference
    (outcome (Stream.parse_result (byte_by_byte ?limits bytes)));
  checks "mid chunks" reference
    (outcome
       (Stream.parse_result
          (chunked ?limits bytes [ 1; 3; String.length bytes / 2 ])))

let well_formed =
  [
    "<a/>";
    "<a></a>";
    "<r><x>1</x><x>2.5</x><x>true</x><x>hello world</x></r>";
    "<r a=\"1\" b=\"two\"><c k=\"v\"/>text<d/>more</r>";
    "<r>&lt;&amp;&gt;&quot;&apos;&#65;&#x41;</r>";
    "<r><![CDATA[  raw <stuff> & more  ]]></r>";
    "<r>before<![CDATA[42]]></r>";
    "<?xml version=\"1.0\"?><!-- head --><!DOCTYPE r [<!ELEMENT r ANY>]><r/><!-- tail -->";
    "  <r>\n  <e>  spaced  text  </e>\n  </r>  ";
    "<r><a><b><c><d>deep</d></c></b></a></r>";
    "<source><dept deptno=\"d1\"><emp>ann</emp><emp>bob</emp></dept><dept \
     deptno=\"d2\"><emp>cat</emp></dept></source>";
  ]

let malformed =
  [
    "";
    "   ";
    "plain text";
    "<r>";
    "<r><a></b></r>";
    "<r attr=oops/>";
    "<r a=\"1\" a=\"2\"/>";
    "<r>&unknown;</r>";
    "<r>&#xZZ;</r>";
    "<r>&brokenentity</r>";
    "<r><![CDATA[never closed</r>";
    "<r/><r/>";
    "<r/>trailing";
    "<r></r";
    "<1bad/>";
    "<r><a/>";
    "<!-- only a comment -->";
  ]

let equivalence_tests =
  [
    Alcotest.test_case "well-formed documents" `Quick (fun () ->
        List.iter assert_all_agree well_formed);
    Alcotest.test_case "malformed documents: identical diagnostics" `Quick
      (fun () -> List.iter assert_all_agree malformed);
    Alcotest.test_case "depth limit: identical CLIP-LIM-002" `Quick (fun () ->
        let limits = { Clip_diag.Limits.default with max_xml_depth = 3 } in
        assert_all_agree ~limits "<a><b><c><d>too deep</d></c></b></a>";
        assert_all_agree ~limits "<a><b><c>just fits</c></b></a>");
    Alcotest.test_case "size limit: of_string matches CLIP-LIM-001" `Quick
      (fun () ->
        let limits = { Clip_diag.Limits.default with max_input_bytes = 10 } in
        let bytes = "<r>0123456789</r>" in
        (* The whole-string feed checks the limit up front, exactly as
           the reference parser does. *)
        checks "of_string"
          (outcome (Xml_oracle.parse_string_result ~limits bytes))
          (outcome (Stream.parse_result (Stream.of_string ~limits bytes)));
        (* A chunked feed discovers the total size incrementally but
           still reports the same code, message and span once the
           running count passes the limit on this well-formed input. *)
        checks "byte-by-byte"
          (outcome (Xml_oracle.parse_string_result ~limits bytes))
          (outcome (Stream.parse_result (byte_by_byte ~limits bytes))));
    Alcotest.test_case
      "size limit beats a later syntax error, chunking-independent" `Quick
      (fun () ->
        (* Oversized AND malformed: the reference parser's up-front size
           check reports CLIP-LIM-001 before it ever sees the broken
           markup. A chunked feed recognises the syntax error first —
           the unterminated root, the garbage prologue — while its
           running total is still under the limit; it must drain the
           rest of the feed and report the same CLIP-LIM-001 as the
           reference parser, wherever the chunks were cut. *)
        let limits = { Clip_diag.Limits.default with max_input_bytes = 10 } in
        List.iter
          (fun bytes -> assert_all_agree ~limits bytes)
          [
            "<r>0123456789";          (* truncated root, oversized *)
            "plain text 0123456789";  (* garbage from byte one *)
            "<r><a></b></r> padding"; (* mismatched tags, oversized *)
            "<r a=\"1\" a=\"1\"/> tail tail"; (* dup attr, oversized *)
          ];
        (* Under-limit malformed input keeps its syntax diagnostic:
           the precedence rule only fires when the whole feed is
           actually oversized. *)
        assert_all_agree ~limits "<r><a>");
    Alcotest.test_case "decode order and well-formedness match the reference"
      `Quick (fun () ->
        (* A text run is decoded at the '<' that ends it, except before
           a CDATA section: there it is decoded once the section has
           been consumed, so an unterminated section wins. *)
        List.iter assert_all_agree
          [
            "<r>&bad;<e/></r>";
            "<r>&bad;<![CDATA[x]]></r>";
            "<r>&bad;<![CDATA[x</r>";
            "<r>ok<![CDATA[x]]>&#65;</r>";
            "<r>\012</r>";
            "<r a=\"1\" b=\"2\" a=\"3\"/>";
            "<r>&#+65;</r>";
            "<r>&#0x41;</r>";
            "<r>&#6_5;</r>";
            "<r>&#x4_1;</r>";
            "<r>&#0;</r>";
            "<r>&#128;</r>";
            "<r>&#99999999999999999999999;</r>";
            "<r a='&#x;'/>";
            "<r>&#;</r>";
            "<r>\n  <a>x</a>\n  <b>\n</c>\n</r>";
            "<r>\n\n  <a k=\"&nope;\"/>\n</r>";
          ]);
    Alcotest.test_case "event stream shape" `Quick (fun () ->
        let st = Stream.of_string "<r a=\"1\">hi<e/></r>" in
        let next () =
          match Stream.next_result st with
          | Ok e -> e
          | Error _ -> Alcotest.fail "unexpected error"
        in
        (match next () with
         | Some (Stream.Start { tag = "r"; attrs = [ ("a", Atom.Int 1) ] }) -> ()
         | _ -> Alcotest.fail "expected <r> start");
        (match next () with
         | Some (Stream.Text (Atom.String "hi")) -> ()
         | _ -> Alcotest.fail "expected text");
        (match next () with
         | Some (Stream.Start { tag = "e"; attrs = [] }) -> ()
         | _ -> Alcotest.fail "expected <e> start");
        (match next () with
         | Some (Stream.End "e") -> ()
         | _ -> Alcotest.fail "expected </e>");
        (match next () with
         | Some (Stream.End "r") -> ()
         | _ -> Alcotest.fail "expected </r>");
        checkb "eof" true (next () = None);
        checkb "still eof" true (next () = None));
    Alcotest.test_case "failed source latches its error" `Quick (fun () ->
        let st = Stream.of_string "<r><oops</r>" in
        let rec drain last =
          match Stream.next_result st with
          | Ok (Some _) -> drain last
          | Ok None -> Alcotest.fail "expected a parse error"
          | Error ds -> ds
        in
        let first = drain [] in
        (match Stream.next_result st with
         | Error ds ->
           checks "same error"
             (String.concat "\n" (List.map Clip_diag.render first))
             (String.concat "\n" (List.map Clip_diag.render ds))
         | Ok _ -> Alcotest.fail "error did not latch"));
  ]

(* --- Chunk-boundary property ------------------------------------------- *)

(* Random documents (and random mutations of their bytes) fed whole,
   byte by byte, and in random chunks must produce identical outcomes —
   the same Node.t or the same diagnostics. *)

let gen_atom =
  QCheck2.Gen.(
    oneof
      [
        map (fun i -> Atom.Int i) small_int;
        map (fun s -> Atom.String s) (string_size ~gen:(char_range 'a' 'z') (1 -- 8));
        map (fun b -> Atom.Bool b) bool;
      ])

let gen_node =
  QCheck2.Gen.(
    sized_size (1 -- 4) @@ fix (fun self n ->
        let leaf = map (fun a -> Node.leaf "leaf" a) gen_atom in
        if n <= 0 then leaf
        else
          oneof
            [
              leaf;
              map2
                (fun attrs children ->
                  let attrs =
                    List.mapi (fun i a -> (Printf.sprintf "a%d" i, a)) attrs
                  in
                  Node.elem ~attrs "node" children)
                (list_size (0 -- 2) gen_atom)
                (list_size (0 -- 3) (self (n / 2)));
            ]))

(* A document's bytes, possibly mutated (one byte overwritten, a byte
   inserted, or a truncated tail), plus random cut positions. *)
let gen_case =
  QCheck2.Gen.(
    gen_node >>= fun node ->
    let bytes = Printer.to_string node in
    let n = String.length bytes in
    let mutated =
      oneof
        [
          return bytes;
          (int_bound (max 0 (n - 1)) >>= fun i ->
           printable >>= fun c ->
           return (String.mapi (fun j x -> if j = i then c else x) bytes));
          (int_bound n >>= fun i ->
           return (String.sub bytes 0 i));
          (int_bound n >>= fun i ->
           printable >>= fun c ->
           return
             (String.sub bytes 0 i ^ String.make 1 c
             ^ String.sub bytes i (n - i)));
        ]
    in
    mutated >>= fun bytes ->
    list_size (0 -- 6) (int_bound (max 1 (String.length bytes))) >>= fun cuts ->
    return (bytes, cuts))

let prop_chunk_boundaries =
  QCheck2.Test.make ~count:500
    ~name:"whole / byte-by-byte / random chunks agree (documents and mutations)"
    gen_case
    (fun (bytes, cuts) ->
      let reference = outcome (Xml_oracle.parse_string_result bytes) in
      outcome (Stream.parse_result (Stream.of_string bytes)) = reference
      && outcome (Stream.parse_result (byte_by_byte bytes)) = reference
      && outcome (Stream.parse_result (chunked bytes cuts)) = reference)

let property_tests =
  List.map QCheck_alcotest.to_alcotest [ prop_chunk_boundaries ]

let () =
  Alcotest.run "stream"
    [
      ("equivalence", equivalence_tests);
      ("properties", property_tests);
    ]
