(* Tests for the XML substrate: lexing/parsing, entities, errors,
   serialization round trips. *)

module Dom = Xfrag_xml.Xml_dom
module Parser = Xfrag_xml.Xml_parser
module Printer = Xfrag_xml.Xml_printer
module Entities = Xfrag_xml.Xml_entities
module Error = Xfrag_xml.Xml_error

let parse s = Parser.parse_string s

let root s = (parse s).Dom.root

let check_parse_error name input =
  match Parser.parse_string_result input with
  | Ok _ -> Alcotest.failf "%s: expected a parse error for %S" name input
  | Error _ -> ()

(* --- basic parsing --- *)

let test_minimal () =
  let r = root "<a/>" in
  Alcotest.(check string) "name" "a" r.Dom.name;
  Alcotest.(check int) "no children" 0 (List.length r.Dom.children)

let test_nested () =
  let r = root "<a><b><c/></b><d/></a>" in
  Alcotest.(check int) "two children" 2 (List.length (Dom.child_elements r));
  let names = List.map Dom.name (Dom.child_elements r) in
  Alcotest.(check (list string)) "names" [ "b"; "d" ] names

let test_text_content () =
  let r = root "<a>hello <b>brave</b> world</a>" in
  Alcotest.(check string) "all text" "hello brave world" (Dom.text_content r);
  Alcotest.(check string) "immediate only" "hello  world" (Dom.immediate_text r)

let test_attributes () =
  let r = root {|<a x="1" y='two'/>|} in
  Alcotest.(check (option string)) "x" (Some "1") (Dom.attribute r "x");
  Alcotest.(check (option string)) "y" (Some "two") (Dom.attribute r "y");
  Alcotest.(check (option string)) "absent" None (Dom.attribute r "z")

let test_attribute_whitespace_normalized () =
  let r = root "<a x=\"one\ttwo\nthree\"/>" in
  Alcotest.(check (option string)) "normalized" (Some "one two three")
    (Dom.attribute r "x")

let test_xml_decl_and_doctype () =
  let r = root "<?xml version=\"1.0\"?><!DOCTYPE a [<!ELEMENT a ANY>]><a/>" in
  Alcotest.(check string) "name" "a" r.Dom.name

let test_prolog_pi () =
  let doc = parse "<?xml version=\"1.0\"?><?style sheet?><a/>" in
  Alcotest.(check int) "one prolog pi" 1 (List.length doc.Dom.prolog_pis)

let test_comments_dropped_by_default () =
  let r = root "<a><!-- note --><b/></a>" in
  Alcotest.(check int) "comment dropped" 1 (List.length r.Dom.children)

let test_comments_kept_with_option () =
  let doc =
    Parser.parse_string
      ~options:{ Parser.keep_comments = true; keep_pis = false }
      "<a><!-- note --></a>"
  in
  match doc.Dom.root.Dom.children with
  | [ Dom.Comment c ] -> Alcotest.(check string) "comment text" " note " c
  | _ -> Alcotest.fail "expected a single comment child"

let test_cdata () =
  let r = root "<a><![CDATA[<not> &parsed;]]></a>" in
  Alcotest.(check string) "cdata text" "<not> &parsed;" (Dom.text_content r)

let test_cdata_merges_with_neighbours () =
  match (root "<a>one<![CDATA[ two ]]>three</a>").Dom.children with
  | [ Dom.Text "one two three" ] -> ()
  | children ->
      Alcotest.failf "expected one merged text node, got %d children"
        (List.length children)

let test_whitespace_between_elements_preserved_as_text () =
  let r = root "<a>\n  <b/>\n</a>" in
  (* Text nodes exist; immediate_text keeps them verbatim. *)
  Alcotest.(check string) "ws" "\n  \n" (Dom.immediate_text r)

let test_empty_element_variants () =
  let r1 = root "<a></a>" and r2 = root "<a/>" in
  Alcotest.(check bool) "equal" true (Dom.equal_node (Dom.Element r1) (Dom.Element r2))

let test_utf8_passthrough () =
  let r = root "<a>caf\xC3\xA9 \xE2\x9F\xA8x\xE2\x9F\xA9</a>" in
  Alcotest.(check string) "utf8" "caf\xC3\xA9 \xE2\x9F\xA8x\xE2\x9F\xA9" (Dom.text_content r)

(* --- entities --- *)

let test_predefined_entities () =
  let r = root "<a>&amp;&lt;&gt;&apos;&quot;</a>" in
  Alcotest.(check string) "decoded" "&<>'\"" (Dom.text_content r)

let test_char_refs () =
  let r = root "<a>&#65;&#x42;&#x1F600;</a>" in
  Alcotest.(check string) "decoded" "AB\xF0\x9F\x98\x80" (Dom.text_content r)

let test_entities_in_attributes () =
  let r = root {|<a x="&lt;&amp;&#48;"/>|} in
  Alcotest.(check (option string)) "decoded" (Some "<&0") (Dom.attribute r "x")

let test_entity_errors () =
  check_parse_error "unknown entity" "<a>&nope;</a>";
  check_parse_error "unterminated entity" "<a>&amp</a>";
  check_parse_error "bad char ref" "<a>&#xZZ;</a>";
  check_parse_error "surrogate char ref" "<a>&#xD800;</a>"

let test_utf8_of_code_point () =
  Alcotest.(check (option string)) "ascii" (Some "A") (Entities.utf8_of_code_point 65);
  Alcotest.(check (option string)) "two-byte" (Some "\xC2\xA9") (Entities.utf8_of_code_point 0xA9);
  Alcotest.(check (option string)) "three-byte" (Some "\xE2\x82\xAC") (Entities.utf8_of_code_point 0x20AC);
  Alcotest.(check (option string)) "out of range" None (Entities.utf8_of_code_point 0x110000);
  Alcotest.(check (option string)) "surrogate" None (Entities.utf8_of_code_point 0xD800)

(* --- well-formedness errors --- *)

let test_malformed () =
  check_parse_error "empty input" "";
  check_parse_error "mismatched tags" "<a><b></a></b>";
  check_parse_error "inner element unclosed" "<a><b></a>";
  check_parse_error "unclosed" "<a><b></b>";
  check_parse_error "two roots" "<a/><b/>";
  check_parse_error "no root" "   ";
  check_parse_error "junk after root" "<a/>text";
  check_parse_error "duplicate attribute" {|<a x="1" x="2"/>|};
  check_parse_error "lt in attribute" {|<a x="<"/>|};
  check_parse_error "bad name start" "<1a/>";
  check_parse_error "double dash in comment" "<a><!-- -- --></a>";
  check_parse_error "unterminated comment" "<a><!-- oops</a>";
  check_parse_error "unterminated cdata" "<a><![CDATA[oops</a>"

let test_error_position () =
  match Parser.parse_string_result "<a>\n<b></c>\n</a>" with
  | Ok _ -> Alcotest.fail "expected error"
  | Error e ->
      Alcotest.(check int) "line" 2 e.Error.position.Error.line

(* --- serialization --- *)

let test_escape_text () =
  Alcotest.(check string) "escaped" "a&amp;b&lt;c&gt;d" (Entities.escape_text "a&b<c>d")

let test_escape_attribute () =
  Alcotest.(check string) "escaped" "&quot;&apos;&amp;"
    (Entities.escape_attribute "\"'&")

let test_roundtrip_simple () =
  let original = {|<a x="1"><b>text &amp; more</b><c/></a>|} in
  let doc = parse original in
  let printed = Printer.to_string ~decl:false doc in
  let doc2 = parse printed in
  Alcotest.(check bool) "round trip" true
    (Dom.equal_node (Dom.Element doc.Dom.root) (Dom.Element doc2.Dom.root))

let roundtrip_prop =
  (* Random small DOMs must survive print → parse unchanged. *)
  let open QCheck2.Gen in
  let name_gen = map (fun i -> Printf.sprintf "el%d" i) (0 -- 5) in
  let text_gen =
    map
      (fun i -> [ "plain"; "with & amp"; "angle < bracket"; "quote \" mix"; "caf\xC3\xA9" ]
                |> fun l -> List.nth l (i mod List.length l))
      (0 -- 4)
  in
  let rec node_gen depth =
    if depth = 0 then map Dom.text text_gen
    else
      frequency
        [
          (2, map Dom.text text_gen);
          ( 3,
            map2
              (fun name kids -> Dom.element name kids)
              name_gen
              (list_size (0 -- 3) (node_gen (depth - 1))) );
        ]
  in
  let doc_gen =
    map
      (fun kids -> { Dom.root = { Dom.name = "root"; attributes = []; children = kids };
                     prolog_pis = [] })
      (list_size (0 -- 4) (node_gen 3))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"print/parse round trip" ~count:200 doc_gen (fun doc ->
         let printed = Printer.to_string ~decl:false doc in
         match Parser.parse_string_result printed with
         | Error _ -> false
         | Ok doc2 ->
             (* Adjacent text nodes merge on reparse; compare text content
                and element structure instead of raw node lists. *)
             let rec skeleton (e : Dom.element) =
               Printf.sprintf "%s[%s](%s)" e.Dom.name (Dom.text_content e)
                 (String.concat ";" (List.map skeleton (Dom.child_elements e)))
             in
             skeleton doc.Dom.root = skeleton doc2.Dom.root))

let test_pretty_print_contains_structure () =
  let doc = parse "<a><b>inner</b></a>" in
  let pretty = Printer.to_string_pretty doc in
  Alcotest.(check bool) "has indented b" true
    (String.length pretty > 0
    &&
    let lines = String.split_on_char '\n' pretty in
    List.exists (fun l -> String.trim l = "<b>inner</b>") lines)

let test_parse_file () =
  let path = Filename.temp_file "xfrag_test" ".xml" in
  let oc = open_out path in
  output_string oc "<doc><p>from file</p></doc>";
  close_out oc;
  let doc = Parser.parse_file path in
  Sys.remove path;
  Alcotest.(check string) "root" "doc" doc.Dom.root.Dom.name

let () =
  Alcotest.run "xml"
    [
      ( "parsing",
        [
          Alcotest.test_case "minimal" `Quick test_minimal;
          Alcotest.test_case "nested" `Quick test_nested;
          Alcotest.test_case "text content" `Quick test_text_content;
          Alcotest.test_case "attributes" `Quick test_attributes;
          Alcotest.test_case "attribute whitespace" `Quick test_attribute_whitespace_normalized;
          Alcotest.test_case "xml decl + doctype" `Quick test_xml_decl_and_doctype;
          Alcotest.test_case "prolog PI" `Quick test_prolog_pi;
          Alcotest.test_case "comments dropped" `Quick test_comments_dropped_by_default;
          Alcotest.test_case "comments kept" `Quick test_comments_kept_with_option;
          Alcotest.test_case "cdata" `Quick test_cdata;
          Alcotest.test_case "cdata merges with neighbours" `Quick
            test_cdata_merges_with_neighbours;
          Alcotest.test_case "whitespace text" `Quick test_whitespace_between_elements_preserved_as_text;
          Alcotest.test_case "empty element forms" `Quick test_empty_element_variants;
          Alcotest.test_case "utf8 passthrough" `Quick test_utf8_passthrough;
          Alcotest.test_case "parse file" `Quick test_parse_file;
        ] );
      ( "entities",
        [
          Alcotest.test_case "predefined" `Quick test_predefined_entities;
          Alcotest.test_case "char refs" `Quick test_char_refs;
          Alcotest.test_case "in attributes" `Quick test_entities_in_attributes;
          Alcotest.test_case "errors" `Quick test_entity_errors;
          Alcotest.test_case "utf8 encoding" `Quick test_utf8_of_code_point;
        ] );
      ( "errors",
        [
          Alcotest.test_case "malformed inputs" `Quick test_malformed;
          Alcotest.test_case "error position" `Quick test_error_position;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "escape text" `Quick test_escape_text;
          Alcotest.test_case "escape attribute" `Quick test_escape_attribute;
          Alcotest.test_case "round trip" `Quick test_roundtrip_simple;
          roundtrip_prop;
          Alcotest.test_case "pretty print" `Quick test_pretty_print_contains_structure;
        ] );
    ]
