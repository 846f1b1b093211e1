(* Tests for the XML node model, parser and XPath-subset evaluator. *)

open Xmlkit

let catalog =
  Xml.elem "catalog"
    [ Xml.elem ~attrs:[ ("name", "CRT 15") ] "product"
        [ Xml.elem "vendor"
            [ Xml.elem "pid" [ Xml.text "P1" ];
              Xml.elem "vid" [ Xml.text "Amazon" ];
              Xml.elem "price" [ Xml.text "100.00" ];
            ];
          Xml.elem "vendor"
            [ Xml.elem "pid" [ Xml.text "P1" ];
              Xml.elem "vid" [ Xml.text "Bestbuy" ];
              Xml.elem "price" [ Xml.text "120.00" ];
            ];
        ];
      Xml.elem ~attrs:[ ("name", "LCD 19") ] "product"
        [ Xml.elem "vendor"
            [ Xml.elem "pid" [ Xml.text "P2" ];
              Xml.elem "vid" [ Xml.text "Buy.com" ];
              Xml.elem "price" [ Xml.text "200.00" ];
            ];
        ];
    ]

(* --- Xml --- *)

let test_accessors () =
  Alcotest.(check (option string)) "tag" (Some "catalog") (Xml.tag catalog);
  Alcotest.(check int) "2 products" 2 (List.length (Xml.children_named catalog "product"));
  Alcotest.(check int) "3 vendors anywhere" 3
    (List.length (Xml.descendants_named catalog "vendor"));
  let p = List.hd (Xml.children_named catalog "product") in
  Alcotest.(check (option string)) "attr" (Some "CRT 15") (Xml.attr p "name")

let test_equal_ignores_attr_order () =
  let a = Xml.elem ~attrs:[ ("x", "1"); ("y", "2") ] "e" [ Xml.text "t" ] in
  let b = Xml.elem ~attrs:[ ("y", "2"); ("x", "1") ] "e" [ Xml.text "t" ] in
  Alcotest.(check bool) "equal" true (Xml.equal a b);
  let c = Xml.elem ~attrs:[ ("x", "1") ] "e" [ Xml.text "t" ] in
  Alcotest.(check bool) "unequal" false (Xml.equal a c)

let test_equal_child_order_matters () =
  let a = Xml.elem "e" [ Xml.elem "x" []; Xml.elem "y" [] ] in
  let b = Xml.elem "e" [ Xml.elem "y" []; Xml.elem "x" [] ] in
  Alcotest.(check bool) "order matters" false (Xml.equal a b)

let test_serialize_escapes () =
  let n = Xml.elem ~attrs:[ ("q", "a\"b&c") ] "e" [ Xml.text "x<y & z" ] in
  Alcotest.(check string) "escaped"
    "<e q=\"a&quot;b&amp;c\">x&lt;y &amp; z</e>" (Xml.to_string n)

let test_text_content () =
  let p = List.hd (Xml.children_named catalog "product") in
  Alcotest.(check string) "concat" "P1Amazon100.00P1Bestbuy120.00" (Xml.text_content p)

(* --- Xml_parse --- *)

let test_parse_roundtrip () =
  let s = Xml.to_string ~canonical:true catalog in
  let parsed = Xml_parse.parse s in
  Alcotest.(check bool) "roundtrip" true (Xml.equal catalog parsed)

let test_parse_pretty_roundtrip () =
  let s = Xml.to_pretty_string catalog in
  let parsed = Xml_parse.parse s in
  Alcotest.(check bool) "pretty roundtrip" true (Xml.equal catalog parsed)

let test_parse_entities_and_selfclose () =
  let n = Xml_parse.parse "<a x='1 &amp; 2'><b/>t &lt; u<!-- c --></a>" in
  Alcotest.(check (option string)) "attr" (Some "1 & 2") (Xml.attr n "x");
  Alcotest.(check int) "children" 2 (List.length (Xml.children n));
  Alcotest.(check string) "text" "t < u" (Xml.text_content n)

let test_parse_rejects_mismatched () =
  Alcotest.(check bool) "mismatch" true (Xml_parse.parse_opt "<a><b></a></b>" = None);
  Alcotest.(check bool) "trailing" true (Xml_parse.parse_opt "<a/><b/>" = None);
  Alcotest.(check bool) "unterminated" true (Xml_parse.parse_opt "<a>" = None);
  List.iter
    (fun ref_ ->
      Alcotest.(check bool) ("character reference " ^ ref_) true
        (Xml_parse.parse_opt ("<a>" ^ ref_ ^ "</a>") = None))
    [ "&#-5;"; "&#x;"; "&#1a;"; "&#99999999999999999999999;" ]

let test_parse_declaration () =
  let n = Xml_parse.parse "<?xml version=\"1.0\"?>\n<a/>" in
  Alcotest.(check (option string)) "tag" (Some "a") (Xml.tag n)

(* --- Xpath --- *)

let sel = Xpath.select_strings

let test_xpath_child_steps () =
  Alcotest.(check (list string)) "vids"
    [ "Amazon"; "Bestbuy"; "Buy.com" ]
    (sel catalog "/product/vendor/vid")

let test_xpath_descendant () =
  Alcotest.(check (list string)) "prices anywhere"
    [ "100.00"; "120.00"; "200.00" ] (sel catalog "//price")

let test_xpath_attribute () =
  Alcotest.(check (list string)) "names" [ "CRT 15"; "LCD 19" ] (sel catalog "/product/@name")

let test_xpath_attr_predicate () =
  Alcotest.(check (list string)) "CRT vendors" [ "Amazon"; "Bestbuy" ]
    (sel catalog "/product[@name='CRT 15']/vendor/vid")

let test_xpath_numeric_predicate () =
  Alcotest.(check (list string)) "cheap vendors" [ "Amazon" ]
    (sel catalog "//vendor[price < 120]/vid")

let test_xpath_position_predicate () =
  Alcotest.(check (list string)) "second vendor" [ "Bestbuy" ]
    (sel catalog "/product[@name='CRT 15']/vendor[2]/vid")

let test_xpath_exists_predicate () =
  Alcotest.(check int) "products with vendors" 2
    (List.length (Xpath.select catalog "/product[vendor]"))

let test_xpath_and_or () =
  Alcotest.(check (list string)) "and" [ "Bestbuy" ]
    (sel catalog "//vendor[price >= 110 and price <= 150]/vid");
  Alcotest.(check (list string)) "or" [ "Amazon"; "Buy.com" ]
    (sel catalog "//vendor[price < 110 or price > 150]/vid")

let test_xpath_not () =
  Alcotest.(check (list string)) "not" [ "Buy.com" ]
    (sel catalog "//vendor[not(pid = 'P1')]/vid")

let test_xpath_wildcard_and_self () =
  Alcotest.(check int) "all product children" 3
    (List.length (Xpath.select catalog "/product/*"));
  Alcotest.(check (list string)) "self step" [ "Amazon" ]
    (sel catalog "//vendor[./price = 100]/vid")

let test_xpath_existential_nodeset_cmp () =
  (* products where *some* vendor's pid equals P2 *)
  Alcotest.(check (list string)) "existential" [ "LCD 19" ]
    (List.filter_map
       (fun n -> Xml.attr n "name")
       (Xpath.select catalog "/product[vendor/pid = 'P2']"))

let test_xpath_parse_errors () =
  let bad s =
    match Xpath.parse s with
    | exception Xpath.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "empty" true (bad "");
  Alcotest.(check bool) "unclosed pred" true (bad "/a[b");
  Alcotest.(check bool) "trailing" true (bad "/a]")

let test_xpath_print_roundtrip () =
  List.iter
    (fun s ->
      let p = Xpath.parse s in
      let printed = Xpath.path_to_string p in
      let p' = Xpath.parse printed in
      Alcotest.(check string) ("roundtrip " ^ s) printed (Xpath.path_to_string p'))
    [ "/catalog/product"; "//vendor[price < 120]/vid"; "/product[@name='CRT 15']";
      "/a/*[2]"; "//v[not(x = 'y')]" ]

(* --- property tests --- *)

let xml_gen =
  let open QCheck.Gen in
  let tag_gen = oneofl [ "a"; "b"; "c" ] in
  let text_gen = map Xml.text (oneofl [ "x"; "y & z"; "<q>"; "" ]) in
  let attrs_gen = oneofl [ []; [ ("k", "v") ]; [ ("k", "v'w\"") ] ] in
  fix
    (fun self depth ->
      if depth = 0 then text_gen
      else
        frequency
          [ (1, text_gen);
            ( 3,
              map3
                (fun tag attrs children -> Xml.elem ~attrs tag children)
                tag_gen attrs_gen
                (list_size (int_range 0 3) (self (depth - 1))) );
          ])
    3

let prop_serialize_parse_roundtrip =
  QCheck.Test.make ~name:"to_string |> parse = id (modulo ws text)" ~count:200
    (QCheck.make xml_gen) (fun node ->
      (* Ensure the root is an element, and avoid whitespace-only text children
         which the parser intentionally drops. *)
      let rec strip = function
        | Xml.Text s -> Xml.Text (if String.trim s = "" then "_" else s)
        | Xml.Element { tag; attrs; children } ->
          let children = List.map strip children in
          (* Adjacent text children merge on reparse; merge them up front. *)
          let children =
            List.fold_right
              (fun c acc ->
                match c, acc with
                | Xml.Text a, Xml.Text b :: rest -> Xml.Text (a ^ b) :: rest
                | c, acc -> c :: acc)
              children []
          in
          Xml.Element { tag; attrs; children }
      in
      let node =
        match strip node with Xml.Text _ as t -> Xml.elem "root" [ t ] | e -> e
      in
      match Xml_parse.parse_opt (Xml.to_string node) with
      | Some parsed -> Xml.equal node parsed
      | None -> false)

let prop_compare_total_order =
  QCheck.Test.make ~name:"compare is antisymmetric and reflexive" ~count:200
    (QCheck.make (QCheck.Gen.pair xml_gen xml_gen)) (fun (a, b) ->
      Xml.compare a a = 0
      && Xml.compare b b = 0
      && compare (Xml.compare a b) 0 = compare 0 (Xml.compare b a))

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_serialize_parse_roundtrip; prop_compare_total_order ]

let () =
  Alcotest.run "xmlkit"
    [ ( "xml",
        [ Alcotest.test_case "accessors" `Quick test_accessors;
          Alcotest.test_case "equality ignores attr order" `Quick test_equal_ignores_attr_order;
          Alcotest.test_case "child order matters" `Quick test_equal_child_order_matters;
          Alcotest.test_case "escaping" `Quick test_serialize_escapes;
          Alcotest.test_case "text content" `Quick test_text_content;
        ] );
      ( "xml_parse",
        [ Alcotest.test_case "roundtrip" `Quick test_parse_roundtrip;
          Alcotest.test_case "pretty roundtrip" `Quick test_parse_pretty_roundtrip;
          Alcotest.test_case "entities + self-close" `Quick test_parse_entities_and_selfclose;
          Alcotest.test_case "rejects malformed" `Quick test_parse_rejects_mismatched;
          Alcotest.test_case "xml declaration" `Quick test_parse_declaration;
        ] );
      ( "xpath",
        [ Alcotest.test_case "child steps" `Quick test_xpath_child_steps;
          Alcotest.test_case "descendant" `Quick test_xpath_descendant;
          Alcotest.test_case "attribute" `Quick test_xpath_attribute;
          Alcotest.test_case "attr predicate" `Quick test_xpath_attr_predicate;
          Alcotest.test_case "numeric predicate" `Quick test_xpath_numeric_predicate;
          Alcotest.test_case "position predicate" `Quick test_xpath_position_predicate;
          Alcotest.test_case "exists predicate" `Quick test_xpath_exists_predicate;
          Alcotest.test_case "and/or" `Quick test_xpath_and_or;
          Alcotest.test_case "not" `Quick test_xpath_not;
          Alcotest.test_case "wildcard + self" `Quick test_xpath_wildcard_and_self;
          Alcotest.test_case "existential node-set compare" `Quick
            test_xpath_existential_nodeset_cmp;
          Alcotest.test_case "parse errors" `Quick test_xpath_parse_errors;
          Alcotest.test_case "print roundtrip" `Quick test_xpath_print_roundtrip;
        ] );
      ("properties", qcheck_tests);
    ]
