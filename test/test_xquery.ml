(* Tests for the XQuery front-end: parsing, compilation to XQGM, view
   composition, and condition compilation — all against the paper's running
   example (Figures 3-5). *)

open Relkit
open Xqgm

let schema_of = Fixtures.schema_of

(* Figure 3, verbatim modulo quoting. *)
let catalog_text =
  {|<catalog>
  {for $prodname in distinct(view("default")/product/row/pname)
   let $products := view("default")/product/row[./pname = $prodname]
   let $vendors := view("default")/vendor/row[./pid = $products/pid]
   where count($vendors) >= 2
   return <product name="{$prodname}">
     {for $vendor in $vendors
      return <vendor>{$vendor/*}</vendor>}
   </product>}
</catalog>|}

let compile_catalog db =
  Xquery.Compile.view_of_string ~schema_of:(schema_of db) ~name:"catalog" catalog_text

(* --- parser --- *)

let test_parse_figure_3 () =
  match Xquery.Parser.parse_expr catalog_text with
  | Xquery.Ast.Elem { tag = "catalog"; content; _ } ->
    Alcotest.(check int) "one enclosed flwor" 1
      (List.length
         (List.filter
            (function Xquery.Ast.C_enclosed (Xquery.Ast.Flwor _) -> true | _ -> false)
            content))
  | _ -> Alcotest.fail "expected <catalog> constructor"

let test_parse_operators_and_precedence () =
  let e = Xquery.Parser.parse_expr "1 + 2 * 3 >= 7 - 1 and not(2 = 3)" in
  match e with
  | Xquery.Ast.And (Xquery.Ast.Cmp (Xquery.Ast.Ge, _, _), Xquery.Ast.Not _) -> ()
  | _ -> Alcotest.failf "unexpected parse: %s" (Xquery.Ast.expr_to_string e)

let test_parse_paths () =
  let p = Xquery.Parser.parse_path "view(\"catalog\")/product" in
  Alcotest.(check int) "one step" 1 (List.length p.Xquery.Ast.steps);
  let p2 = Xquery.Parser.parse_path "view('catalog')//vendor" in
  (match p2.Xquery.Ast.steps with
  | [ { Xquery.Ast.axis = Xquery.Ast.Descendant; name = "vendor"; _ } ] -> ()
  | _ -> Alcotest.fail "descendant step expected");
  match Xquery.Parser.parse_expr "$p/pname" with
  | Xquery.Ast.Path { root = Xquery.Ast.R_var "p"; _ } -> ()
  | _ -> Alcotest.fail "var path"

let test_parse_predicate_in_path () =
  let e = Xquery.Parser.parse_expr "view(\"default\")/product/row[./pname = 'CRT 15']" in
  match e with
  | Xquery.Ast.Path { steps = [ _; { Xquery.Ast.predicate = Some (Xquery.Ast.Cmp _); _ } ]; _ }
    ->
    ()
  | _ -> Alcotest.failf "unexpected parse: %s" (Xquery.Ast.expr_to_string e)

let test_parse_quantified () =
  match Xquery.Parser.parse_expr "some $v in $vendors satisfies $v/price < 100" with
  | Xquery.Ast.Quantified { universal = false; var = "v"; _ } -> ()
  | _ -> Alcotest.fail "quantified"

let test_parse_comments_and_errors () =
  (match Xquery.Parser.parse_expr "1 (: a comment :) + 2" with
  | Xquery.Ast.Arith (Xquery.Ast.Add, _, _) -> ()
  | _ -> Alcotest.fail "comment handling");
  let bad s =
    match Xquery.Parser.parse_expr s with
    | exception Xquery.Parser.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "unclosed tag" true (bad "<a><b></a>");
  Alcotest.(check bool) "trailing" true (bad "1 + 2 extra");
  Alcotest.(check bool) "missing return" true (bad "for $x in view('v')/t/row where 1 = 1")

(* --- compilation --- *)

let test_compile_catalog_matches_figure_4 () =
  let db = Fixtures.mk_db () in
  let view = compile_catalog db in
  let doc = Xquery.Compile.materialize (Ra_eval.ctx_of_db db) view in
  let products = Xmlkit.Xml.children_named doc "product" in
  Alcotest.(check (list (option string)))
    "product names"
    [ Some "CRT 15"; Some "LCD 19" ]
    (List.map (fun p -> Xmlkit.Xml.attr p "name") products);
  Alcotest.(check (list int)) "vendor counts" [ 5; 2 ]
    (List.map (fun p -> List.length (Xmlkit.Xml.children_named p "vendor")) products);
  (* vendor children carry all row fields *)
  let first = List.hd (Xmlkit.Xml.children_named (List.hd products) "vendor") in
  Alcotest.(check (list string)) "row expansion"
    [ "vid"; "pid"; "price" ]
    (List.filter_map Xmlkit.Xml.tag (Xmlkit.Xml.children first))

let test_compile_catalog_equals_handbuilt_fixture () =
  (* The compiled view and the hand-built Figure 5 graph must produce
     equal documents (modulo child field order, which follows the schema
     here and the paper's listing in the fixture). *)
  let db = Fixtures.mk_db () in
  let view = compile_catalog db in
  let doc = Xquery.Compile.materialize (Ra_eval.ctx_of_db db) view in
  let fixture_rel = Eval.eval (Ra_eval.ctx_of_db db) (Fixtures.catalog_view ()) in
  let fixture_doc =
    match fixture_rel.Eval.rows with
    | [ [| Xval.Node n |] ] -> n
    | _ -> Alcotest.fail "fixture"
  in
  let product_names n =
    List.filter_map (fun p -> Xmlkit.Xml.attr p "name") (Xmlkit.Xml.children_named n "product")
  in
  Alcotest.(check (list string)) "same products" (product_names fixture_doc)
    (product_names doc);
  let vendor_vids n =
    List.map
      (fun v -> Xmlkit.Xml.text_content (List.hd (Xmlkit.Xml.children_named v "vid")))
      (Xmlkit.Xml.descendants_named n "vendor")
  in
  Alcotest.(check (list string)) "same vendors in order" (vendor_vids fixture_doc)
    (vendor_vids doc)

let test_compile_trigger_specifiable () =
  let db = Fixtures.mk_db () in
  let view = compile_catalog db in
  Alcotest.(check bool) "Theorem 1 holds" true
    (Result.is_ok
       (Keys.trigger_specifiable ~schema_of:(schema_of db) view.Xquery.Compile.tree.Xquery.Compile.op))

let test_compile_minprice_view () =
  let db = Fixtures.mk_db () in
  let text =
    {|<catalog>
  {for $prodname in distinct(view("default")/product/row/pname)
   let $products := view("default")/product/row[./pname = $prodname]
   let $vendors := view("default")/vendor/row[./pid = $products/pid]
   where count($vendors) >= 2
   return <product name="{$prodname}"><min>{min($vendors/price)}</min></product>}
</catalog>|}
  in
  let view = Xquery.Compile.view_of_string ~schema_of:(schema_of db) ~name:"minprice" text in
  let doc = Xquery.Compile.materialize (Ra_eval.ctx_of_db db) view in
  let mins =
    List.map
      (fun p -> Xmlkit.Xml.text_content (List.hd (Xmlkit.Xml.children_named p "min")))
      (Xmlkit.Xml.children_named doc "product")
  in
  Alcotest.(check (list string)) "min prices" [ "100.0"; "180.0" ] mins

let test_compile_simple_flat_view () =
  let db = Fixtures.mk_db () in
  let text =
    {|<products>
  {for $p in view("default")/product/row
   where $p/mfr = 'Samsung'
   return <product id="{$p/pid}"><name>{$p/pname}</name></product>}
</products>|}
  in
  let view = Xquery.Compile.view_of_string ~schema_of:(schema_of db) ~name:"flat" text in
  let doc = Xquery.Compile.materialize (Ra_eval.ctx_of_db db) view in
  Alcotest.(check int) "2 samsung products" 2
    (List.length (Xmlkit.Xml.children_named doc "product"))

let test_compile_quantified_view () =
  let db = Fixtures.mk_db () in
  let text =
    {|<cheap>
  {for $p in view("default")/product/row
   let $v := view("default")/vendor/row[./pid = $p/pid]
   where some $w in $v satisfies $w/price < 110
   return <product>{$p/pname}</product>}
</cheap>|}
  in
  let view = Xquery.Compile.view_of_string ~schema_of:(schema_of db) ~name:"cheap" text in
  let doc = Xquery.Compile.materialize (Ra_eval.ctx_of_db db) view in
  Alcotest.(check (list string)) "only P1 has a vendor under 110" [ "CRT 15" ]
    (List.map Xmlkit.Xml.text_content (Xmlkit.Xml.children_named doc "product"))

let test_compile_every_quantifier () =
  let db = Fixtures.mk_db () in
  let text =
    {|<premium>
  {for $p in view("default")/product/row
   let $v := view("default")/vendor/row[./pid = $p/pid]
   where every $w in $v satisfies $w/price >= 120
   return <product>{$p/pname}</product>}
</premium>|}
  in
  let view = Xquery.Compile.view_of_string ~schema_of:(schema_of db) ~name:"premium" text in
  let doc = Xquery.Compile.materialize (Ra_eval.ctx_of_db db) view in
  (* P2 (180, 200) and P3 (120, 140) qualify; P1 has a 100 vendor. *)
  Alcotest.(check (list string)) "every >= 120" [ "CRT 15"; "LCD 19" ]
    (List.sort compare
       (List.map Xmlkit.Xml.text_content (Xmlkit.Xml.children_named doc "product")))

let test_compile_unsupported_reports () =
  let db = Fixtures.mk_db () in
  let bad = "<v>{for $x in view(\"default\")/product/row return $x/pid}</v>" in
  match Xquery.Compile.view_of_string ~schema_of:(schema_of db) ~name:"bad" bad with
  | exception Xquery.Compile.Unsupported _ -> ()
  | _ -> Alcotest.fail "expected Unsupported"

(* --- composition --- *)

let test_compose_product_path () =
  let db = Fixtures.mk_db () in
  let view = compile_catalog db in
  let path = Xquery.Parser.parse_path "view(\"catalog\")/product" in
  let m = Xquery.Compose.compose_path view path in
  Alcotest.(check bool) "has a key" true (m.Xquery.Compose.m_key <> []);
  (* evaluating the composed graph yields the two product nodes *)
  let rel = Eval.eval (Ra_eval.ctx_of_db db) m.Xquery.Compose.m_op in
  Alcotest.(check int) "two products" 2 (List.length rel.Eval.rows)

let test_compose_descendant_vendor () =
  let db = Fixtures.mk_db () in
  let view = compile_catalog db in
  let m = Xquery.Compose.compose_path view (Xquery.Parser.parse_path "view('catalog')//vendor") in
  let rel = Eval.eval (Ra_eval.ctx_of_db db) m.Xquery.Compose.m_op in
  Alcotest.(check int) "seven vendors" 7 (List.length rel.Eval.rows)

let test_compose_with_predicate () =
  let db = Fixtures.mk_db () in
  let view = compile_catalog db in
  let m =
    Xquery.Compose.compose_path view
      (Xquery.Parser.parse_path "view(\"catalog\")/product[@name = 'CRT 15']")
  in
  let rel = Eval.eval (Ra_eval.ctx_of_db db) m.Xquery.Compose.m_op in
  Alcotest.(check int) "one product" 1 (List.length rel.Eval.rows)

let test_compose_unknown_element () =
  let db = Fixtures.mk_db () in
  let view = compile_catalog db in
  match
    Xquery.Compose.compose_path view (Xquery.Parser.parse_path "view(\"catalog\")/nonsense")
  with
  | exception Xquery.Compose.Compose_error _ -> ()
  | _ -> Alcotest.fail "expected Compose_error"

(* --- conditions --- *)

let test_condition_compiles_to_columns () =
  let db = Fixtures.mk_db () in
  let view = compile_catalog db in
  let m = Xquery.Compose.compose_path view (Xquery.Parser.parse_path "view(\"catalog\")/product") in
  let cond = Xquery.Parser.parse_expr "$OLD_NODE/@name = 'CRT 15'" in
  (match Xquery.Compose.compile_condition m cond with
  | Some (Expr.Binop (Relkit.Ra.Eq, Expr.Col c, Expr.Const _)) ->
    Alcotest.(check bool) "old-side column" true
      (String.length c > 4 && String.sub c 0 4 = "old$")
  | _ -> Alcotest.fail "expected a compiled column comparison");
  let count_cond = Xquery.Parser.parse_expr "count($NEW_NODE/vendor) >= 3" in
  match Xquery.Compose.compile_condition m count_cond with
  | Some (Expr.Binop (Relkit.Ra.Ge, Expr.Col c, _)) ->
    Alcotest.(check bool) "new-side count column" true
      (String.length c > 4 && String.sub c 0 4 = "new$")
  | _ -> Alcotest.fail "expected a count column"

let test_condition_fallback () =
  let node =
    Xmlkit.Xml.elem ~attrs:[ ("name", "CRT 15") ] "product"
      [ Xmlkit.Xml.elem "vendor" [ Xmlkit.Xml.elem "price" [ Xmlkit.Xml.text "99" ] ];
        Xmlkit.Xml.elem "vendor" [ Xmlkit.Xml.elem "price" [ Xmlkit.Xml.text "120" ] ];
      ]
  in
  let check s expected =
    let cond = Xquery.Parser.parse_expr s in
    Alcotest.(check bool) s expected
      (Xquery.Compose.condition_fallback cond ~old_node:(Some node) ~new_node:(Some node))
  in
  check "$OLD_NODE/@name = 'CRT 15'" true;
  check "$OLD_NODE/@name = 'LCD 19'" false;
  check "count($NEW_NODE/vendor) >= 2" true;
  check "$NEW_NODE/vendor/price < 100" true;
  check "min($NEW_NODE/vendor/price) = 99" true;
  check "not(count($OLD_NODE/vendor) = 2)" false;
  (* absent side: comparisons over it are vacuously false *)
  let cond = Xquery.Parser.parse_expr "$OLD_NODE/@name = 'CRT 15'" in
  Alcotest.(check bool) "absent old node" false
    (Xquery.Compose.condition_fallback cond ~old_node:None ~new_node:(Some node))

(* --- the compiled view through the full trigger machinery --- *)

let test_compiled_view_affected_nodes () =
  let db = Fixtures.mk_db () in
  let view = compile_catalog db in
  let m = Xquery.Compose.compose_path view (Xquery.Parser.parse_path "view(\"catalog\")/product") in
  let monitored =
    { Trigview.Angraph.graph = m.Xquery.Compose.m_op;
      node_col = m.Xquery.Compose.m_node_col;
      key = m.Xquery.Compose.m_key;
    }
  in
  let an =
    Option.get
      (Trigview.Angraph.create ~schema_of:(schema_of db) ~event:Database.Update
         ~table:"vendor" ~check:Trigview.Angraph.Compare_nodes monitored)
  in
  let captured = ref None in
  Database.create_trigger db
    { Database.trig_name = "c";
      trig_table = "vendor";
      trig_event = Database.Insert;
      relevance = None;
      sql_text = "(test)";
      body = (fun tc -> captured := Some (Ra_eval.ctx_of_trigger tc));
    };
  (* the 4.1 example again, now through the compiled view *)
  Fixtures.insert_vendor db ~vid:"Amazon" ~pid:"P2" ~price:500.0;
  let tctx = Option.get !captured in
  let rel = Eval.eval tctx an.Trigview.Angraph.graph in
  Alcotest.(check int) "LCD 19 updated" 1 (List.length rel.Eval.rows)

let () =
  Alcotest.run "xquery"
    [ ( "parser",
        [ Alcotest.test_case "figure 3" `Quick test_parse_figure_3;
          Alcotest.test_case "precedence" `Quick test_parse_operators_and_precedence;
          Alcotest.test_case "paths" `Quick test_parse_paths;
          Alcotest.test_case "path predicate" `Quick test_parse_predicate_in_path;
          Alcotest.test_case "quantified" `Quick test_parse_quantified;
          Alcotest.test_case "comments + errors" `Quick test_parse_comments_and_errors;
        ] );
      ( "compile",
        [ Alcotest.test_case "catalog = figure 4" `Quick test_compile_catalog_matches_figure_4;
          Alcotest.test_case "catalog = hand-built graph" `Quick
            test_compile_catalog_equals_handbuilt_fixture;
          Alcotest.test_case "trigger-specifiable" `Quick test_compile_trigger_specifiable;
          Alcotest.test_case "min-price view" `Quick test_compile_minprice_view;
          Alcotest.test_case "flat view" `Quick test_compile_simple_flat_view;
          Alcotest.test_case "some quantifier" `Quick test_compile_quantified_view;
          Alcotest.test_case "every quantifier" `Quick test_compile_every_quantifier;
          Alcotest.test_case "unsupported reports" `Quick test_compile_unsupported_reports;
        ] );
      ( "compose",
        [ Alcotest.test_case "product path" `Quick test_compose_product_path;
          Alcotest.test_case "descendant" `Quick test_compose_descendant_vendor;
          Alcotest.test_case "path predicate" `Quick test_compose_with_predicate;
          Alcotest.test_case "unknown element" `Quick test_compose_unknown_element;
        ] );
      ( "conditions",
        [ Alcotest.test_case "compiled to columns" `Quick test_condition_compiles_to_columns;
          Alcotest.test_case "fallback evaluation" `Quick test_condition_fallback;
        ] );
      ( "integration",
        [ Alcotest.test_case "compiled view affected nodes" `Quick
            test_compiled_view_affected_nodes;
        ] );
    ]
