(* Tests for the XQGM algebra: canonical keys (Table 3), the reference
   evaluator, and the injectivity analysis (Appendix F). *)

open Relkit
open Xqgm

let v_int = Fixtures.v_int
let v_str = Fixtures.v_str
let v_float = Fixtures.v_float

let ctx db = Ra_eval.ctx_of_db db
let key ~db op = Keys.canonical_key ~schema_of:(Fixtures.schema_of db) op

(* Static schema resolver for tests that do not need a live database. *)
let schema_of = function
  | "product" -> Fixtures.product_schema
  | "vendor" -> Fixtures.vendor_schema
  | name -> Alcotest.failf "unknown table %s" name

(* --- Xval --- *)

let test_xval_seq_flattens () =
  let s = Xval.seq [ Xval.atom (v_int 1); Xval.seq [ Xval.atom (v_int 2) ]; Xval.empty ] in
  Alcotest.(check int) "two items" 2 (Xval.item_count s);
  let singleton = Xval.seq [ Xval.atom (v_int 7) ] in
  Alcotest.(check bool) "singleton collapses" true (Xval.equal singleton (Xval.atom (v_int 7)))

let test_xval_atomize () =
  Alcotest.(check bool) "atom" true (Value.equal (Xval.atomize (Xval.atom (v_int 3))) (v_int 3));
  let n = Xval.node (Xmlkit.Xml.elem "x" [ Xmlkit.Xml.text "hi" ]) in
  Alcotest.(check bool) "node string value" true
    (Value.equal (Xval.atomize n) (v_str "hi"));
  Alcotest.(check bool) "empty seq is null" true (Value.is_null (Xval.atomize Xval.empty));
  Alcotest.check_raises "multi raises"
    (Invalid_argument "Xval.atomize: sequence of more than one item") (fun () ->
      ignore (Xval.atomize (Xval.seq [ Xval.atom (v_int 1); Xval.atom (v_int 2) ])))

let test_xval_to_nodes () =
  let s = Xval.seq [ Xval.atom (v_str "a"); Xval.node (Xmlkit.Xml.elem "b" []) ] in
  Alcotest.(check int) "two nodes" 2 (List.length (Xval.to_nodes s));
  Alcotest.(check int) "null vanishes" 0 (List.length (Xval.to_nodes (Xval.atom Value.Null)))

(* --- canonical keys (Table 3) --- *)

let test_keys_table () =
  let db = Fixtures.mk_db () in
  let product = Op.table "product" [ ("pid", "pid"); ("pname", "pname") ] in
  Alcotest.(check (list string)) "table pk" [ "pid" ] (key ~db product);
  let vendor = Op.table "vendor" [ ("vid", "vid"); ("pid", "v_pid"); ("price", "price") ] in
  Alcotest.(check (list string)) "composite pk, renamed" [ "vid"; "v_pid" ] (key ~db vendor)

let test_keys_join_concat () =
  let db = Fixtures.mk_db () in
  Alcotest.(check (list string)) "join key" [ "pid"; "vid"; "v_pid" ]
    (key ~db (Fixtures.vendor_elem_level ()))

let test_keys_group_by () =
  let db = Fixtures.mk_db () in
  Alcotest.(check (list string)) "product level key" [ "pname" ]
    (key ~db (Fixtures.product_level ()))

let test_keys_project_must_propagate () =
  let db = Fixtures.mk_db () in
  let product = Op.table "product" [ ("pid", "pid"); ("pname", "pname") ] in
  let dropped = Op.project ~defs:[ ("pname", Expr.Col "pname") ] product in
  (match key ~db dropped with
  | _ -> Alcotest.fail "expected Not_trigger_specifiable"
  | exception Keys.Not_trigger_specifiable msg ->
    Alcotest.(check bool) "message mentions key" true
      (String.length msg > 0 && String.lowercase_ascii msg |> fun s ->
       let has sub =
         let n = String.length s and m = String.length sub in
         let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
         go 0
       in
       has "key"))

let test_keys_missing_pk () =
  let db = Database.create () in
  Database.create_table db
    (Schema.make ~name:"nokeys" ~columns:[ ("a", Schema.TInt) ] ~primary_key:[] ());
  let t = Op.table "nokeys" [ ("a", "a") ] in
  Alcotest.(check bool) "not specifiable" true
    (Result.is_error (Keys.trigger_specifiable ~schema_of:(Fixtures.schema_of db) t))

let test_keys_catalog_specifiable () =
  let db = Fixtures.mk_db () in
  Alcotest.(check bool) "catalog view ok" true
    (Result.is_ok
       (Keys.trigger_specifiable ~schema_of:(Fixtures.schema_of db) (Fixtures.catalog_view ())))

let test_keys_union () =
  let db = Fixtures.mk_db () in
  let a = Op.table "product" [ ("pid", "pid"); ("pname", "pname") ] in
  let b = Op.table "product" [ ("pid", "pid"); ("mfr", "pname") ] in
  let u = Op.union ~cols:[ "k"; "label" ] [ (a, [ "pid"; "pname" ]); (b, [ "pid"; "pname" ]) ] in
  Alcotest.(check (list string)) "union key" [ "k" ] (key ~db u)

(* --- evaluator --- *)

let materialize_catalog db =
  let rel = Eval.eval (ctx db) (Fixtures.catalog_view ()) in
  match rel.Eval.rows with
  | [ [| Xval.Node n |] ] -> n
  | _ -> Alcotest.fail "catalog view must produce one node"

let test_eval_catalog_matches_figure_4 () =
  let db = Fixtures.mk_db () in
  let catalog = materialize_catalog db in
  (* Figure 4: products ordered CRT 15, LCD 19; CRT 15 has the five vendors of
     P1 and P3, LCD 19 has two. *)
  let products = Xmlkit.Xml.children_named catalog "product" in
  Alcotest.(check (list (option string)))
    "product names"
    [ Some "CRT 15"; Some "LCD 19" ]
    (List.map (fun p -> Xmlkit.Xml.attr p "name") products);
  let vendor_counts =
    List.map (fun p -> List.length (Xmlkit.Xml.children_named p "vendor")) products
  in
  Alcotest.(check (list int)) "vendor counts" [ 5; 2 ] vendor_counts;
  (* Spot-check the first vendor element (document order = vid, pid). *)
  let first_vendor =
    List.hd (Xmlkit.Xml.children_named (List.hd products) "vendor")
  in
  Alcotest.(check (list string)) "amazon first"
    [ "P1"; "Amazon"; "100.0" ]
    (List.map Xmlkit.Xml.text_content (Xmlkit.Xml.children first_vendor))

let test_eval_count_predicate_filters () =
  let db = Fixtures.mk_db () in
  (* Remove one of LCD 19's two vendors: it drops below count >= 2. *)
  Fixtures.delete_vendor db ~vid:"Buy.com" ~pid:"P2";
  let catalog = materialize_catalog db in
  let products = Xmlkit.Xml.children_named catalog "product" in
  Alcotest.(check (list (option string)))
    "LCD 19 gone"
    [ Some "CRT 15" ]
    (List.map (fun p -> Xmlkit.Xml.attr p "name") products)

let test_eval_pre_binding_sees_old_state () =
  let db = Fixtures.mk_db () in
  let seen = ref None in
  Database.create_trigger db
    { Database.trig_name = "capture";
      trig_table = "vendor";
      trig_event = Database.Update;
      relevance = None;
      sql_text = "(test)";
      body =
        (fun tc ->
          let tctx = Ra_eval.ctx_of_trigger tc in
          let old_graph = Op.to_old ~table:"vendor" (Fixtures.product_level ()) in
          let rel = Eval.eval_sorted tctx ~by:[ "pname" ] old_graph in
          let cur = Eval.eval_sorted tctx ~by:[ "pname" ] (Fixtures.product_level ()) in
          seen := Some (rel, cur));
    };
  Fixtures.update_vendor_price db ~vid:"Amazon" ~pid:"P1" ~price:75.0;
  match !seen with
  | None -> Alcotest.fail "no firing"
  | Some (old_rel, cur_rel) ->
    let price_of rel =
      let i = Eval.col_index rel "product_elem" in
      match rel.Eval.rows with
      | row :: _ -> (
        match row.(i) with
        | Xval.Node n -> List.hd (Xmlkit.Xpath.select_strings n "/vendor[vid='Amazon']/price")
        | _ -> Alcotest.fail "not a node")
      | [] -> Alcotest.fail "empty"
    in
    Alcotest.(check string) "old price" "100.0" (price_of old_rel);
    Alcotest.(check string) "new price" "75.0" (price_of cur_rel)

let test_eval_delta_nabla_bindings () =
  let db = Fixtures.mk_db () in
  let seen = ref None in
  Database.create_trigger db
    { Database.trig_name = "capture";
      trig_table = "vendor";
      trig_event = Database.Update;
      relevance = None;
      sql_text = "(test)";
      body =
        (fun tc ->
          let tctx = Ra_eval.ctx_of_trigger tc in
          let delta =
            Op.table ~binding:Op.Delta "vendor" [ ("vid", "vid"); ("price", "price") ]
          in
          let nabla =
            Op.table ~binding:Op.Nabla "vendor" [ ("vid", "vid"); ("price", "price") ]
          in
          seen := Some (Eval.eval tctx delta, Eval.eval tctx nabla));
    };
  Fixtures.update_vendor_price db ~vid:"Amazon" ~pid:"P1" ~price:75.0;
  match !seen with
  | Some (d, n) ->
    Alcotest.(check int) "delta rows" 1 (List.length d.Eval.rows);
    Alcotest.(check int) "nabla rows" 1 (List.length n.Eval.rows)
  | None -> Alcotest.fail "no firing"

let test_eval_union_dedups () =
  let db = Fixtures.mk_db () in
  let names = Op.table "product" [ ("pname", "pname") ] in
  let u = Op.union ~cols:[ "pname" ] [ (names, [ "pname" ]); (names, [ "pname" ]) ] in
  let rel = Eval.eval (ctx db) u in
  (* CRT 15 appears twice in the table, once in the set-semantics union. *)
  Alcotest.(check int) "distinct names" 2 (List.length rel.Eval.rows)

let test_eval_left_outer_and_anti () =
  let db = Fixtures.mk_db () in
  Database.insert_rows db ~table:"product" [ [| v_str "P4"; v_str "OLED"; v_str "LG" |] ];
  let product = Op.table "product" [ ("pid", "pid") ] in
  let vendor = Op.table "vendor" [ ("pid", "v_pid") ] in
  let outer =
    Eval.eval (ctx db)
      (Op.join ~kind:Op.Left_outer ~pred:(Expr.eq (Expr.Col "pid") (Expr.Col "v_pid"))
         product vendor)
  in
  Alcotest.(check int) "7 matches + 1 padded" 8 (List.length outer.Eval.rows);
  let anti =
    Eval.eval (ctx db)
      (Op.join ~kind:Op.Left_anti ~pred:(Expr.eq (Expr.Col "pid") (Expr.Col "v_pid"))
         product vendor)
  in
  Alcotest.(check int) "P4 unmatched" 1 (List.length anti.Eval.rows)

let test_eval_general_comparison_existential () =
  let db = Fixtures.mk_db () in
  (* count($vendors where price < 110) via a sequence comparison *)
  let vendor = Op.table "vendor" [ ("vid", "vid"); ("pid", "pid"); ("price", "price") ] in
  let grouped =
    Op.group_by ~keys:[ "pid" ] ~aggs:[ ("prices", Expr.Xml_frag (Expr.Col "price")) ]
      ~order:[ "vid" ] vendor
  in
  let filtered =
    Op.select
      ~pred:(Expr.Binop (Relkit.Ra.Lt, Expr.Col "prices", Expr.Const (v_float 110.0)))
      grouped
  in
  let rel = Eval.eval (ctx db) filtered in
  (* only P1 has some vendor under 110 *)
  Alcotest.(check int) "P1 only" 1 (List.length rel.Eval.rows)

let test_eval_scalar_arith_and_bool () =
  let db = Fixtures.mk_db () in
  let vendor = Op.table "vendor" [ ("vid", "vid"); ("price", "price") ] in
  let proj =
    Op.project
      ~defs:[ ("vid", Expr.Col "vid"); ("double", Expr.Binop (Relkit.Ra.Mul, Expr.Col "price", Expr.Const (v_int 2))) ]
      vendor
  in
  let rel = Eval.eval (ctx db) proj in
  Alcotest.(check int) "all rows" 7 (List.length rel.Eval.rows);
  let sel =
    Op.select
      ~pred:
        (Expr.Binop
           ( Relkit.Ra.And,
             Expr.Binop (Relkit.Ra.Ge, Expr.Col "double", Expr.Const (v_float 300.0)),
             Expr.Not (Expr.Binop (Relkit.Ra.Eq, Expr.Col "vid", Expr.Const (v_str "Amazon"))) ))
      proj
  in
  Alcotest.(check int) "filtered" 3 (List.length (Eval.eval (ctx db) sel).Eval.rows)

let test_eval_null_attr_omitted () =
  let db = Fixtures.mk_db () in
  let t = Op.table "product" [ ("pid", "pid") ] in
  let proj =
    Op.project
      ~defs:
        [ ( "e",
            Expr.Elem
              { tag = "x"; attrs = [ ("a", Expr.Const Value.Null) ]; content = [] } );
          ("pid", Expr.Col "pid");
        ]
      t
  in
  let rel = Eval.eval (ctx db) proj in
  match rel.Eval.rows with
  | row :: _ -> (
    match row.(0) with
    | Xval.Node n -> Alcotest.(check (option string)) "no attr" None (Xmlkit.Xml.attr n "a")
    | _ -> Alcotest.fail "expected node")
  | [] -> Alcotest.fail "empty"

(* --- injectivity (Appendix F) --- *)

let test_injective_catalog () =
  let g = Fixtures.product_level () in
  Alcotest.(check string) "wrt vendor" "INJECTIVE"
    (Injective.verdict_to_string (Injective.analyze ~table:"vendor" ~schema_of g));
  Alcotest.(check string) "wrt product" "INJECTIVE"
    (Injective.verdict_to_string (Injective.analyze ~table:"product" ~schema_of g))

let test_injective_minprice_agg_only () =
  let g = Fixtures.minprice_product_level () in
  match Injective.analyze ~table:"vendor" ~schema_of g with
  | Injective.Agg_only cols ->
    Alcotest.(check bool) "minp compared" true (List.mem "minp" cols)
  | v -> Alcotest.failf "expected Agg_only, got %s" (Injective.verdict_to_string v)

let test_injective_unrelated_table () =
  (* A view over product only is trivially injective w.r.t. vendor. *)
  let g =
    Op.project
      ~defs:[ ("pid", Expr.Col "pid"); ("pname", Expr.Col "pname") ]
      (Op.table "product" [ ("pid", "pid"); ("pname", "pname") ])
  in
  Alcotest.(check string) "no vendor flow" "INJECTIVE"
    (Injective.verdict_to_string (Injective.analyze ~table:"vendor" ~schema_of g))

let test_injective_opaque_arith_in_elem () =
  let vendor = Op.table "vendor" [ ("vid", "vid"); ("price", "price") ] in
  let g =
    Op.project
      ~defs:
        [ ("vid", Expr.Col "vid");
          ( "e",
            Expr.Elem
              { tag = "x";
                attrs = [];
                content =
                  [ Expr.Binop (Relkit.Ra.Add, Expr.Col "price", Expr.Col "price") ];
              } );
        ]
      vendor
  in
  Alcotest.(check string) "opaque" "OPAQUE"
    (Injective.verdict_to_string (Injective.analyze ~table:"vendor" ~schema_of g))

let test_injective_dropped_column_not_injective () =
  (* price influences nothing visible injectively; compare-based fallback on
     the scalar outputs is still possible (Agg_only). *)
  let vendor = Op.table "vendor" [ ("vid", "vid"); ("pid", "pid"); ("price", "price") ] in
  let g = Op.project ~defs:[ ("vid", Expr.Col "vid"); ("pid", Expr.Col "pid") ] vendor in
  match Injective.analyze ~table:"vendor" ~schema_of g with
  | Injective.Injective -> Alcotest.fail "dropping a column must not be injective"
  | Injective.Agg_only _ | Injective.Opaque -> ()

(* --- print --- *)

let test_print_mentions_operators () =
  let s = Print.to_string (Fixtures.product_level ()) in
  List.iter
    (fun frag ->
      let has =
        let n = String.length s and m = String.length frag in
        let rec go i = i + m <= n && (String.sub s i m = frag || go (i + 1)) in
        go 0
      in
      if not has then Alcotest.failf "missing %S in:\n%s" frag s)
    [ "GroupBy"; "aggXMLFrag"; "Table product"; "Table vendor"; "Select"; "Project" ]

(* --- property tests --- *)

let random_price_update =
  QCheck.Gen.(
    pair (int_range 0 6) (int_range 50 300) |> map (fun (i, p) -> (i, float_of_int p)))

let prop_view_eval_deterministic =
  QCheck.Test.make ~name:"evaluation is deterministic across row orders" ~count:30
    (QCheck.make random_price_update) (fun (i, price) ->
      let db = Fixtures.mk_db () in
      let vendors = Table.to_rows (Database.get_table db "vendor") in
      let victim = List.nth vendors (i mod List.length vendors) in
      ignore
        (Database.update_rows db ~table:"vendor"
           ~where:(fun r -> r == victim)
           ~set:(fun r -> [| r.(0); r.(1); v_float price |]));
      let a = Eval.eval (Ra_eval.ctx_of_db db) (Fixtures.catalog_view ()) in
      let b = Eval.eval (Ra_eval.ctx_of_db db) (Fixtures.catalog_view ()) in
      Eval.equal_xrel a b)

let prop_old_graph_is_pre_state =
  QCheck.Test.make ~name:"G_old = view evaluated before the statement" ~count:30
    (QCheck.make random_price_update) (fun (i, price) ->
      let db = Fixtures.mk_db () in
      let before = Eval.eval (Ra_eval.ctx_of_db db) (Fixtures.catalog_view ()) in
      let vendors = Table.to_rows (Database.get_table db "vendor") in
      let victim = List.nth vendors (i mod List.length vendors) in
      (* setting the current price is a no-op update, which fires nothing *)
      QCheck.assume (not (Value.equal victim.(2) (v_float price)));
      let ok = ref false in
      Database.create_trigger db
        { Database.trig_name = "capture";
          trig_table = "vendor";
          trig_event = Database.Update;
      relevance = None;
          sql_text = "(test)";
          body =
            (fun tc ->
              let tctx = Ra_eval.ctx_of_trigger tc in
              let old_graph = Op.to_old ~table:"vendor" (Fixtures.catalog_view ()) in
              ok := Eval.equal_xrel (Eval.eval tctx old_graph) before);
        };
      ignore
        (Database.update_rows db ~table:"vendor"
           ~where:(fun r -> r == victim)
           ~set:(fun r -> [| r.(0); r.(1); v_float price |]));
      !ok)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_view_eval_deterministic; prop_old_graph_is_pre_state ]

let () =
  Alcotest.run "xqgm"
    [ ( "xval",
        [ Alcotest.test_case "seq flattens" `Quick test_xval_seq_flattens;
          Alcotest.test_case "atomize" `Quick test_xval_atomize;
          Alcotest.test_case "to_nodes" `Quick test_xval_to_nodes;
        ] );
      ( "keys",
        [ Alcotest.test_case "table pk" `Quick test_keys_table;
          Alcotest.test_case "join concatenates" `Quick test_keys_join_concat;
          Alcotest.test_case "group by" `Quick test_keys_group_by;
          Alcotest.test_case "projection must propagate" `Quick test_keys_project_must_propagate;
          Alcotest.test_case "missing pk" `Quick test_keys_missing_pk;
          Alcotest.test_case "catalog specifiable (Thm 1)" `Quick test_keys_catalog_specifiable;
          Alcotest.test_case "union key" `Quick test_keys_union;
        ] );
      ( "eval",
        [ Alcotest.test_case "catalog = Figure 4" `Quick test_eval_catalog_matches_figure_4;
          Alcotest.test_case "count predicate filters" `Quick test_eval_count_predicate_filters;
          Alcotest.test_case "PRE binding" `Quick test_eval_pre_binding_sees_old_state;
          Alcotest.test_case "DELTA/NABLA bindings" `Quick test_eval_delta_nabla_bindings;
          Alcotest.test_case "union dedups" `Quick test_eval_union_dedups;
          Alcotest.test_case "outer + anti joins" `Quick test_eval_left_outer_and_anti;
          Alcotest.test_case "existential comparison" `Quick
            test_eval_general_comparison_existential;
          Alcotest.test_case "arith + bool" `Quick test_eval_scalar_arith_and_bool;
          Alcotest.test_case "null attr omitted" `Quick test_eval_null_attr_omitted;
        ] );
      ( "injective",
        [ Alcotest.test_case "catalog injective" `Quick test_injective_catalog;
          Alcotest.test_case "min-price agg-only" `Quick test_injective_minprice_agg_only;
          Alcotest.test_case "unrelated table" `Quick test_injective_unrelated_table;
          Alcotest.test_case "arith in elem opaque" `Quick test_injective_opaque_arith_in_elem;
          Alcotest.test_case "dropped column" `Quick test_injective_dropped_column_not_injective;
        ] );
      ("print", [ Alcotest.test_case "operators shown" `Quick test_print_mentions_operators ]);
      ("properties", qcheck_tests);
    ]
