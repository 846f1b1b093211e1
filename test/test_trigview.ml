(* Tests for the paper's core algorithms: event pushdown (Appendix C),
   CreateAKGraph (Figure 8) and CreateANGraph (Figure 12), checked against a
   naive recompute-and-diff oracle implementing Definitions 2 and 3
   literally. *)

open Relkit
open Xqgm

let v_str = Fixtures.v_str
let v_float = Fixtures.v_float

let schema_of = function
  | "product" -> Fixtures.product_schema
  | "vendor" -> Fixtures.vendor_schema
  | name -> Alcotest.failf "unknown table %s" name

let monitored () =
  { Trigview.Angraph.graph = Fixtures.product_level ();
    node_col = "product_elem";
    key = [ "pname" ];
  }

(* --- event pushdown --- *)

let has_event events table event =
  List.exists
    (fun e ->
      e.Trigview.Event_pushdown.ev_table = table
      && e.Trigview.Event_pushdown.ev_event = event)
    events

let test_events_update_on_product_path () =
  (* §3.3: UPDATE on /product can be caused by UPDATE on product, or by
     INSERT/UPDATE/DELETE on vendor. *)
  let events =
    Trigview.Event_pushdown.source_events (Fixtures.product_level ()) Database.Update
  in
  Alcotest.(check bool) "product update" true (has_event events "product" Database.Update);
  Alcotest.(check bool) "vendor insert" true (has_event events "vendor" Database.Insert);
  Alcotest.(check bool) "vendor update" true (has_event events "vendor" Database.Update);
  Alcotest.(check bool) "vendor delete" true (has_event events "vendor" Database.Delete)

let test_events_insert_on_product_path () =
  (* A product node can appear because the count predicate starts holding:
     vendor inserts/updates must be monitored. *)
  let events =
    Trigview.Event_pushdown.source_events (Fixtures.product_level ()) Database.Insert
  in
  Alcotest.(check bool) "vendor insert" true (has_event events "vendor" Database.Insert);
  Alcotest.(check bool) "vendor update" true (has_event events "vendor" Database.Update)

let test_events_unrelated_table_excluded () =
  (* A path over product alone never monitors vendor. *)
  let g =
    Op.project
      ~defs:[ ("pid", Expr.Col "pid"); ("pname", Expr.Col "pname") ]
      (Op.table "product" [ ("pid", "pid"); ("pname", "pname") ])
  in
  let events = Trigview.Event_pushdown.source_events g Database.Update in
  Alcotest.(check bool) "no vendor events" false
    (List.exists (fun e -> e.Trigview.Event_pushdown.ev_table = "vendor") events)

let test_relevant_columns () =
  let cols =
    Trigview.Event_pushdown.relevant_columns (Fixtures.product_level ()) ~table:"product"
  in
  Alcotest.(check (list string)) "product columns scanned" [ "pid"; "pname" ]
    (List.sort compare cols)

(* --- helpers: capture a trigger context for arbitrary DML --- *)

let capture_ctx db ~table ~event dml =
  let captured = ref None in
  Database.create_trigger db
    { Database.trig_name = "capture!";
      trig_table = table;
      trig_event = event;
      relevance = None;
      sql_text = "(test)";
      body = (fun tc -> captured := Some (Ra_eval.ctx_of_trigger tc));
    };
  dml ();
  Database.drop_trigger db "capture!";
  match !captured with
  | Some tctx -> tctx
  | None -> Alcotest.fail "statement did not fire"

(* Materialize the monitored level as (key string, node) pairs. *)
let view_snapshot ctx =
  let rel = Eval.eval ctx (Fixtures.product_level ()) in
  let ki = Eval.col_index rel "pname" and ni = Eval.col_index rel "product_elem" in
  List.map
    (fun row ->
      match row.(ki), row.(ni) with
      | Xval.Atom k, Xval.Node n -> (Value.to_string k, n)
      | _ -> Alcotest.fail "unexpected shape")
    rel.Eval.rows

(* The oracle: Definitions 2 and 3, literally. *)
type diff = {
  updated : (string * Xmlkit.Xml.t * Xmlkit.Xml.t) list;  (* key, old, new *)
  inserted : (string * Xmlkit.Xml.t) list;
  deleted : (string * Xmlkit.Xml.t) list;
}

let oracle_diff before after =
  let updated =
    List.filter_map
      (fun (k, old_n) ->
        match List.assoc_opt k after with
        | Some new_n when not (Xmlkit.Xml.equal old_n new_n) -> Some (k, old_n, new_n)
        | _ -> None)
      before
  in
  let inserted =
    List.filter (fun (k, _) -> not (List.mem_assoc k before)) after
  in
  let deleted = List.filter (fun (k, _) -> not (List.mem_assoc k after)) before in
  { updated; inserted; deleted }

(* Evaluate a G_affected graph and decode its rows. *)
let eval_affected tctx (an : Trigview.Angraph.t) =
  let rel = Eval.eval tctx an.Trigview.Angraph.graph in
  let ki = Eval.col_index rel "pname" in
  let oi = Eval.col_index rel an.Trigview.Angraph.old_col in
  let ni = Eval.col_index rel an.Trigview.Angraph.new_col in
  List.map
    (fun row ->
      let key = match row.(ki) with Xval.Atom k -> Value.to_string k | _ -> "?" in
      let node = function
        | Xval.Node n -> Some n
        | Xval.Atom Value.Null -> None
        | v -> Alcotest.failf "unexpected node value %s" (Xval.to_string v)
      in
      (key, node row.(oi), node row.(ni)))
    rel.Eval.rows

(* Per-event comparison helper used in the named tests below. *)
let affected_for db ~table ~event ~xml_event ?check ?cond dml =
  let before = view_snapshot (Ra_eval.ctx_of_db db) in
  let tctx = capture_ctx db ~table ~event dml in
  let after = view_snapshot (Ra_eval.ctx_of_db db) in
  let an =
    match
      Trigview.Angraph.create ~schema_of ~event:xml_event ~table
        ~check:(Option.value check ~default:Trigview.Angraph.Compare_nodes)
        ?cond (monitored ())
    with
    | Some an -> an
    | None -> Alcotest.fail "no affected-node graph"
  in
  (eval_affected tctx an, oracle_diff before after)

(* --- the §4.1 nested-predicate example --- *)

let test_nested_predicate_insert_detected () =
  (* Insert (Amazon, P2, 500): LCD 19 gains a third vendor, so the LCD 19
     product node is UPDATED.  Computing changes from the transition table
     alone would see count = 1 < 2 and miss it — the motivating bug. *)
  let db = Fixtures.mk_db () in
  let rows, d =
    affected_for db ~table:"vendor" ~event:Database.Insert ~xml_event:Database.Update
      (fun () -> Fixtures.insert_vendor db ~vid:"Amazon" ~pid:"P2" ~price:500.0)
  in
  Alcotest.(check int) "oracle sees one update" 1 (List.length d.updated);
  match rows with
  | [ ("LCD 19", Some old_n, Some new_n) ] ->
    Alcotest.(check int) "old has 2 vendors" 2
      (List.length (Xmlkit.Xml.children_named old_n "vendor"));
    Alcotest.(check int) "new has 3 vendors" 3
      (List.length (Xmlkit.Xml.children_named new_n "vendor"))
  | _ -> Alcotest.failf "expected exactly the LCD 19 update, got %d rows" (List.length rows)

let test_transition_only_evaluation_misses_it () =
  (* Fidelity check for the paper's motivation: evaluating the view over the
     transition table alone (vendor := Delta) produces no rows, because the
     count predicate sees 1. *)
  let db = Fixtures.mk_db () in
  let tctx =
    capture_ctx db ~table:"vendor" ~event:Database.Insert (fun () ->
        Fixtures.insert_vendor db ~vid:"Amazon" ~pid:"P2" ~price:500.0)
  in
  (* rebuild the product level with the vendor scan bound to Delta *)
  let product = Op.table "product" [ ("pid", "pid"); ("pname", "pname") ] in
  let vendor =
    Op.table ~binding:Op.Delta "vendor" [ ("vid", "vid"); ("pid", "v_pid"); ("price", "price") ]
  in
  let joined = Op.join ~pred:(Expr.eq (Expr.Col "pid") (Expr.Col "v_pid")) product vendor in
  let grouped =
    Op.group_by ~keys:[ "pname" ] ~aggs:[ ("cnt", Expr.Count) ] joined
  in
  let filtered =
    Op.select ~pred:(Expr.Binop (Relkit.Ra.Ge, Expr.Col "cnt", Expr.Const (Fixtures.v_int 2)))
      grouped
  in
  let rel = Eval.eval tctx filtered in
  Alcotest.(check int) "naive propagate finds nothing" 0 (List.length rel.Eval.rows)

(* --- named event scenarios --- *)

let test_price_update_yields_update () =
  let db = Fixtures.mk_db () in
  let rows, d =
    affected_for db ~table:"vendor" ~event:Database.Update ~xml_event:Database.Update
      (fun () -> Fixtures.update_vendor_price db ~vid:"Amazon" ~pid:"P1" ~price:75.0)
  in
  Alcotest.(check int) "oracle" 1 (List.length d.updated);
  match rows with
  | [ ("CRT 15", Some o, Some n) ] ->
    let price node = Xmlkit.Xpath.select_strings node "/vendor[vid='Amazon']/price" in
    Alcotest.(check (list string)) "old" [ "100.0" ] (price o);
    Alcotest.(check (list string)) "new" [ "75.0" ] (price n)
  | _ -> Alcotest.fail "expected one CRT 15 update"

let test_view_insert_event () =
  let db = Fixtures.mk_db () in
  (* OLED starts with one vendor (below threshold), gains a second. *)
  Database.insert_rows db ~table:"product" [ [| v_str "P4"; v_str "OLED"; v_str "LG" |] ];
  Fixtures.insert_vendor db ~vid:"Amazon" ~pid:"P4" ~price:900.0;
  let rows, d =
    affected_for db ~table:"vendor" ~event:Database.Insert ~xml_event:Database.Insert
      (fun () -> Fixtures.insert_vendor db ~vid:"Bestbuy" ~pid:"P4" ~price:950.0)
  in
  Alcotest.(check int) "oracle insert" 1 (List.length d.inserted);
  match rows with
  | [ ("OLED", None, Some n) ] ->
    Alcotest.(check int) "2 vendors" 2 (List.length (Xmlkit.Xml.children_named n "vendor"))
  | _ -> Alcotest.fail "expected OLED insertion"

let test_view_delete_event () =
  let db = Fixtures.mk_db () in
  let rows, d =
    affected_for db ~table:"vendor" ~event:Database.Delete ~xml_event:Database.Delete
      (fun () -> Fixtures.delete_vendor db ~vid:"Buy.com" ~pid:"P2")
  in
  Alcotest.(check int) "oracle delete" 1 (List.length d.deleted);
  match rows with
  | [ ("LCD 19", Some o, None) ] ->
    Alcotest.(check int) "old had 2 vendors" 2
      (List.length (Xmlkit.Xml.children_named o "vendor"))
  | _ -> Alcotest.fail "expected LCD 19 deletion"

let test_threshold_crossing_is_not_update () =
  (* When a node leaves the view, an UPDATE trigger must not fire for it
     (Definition 2 requires presence on both sides). *)
  let db = Fixtures.mk_db () in
  let rows, d =
    affected_for db ~table:"vendor" ~event:Database.Delete ~xml_event:Database.Update
      (fun () -> Fixtures.delete_vendor db ~vid:"Buy.com" ~pid:"P2")
  in
  Alcotest.(check int) "oracle sees no update" 0 (List.length d.updated);
  Alcotest.(check int) "no update rows" 0 (List.length rows)

let test_product_update_affects_node () =
  (* Renaming a product merges/splits groups; monitor product UPDATE. *)
  let db = Fixtures.mk_db () in
  let rows, d =
    affected_for db ~table:"product" ~event:Database.Update ~xml_event:Database.Update
      (fun () ->
        ignore
          (Database.update_rows db ~table:"product"
             ~where:(fun r -> Value.equal r.(0) (v_str "P3"))
             ~set:(fun r -> [| r.(0); v_str "LCD 19"; r.(2) |])))
  in
  (* P3's vendors move from CRT 15 to LCD 19: both groups change value. *)
  Alcotest.(check int) "oracle updates" (List.length d.updated) (List.length rows);
  Alcotest.(check bool) "both groups" true (List.length rows = 2)

let test_multi_row_statement () =
  (* One statement updating several vendors: a single firing computes all
     affected nodes. *)
  let db = Fixtures.mk_db () in
  let rows, d =
    affected_for db ~table:"vendor" ~event:Database.Update ~xml_event:Database.Update
      (fun () ->
        ignore
          (Database.update_rows db ~table:"vendor"
             ~where:(fun _ -> true)
             ~set:(fun r -> [| r.(0); r.(1); Value.add r.(2) (v_float 5.0) |])))
  in
  Alcotest.(check int) "oracle" 2 (List.length d.updated);
  Alcotest.(check int) "both products updated" 2 (List.length rows)

let test_no_op_update_suppressed () =
  (* An UPDATE that does not change any row value must produce nothing (the
     pruned-transition-table argument of Appendix F.1).  The DML layer now
     drops value-identical pairs before the firing path, so the statement
     never even reaches AFTER triggers — strictly stronger than the old
     node-comparison suppression. *)
  let db = Fixtures.mk_db () in
  let fired = ref 0 in
  Database.create_trigger db
    { Database.trig_name = "watch";
      trig_table = "vendor";
      trig_event = Database.Update;
      relevance = None;
      sql_text = "(test)";
      body = (fun _ -> incr fired);
    };
  let matched =
    Database.update_rows db ~table:"vendor"
      ~where:(fun _ -> true)
      ~set:(fun r -> Array.copy r)
  in
  Database.drop_trigger db "watch";
  Alcotest.(check bool) "rows matched" true (matched > 0);
  Alcotest.(check int) "suppressed" 0 !fired

let test_injective_skip_check_agrees () =
  (* The catalog view is injective w.r.t. vendor: with pruned transition
     tables (single-row genuine update here) No_check must agree with
     Compare_nodes. *)
  let db = Fixtures.mk_db () in
  let rows, _ =
    affected_for db ~table:"vendor" ~event:Database.Update ~xml_event:Database.Update
      ~check:Trigview.Angraph.No_check (fun () ->
        Fixtures.update_vendor_price db ~vid:"Bestbuy" ~pid:"P3" ~price:99.0)
  in
  Alcotest.(check int) "one update without the check" 1 (List.length rows)

let test_condition_filters_pairs () =
  (* WHERE OLD_NODE/@name = 'CRT 15' (§2.2's Notify trigger), compiled to a
     condition over the exposed pname column of the old side. *)
  let db = Fixtures.mk_db () in
  let cond = Expr.eq (Expr.Col "old$pname") (Expr.Const (v_str "CRT 15")) in
  let rows_match, _ =
    affected_for db ~table:"vendor" ~event:Database.Update ~xml_event:Database.Update
      ~cond (fun () -> Fixtures.update_vendor_price db ~vid:"Amazon" ~pid:"P1" ~price:75.0)
  in
  Alcotest.(check int) "CRT 15 matches" 1 (List.length rows_match);
  let db = Fixtures.mk_db () in
  let rows_no_match, _ =
    affected_for db ~table:"vendor" ~event:Database.Update ~xml_event:Database.Update
      ~cond (fun () -> Fixtures.update_vendor_price db ~vid:"Buy.com" ~pid:"P2" ~price:75.0)
  in
  Alcotest.(check int) "LCD 19 does not" 0 (List.length rows_no_match)

(* --- the Appendix E.1 min-price spurious-update scenario --- *)

let minprice_monitored () =
  { Trigview.Angraph.graph = Fixtures.minprice_product_level ();
    node_col = "product_elem";
    key = [ "pname" ];
  }

let eval_affected_minprice tctx (an : Trigview.Angraph.t) =
  let rel = Eval.eval tctx an.Trigview.Angraph.graph in
  List.length rel.Eval.rows

let test_minprice_spurious_update_suppressed () =
  let db = Fixtures.mk_db () in
  (* P2 ("LCD 19") has prices 200 and 180; raising the non-minimum price from
     200 to 190 keeps min = 180: no XML update. *)
  let tctx =
    capture_ctx db ~table:"vendor" ~event:Database.Update (fun () ->
        Fixtures.update_vendor_price db ~vid:"Buy.com" ~pid:"P2" ~price:190.0)
  in
  let check =
    match
      Injective.analyze ~table:"vendor" ~schema_of (Fixtures.minprice_product_level ())
    with
    | Injective.Agg_only cols -> Trigview.Angraph.Compare_cols cols
    | v -> Alcotest.failf "expected Agg_only, got %s" (Injective.verdict_to_string v)
  in
  let an =
    Option.get
      (Trigview.Angraph.create ~schema_of ~event:Database.Update ~table:"vendor" ~check
         (minprice_monitored ()))
  in
  Alcotest.(check int) "suppressed by aggregate comparison" 0 (eval_affected_minprice tctx an);
  (* Without any check the affected-keys superset would report it. *)
  let an_unchecked =
    Option.get
      (Trigview.Angraph.create ~schema_of ~event:Database.Update ~table:"vendor"
         ~check:Trigview.Angraph.No_check (minprice_monitored ()))
  in
  Alcotest.(check int) "would be spurious without the check" 1
    (eval_affected_minprice tctx an_unchecked)

let test_minprice_real_update_detected () =
  let db = Fixtures.mk_db () in
  let tctx =
    capture_ctx db ~table:"vendor" ~event:Database.Update (fun () ->
        Fixtures.update_vendor_price db ~vid:"Bestbuy" ~pid:"P2" ~price:50.0)
  in
  let an =
    Option.get
      (Trigview.Angraph.create ~schema_of ~event:Database.Update ~table:"vendor"
         ~check:(Trigview.Angraph.Compare_cols [ "minp"; "pname" ])
         (minprice_monitored ()))
  in
  Alcotest.(check int) "min changed: detected" 1 (eval_affected_minprice tctx an)

(* --- property test: full differential against the oracle --- *)

type dml_op =
  | Upd_price of int * float
  | Ins_vendor of int * int * float
  | Del_vendor of int

let dml_gen =
  QCheck.Gen.(
    oneof
      [ map2 (fun i p -> Upd_price (i, float_of_int p)) (int_range 0 100) (int_range 10 400);
        map3
          (fun v p price -> Ins_vendor (v, p, float_of_int price))
          (int_range 0 1000) (int_range 0 2) (int_range 10 400);
        map (fun i -> Del_vendor i) (int_range 0 100);
      ])

let apply_dml db op ~on_fire =
  let vendors () = Table.to_rows (Database.get_table db "vendor") in
  match op with
  | Upd_price (i, price) ->
    let vs = vendors () in
    if vs = [] then None
    else begin
      let victim = List.nth vs (i mod List.length vs) in
      let tctx =
        capture_ctx db ~table:"vendor" ~event:Database.Update (fun () ->
            ignore
              (Database.update_rows db ~table:"vendor"
                 ~where:(fun r -> r == victim)
                 ~set:(fun r -> [| r.(0); r.(1); v_float price |])))
      in
      on_fire tctx;
      Some ()
    end
  | Ins_vendor (v, p, price) ->
    let vid = Printf.sprintf "V%d" v in
    let pid = Printf.sprintf "P%d" (1 + (p mod 3)) in
    if Table.find_pk (Database.get_table db "vendor") [ v_str vid; v_str pid ] <> None then
      None
    else begin
      let tctx =
        capture_ctx db ~table:"vendor" ~event:Database.Insert (fun () ->
            Fixtures.insert_vendor db ~vid ~pid ~price)
      in
      on_fire tctx;
      Some ()
    end
  | Del_vendor i ->
    let vs = vendors () in
    if vs = [] then None
    else begin
      let victim = List.nth vs (i mod List.length vs) in
      let tctx =
        capture_ctx db ~table:"vendor" ~event:Database.Delete (fun () ->
            ignore (Database.delete_rows db ~table:"vendor" ~where:(fun r -> r == victim)))
      in
      on_fire tctx;
      Some ()
    end

let prop_differential_vs_oracle =
  (* Apply random DML statements to the paper's database; after each firing,
     G_affected for each XML event must match the recompute-and-diff oracle
     exactly (same keys, same OLD/NEW node values). *)
  QCheck.Test.make ~name:"G_affected = recompute-and-diff oracle" ~count:60
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 1 6) dml_gen))
    (fun ops ->
      let db = Fixtures.mk_db () in
      let ok = ref true in
      List.iter
        (fun op ->
          let before = view_snapshot (Ra_eval.ctx_of_db db) in
          ignore
            (apply_dml db op ~on_fire:(fun tctx ->
                 let after = view_snapshot (Ra_eval.ctx_of_db db) in
                 let d = oracle_diff before after in
                 let xml n = Xmlkit.Xml.to_string ~canonical:true n in
                 let check ~xml_event expected =
                   match
                     Trigview.Angraph.create ~schema_of ~event:xml_event ~table:"vendor"
                       ~check:Trigview.Angraph.Compare_nodes (monitored ())
                   with
                   | None -> ok := false
                   | Some an ->
                     let rows = eval_affected tctx an in
                     let norm =
                       List.sort compare
                         (List.map
                            (fun (k, o, n) -> (k, Option.map xml o, Option.map xml n))
                            rows)
                     in
                     if norm <> List.sort compare expected then ok := false
                 in
                 (* The relational event is what fired; the XML event is what
                    the trigger monitors — all three must agree with the
                    oracle for every firing. *)
                 check ~xml_event:Database.Update
                   (List.map (fun (k, o, n) -> (k, Some (xml o), Some (xml n))) d.updated);
                 check ~xml_event:Database.Insert
                   (List.map (fun (k, n) -> (k, None, Some (xml n))) d.inserted);
                 check ~xml_event:Database.Delete
                   (List.map (fun (k, o) -> (k, Some (xml o), None)) d.deleted))))
        ops;
      !ok)

let qcheck_tests = List.map QCheck_alcotest.to_alcotest [ prop_differential_vs_oracle ]

let () =
  Alcotest.run "trigview-core"
    [ ( "event_pushdown",
        [ Alcotest.test_case "update on /product" `Quick test_events_update_on_product_path;
          Alcotest.test_case "insert on /product" `Quick test_events_insert_on_product_path;
          Alcotest.test_case "unrelated table excluded" `Quick
            test_events_unrelated_table_excluded;
          Alcotest.test_case "relevant columns" `Quick test_relevant_columns;
        ] );
      ( "nested_predicates",
        [ Alcotest.test_case "4.1 insert detected" `Quick test_nested_predicate_insert_detected;
          Alcotest.test_case "naive propagate misses it" `Quick
            test_transition_only_evaluation_misses_it;
        ] );
      ( "angraph",
        [ Alcotest.test_case "price update" `Quick test_price_update_yields_update;
          Alcotest.test_case "view-level insert" `Quick test_view_insert_event;
          Alcotest.test_case "view-level delete" `Quick test_view_delete_event;
          Alcotest.test_case "threshold crossing is not update" `Quick
            test_threshold_crossing_is_not_update;
          Alcotest.test_case "product rename" `Quick test_product_update_affects_node;
          Alcotest.test_case "multi-row statement" `Quick test_multi_row_statement;
          Alcotest.test_case "no-op update suppressed" `Quick test_no_op_update_suppressed;
          Alcotest.test_case "injective skip-check" `Quick test_injective_skip_check_agrees;
          Alcotest.test_case "condition filters" `Quick test_condition_filters_pairs;
        ] );
      ( "minprice (Appendix E.1/F)",
        [ Alcotest.test_case "spurious update suppressed" `Quick
            test_minprice_spurious_update_suppressed;
          Alcotest.test_case "real update detected" `Quick test_minprice_real_update_detected;
        ] );
      ("properties", qcheck_tests);
    ]
