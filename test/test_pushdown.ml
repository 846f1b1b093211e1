(* Tests for trigger pushdown: shredding XQGM into relational plans plus
   tagging templates must be observationally equivalent to the reference XQGM
   evaluator, with and without the optimizer passes (semijoin pushdown, CSE,
   GROUPED-AGG aggregate inversion). *)

open Relkit
open Xqgm

let v_str = Fixtures.v_str

let schema_of = function
  | "product" -> Fixtures.product_schema
  | "vendor" -> Fixtures.vendor_schema
  | name -> Alcotest.failf "unknown table %s" name

let monitored () =
  { Trigview.Angraph.graph = Fixtures.product_level ();
    node_col = "product_elem";
    key = [ "pname" ];
  }

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
  Option.get !captured

(* Execute a shredded graph through its compiled form, compiled against
   the context's database. *)
let render ?cols ctx shredded =
  Trigview.Pushdown.render_compiled ?cols
    (Trigview.Pushdown.compile ctx.Ra_eval.db shredded)
    ctx

(* Compare the compiled render against Eval on the same graph and context,
   projected to the graph's own output columns. *)
let assert_equivalent ?(passes = fun p -> p) ctx graph =
  let reference = Eval.eval ctx graph in
  let shredded = Trigview.Pushdown.shred graph in
  let shredded = { shredded with Trigview.Pushdown.plan = passes shredded.Trigview.Pushdown.plan } in
  let rendered = render ctx shredded in
  if not (Eval.equal_xrel reference rendered) then
    Alcotest.failf "pushdown diverges from reference:@.ref %a@.got %a" Eval.pp_xrel
      reference Eval.pp_xrel rendered

let test_shred_view_matches_eval () =
  let db = Fixtures.mk_db () in
  assert_equivalent (Ra_eval.ctx_of_db db) (Fixtures.product_level ())

let test_shred_whole_catalog () =
  let db = Fixtures.mk_db () in
  assert_equivalent (Ra_eval.ctx_of_db db) (Fixtures.catalog_view ())

let test_shred_minprice () =
  let db = Fixtures.mk_db () in
  assert_equivalent (Ra_eval.ctx_of_db db) (Fixtures.minprice_product_level ())

let test_shred_rejects_node_eq () =
  let g =
    Op.select
      ~pred:(Expr.Node_eq (Expr.Col "product_elem", Expr.Col "product_elem"))
      (Fixtures.product_level ())
  in
  match Trigview.Pushdown.shred g with
  | _ -> Alcotest.fail "expected Not_pushable"
  | exception Trigview.Pushdown.Not_pushable _ -> ()

let an_graph ?(check = Trigview.Angraph.Compare_cols [ "pname" ]) event =
  (* Compare_cols keeps the graph free of node comparisons so it is
     pushable; "pname" alone is not a sufficient check, so tests using this
     must not rely on spurious-update suppression. *)
  (Option.get
     (Trigview.Angraph.create ~schema_of ~event ~table:"vendor" ~check (monitored ())))
    .Trigview.Angraph.graph

let test_affected_graph_pushdown_update () =
  let db = Fixtures.mk_db () in
  let tctx =
    capture_ctx db ~table:"vendor" ~event:Database.Update (fun () ->
        Fixtures.update_vendor_price db ~vid:"Amazon" ~pid:"P1" ~price:75.0)
  in
  let g =
    an_graph ~check:(Trigview.Angraph.Compare_cols [ "pname" ]) Database.Update
  in
  (* use a real check column set that detects the change: expose vendors
     count?  pname does not change here, so use No_check for equivalence *)
  ignore g;
  let g = an_graph ~check:Trigview.Angraph.No_check Database.Update in
  assert_equivalent tctx g

let test_affected_graph_pushdown_insert_delete () =
  let db = Fixtures.mk_db () in
  let tctx =
    capture_ctx db ~table:"vendor" ~event:Database.Delete (fun () ->
        Fixtures.delete_vendor db ~vid:"Buy.com" ~pid:"P2")
  in
  List.iter
    (fun event -> assert_equivalent tctx (an_graph ~check:Trigview.Angraph.No_check event))
    [ Database.Insert; Database.Delete ]

let test_optimizer_passes_preserve_semantics () =
  let db = Fixtures.mk_db () in
  let tctx =
    capture_ctx db ~table:"vendor" ~event:Database.Insert (fun () ->
        Fixtures.insert_vendor db ~vid:"Amazon" ~pid:"P2" ~price:500.0)
  in
  let passes p =
    Ra_opt.share_common_subplans (Ra_opt.push_transition_joins p)
  in
  List.iter
    (fun event ->
      assert_equivalent ~passes tctx (an_graph ~check:Trigview.Angraph.No_check event))
    [ Database.Update; Database.Insert; Database.Delete ]

let test_grouped_agg_inversion_equivalence () =
  (* GROUPED-AGG: the inverted old-side aggregates must agree with direct
     OLD-OF evaluation, for updates, inserts and deletes. *)
  let scenarios =
    [ ( "update",
        Database.Update,
        fun db -> Fixtures.update_vendor_price db ~vid:"Amazon" ~pid:"P1" ~price:75.0 );
      ( "insert",
        Database.Insert,
        fun db -> Fixtures.insert_vendor db ~vid:"Amazon" ~pid:"P2" ~price:500.0 );
      ("delete", Database.Delete, fun db -> Fixtures.delete_vendor db ~vid:"Buy.com" ~pid:"P2");
    ]
  in
  List.iter
    (fun (name, event, dml) ->
      let db = Fixtures.mk_db () in
      let tctx = capture_ctx db ~table:"vendor" ~event (fun () -> dml db) in
      List.iter
        (fun xml_event ->
          let g = an_graph ~check:Trigview.Angraph.No_check xml_event in
          let reference = Eval.eval tctx g in
          let shredded =
            Trigview.Pushdown.invert_old_aggregates ~table:"vendor"
              (Trigview.Pushdown.shred g)
          in
          let rendered = render tctx shredded in
          if not (Eval.equal_xrel reference rendered) then
            Alcotest.failf "GROUPED-AGG diverges (%s, %s):@.ref %a@.got %a" name
              (Database.string_of_event xml_event)
              Eval.pp_xrel reference Eval.pp_xrel rendered)
        [ Database.Update; Database.Insert; Database.Delete ])
    scenarios

let test_inverted_plan_avoids_old_of () =
  (* After inversion, the scalar part of the affected-node graph must not
     scan OLD-OF at all (the point of the optimization). *)
  let g = an_graph ~check:Trigview.Angraph.No_check Database.Update in
  let shredded = Trigview.Pushdown.shred g in
  let inverted = Trigview.Pushdown.invert_old_aggregates ~table:"vendor" shredded in
  let rec scans_old = function
    | Ra.Scan (Ra.Old_of _, _) -> true
    | Ra.Scan (_, _) | Ra.Values _ -> false
    | Ra.Select (_, i) | Ra.Project (_, i) | Ra.Group_by (_, _, i) | Ra.Distinct i
    | Ra.Order_by (_, i) | Ra.Shared (_, i) ->
      scans_old i
    | Ra.Join (_, _, l, r) -> scans_old l || scans_old r
    | Ra.Union { inputs; _ } -> List.exists scans_old inputs
  in
  Alcotest.(check bool) "GROUPED scans OLD-OF" true
    (scans_old shredded.Trigview.Pushdown.plan);
  Alcotest.(check bool) "GROUPED-AGG does not" false
    (scans_old inverted.Trigview.Pushdown.plan)

let test_render_partial_columns () =
  (* Rendering only new_node must not instantiate the old side's templates. *)
  let db = Fixtures.mk_db () in
  let tctx =
    capture_ctx db ~table:"vendor" ~event:Database.Update (fun () ->
        Fixtures.update_vendor_price db ~vid:"Amazon" ~pid:"P1" ~price:75.0)
  in
  let g = an_graph ~check:Trigview.Angraph.No_check Database.Update in
  let shredded = Trigview.Pushdown.shred g in
  let rel =
    render ~cols:[ "pname"; "new_node" ] tctx shredded
  in
  Alcotest.(check int) "one row" 1 (List.length rel.Eval.rows);
  Alcotest.(check (array string)) "columns" [| "pname"; "new_node" |] rel.Eval.cols

let test_sql_text_mentions_structure () =
  let g = an_graph ~check:Trigview.Angraph.No_check Database.Update in
  let shredded = Trigview.Pushdown.shred g in
  let shredded =
    { shredded with
      Trigview.Pushdown.plan =
        Ra_opt.push_transition_joins shredded.Trigview.Pushdown.plan;
    }
  in
  let sql = Trigview.Pushdown.to_sql shredded in
  let contains frag =
    let n = String.length sql and m = String.length frag in
    let rec go i = i + m <= n && (String.sub sql i m = frag || go (i + 1)) in
    go 0
  in
  List.iter
    (fun frag ->
      if not (contains frag) then Alcotest.failf "missing %S in generated SQL" frag)
    [ "WITH"; "INSERTED"; "DELETED"; "GROUP BY"; "UNION ALL" ]

(* property: pushdown = reference across random DML, all events, both with
   and without optimizer passes and aggregate inversion *)

let dml_gen =
  QCheck.Gen.(
    oneof
      [ map2 (fun i p -> `Upd (i, float_of_int p)) (int_range 0 100) (int_range 10 400);
        map3 (fun v p price -> `Ins (v, p, float_of_int price)) (int_range 0 50) (int_range 0 2)
          (int_range 10 400);
        map (fun i -> `Del i) (int_range 0 100);
      ])

let prop_pushdown_differential =
  QCheck.Test.make ~name:"pushdown (all variants) = reference evaluator" ~count:40
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 1 4) dml_gen)) (fun ops ->
      let db = Fixtures.mk_db () in
      let ok = ref true in
      let with_ctx ~table ~event dml =
        let tctx = capture_ctx db ~table ~event dml in
        List.iter
          (fun xml_event ->
            let g = an_graph ~check:Trigview.Angraph.No_check xml_event in
            let reference = Eval.eval tctx g in
            let base = Trigview.Pushdown.shred g in
            let variants =
              [ base;
                { base with
                  Trigview.Pushdown.plan =
                    Ra_opt.share_common_subplans
                      (Ra_opt.push_transition_joins base.Trigview.Pushdown.plan);
                };
                Trigview.Pushdown.invert_old_aggregates ~table:"vendor" base;
              ]
            in
            List.iter
              (fun v ->
                if not (Eval.equal_xrel reference (render tctx v)) then
                  ok := false)
              variants)
          [ Database.Update; Database.Insert; Database.Delete ]
      in
      List.iter
        (fun op ->
          match op with
          | `Upd (i, price) ->
            let vs = Table.to_rows (Database.get_table db "vendor") in
            if vs <> [] then begin
              let victim = List.nth vs (i mod List.length vs) in
              (* setting the current price is a no-op update, which fires nothing *)
              if not (Value.equal victim.(2) (Value.Float price)) then
                with_ctx ~table:"vendor" ~event:Database.Update (fun () ->
                    ignore
                      (Database.update_rows db ~table:"vendor"
                         ~where:(fun r -> r == victim)
                         ~set:(fun r -> [| r.(0); r.(1); Value.Float price |])))
            end
          | `Ins (v, p, price) ->
            let vid = Printf.sprintf "V%d" v in
            let pid = Printf.sprintf "P%d" (1 + (p mod 3)) in
            if Table.find_pk (Database.get_table db "vendor") [ v_str vid; v_str pid ] = None
            then
              with_ctx ~table:"vendor" ~event:Database.Insert (fun () ->
                  Fixtures.insert_vendor db ~vid ~pid ~price)
          | `Del i ->
            let vs = Table.to_rows (Database.get_table db "vendor") in
            if vs <> [] then begin
              let victim = List.nth vs (i mod List.length vs) in
              with_ctx ~table:"vendor" ~event:Database.Delete (fun () ->
                  ignore
                    (Database.delete_rows db ~table:"vendor" ~where:(fun r -> r == victim)))
            end)
        ops;
      !ok)

let qcheck_tests = List.map QCheck_alcotest.to_alcotest [ prop_pushdown_differential ]

let () =
  Alcotest.run "trigview-pushdown"
    [ ( "shred",
        [ Alcotest.test_case "product level" `Quick test_shred_view_matches_eval;
          Alcotest.test_case "whole catalog" `Quick test_shred_whole_catalog;
          Alcotest.test_case "min-price" `Quick test_shred_minprice;
          Alcotest.test_case "rejects node comparison" `Quick test_shred_rejects_node_eq;
        ] );
      ( "affected graphs",
        [ Alcotest.test_case "update" `Quick test_affected_graph_pushdown_update;
          Alcotest.test_case "insert/delete" `Quick test_affected_graph_pushdown_insert_delete;
          Alcotest.test_case "optimizer passes" `Quick test_optimizer_passes_preserve_semantics;
        ] );
      ( "grouped-agg",
        [ Alcotest.test_case "inversion equivalence" `Quick
            test_grouped_agg_inversion_equivalence;
          Alcotest.test_case "avoids OLD-OF" `Quick test_inverted_plan_avoids_old_of;
        ] );
      ( "render",
        [ Alcotest.test_case "partial columns" `Quick test_render_partial_columns;
          Alcotest.test_case "sql text" `Quick test_sql_text_mentions_structure;
        ] );
      ("properties", qcheck_tests);
    ]
