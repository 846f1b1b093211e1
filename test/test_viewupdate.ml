(* Updatable-view subsystem tests: view-DML parsing, the catalog goldens
   (accepted updates, ambiguity rejection with candidate listings, the
   programmable-strategy resolutions, dynamic side-effect rejection), audit
   provenance of view-originated statements, crash recovery of view DML, and
   the qcheck differential property over the Table-2 workload — view DML on
   one instance must leave the extracted document and the trigger firings
   identical to direct base DML on a twin, under all four runtime
   strategies. *)

open Relkit
module Runtime = Trigview.Runtime
module Vu = Viewupdate
module Xml = Xmlkit.Xml
module W = Workloadlib.Workload

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let catalog_view =
  {|<catalog>
    {for $prodname in distinct(view("default")/product/row/pname)
     let $products := view("default")/product/row[./pname = $prodname]
     let $vendors := view("default")/vendor/row[./pid = $products/pid]
     where count($vendors) >= 2
     return <product name="{$prodname}">
       {for $vendor in $vendors return <vendor>{$vendor/*}</vendor>}
     </product>}
  </catalog>|}

let mk_mgr () =
  let db = Fixtures.mk_db () in
  let mgr = Runtime.create db in
  Runtime.define_view mgr ~name:"catalog" catalog_view;
  mgr

let doc_of mgr name =
  match Runtime.find_view mgr name with
  | Some v -> Xquery.Compile.materialize (Ra_eval.ctx_of_db (Runtime.database mgr)) v
  | None -> Alcotest.failf "view %s not published" name

let table_rows mgr name =
  Table.to_rows (Database.get_table (Runtime.database mgr) name)

(* --- parsing --- *)

let test_parse () =
  (match Vu.parse "REPLACE NODE view('v')/a/b[./id = 'x'] WITH <b><id>x</id></b>" with
  | Vu.Replace_node _ -> ()
  | _ -> Alcotest.fail "expected Replace_node");
  (match Vu.parse "insert node <b/> into view('v')/a" with
  | Vu.Insert_node _ -> ()
  | _ -> Alcotest.fail "expected Insert_node (case-insensitive)");
  (match Vu.parse "DELETE NODE view('v')/a/b WHERE ./id = 'x' and ./p = 'y'" with
  | Vu.Delete_node { where = Some _; _ } -> ()
  | _ -> Alcotest.fail "expected Delete_node with condition");
  (* the WITH keyword must be found outside predicates and quotes *)
  (match Vu.parse "REPLACE NODE view('v')/a[./x = 'WITH'] WITH <a/>" with
  | Vu.Replace_node { path; _ } ->
    Alcotest.(check int) "one step" 1 (List.length path.Xquery.Ast.steps)
  | _ -> Alcotest.fail "expected Replace_node");
  let expect_error text =
    match Vu.parse text with
    | exception Vu.Error _ -> ()
    | _ -> Alcotest.failf "parse %S should have failed" text
  in
  expect_error "TRUNCATE NODE view('v')/a";
  expect_error "INSERT NODE <a/> view('v')/a";
  expect_error "REPLACE NODE view('v')/a WITH not-xml";
  expect_error "INSERT NODE <a><b></a> INTO view('v')/a";
  (* a comment containing markup must not corrupt the literal scan: the
     stray </b> inside it used to count toward element depth and cut the
     literal short of the INTO keyword *)
  match Vu.parse "INSERT NODE <a><!-- see <b>note</b> --><x>1</x></a> INTO view('v')/a" with
  | Vu.Insert_node { xml; _ } ->
    Alcotest.(check bool) "comment skipped, content kept" true
      (contains (Xml.to_string xml) "<x>1</x>")
  | _ -> Alcotest.fail "expected Insert_node for a commented literal"

(* --- accepted updates --- *)

let test_replace_vendor_price () =
  let mgr = mk_mgr () in
  let p =
    Vu.execute mgr
      "REPLACE NODE view('catalog')/product/vendor[./vid = 'Amazon'] WITH \
       <vendor><vid>Amazon</vid><pid>P1</pid><price>95</price></vendor>"
  in
  Alcotest.(check int) "one base statement" 1 (List.length p.Vu.p_ops);
  Alcotest.(check string) "anchored to vendor" "vendor" p.Vu.p_anchor;
  (match Table.find_pk
           (Database.get_table (Runtime.database mgr) "vendor")
           [ Value.String "Amazon"; Value.String "P1" ]
  with
  | Some row -> Alcotest.(check bool) "price written" true (Value.equal row.(2) (Value.Float 95.0))
  | None -> Alcotest.fail "row vanished");
  Alcotest.(check bool) "document reflects the update" true
    (contains (Xml.to_string (doc_of mgr "catalog")) "<price>95.0</price>")

let test_replace_noop () =
  let mgr = mk_mgr () in
  let before = Xml.to_string (doc_of mgr "catalog") in
  let p =
    Vu.execute mgr
      "REPLACE NODE view('catalog')/product/vendor[./vid = 'Amazon'] WITH \
       <vendor><vid>Amazon</vid><pid>P1</pid><price>100</price></vendor>"
  in
  Alcotest.(check int) "no base statements" 0 (List.length p.Vu.p_ops);
  Alcotest.(check string) "document unchanged" before (Xml.to_string (doc_of mgr "catalog"))

(* Changing the product's name: the <product> level is grouped (not
   key-anchored), but only one product row carries pname 'LCD 19', so the
   update auto-resolves to that row; the name is the level key, so the static
   check is inconclusive and the dynamic differential check must accept. *)
let test_replace_unanchored_unique () =
  let mgr = mk_mgr () in
  let p =
    Vu.execute mgr
      {|REPLACE NODE view('catalog')/product[@name = 'LCD 19'] WITH <product name="LCD 19in"><vendor><vid>Bestbuy</vid><pid>P2</pid><price>180.0</price></vendor><vendor><vid>Buy.com</vid><pid>P2</pid><price>200.0</price></vendor></product>|}
  in
  Alcotest.(check int) "one base statement" 1 (List.length p.Vu.p_ops);
  Alcotest.(check bool) "resolved to the single candidate" true
    (List.exists (fun v -> contains v "single product row") p.Vu.p_verdict);
  Alcotest.(check bool) "renamed in the document" true
    (contains (Xml.to_string (doc_of mgr "catalog")) {|name="LCD 19in"|})

let test_insert_vendor () =
  let mgr = mk_mgr () in
  let p =
    Vu.execute mgr
      "INSERT NODE <vendor><vid>Walmart</vid><pid>P3</pid><price>110</price></vendor> \
       INTO view('catalog')/product[@name = 'CRT 15']"
  in
  Alcotest.(check int) "one base statement" 1 (List.length p.Vu.p_ops);
  Alcotest.(check int) "vendor row added" 8 (List.length (table_rows mgr "vendor"));
  Alcotest.(check bool) "node visible" true
    (contains (Xml.to_string (doc_of mgr "catalog")) "<vid>Walmart</vid>")

let test_insert_errors () =
  let mgr = mk_mgr () in
  let expect_error frag text =
    match Vu.execute mgr text with
    | exception Vu.Error msg ->
      Alcotest.(check bool) (Printf.sprintf "error mentions %S" frag) true (contains msg frag)
    | _ -> Alcotest.failf "%S should have been refused" text
  in
  expect_error "primary key"
    "INSERT NODE <vendor><vid>Amazon</vid><pid>P1</pid><price>1</price></vendor> INTO \
     view('catalog')/product[@name = 'CRT 15']";
  expect_error "foreign key"
    "INSERT NODE <vendor><vid>Walmart</vid><pid>P9</pid><price>1</price></vendor> INTO \
     view('catalog')/product[@name = 'CRT 15']";
  expect_error "no underlying column"
    "INSERT NODE <vendor><vid>W</vid><pid>P1</pid><price>1</price><note>hi</note></vendor> \
     INTO view('catalog')/product[@name = 'CRT 15']"

(* --- ambiguity: rejection and the programmable strategies --- *)

let delete_crt = "DELETE NODE view('catalog')/product[@name = 'CRT 15']"

let test_ambiguous_delete_rejected () =
  let mgr = mk_mgr () in
  match Vu.execute mgr delete_crt with
  | _ -> Alcotest.fail "ambiguous delete must be rejected"
  | exception Vu.Rejected d ->
    Alcotest.(check int) "two candidate rows" 2 (List.length d.Vu.d_candidates);
    let pids =
      List.map (fun (_, row) -> Value.to_string row.(0)) d.Vu.d_candidates |> List.sort compare
    in
    Alcotest.(check (list string)) "P1 and P3 listed" [ "P1"; "P3" ] pids;
    Alcotest.(check int) "database untouched" 3 (List.length (table_rows mgr "product"));
    let text = Vu.render_diagnostic d in
    Alcotest.(check bool) "diagnostic names the statement" true (contains text delete_crt);
    Alcotest.(check bool) "diagnostic suggests strategies" true (contains text "strategy")

let test_all_candidates_strategy () =
  let mgr = mk_mgr () in
  Vu.set_strategy mgr ~view:"catalog" Vu.All_candidates;
  Fun.protect ~finally:(fun () -> Vu.clear_strategy mgr ~view:"catalog") @@ fun () ->
  let p = Vu.execute mgr delete_crt in
  (* P1 and P3 plus their five vendor offers, vendors deleted first *)
  Alcotest.(check int) "seven base statements" 7 (List.length p.Vu.p_ops);
  Alcotest.(check int) "both products gone" 1 (List.length (table_rows mgr "product"));
  Alcotest.(check int) "their vendors cascaded" 2 (List.length (table_rows mgr "vendor"));
  let doc = Xml.to_string (doc_of mgr "catalog") in
  Alcotest.(check bool) "CRT 15 gone from the document" false (contains doc "CRT 15");
  Alcotest.(check bool) "LCD 19 untouched" true (contains doc "LCD 19")

(* Deleting only the first candidate (P1) leaves 'CRT 15' visible through
   P3's two offers: the node the user deleted would survive, so the
   strategy-resolved translation must still fail verification. *)
let test_first_candidate_rejected_dynamically () =
  let mgr = mk_mgr () in
  match Vu.execute mgr ~strategy:Vu.First_candidate delete_crt with
  | _ -> Alcotest.fail "first-candidate delete must fail verification"
  | exception Vu.Rejected d ->
    Alcotest.(check bool) "side effects reported" true (d.Vu.d_side_effects <> []);
    Alcotest.(check int) "database untouched" 3 (List.length (table_rows mgr "product"));
    Alcotest.(check int) "vendors untouched" 7 (List.length (table_rows mgr "vendor"))

let test_custom_strategy () =
  let mgr = mk_mgr () in
  let seen = ref 0 in
  let strat =
    Vu.Custom
      (fun amb ->
        seen := List.length amb.Vu.amb_candidates;
        Some amb.Vu.amb_candidates)
  in
  let p = Vu.execute mgr ~strategy:strat delete_crt in
  Alcotest.(check int) "hook saw both candidates" 2 !seen;
  Alcotest.(check int) "seven base statements" 7 (List.length p.Vu.p_ops);
  Alcotest.(check int) "both products gone" 1 (List.length (table_rows mgr "product"))

(* Deleting Bestbuy's P2 offer drops 'LCD 19' to one vendor: the whole
   product node disappears from the view, a side effect on an untargeted
   node that the dynamic check must catch. *)
let test_visibility_flip_rejected () =
  let mgr = mk_mgr () in
  match
    Vu.execute mgr
      "DELETE NODE view('catalog')/product/vendor WHERE ./vid = 'Bestbuy' and ./pid = 'P2'"
  with
  | _ -> Alcotest.fail "visibility-flipping delete must be rejected"
  | exception Vu.Rejected d ->
    Alcotest.(check bool) "side effects reported" true (d.Vu.d_side_effects <> []);
    Alcotest.(check int) "vendors untouched" 7 (List.length (table_rows mgr "vendor"))

(* A vendor whose product group fails the count(>= 2) WHERE is not in the
   document, and so not in the vendor level either (the level carries its
   ancestor's predicate): view DML must find no node and refuse to touch
   its base row. *)
let test_hidden_node_rejected () =
  let mgr = mk_mgr () in
  let db = Runtime.database mgr in
  Database.insert_rows db ~table:"product"
    [ [| Value.String "P4"; Value.String "Plasma 42"; Value.String "LG" |] ];
  Database.insert_rows db ~table:"vendor"
    [ [| Value.String "Newegg"; Value.String "P4"; Value.Float 900.0 |] ];
  Alcotest.(check bool) "the node is not in the document" false
    (contains (Xml.to_string (doc_of mgr "catalog")) "Newegg");
  let expect_no_match text =
    match Vu.execute mgr text with
    | _ -> Alcotest.failf "%S must fail: the node is not in the view" text
    | exception Vu.Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "error %S says no node matches" msg)
        true (contains msg "no node matches")
  in
  expect_no_match
    "REPLACE NODE view('catalog')/product/vendor[./vid = 'Newegg'] WITH \
     <vendor><vid>Newegg</vid><pid>P4</pid><price>850</price></vendor>";
  expect_no_match "DELETE NODE view('catalog')/product/vendor WHERE ./vid = 'Newegg'";
  match
    Table.find_pk (Database.get_table db "vendor") [ Value.String "Newegg"; Value.String "P4" ]
  with
  | Some row ->
    Alcotest.(check bool) "base row untouched" true (Value.equal row.(2) (Value.Float 900.0))
  | None -> Alcotest.fail "the hidden node's base row was deleted"

(* A trigger that raises mid-plan must not leave the verified-atomic
   translation half-applied: the base statements already executed (and the
   one in flight) are compensated, and the database comes back unchanged. *)
let test_midplan_abort_rolls_back () =
  let mgr = mk_mgr () in
  Runtime.register_action mgr ~name:"boom" (fun _ -> failwith "boom");
  Runtime.create_trigger mgr
    "CREATE TRIGGER boom AFTER DELETE ON view('catalog')/product DO boom(OLD_NODE)";
  let before = Xml.to_string (doc_of mgr "catalog") in
  (match Vu.execute mgr ~strategy:Vu.All_candidates delete_crt with
  | _ -> Alcotest.fail "the raising trigger must abort the view update"
  | exception Failure _ -> ()
  | exception Vu.Error msg -> Alcotest.failf "compensation must succeed and re-raise: %s" msg);
  Alcotest.(check int) "products restored" 3 (List.length (table_rows mgr "product"));
  Alcotest.(check int) "vendors restored" 7 (List.length (table_rows mgr "vendor"));
  Alcotest.(check string) "document restored" before (Xml.to_string (doc_of mgr "catalog"))

let test_explain () =
  let mgr = mk_mgr () in
  let before = Xml.to_string (doc_of mgr "catalog") in
  let text =
    Vu.explain mgr
      "REPLACE NODE view('catalog')/product/vendor[./vid = 'Amazon'] WITH \
       <vendor><vid>Amazon</vid><pid>P1</pid><price>95</price></vendor>"
  in
  Alcotest.(check bool) "shows the translated DML" true
    (contains text "UPDATE vendor SET price = 95.0 WHERE vid = 'Amazon' AND pid = 'P1'");
  Alcotest.(check bool) "shows the safety verdict" true (contains text "statically safe");
  Alcotest.(check bool) "not executed" true (contains text "(not executed)");
  Alcotest.(check string) "database untouched" before (Xml.to_string (doc_of mgr "catalog"));
  (* explain never raises on rejection; it renders the diagnostic *)
  let rejected = Vu.explain mgr delete_crt in
  Alcotest.(check bool) "renders the rejection" true (contains rejected "rejected:");
  Alcotest.(check bool) "lists candidates" true (contains rejected "P3")

(* --- audit provenance: view DML tagged in the firing lineage --- *)

let test_audit_origin () =
  let mgr = mk_mgr () in
  Runtime.register_action mgr ~name:"note" (fun _ -> ());
  Runtime.create_trigger mgr
    "CREATE TRIGGER pricewatch AFTER UPDATE ON view('catalog')/product/vendor WHERE \
     NEW_NODE/price < OLD_NODE/price DO note(NEW_NODE)";
  Runtime.set_audit mgr true;
  let stmt =
    "REPLACE NODE view('catalog')/product/vendor[./vid = 'Amazon'] WITH \
     <vendor><vid>Amazon</vid><pid>P1</pid><price>95</price></vendor>"
  in
  ignore (Vu.execute mgr stmt);
  (match Runtime.audit_records mgr with
  | [] -> Alcotest.fail "expected an audit record"
  | r :: _ ->
    Alcotest.(check string) "record carries the view-DML text" stmt r.Obs.Audit.origin);
  let why = Runtime.why mgr 1 in
  Alcotest.(check bool) "why shows the origin line" true (contains why "origin");
  Alcotest.(check bool) "why shows the statement" true (contains why "REPLACE NODE");
  Alcotest.(check bool) "origin is valid in the JSON export" true
    (contains (Runtime.audit_json mgr) "\"origin\"");
  (* direct relational DML carries no origin *)
  Runtime.audit_clear mgr;
  ignore
    (Database.update_pk (Runtime.database mgr) ~table:"vendor"
       ~pk:[ Value.String "Amazon"; Value.String "P1" ]
       ~set:(fun row -> [| row.(0); row.(1); Value.Float 90.0 |]));
  match Runtime.audit_records mgr with
  | r :: _ -> Alcotest.(check string) "direct DML origin empty" "" r.Obs.Audit.origin
  | [] -> Alcotest.fail "expected an audit record for the direct update"

(* --- durability: view DML replays identically after a crash --- *)

let dir_counter = ref 0

let fresh_dir name =
  incr dir_counter;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "trigview_vu_%d_%d_%s" (Unix.getpid ()) !dir_counter name)
  in
  let rec rm_rf path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  rm_rf dir;
  dir

let test_crash_recovery () =
  let dir = fresh_dir "vdml" in
  let mgr = mk_mgr () in
  Runtime.attach_durability mgr ~data_dir:dir;
  let stmt =
    "REPLACE NODE view('catalog')/product/vendor[./vid = 'Amazon'] WITH \
     <vendor><vid>Amazon</vid><pid>P1</pid><price>95</price></vendor>"
  in
  ignore (Vu.execute mgr stmt);
  ignore
    (Vu.execute mgr ~strategy:Vu.All_candidates
       "DELETE NODE view('catalog')/product[@name = 'CRT 15']");
  let doc_before = Xml.to_string ~canonical:true (doc_of mgr "catalog") in
  Runtime.durability_sync mgr;
  (* crash: abandon the runtime, recover from disk (no checkpoint taken
     since the view DML, so the translated statements replay from the WAL) *)
  let r = Runtime.reopen ~data_dir:dir () in
  let mgr' = r.Runtime.runtime in
  Alcotest.(check int) "views re-armed" 1 r.Runtime.rearmed_views;
  Alcotest.(check string) "document identical after recovery" doc_before
    (Xml.to_string ~canonical:true (doc_of mgr' "catalog"));
  Alcotest.(check int) "products recovered" 1 (List.length (table_rows mgr' "product"));
  (* the provenance meta records travelled through recovery *)
  let vdml =
    List.filter (fun (kind, _, _) -> kind = "viewdml") r.Runtime.recovery.Durability.Recovery.meta
  in
  Alcotest.(check bool) "viewdml meta records recovered" true
    (List.exists (fun (_, _, payload) -> payload = stmt) vdml)

(* --- qcheck differential over the Table-2 workload ---

   Random view DML (leaf REPLACE / DELETE / INSERT) applied through the
   translator on instance A; the equivalent base DML applied directly on
   twin instance B.  Whenever A accepts, the extracted documents and the
   trigger firing logs must be identical; whenever A rejects, nothing is
   applied on either side. *)

(* num_satisfied = 1: the workload gives further satisfied triggers negative
   count thresholds, which the Materialized strategy's fallback condition
   evaluator does not parse (a pre-existing limitation orthogonal to view
   DML). *)
let diff_params =
  { W.depth = 3; leaf_tuples = 96; fanout = 8; num_triggers = 6; num_satisfied = 1 }

type wop =
  | Wrepl of int * int  (* leaf pick, new price *)
  | Wdel of int
  | Wins of int * int  (* leaf pick (its parent hosts the new node), price *)

let op_gen =
  QCheck.Gen.(
    frequency
      [ (5, map2 (fun l p -> Wrepl (l, p)) (int_bound 1000) (int_range 1 400));
        (2, map (fun l -> Wdel l) (int_bound 1000));
        (2, map2 (fun l p -> Wins (l, p)) (int_bound 1000) (int_range 1 400));
      ])

let build_instance strategy log =
  let built = W.build diff_params in
  let mgr = Runtime.create ~strategy built.W.db in
  Runtime.define_view mgr ~name:"doc" built.W.view_text;
  Runtime.register_action mgr ~name:"record" (fun fi ->
      log :=
        ( fi.Runtime.fi_trigger,
          Database.string_of_event fi.Runtime.fi_event,
          Option.map (Xml.to_string ~canonical:true) fi.Runtime.fi_old,
          Option.map (Xml.to_string ~canonical:true) fi.Runtime.fi_new )
        :: !log);
  W.install_triggers mgr diff_params ~target_name:built.W.top_names.(0);
  (built, mgr)

let differential_case strategy ops =
  let log_a = ref [] and log_b = ref [] in
  let built_a, mgr_a = build_instance strategy log_a in
  let built_b, mgr_b = build_instance strategy log_b in
  let leaf_table = W.table_name diff_params.W.depth in
  let all_leaves = Array.concat (Array.to_list built_a.W.leaf_ids_of_top) in
  let fresh = ref 0 in
  List.iter
    (fun op ->
      let leaf_of i = all_leaves.(i mod Array.length all_leaves) in
      let row_of db leaf =
        Table.find_pk (Database.get_table db leaf_table) [ Value.String leaf ]
      in
      match op with
      | Wrepl (l, price) -> (
        let leaf = leaf_of l in
        let text =
          Printf.sprintf
            "REPLACE NODE view('doc')/e1/e2/e3[./id = '%s'] WITH \
             <e3><id>%s</id><price>%d</price></e3>"
            leaf leaf price
        in
        match Vu.execute mgr_a text with
        | _ ->
          ignore
            (Database.update_pk built_b.W.db ~table:leaf_table ~pk:[ Value.String leaf ]
               ~set:(fun row ->
                 let row = Array.copy row in
                 row.(Array.length row - 1) <- Value.Float (float_of_int price);
                 row))
        | exception (Vu.Error _ | Vu.Rejected _) -> ())
      | Wdel l -> (
        let leaf = leaf_of l in
        let text = Printf.sprintf "DELETE NODE view('doc')/e1/e2/e3[./id = '%s']" leaf in
        match Vu.execute mgr_a text with
        | _ -> ignore (Database.delete_pk built_b.W.db ~table:leaf_table ~pk:[ Value.String leaf ])
        | exception (Vu.Error _ | Vu.Rejected _) -> ())
      | Wins (l, price) -> (
        let leaf = leaf_of l in
        match row_of built_a.W.db leaf with
        | None -> ()
        | Some row ->
          let parent = Value.to_string row.(1) in
          incr fresh;
          let id = Printf.sprintf "new%d" !fresh in
          let text =
            Printf.sprintf
              "INSERT NODE <e3><id>%s</id><price>%d</price></e3> INTO \
               view('doc')/e1/e2[@id = '%s']"
              id price parent
          in
          (match Vu.execute mgr_a text with
          | _ ->
            Database.insert_rows built_b.W.db ~table:leaf_table
              [ [| Value.String id; Value.String parent; Value.Float (float_of_int price) |] ]
          | exception (Vu.Error _ | Vu.Rejected _) -> ())))
    ops;
  let doc mgr = Xml.to_string ~canonical:true (doc_of mgr "doc") in
  if doc mgr_a <> doc mgr_b then
    QCheck.Test.fail_reportf "documents diverged under %s"
      (Runtime.strategy_to_string strategy);
  if List.rev !log_a <> List.rev !log_b then
    QCheck.Test.fail_reportf "trigger firings diverged under %s"
      (Runtime.strategy_to_string strategy);
  true

let differential_test strategy =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "view DML = direct base DML (%s, compiled)"
         (Runtime.strategy_to_string strategy))
    ~count:4
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 2 6) op_gen))
    (differential_case strategy)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    (List.map differential_test
       [ Runtime.Ungrouped; Runtime.Grouped; Runtime.Grouped_agg; Runtime.Materialized ])

let () =
  Alcotest.run "viewupdate"
    [ ( "parse",
        [ Alcotest.test_case "verbs and errors" `Quick test_parse ] );
      ( "accepted updates",
        [ Alcotest.test_case "replace vendor price" `Quick test_replace_vendor_price;
          Alcotest.test_case "no-op replace" `Quick test_replace_noop;
          Alcotest.test_case "unanchored unique candidate" `Quick test_replace_unanchored_unique;
          Alcotest.test_case "insert vendor" `Quick test_insert_vendor;
          Alcotest.test_case "insert errors" `Quick test_insert_errors;
          Alcotest.test_case "explain" `Quick test_explain;
        ] );
      ( "ambiguity and strategies",
        [ Alcotest.test_case "ambiguous delete rejected" `Quick test_ambiguous_delete_rejected;
          Alcotest.test_case "all-candidates cascade" `Quick test_all_candidates_strategy;
          Alcotest.test_case "first-candidate fails verification" `Quick
            test_first_candidate_rejected_dynamically;
          Alcotest.test_case "custom hook" `Quick test_custom_strategy;
          Alcotest.test_case "visibility flip rejected" `Quick test_visibility_flip_rejected;
          Alcotest.test_case "hidden node rejected" `Quick test_hidden_node_rejected;
          Alcotest.test_case "mid-plan abort rolls back" `Quick test_midplan_abort_rolls_back;
        ] );
      ( "provenance",
        [ Alcotest.test_case "audit origin" `Quick test_audit_origin;
          Alcotest.test_case "crash recovery" `Quick test_crash_recovery;
        ] );
      ("differential (table 2)", qcheck_tests);
    ]
