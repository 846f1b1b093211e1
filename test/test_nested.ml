(* Nested-path oracle suite: triggers and level readers on nested view paths
   against the literal oracle (Fixtures.oracle_nodes: materialize the
   document, select the path with XPath, diff by key).  A nested element is
   in the document only when its ancestors' predicates hold, so a level must
   not hold — nor a trigger fire for — an element whose parent the view's
   [where] hides.  Every case runs under all four strategies. *)

open Relkit
module Runtime = Trigview.Runtime
module Xml = Xmlkit.Xml

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

let strategies =
  [ Runtime.Ungrouped; Runtime.Grouped; Runtime.Grouped_agg; Runtime.Materialized ]

let canon n = Xml.to_string ~canonical:true n
let sorted_canon nodes = List.sort compare (List.map canon nodes)

(* Figure 2 plus product P4 "OLED 27" with the one vendor Solo: the
   catalog's count($vendors) >= 2 hides P4, so Solo is not in the
   document. *)
let solo_db () =
  let db = Fixtures.mk_db () in
  Database.insert_rows db ~table:"product"
    [ [| Fixtures.v_str "P4"; Fixtures.v_str "OLED 27"; Fixtures.v_str "Acme" |] ];
  Fixtures.insert_vendor db ~vid:"Solo" ~pid:"P4" ~price:300.0;
  db

(* A runtime over [db] with [view_text] published as [view], and one
   action per trigger event recording (event, OLD, NEW) of each firing. *)
let setup ~strategy ~view ~view_text db =
  let mgr = Runtime.create ~strategy db in
  Runtime.define_view mgr ~name:view view_text;
  let log = ref [] in
  Runtime.register_action mgr ~name:"record" (fun fi ->
      log :=
        ( fi.Runtime.fi_event,
          Option.map canon fi.Runtime.fi_old,
          Option.map canon fi.Runtime.fi_new )
        :: !log);
  (mgr, log)

let arm mgr ~view ~path events =
  List.iteri
    (fun i ev ->
      let verb, node =
        match ev with
        | Database.Insert -> ("INSERT", "NEW_NODE")
        | Database.Update -> ("UPDATE", "NEW_NODE")
        | Database.Delete -> ("DELETE", "OLD_NODE")
      in
      Runtime.create_trigger mgr
        (Printf.sprintf "CREATE TRIGGER t%d AFTER %s ON view('%s')%s DO record(%s)" i verb
           view path node))
    events

let catalog_view mgr =
  match Runtime.find_view mgr "catalog" with
  | Some v -> v
  | None -> Alcotest.fail "catalog not published"

let doc_vendors mgr =
  List.map snd
    (Fixtures.oracle_nodes
       (Ra_eval.ctx_of_db (Runtime.database mgr))
       (catalog_view mgr) ~xpath:"/product/vendor"
       ~key:(Fixtures.field_key [ "vid"; "pid" ]))

(* --- the two probe cases --- *)

let test_hidden_vendor_update () =
  List.iter
    (fun strategy ->
      let db = solo_db () in
      let mgr, log = setup ~strategy ~view:"catalog" ~view_text:catalog_text db in
      arm mgr ~view:"catalog" ~path:"/product/vendor" [ Database.Update ];
      Fixtures.update_vendor_price db ~vid:"Solo" ~pid:"P4" ~price:250.0;
      Alcotest.(check int) (Runtime.strategy_to_string strategy ^ ": hidden vendor fires nothing") 0
        (List.length !log);
      Fixtures.update_vendor_price db ~vid:"Amazon" ~pid:"P1" ~price:95.0;
      Alcotest.(check int) (Runtime.strategy_to_string strategy ^ ": a visible vendor fires") 1
        (List.length !log))
    strategies

let test_revealing_insert () =
  List.iter
    (fun strategy ->
      let db = solo_db () in
      let mgr, log = setup ~strategy ~view:"catalog" ~view_text:catalog_text db in
      arm mgr ~view:"catalog" ~path:"/product/vendor" [ Database.Insert ];
      let before = doc_vendors mgr in
      Fixtures.insert_vendor db ~vid:"Duo" ~pid:"P4" ~price:310.0;
      let after = doc_vendors mgr in
      let entered =
        List.filter (fun n -> not (List.exists (Xml.equal n) before)) after
      in
      Alcotest.(check int) (Runtime.strategy_to_string strategy ^ ": Solo and Duo enter") 2
        (List.length entered);
      Alcotest.(check (list string))
        (Runtime.strategy_to_string strategy ^ ": firings are the entering nodes")
        (sorted_canon entered)
        (List.sort compare (List.filter_map (fun (_, _, n) -> n) !log)))
    strategies

(* view_rows, view_nodes and read_level each return the document's vendors:
   7 while P4 is hidden, 9 once its second vendor reveals it. *)
let test_readers_match_document () =
  List.iter
    (fun strategy ->
      let db = solo_db () in
      let mgr, _ = setup ~strategy ~view:"catalog" ~view_text:catalog_text db in
      let check expected =
        let doc = sorted_canon (doc_vendors mgr) in
        let name what = Printf.sprintf "%s: %s" (Runtime.strategy_to_string strategy) what in
        Alcotest.(check int) (name "document") expected (List.length doc);
        Alcotest.(check (list string)) (name "view_rows") doc
          (sorted_canon
             (List.map
                (fun r -> r.Runtime.vr_node)
                (Runtime.view_rows mgr ~view:"catalog" ~level:"vendor" ())));
        Alcotest.(check (list string)) (name "view_nodes") doc
          (sorted_canon (Runtime.view_nodes mgr ~path:"view('catalog')/product/vendor"));
        let lr = Runtime.read_level mgr ~view:"catalog" ~level:"vendor" () in
        Alcotest.(check (list string)) (name "read_level") doc
          (sorted_canon (lr.Runtime.lr_nodes lr.Runtime.lr_rows.Ra_eval.rows))
      in
      check 7;
      Fixtures.insert_vendor db ~vid:"Duo" ~pid:"P4" ~price:310.0;
      check 9)
    strategies

(* --- the property: firing log = the oracle's diff --- *)

type scenario = {
  sc_name : string;
  sc_db : unit -> Database.t;
  sc_view : string;
  sc_view_text : string;
  sc_path : string;  (* trigger path after view('...'); also the XPath *)
  sc_key : string list;
}

(* Every trigger event on [path]; after each statement the firings it
   caused must be exactly the oracle's inserted / updated / deleted nodes. *)
let firings_match_oracle sc stmts =
  List.for_all
    (fun strategy ->
      let db = sc.sc_db () in
      let mgr, log = setup ~strategy ~view:sc.sc_view ~view_text:sc.sc_view_text db in
      arm mgr ~view:sc.sc_view ~path:sc.sc_path
        [ Database.Insert; Database.Update; Database.Delete ];
      let view =
        match Runtime.find_view mgr sc.sc_view with
        | Some v -> v
        | None -> Alcotest.fail "view not published"
      in
      let nodes () =
        Fixtures.oracle_nodes (Ra_eval.ctx_of_db db) view ~xpath:sc.sc_path
          ~key:(Fixtures.field_key sc.sc_key)
      in
      List.for_all
        (fun stmt ->
          let before = nodes () in
          log := [];
          (try ignore (Sql.exec db stmt) with Sql.Error _ | Invalid_argument _ -> ());
          let d = Fixtures.oracle_diff before (nodes ()) in
          let expected =
            List.map (fun (_, n) -> (Database.Insert, None, Some (canon n))) d.inserted
            @ List.map (fun (_, o, n) -> (Database.Update, Some (canon o), Some (canon n))) d.updated
            @ List.map (fun (_, o) -> (Database.Delete, Some (canon o), None)) d.deleted
          in
          let ok = List.sort compare expected = List.sort compare !log in
          if not ok then
            QCheck.Test.fail_reportf "%s under %s, after %s: %d firings, oracle %d" sc.sc_name
              (Runtime.strategy_to_string strategy) stmt (List.length !log) (List.length expected);
          ok)
        stmts)
    strategies

let figure2 path key =
  { sc_name = "catalog" ^ path;
    sc_db = solo_db;
    sc_view = "catalog";
    sc_view_text = catalog_text;
    sc_path = path;
    sc_key = key;
  }

(* Vendor writes over P1..P4: inserts and deletes move products across
   count >= 2 (P2 has two vendors, P4 one), price updates change nodes in
   place. *)
let catalog_stmt_gen =
  let open QCheck.Gen in
  let vid = oneofl [ "Amazon"; "Bestbuy"; "Solo"; "Duo" ] in
  let pid = oneofl [ "P1"; "P2"; "P3"; "P4" ] in
  oneof
    [ map3
        (fun v p price -> Printf.sprintf "INSERT INTO vendor VALUES ('%s', '%s', %d.0)" v p price)
        vid pid (int_range 90 210);
      map2 (fun v p -> Printf.sprintf "DELETE FROM vendor WHERE vid = '%s' AND pid = '%s'" v p)
        vid pid;
      map2 (fun p price -> Printf.sprintf "UPDATE vendor SET price = %d.0 WHERE pid = '%s'" price p)
        pid (int_range 90 210);
    ]

(* Table 2 at depth 3, three e1, six e2 and twelve e3: each e2 has two
   leaves, so one leaf delete hides its e2 — and the e2's other leaf — and
   a leaf insert brings them back.  The count sits on e2, above the path's
   e3. *)
let table2_params =
  { Workloadlib.Workload.depth = 3; leaf_tuples = 12; fanout = 4; num_triggers = 0;
    num_satisfied = 0 }

let table2 () = Workloadlib.Workload.build table2_params

let table2_scenario path key =
  let built = table2 () in
  { sc_name = "doc" ^ path;
    sc_db = (fun () -> (table2 ()).Workloadlib.Workload.db);
    sc_view = "doc";
    sc_view_text = built.Workloadlib.Workload.view_text;
    sc_path = path;
    sc_key = key;
  }

let leaf_stmt_gen =
  let open QCheck.Gen in
  let leaf = map (Printf.sprintf "t3r%d") (int_bound 11) in
  let fresh = map (Printf.sprintf "t3n%d") (int_bound 3) in
  let parent = map (Printf.sprintf "t2r%d") (int_bound 5) in
  oneof
    [ map3
        (fun id p price -> Printf.sprintf "INSERT INTO t3 VALUES ('%s', '%s', %d.0)" id p price)
        (oneof [ leaf; fresh ]) parent (int_range 50 300);
      map (Printf.sprintf "DELETE FROM t3 WHERE id = '%s'") (oneof [ leaf; fresh ]);
      map2 (fun id price -> Printf.sprintf "UPDATE t3 SET price = %d.0 WHERE id = '%s'" price id)
        leaf (int_range 50 300);
      map2 (fun id p -> Printf.sprintf "UPDATE t3 SET parent = '%s' WHERE id = '%s'" p id) leaf parent;
    ]

(* View DML on a nested level probes that level, which carries its
   ancestors' predicates: a leaf REPLACE stays on the anchored fast path,
   and once its e2 falls below count >= 2 the leaf is no node at all. *)
let test_view_dml_nested_probe () =
  let built = Workloadlib.Workload.build table2_params in
  let db = built.Workloadlib.Workload.db in
  let mgr, _ = setup ~strategy:Runtime.Grouped_agg ~view:"doc"
      ~view_text:built.Workloadlib.Workload.view_text db in
  let replace =
    "REPLACE NODE view('doc')/e1/e2/e3[./id = 't3r0'] WITH <e3><id>t3r0</id><price>77</price></e3>"
  in
  Alcotest.(check (list string)) "fast-path verdict"
    [ "anchored: level key pins one row by primary key";
      "statically safe: the changed columns feed only this node's constructor";
    ]
    (Viewupdate.plan mgr replace).Viewupdate.p_verdict;
  ignore (Sql.exec db "DELETE FROM t3 WHERE id = 't3r1'");
  (match Viewupdate.execute mgr replace with
  | _ -> Alcotest.fail "a leaf under a hidden e2 is not in the view"
  | exception Viewupdate.Error msg ->
    Alcotest.(check bool) msg true
      (String.length msg >= 15 && String.sub msg 0 15 = "no node matches"));
  match Table.find_pk (Database.get_table db "t3") [ Value.String "t3r0" ] with
  | Some row -> Alcotest.(check bool) "base row untouched" false (Value.equal row.(2) (Value.Float 77.0))
  | None -> Alcotest.fail "t3r0 vanished"

let prop sc gen ~count =
  QCheck.Test.make ~name:(Printf.sprintf "firings on %s = oracle diff" sc.sc_name) ~count
    (QCheck.make ~print:(String.concat "; ") (QCheck.Gen.list_size (QCheck.Gen.int_range 1 6) gen))
    (firings_match_oracle sc)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop (figure2 "/product" [ "@name" ]) catalog_stmt_gen ~count:15;
      prop (figure2 "/product/vendor" [ "vid"; "pid" ]) catalog_stmt_gen ~count:25;
      prop (table2_scenario "/e1/e2/e3" [ "id" ]) leaf_stmt_gen ~count:25;
    ]

let () =
  Alcotest.run "nested"
    [ ( "visibility",
        [ Alcotest.test_case "hidden vendor update fires nothing" `Quick test_hidden_vendor_update;
          Alcotest.test_case "revealing insert fires both" `Quick test_revealing_insert;
          Alcotest.test_case "readers match the document" `Quick test_readers_match_document;
          Alcotest.test_case "view DML probes the nested level" `Quick test_view_dml_nested_probe;
        ] );
      ("oracle", qcheck_tests);
    ]
