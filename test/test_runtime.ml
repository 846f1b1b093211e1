(* End-to-end tests of the trigger manager: define a view, register actions,
   create XML triggers (§2.2 syntax), run DML, observe firings — under every
   strategy, which must all agree. *)

open Relkit

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

type recorded = {
  r_trigger : string;
  r_old : string option;
  r_new : string option;
}

let setup ?(strategy = Trigview.Runtime.Grouped_agg) () =
  let db = Fixtures.mk_db () in
  let mgr = Trigview.Runtime.create ~strategy db in
  Trigview.Runtime.define_view mgr ~name:"catalog" catalog_text;
  let log = ref [] in
  Trigview.Runtime.register_action mgr ~name:"notify" (fun fi ->
      log :=
        { r_trigger = fi.Trigview.Runtime.fi_trigger;
          r_old = Option.map (Xmlkit.Xml.to_string ~canonical:true) fi.Trigview.Runtime.fi_old;
          r_new = Option.map (Xmlkit.Xml.to_string ~canonical:true) fi.Trigview.Runtime.fi_new;
        }
        :: !log);
  (db, mgr, log)

let strategies =
  [ Trigview.Runtime.Ungrouped;
    Trigview.Runtime.Grouped;
    Trigview.Runtime.Grouped_agg;
    Trigview.Runtime.Materialized;
  ]

(* The §2.2 Notify trigger, verbatim. *)
let notify_trigger =
  {|CREATE TRIGGER Notify AFTER Update
ON view('catalog')/product
WHERE OLD_NODE/@name = 'CRT 15'
DO notify(NEW_NODE)|}

let test_notify_fires_on_price_update () =
  List.iter
    (fun strategy ->
      let db, mgr, log = setup ~strategy () in
      Trigview.Runtime.create_trigger mgr notify_trigger;
      Fixtures.update_vendor_price db ~vid:"Amazon" ~pid:"P1" ~price:75.0;
      (match !log with
      | [ r ] ->
        Alcotest.(check string)
          (Trigview.Runtime.strategy_to_string strategy ^ " trigger name")
          "Notify" r.r_trigger;
        let n = Xmlkit.Xml_parse.parse (Option.get r.r_new) in
        Alcotest.(check (option string)) "name attr" (Some "CRT 15") (Xmlkit.Xml.attr n "name");
        Alcotest.(check (list string)) "new price visible" [ "75.0" ]
          (Xmlkit.Xpath.select_strings n "/vendor[vid='Amazon']/price")
      | l ->
        Alcotest.failf "%s: expected 1 firing, got %d"
          (Trigview.Runtime.strategy_to_string strategy)
          (List.length l));
      (* updating an LCD 19 vendor must not fire (condition filters) *)
      log := [];
      Fixtures.update_vendor_price db ~vid:"Buy.com" ~pid:"P2" ~price:75.0;
      Alcotest.(check int)
        (Trigview.Runtime.strategy_to_string strategy ^ " condition filters")
        0 (List.length !log))
    strategies

let test_nested_insert_fires_update_trigger () =
  (* the §4.1 scenario through the whole system *)
  List.iter
    (fun strategy ->
      let db, mgr, log = setup ~strategy () in
      Trigview.Runtime.create_trigger mgr
        "CREATE TRIGGER t AFTER UPDATE ON view('catalog')/product DO notify(NEW_NODE)";
      Fixtures.insert_vendor db ~vid:"Amazon" ~pid:"P2" ~price:500.0;
      match !log with
      | [ r ] ->
        let n = Xmlkit.Xml_parse.parse (Option.get r.r_new) in
        Alcotest.(check (option string))
          (Trigview.Runtime.strategy_to_string strategy)
          (Some "LCD 19") (Xmlkit.Xml.attr n "name");
        Alcotest.(check int) "3 vendors now" 3
          (List.length (Xmlkit.Xml.children_named n "vendor"))
      | l ->
        Alcotest.failf "%s: expected 1 firing, got %d"
          (Trigview.Runtime.strategy_to_string strategy)
          (List.length l))
    strategies

let test_insert_and_delete_triggers () =
  List.iter
    (fun strategy ->
      let db, mgr, log = setup ~strategy () in
      Trigview.Runtime.create_trigger mgr
        "CREATE TRIGGER ti AFTER INSERT ON view('catalog')/product DO notify(NEW_NODE)";
      Trigview.Runtime.create_trigger mgr
        "CREATE TRIGGER td AFTER DELETE ON view('catalog')/product DO notify(OLD_NODE)";
      (* OLED enters the view when its second vendor appears *)
      Database.insert_rows db ~table:"product"
        [ [| Value.String "P4"; Value.String "OLED"; Value.String "LG" |] ];
      Fixtures.insert_vendor db ~vid:"Amazon" ~pid:"P4" ~price:900.0;
      Alcotest.(check int) "below threshold: nothing" 0 (List.length !log);
      Fixtures.insert_vendor db ~vid:"Bestbuy" ~pid:"P4" ~price:950.0;
      (match !log with
      | [ { r_trigger = "ti"; r_new = Some _; r_old = None } ] -> ()
      | _ ->
        Alcotest.failf "%s: expected INSERT firing"
          (Trigview.Runtime.strategy_to_string strategy));
      log := [];
      (* and leaves it when one vendor goes away *)
      Fixtures.delete_vendor db ~vid:"Amazon" ~pid:"P4";
      match !log with
      | [ { r_trigger = "td"; r_old = Some _; r_new = None } ] -> ()
      | _ ->
        Alcotest.failf "%s: expected DELETE firing"
          (Trigview.Runtime.strategy_to_string strategy))
    strategies

let test_grouping_shares_sql_triggers () =
  let db, mgr, _log = setup ~strategy:Trigview.Runtime.Grouped () in
  ignore db;
  let mk i name =
    Printf.sprintf
      "CREATE TRIGGER g%d AFTER UPDATE ON view('catalog')/product WHERE OLD_NODE/@name = '%s' DO notify(NEW_NODE)"
      i name
  in
  Trigview.Runtime.create_trigger mgr (mk 1 "CRT 15");
  let base = Trigview.Runtime.sql_trigger_count mgr in
  Trigview.Runtime.create_trigger mgr (mk 2 "CRT 15");
  Trigview.Runtime.create_trigger mgr (mk 3 "LCD 19");
  Trigview.Runtime.create_trigger mgr (mk 4 "Plasma 42");
  Alcotest.(check int) "no new SQL triggers for similar XML triggers" base
    (Trigview.Runtime.sql_trigger_count mgr)

let test_ungrouped_multiplies_sql_triggers () =
  let _db, mgr, _log = setup ~strategy:Trigview.Runtime.Ungrouped () in
  let mk i name =
    Printf.sprintf
      "CREATE TRIGGER g%d AFTER UPDATE ON view('catalog')/product WHERE OLD_NODE/@name = '%s' DO notify(NEW_NODE)"
      i name
  in
  Trigview.Runtime.create_trigger mgr (mk 1 "CRT 15");
  let base = Trigview.Runtime.sql_trigger_count mgr in
  Trigview.Runtime.create_trigger mgr (mk 2 "LCD 19");
  Alcotest.(check int) "each XML trigger gets its own SQL triggers" (2 * base)
    (Trigview.Runtime.sql_trigger_count mgr)

let test_grouped_dispatch_correctness () =
  (* triggers sharing constants and differing in constants must each fire
     exactly when their own condition holds *)
  List.iter
    (fun strategy ->
      let db, mgr, log = setup ~strategy () in
      let mk name const =
        Printf.sprintf
          "CREATE TRIGGER %s AFTER UPDATE ON view('catalog')/product WHERE OLD_NODE/@name = '%s' DO notify(NEW_NODE)"
          name const
      in
      Trigview.Runtime.create_trigger mgr (mk "crt_a" "CRT 15");
      Trigview.Runtime.create_trigger mgr (mk "crt_b" "CRT 15");
      Trigview.Runtime.create_trigger mgr (mk "lcd" "LCD 19");
      Fixtures.update_vendor_price db ~vid:"Amazon" ~pid:"P1" ~price:75.0;
      let fired = List.sort compare (List.map (fun r -> r.r_trigger) !log) in
      Alcotest.(check (list string))
        (Trigview.Runtime.strategy_to_string strategy)
        [ "crt_a"; "crt_b" ] fired;
      log := [];
      Fixtures.update_vendor_price db ~vid:"Buy.com" ~pid:"P2" ~price:60.0;
      let fired = List.map (fun r -> r.r_trigger) !log in
      Alcotest.(check (list string)) "lcd only" [ "lcd" ] fired)
    [ Trigview.Runtime.Ungrouped; Trigview.Runtime.Grouped; Trigview.Runtime.Grouped_agg ]

let test_count_condition () =
  List.iter
    (fun strategy ->
      let db, mgr, log = setup ~strategy () in
      Trigview.Runtime.create_trigger mgr
        "CREATE TRIGGER big AFTER UPDATE ON view('catalog')/product WHERE count(NEW_NODE/vendor) >= 3 DO notify(NEW_NODE)";
      (* LCD 19 goes from 2 to 3 vendors: fires *)
      Fixtures.insert_vendor db ~vid:"Walmart" ~pid:"P2" ~price:170.0;
      Alcotest.(check int)
        (Trigview.Runtime.strategy_to_string strategy ^ ": 3 vendors fires")
        1 (List.length !log);
      log := [];
      (* a price change on a 2-vendor product does not *)
      Fixtures.delete_vendor db ~vid:"Walmart" ~pid:"P2";
      log := [];
      Fixtures.update_vendor_price db ~vid:"Buy.com" ~pid:"P2" ~price:199.0;
      Alcotest.(check int) "2 vendors filtered" 0 (List.length !log))
    strategies

let test_no_op_statement_suppressed () =
  List.iter
    (fun strategy ->
      let db, mgr, log = setup ~strategy () in
      Trigview.Runtime.create_trigger mgr
        "CREATE TRIGGER t AFTER UPDATE ON view('catalog')/product DO notify(NEW_NODE)";
      ignore
        (Database.update_rows db ~table:"vendor" ~where:(fun _ -> true)
           ~set:(fun r -> Array.copy r));
      Alcotest.(check int)
        (Trigview.Runtime.strategy_to_string strategy ^ ": no-op suppressed")
        0 (List.length !log);
      (* irrelevant-column updates are pruned too (mfr is not in the view) *)
      ignore
        (Database.update_rows db ~table:"product" ~where:(fun _ -> true)
           ~set:(fun r -> [| r.(0); r.(1); Value.String "Acme" |]));
      Alcotest.(check int)
        (Trigview.Runtime.strategy_to_string strategy ^ ": irrelevant column pruned")
        0 (List.length !log))
    [ Trigview.Runtime.Ungrouped; Trigview.Runtime.Grouped; Trigview.Runtime.Grouped_agg ]

let test_errors_reported () =
  let _db, mgr, _ = setup () in
  let expect_error text =
    match Trigview.Runtime.create_trigger mgr text with
    | exception Trigview.Runtime.Error _ -> ()
    | () -> Alcotest.failf "expected an error for %s" text
  in
  expect_error "CREATE TRIGGER x AFTER UPDATE ON view('nope')/product DO notify(NEW_NODE)";
  expect_error "CREATE TRIGGER x AFTER UPDATE ON view('catalog')/widget DO notify(NEW_NODE)";
  expect_error "CREATE TRIGGER x AFTER UPDATE ON view('catalog')/product DO unregistered()";
  expect_error
    "CREATE TRIGGER x AFTER INSERT ON view('catalog')/product WHERE OLD_NODE/@name = 'x' DO notify(NEW_NODE)";
  expect_error "CREATE TRIGGER AFTER UPDATE ON view('catalog')/product DO notify()"

let test_theorem_1_rejection () =
  (* a view over a table without a primary key is not trigger-specifiable *)
  let db = Database.create () in
  Database.create_table db
    (Schema.make ~name:"nokeys" ~columns:[ ("a", Schema.TInt); ("b", Schema.TInt) ]
       ~primary_key:[] ());
  let mgr = Trigview.Runtime.create db in
  Trigview.Runtime.register_action mgr ~name:"notify" (fun _ -> ());
  match
    Trigview.Runtime.define_view mgr ~name:"v"
      "<v>{for $x in view(\"default\")/nokeys/row return <row>{$x/a}</row>}</v>"
  with
  | exception Trigview.Runtime.Error msg ->
    Alcotest.(check bool) "mentions Theorem 1" true
      (String.length msg > 0
      &&
      let lower = String.lowercase_ascii msg in
      let has sub =
        let n = String.length lower and m = String.length sub in
        let rec go i = i + m <= n && (String.sub lower i m = sub || go (i + 1)) in
        go 0
      in
      has "key" || has "theorem")
  | () -> Alcotest.fail "expected a Theorem 1 rejection"

let test_figure_16_structure () =
  (* the generated SQL for the paper's grouped trigger mirrors Figure 16:
     affected keys from both transition tables, counts grouped per affected
     key, the constants join, and the transition-table references *)
  let _db, mgr, _ = setup ~strategy:Trigview.Runtime.Grouped () in
  Trigview.Runtime.create_trigger mgr notify_trigger;
  let sqls = Trigview.Runtime.generated_sql mgr in
  let vendor_sql =
    match List.find_opt (fun (name, _) -> String.length name > 0 &&
        (let n = String.length name and m = String.length "vendor" in
         let rec go i = i + m <= n && (String.sub name i m = "vendor" || go (i + 1)) in
         go 0)) sqls with
    | Some (_, sql) -> sql
    | None -> Alcotest.fail "no vendor-table SQL trigger"
  in
  let contains frag =
    let n = String.length vendor_sql and m = String.length frag in
    let rec go i = i + m <= n && (String.sub vendor_sql i m = frag || go (i + 1)) in
    go 0
  in
  List.iter
    (fun frag ->
      if not (contains frag) then Alcotest.failf "Figure 16 fragment %S missing" frag)
    [ "WITH";  (* shared subplans as CTEs *)
      "FROM INSERTED";  (* Δ transition table *)
      "FROM DELETED";  (* ∇ transition table *)
      "GROUP BY";  (* the per-product count *)
      "COUNT(*)";
      "trigconsts";  (* the constants table *)
      "trig_ids";  (* dispatch column *)
      "EXCEPT SELECT * FROM INSERTED"  (* the B_old reconstruction *)
    ]

let test_drop_trigger () =
  let db, mgr, log = setup () in
  Trigview.Runtime.create_trigger mgr
    "CREATE TRIGGER t AFTER UPDATE ON view('catalog')/product DO notify(NEW_NODE)";
  Trigview.Runtime.drop_trigger mgr "t";
  Alcotest.(check int) "no sql triggers left" 0 (Trigview.Runtime.sql_trigger_count mgr);
  Fixtures.update_vendor_price db ~vid:"Amazon" ~pid:"P1" ~price:75.0;
  Alcotest.(check int) "no firings" 0 (List.length !log)

let test_generated_sql_inspectable () =
  let _db, mgr, _ = setup ~strategy:Trigview.Runtime.Grouped () in
  Trigview.Runtime.create_trigger mgr
    "CREATE TRIGGER t AFTER UPDATE ON view('catalog')/product WHERE OLD_NODE/@name = 'CRT 15' DO notify(NEW_NODE)";
  let sqls = Trigview.Runtime.generated_sql mgr in
  Alcotest.(check bool) "one per affected table" true (List.length sqls >= 2);
  let all = String.concat "\n" (List.map snd sqls) in
  let contains frag =
    let n = String.length all and m = String.length frag in
    let rec go i = i + m <= n && (String.sub all i m = frag || go (i + 1)) in
    go 0
  in
  List.iter
    (fun frag ->
      if not (contains frag) then Alcotest.failf "missing %S in generated SQL" frag)
    [ "trigconsts"; "INSERTED"; "DELETED"; "trig_ids" ]

let test_fallback_condition_path () =
  (* a condition the relational compiler cannot handle falls back to XPath
     over the tagged nodes, and still works *)
  List.iter
    (fun strategy ->
      let db, mgr, log = setup ~strategy () in
      Trigview.Runtime.create_trigger mgr
        "CREATE TRIGGER t AFTER UPDATE ON view('catalog')/product WHERE NEW_NODE/vendor/price < 80 DO notify(NEW_NODE)";
      Fixtures.update_vendor_price db ~vid:"Amazon" ~pid:"P1" ~price:75.0;
      Alcotest.(check int)
        (Trigview.Runtime.strategy_to_string strategy ^ ": fallback fires")
        1 (List.length !log);
      (* fresh database: a change keeping all prices >= 80 must not fire *)
      let db2, mgr2, log2 = setup ~strategy () in
      Trigview.Runtime.create_trigger mgr2
        "CREATE TRIGGER t AFTER UPDATE ON view('catalog')/product WHERE NEW_NODE/vendor/price < 80 DO notify(NEW_NODE)";
      Fixtures.update_vendor_price db2 ~vid:"Bestbuy" ~pid:"P1" ~price:110.0;
      Alcotest.(check int) "fallback filters" 0 (List.length !log2))
    strategies

let test_multi_row_statement_fires_per_node () =
  List.iter
    (fun strategy ->
      let db, mgr, log = setup ~strategy () in
      Trigview.Runtime.create_trigger mgr
        "CREATE TRIGGER t AFTER UPDATE ON view('catalog')/product DO notify(NEW_NODE)";
      ignore
        (Database.update_rows db ~table:"vendor" ~where:(fun _ -> true)
           ~set:(fun r -> [| r.(0); r.(1); Value.add r.(2) (Value.Float 5.0) |]));
      Alcotest.(check int)
        (Trigview.Runtime.strategy_to_string strategy ^ ": both products")
        2 (List.length !log))
    strategies

let test_nested_count_condition () =
  (* §5.1's hard case: count(NEW_NODE/vendor[./price < x]) >= y, with
     different (x, y) per trigger — grouped into ONE SQL trigger set whose
     plan joins a per-(node, constants) count subquery. *)
  List.iter
    (fun strategy ->
      let db, mgr, log = setup ~strategy () in
      let mk name x y =
        Printf.sprintf
          "CREATE TRIGGER %s AFTER UPDATE ON view('catalog')/product WHERE count(NEW_NODE/vendor[./price < %d]) >= %d DO notify(NEW_NODE)"
          name x y
      in
      Trigview.Runtime.create_trigger mgr (mk "cheap2" 130 2);
      let base = Trigview.Runtime.sql_trigger_count mgr in
      Trigview.Runtime.create_trigger mgr (mk "cheap1" 101 1);
      Trigview.Runtime.create_trigger mgr (mk "never" 50 3);
      if strategy = Trigview.Runtime.Grouped || strategy = Trigview.Runtime.Grouped_agg then
        Alcotest.(check int)
          (Trigview.Runtime.strategy_to_string strategy ^ ": one SQL trigger set")
          base
          (Trigview.Runtime.sql_trigger_count mgr);
      (* CRT 15 vendors: 100, 120, 150, 120, 140.  Update 150 -> 125:
         - cheap2 (price < 130, need >= 2): before 4? after: 100,120,125,120 →
           fires (the node changed and the condition holds);
         - cheap1 (price < 101, need >= 1): 100 qualifies → fires;
         - never (price < 50, need >= 3): no vendor qualifies → must not. *)
      Fixtures.update_vendor_price db ~vid:"Circuitcity" ~pid:"P1" ~price:125.0;
      let fired = List.sort compare (List.map (fun r -> r.r_trigger) !log) in
      Alcotest.(check (list string))
        (Trigview.Runtime.strategy_to_string strategy ^ ": correct members fire")
        [ "cheap1"; "cheap2" ] fired;
      (* an update to LCD 19 (prices 180, 200 -> 190): no vendor below 130 *)
      log := [];
      Fixtures.update_vendor_price db ~vid:"Buy.com" ~pid:"P2" ~price:190.0;
      Alcotest.(check (list string))
        (Trigview.Runtime.strategy_to_string strategy ^ ": filtered out")
        [] (List.map (fun r -> r.r_trigger) !log))
    strategies

let test_nested_count_zero_children_edge () =
  (* a condition satisfiable with zero qualifying children: count >= 0 *)
  let db, mgr, log = setup () in
  Trigview.Runtime.create_trigger mgr
    "CREATE TRIGGER z AFTER UPDATE ON view('catalog')/product WHERE count(NEW_NODE/vendor[./price < 10]) >= 0 DO notify(NEW_NODE)";
  Fixtures.update_vendor_price db ~vid:"Amazon" ~pid:"P1" ~price:99.0;
  Alcotest.(check int) "vacuous condition fires" 1 (List.length !log)

let test_stats_counters () =
  let db, mgr, _log = setup ~strategy:Trigview.Runtime.Grouped () in
  Trigview.Runtime.create_trigger mgr
    "CREATE TRIGGER t AFTER UPDATE ON view('catalog')/product DO notify(NEW_NODE)";
  Trigview.Runtime.reset_stats mgr;
  Fixtures.update_vendor_price db ~vid:"Amazon" ~pid:"P1" ~price:75.0;
  let s = Trigview.Runtime.stats mgr in
  Alcotest.(check bool) "fired" true (s.Trigview.Runtime.sql_firings >= 1);
  Alcotest.(check int) "one row" 1 s.Trigview.Runtime.rows_computed;
  Alcotest.(check int) "one dispatch" 1 s.Trigview.Runtime.actions_dispatched

(* --- trigger language parsing --- *)

let test_trigger_parser () =
  let t =
    Trigview.Trigger.parse
      "create trigger T after update on view('v')/x where OLD_NODE/@a = 'b' do f(NEW_NODE, count(NEW_NODE/y))"
  in
  Alcotest.(check string) "name" "T" t.Trigview.Trigger.name;
  Alcotest.(check bool) "event" true (t.Trigview.Trigger.event = Database.Update);
  Alcotest.(check string) "action" "f" t.Trigview.Trigger.action;
  Alcotest.(check int) "two args" 2 (List.length t.Trigview.Trigger.args);
  Alcotest.(check bool) "condition parsed" true (t.Trigview.Trigger.condition <> None);
  (* keywords inside string literals must not split the statement *)
  let t2 =
    Trigview.Trigger.parse
      "CREATE TRIGGER q AFTER DELETE ON view('v')/x WHERE OLD_NODE/@a = 'WHERE DO ON' DO g(OLD_NODE)"
  in
  Alcotest.(check string) "quoted keywords" "g" t2.Trigview.Trigger.action;
  (* no WHERE clause *)
  let t3 = Trigview.Trigger.parse "CREATE TRIGGER r AFTER INSERT ON view('v')/x DO h()" in
  Alcotest.(check bool) "no condition" true (t3.Trigview.Trigger.condition = None);
  Alcotest.(check int) "no args" 0 (List.length t3.Trigview.Trigger.args);
  (* round trip *)
  let printed = Trigview.Trigger.to_string t in
  let t' = Trigview.Trigger.parse printed in
  Alcotest.(check string) "roundtrip name" t.Trigview.Trigger.name t'.Trigview.Trigger.name;
  Alcotest.(check int) "roundtrip args" 2 (List.length t'.Trigview.Trigger.args)

(* --- literal action arguments (subscription payload tags) --- *)

let test_literal_action_args () =
  List.iter
    (fun strategy ->
      let db = Fixtures.mk_db () in
      let mgr = Trigview.Runtime.create ~strategy db in
      Trigview.Runtime.define_view mgr ~name:"catalog" catalog_text;
      let seen = ref [] in
      Trigview.Runtime.register_action mgr ~name:"tagged" (fun fi ->
          seen := fi.Trigview.Runtime.fi_args :: !seen);
      (* string and int literals, a negative literal (parsed as 0 - 5 and
         constant-folded back), and folded literal arithmetic *)
      Trigview.Runtime.create_trigger mgr
        "CREATE TRIGGER lit AFTER UPDATE ON view('catalog')/product WHERE \
         NEW_NODE/@name = 'CRT 15' DO tagged('feed-1', 42, -5, 2 + 3 * 4, NEW_NODE)";
      Fixtures.update_vendor_price db ~vid:"Amazon" ~pid:"P1" ~price:75.0;
      let name = Trigview.Runtime.strategy_to_string strategy in
      match !seen with
      | [ [ a; b; c; d; e ] ] ->
        Alcotest.(check bool) (name ^ ": string literal") true
          (a = Xqgm.Xval.Atom (Value.String "feed-1"));
        Alcotest.(check bool) (name ^ ": int literal") true
          (b = Xqgm.Xval.Atom (Value.Int 42));
        Alcotest.(check bool) (name ^ ": negative literal") true
          (c = Xqgm.Xval.Atom (Value.Int (-5)));
        Alcotest.(check bool) (name ^ ": folded arithmetic") true
          (d = Xqgm.Xval.Atom (Value.Int 14));
        Alcotest.(check bool) (name ^ ": node arg alongside literals") true
          (match e with
          | Xqgm.Xval.Node n -> Xmlkit.Xml.attr n "name" = Some "CRT 15"
          | _ -> false)
      | l -> Alcotest.failf "%s: expected 1 firing with 5 args, got %d" name (List.length l))
    strategies

(* --- GROUPED unsubscribe churn: constants rows and SQL triggers --- *)

let test_drop_trigger_constants_hygiene () =
  let db = Fixtures.mk_db () in
  let mgr = Trigview.Runtime.create ~strategy:Trigview.Runtime.Grouped db in
  Trigview.Runtime.define_view mgr ~name:"catalog" catalog_text;
  let log = ref [] in
  Trigview.Runtime.register_action mgr ~name:"notify" (fun fi ->
      log := fi.Trigview.Runtime.fi_trigger :: !log);
  let mk name pname =
    Printf.sprintf
      "CREATE TRIGGER %s AFTER UPDATE ON view('catalog')/product WHERE \
       NEW_NODE/@name = '%s' DO notify(NEW_NODE)"
      name pname
  in
  Trigview.Runtime.create_trigger mgr (mk "a" "CRT 15");
  Trigview.Runtime.create_trigger mgr (mk "b" "LCD 19");
  Trigview.Runtime.create_trigger mgr (mk "c" "CRT 15") (* shares a's row *);
  let consts_tables () =
    List.filter
      (fun n -> String.length n >= 10 && String.sub n 0 10 = "trigconsts")
      (Database.table_names db)
  in
  let consts_table =
    match consts_tables () with
    | [ t ] -> t
    | l -> Alcotest.failf "expected one constants table, got %d" (List.length l)
  in
  let rows () = Table.row_count (Database.get_table db consts_table) in
  Alcotest.(check int) "two rows: a+c share one" 2 (rows ());
  Trigview.Runtime.drop_trigger mgr "c";
  Alcotest.(check int) "shared row survives c's drop" 2 (rows ());
  (* the rewritten row must route to a alone, not to the dropped c *)
  Fixtures.update_vendor_price db ~vid:"Amazon" ~pid:"P1" ~price:75.0;
  Alcotest.(check (list string)) "only a fires after c dropped" [ "a" ] !log;
  Trigview.Runtime.drop_trigger mgr "a";
  Alcotest.(check int) "a's row removed with its last member" 1 (rows ());
  log := [];
  Fixtures.update_vendor_price db ~vid:"Amazon" ~pid:"P1" ~price:76.0;
  Alcotest.(check (list string)) "no stale firings" [] !log;
  Trigview.Runtime.drop_trigger mgr "b";
  Alcotest.(check int) "group empty: shared SQL triggers dropped" 0
    (Trigview.Runtime.sql_trigger_count mgr);
  Alcotest.(check (list string)) "constants table dropped with its group" []
    (consts_tables ());
  (* unsubscribe churn: repeated create/drop must not accrete state *)
  for _ = 1 to 10 do
    Trigview.Runtime.create_trigger mgr (mk "churn" "CRT 15");
    Trigview.Runtime.drop_trigger mgr "churn"
  done;
  Alcotest.(check (list string)) "churn leaves no tables" [] (consts_tables ());
  Alcotest.(check int) "churn leaves no SQL triggers" 0
    (Trigview.Runtime.sql_trigger_count mgr)

(* --- the trigger registry: member order, listing order, churn --- *)

let consts_rows db =
  List.concat_map
    (fun n ->
      if String.length n >= 10 && String.sub n 0 10 = "trigconsts" then
        Table.to_rows (Database.get_table db n)
      else [])
    (Database.table_names db)

let trig_ids_of row =
  match row.(1) with Value.String s -> s | v -> Alcotest.failf "trig_ids %s" (Value.to_string v)

(* Dropping the middle member of a shared constants row rewrites its
   trig_ids and keeps the others' dispatch order. *)
let test_drop_middle_member () =
  let db = Fixtures.mk_db () in
  let mgr = Trigview.Runtime.create ~strategy:Trigview.Runtime.Grouped db in
  Trigview.Runtime.define_view mgr ~name:"catalog" catalog_text;
  let log = ref [] in
  Trigview.Runtime.register_action mgr ~name:"notify" (fun fi ->
      log := fi.Trigview.Runtime.fi_trigger :: !log);
  List.iter
    (fun name ->
      Trigview.Runtime.create_trigger mgr
        (Printf.sprintf
           "CREATE TRIGGER %s AFTER UPDATE ON view('catalog')/product WHERE \
            NEW_NODE/@name = 'CRT 15' DO notify(NEW_NODE)"
           name))
    [ "a"; "b"; "c" ];
  Alcotest.(check (list string)) "one shared row" [ "a,b,c" ]
    (List.map trig_ids_of (consts_rows db));
  Fixtures.update_vendor_price db ~vid:"Amazon" ~pid:"P1" ~price:75.0;
  let before = List.rev !log in
  Alcotest.(check (list string)) "newest member dispatched first" [ "c"; "b"; "a" ] before;
  Trigview.Runtime.drop_trigger mgr "b";
  Alcotest.(check (list string)) "row rewritten without b" [ "a,c" ]
    (List.map trig_ids_of (consts_rows db));
  log := [];
  Fixtures.update_vendor_price db ~vid:"Amazon" ~pid:"P1" ~price:76.0;
  Alcotest.(check (list string)) "dispatch order unchanged" [ "c"; "a" ] (List.rev !log)

let test_trigger_names_newest_first () =
  let _, mgr, _ = setup ~strategy:Trigview.Runtime.Grouped () in
  let mk name =
    Printf.sprintf
      "CREATE TRIGGER %s AFTER UPDATE ON view('catalog')/product DO notify(NEW_NODE)" name
  in
  List.iter (fun n -> Trigview.Runtime.create_trigger mgr (mk n)) [ "x"; "y"; "z" ];
  Alcotest.(check (list string)) "newest first" [ "z"; "y"; "x" ]
    (Trigview.Runtime.trigger_names mgr);
  Trigview.Runtime.drop_trigger mgr "y";
  Trigview.Runtime.create_trigger mgr (mk "y");
  Alcotest.(check (list string)) "re-created trigger is newest" [ "y"; "z"; "x" ]
    (Trigview.Runtime.trigger_names mgr)

(* Churn differential over a small Table 2 database: a random history of
   creates and drops (each step toggles one trigger of a fixed pool, so
   re-creation is common) must leave a runtime that fires exactly like a
   fresh one armed with only the survivors, in their creation order.  The
   pool shares constants vectors: c0/c2/c4 watch name0, c1/c3 name1 (plain
   family); c5/c7 watch (name1, count >= 1), c6 (name0, count >= 1). *)

module Workload = Workloadlib.Workload

let churn_params =
  { Workload.depth = 3; leaf_tuples = 96; fanout = 8; num_triggers = 0; num_satisfied = 0 }

let pool_size = 8

(* the test's own name for a trigger's constants vector *)
let pool_key i = if i < 5 then Printf.sprintf "A/name%d" (i mod 2) else Printf.sprintf "B/name%d" (i mod 2)

let pool_text i =
  if i < 5 then
    Printf.sprintf
      "CREATE TRIGGER c%d AFTER UPDATE ON view('doc')/e1 WHERE NEW_NODE/@name = 'name%d' \
       DO record(NEW_NODE)"
      i (i mod 2)
  else
    Printf.sprintf
      "CREATE TRIGGER c%d AFTER UPDATE ON view('doc')/e1 WHERE NEW_NODE/@name = 'name%d' \
       and count(NEW_NODE/e2) >= 1 DO record(NEW_NODE)"
      i (i mod 2)

(* survivors of a toggle history, oldest (last) creation first *)
let survivors history =
  List.fold_left
    (fun armed i -> if List.mem i armed then List.filter (( <> ) i) armed else armed @ [ i ])
    [] history

(* Arms the history (or just [armed]), then runs a fixed DML script; returns
   each statement's firings, sorted, and the constants rows' trig_ids. *)
let churn_run ~strategy ops =
  let built = Workload.build churn_params in
  let db = built.Workload.db in
  let mgr = Trigview.Runtime.create ~strategy db in
  Trigview.Runtime.define_view mgr ~name:"doc" built.Workload.view_text;
  let fired = ref [] in
  Trigview.Runtime.register_action mgr ~name:"record" (fun fi ->
      fired :=
        ( fi.Trigview.Runtime.fi_trigger,
          Option.map (Xmlkit.Xml.to_string ~canonical:true) fi.Trigview.Runtime.fi_new )
        :: !fired);
  let armed = Hashtbl.create 8 in
  List.iter
    (fun i ->
      if Hashtbl.mem armed i then begin
        Trigview.Runtime.drop_trigger mgr (Printf.sprintf "c%d" i);
        Hashtbl.remove armed i
      end
      else begin
        Trigview.Runtime.create_trigger mgr (pool_text i);
        Hashtbl.replace armed i ()
      end)
    ops;
  let rename top name =
    ignore
      (Database.update_pk db ~table:"t1"
         ~pk:[ Value.String (Printf.sprintf "t1r%d" top) ]
         ~set:(fun r -> [| r.(0); Value.String name |]))
  in
  let script =
    [ (fun () -> Workload.update_leaf built ~top_index:0 ~step:1);
      (fun () -> Workload.update_leaf built ~top_index:1 ~step:2);
      (fun () -> Workload.update_leaf built ~top_index:2 ~step:3);
      (fun () -> rename 0 "name1");
      (fun () -> rename 0 "name0");
    ]
  in
  let log =
    List.map
      (fun stmt ->
        fired := [];
        stmt ();
        List.sort compare !fired)
      script
  in
  (log, List.sort compare (List.map trig_ids_of (consts_rows db)))

let churn_strategies =
  [ Trigview.Runtime.Grouped; Trigview.Runtime.Grouped_agg; Trigview.Runtime.Ungrouped;
    Trigview.Runtime.Materialized ]

let prop_churn_differential =
  QCheck.Test.make ~name:"churned registry = fresh registry of the survivors" ~count:15
    (QCheck.make
       ~print:QCheck.Print.(list int)
       QCheck.Gen.(list_size (int_range 1 24) (int_range 0 (pool_size - 1))))
    (fun history ->
      let alive = survivors history in
      let name i = Printf.sprintf "c%d" i in
      List.for_all
        (fun strategy ->
          let log, rows = churn_run ~strategy history in
          let fresh_log, fresh_rows = churn_run ~strategy alive in
          (* one row per distinct surviving vector (per trigger when
             ungrouped), naming its survivors in creation order *)
          let expected_rows =
            match strategy with
            | Trigview.Runtime.Materialized -> []
            | Trigview.Runtime.Ungrouped -> List.sort compare (List.map name alive)
            | _ ->
              List.sort_uniq compare (List.map pool_key alive)
              |> List.map (fun k ->
                     String.concat ","
                       (List.map name (List.filter (fun i -> pool_key i = k) alive)))
              |> List.sort compare
          in
          if log <> fresh_log then
            QCheck.Test.fail_reportf "%s: firing log differs from a fresh runtime"
              (Trigview.Runtime.strategy_to_string strategy);
          if rows <> expected_rows || fresh_rows <> expected_rows then
            QCheck.Test.fail_reportf "%s: constants rows [%s], expected [%s]"
              (Trigview.Runtime.strategy_to_string strategy)
              (String.concat " | " rows) (String.concat " | " expected_rows);
          true)
        churn_strategies)

let test_trigger_parser_errors () =
  let bad s =
    match Trigview.Trigger.parse s with
    | exception Trigview.Trigger.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "missing TRIGGER" true (bad "CREATE AFTER UPDATE ON x DO f()");
  Alcotest.(check bool) "bad event" true
    (bad "CREATE TRIGGER t AFTER UPSERT ON view('v')/x DO f()");
  Alcotest.(check bool) "missing action" true
    (bad "CREATE TRIGGER t AFTER UPDATE ON view('v')/x DO ");
  Alcotest.(check bool) "bad path" true (bad "CREATE TRIGGER t AFTER UPDATE ON $x DO f()");
  Alcotest.(check bool) "unbalanced args" true
    (bad "CREATE TRIGGER t AFTER UPDATE ON view('v')/x DO f(NEW_NODE")

let () =
  Alcotest.run "trigview-runtime"
    [ ( "trigger language",
        [ Alcotest.test_case "parser" `Quick test_trigger_parser;
          Alcotest.test_case "parse errors" `Quick test_trigger_parser_errors;
        ] );
      ( "end-to-end",
        [ Alcotest.test_case "2.2 Notify trigger" `Quick test_notify_fires_on_price_update;
          Alcotest.test_case "4.1 nested insert" `Quick test_nested_insert_fires_update_trigger;
          Alcotest.test_case "insert + delete events" `Quick test_insert_and_delete_triggers;
          Alcotest.test_case "count condition" `Quick test_count_condition;
          Alcotest.test_case "no-op + irrelevant-column suppression" `Quick
            test_no_op_statement_suppressed;
          Alcotest.test_case "multi-row statement" `Quick test_multi_row_statement_fires_per_node;
          Alcotest.test_case "fallback condition" `Quick test_fallback_condition_path;
          Alcotest.test_case "nested count condition (5.1)" `Quick test_nested_count_condition;
          Alcotest.test_case "nested count zero-children" `Quick
            test_nested_count_zero_children_edge;
        ] );
      ( "grouping",
        [ Alcotest.test_case "grouped shares SQL triggers" `Quick
            test_grouping_shares_sql_triggers;
          Alcotest.test_case "ungrouped multiplies them" `Quick
            test_ungrouped_multiplies_sql_triggers;
          Alcotest.test_case "grouped dispatch" `Quick test_grouped_dispatch_correctness;
        ] );
      ( "management",
        [ Alcotest.test_case "errors reported" `Quick test_errors_reported;
          Alcotest.test_case "Theorem 1 rejection" `Quick test_theorem_1_rejection;
          Alcotest.test_case "Figure 16 structure" `Quick test_figure_16_structure;
          Alcotest.test_case "drop trigger" `Quick test_drop_trigger;
          Alcotest.test_case "generated SQL" `Quick test_generated_sql_inspectable;
          Alcotest.test_case "stats" `Quick test_stats_counters;
          Alcotest.test_case "literal action args" `Quick test_literal_action_args;
          Alcotest.test_case "drop-trigger constants hygiene" `Quick
            test_drop_trigger_constants_hygiene;
        ] );
      ( "registry",
        [ Alcotest.test_case "drop middle member of a shared row" `Quick
            test_drop_middle_member;
          Alcotest.test_case "trigger_names newest first" `Quick
            test_trigger_names_newest_first;
          QCheck_alcotest.to_alcotest prop_churn_differential;
        ] );
    ]
