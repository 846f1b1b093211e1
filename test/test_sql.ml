(* Tests for the SQL front-end over the relational substrate. *)

open Relkit

let setup () =
  let db = Database.create () in
  let script =
    {|
    CREATE TABLE product (pid VARCHAR PRIMARY KEY, pname VARCHAR, mfr VARCHAR);
    CREATE TABLE vendor (vid VARCHAR, pid VARCHAR, price FLOAT,
                         PRIMARY KEY (vid, pid),
                         FOREIGN KEY (pid) REFERENCES product (pid));
    CREATE INDEX ON vendor (pid);
    INSERT INTO product VALUES ('P1', 'CRT 15', 'Samsung'),
                               ('P2', 'LCD 19', 'Samsung'),
                               ('P3', 'CRT 15', 'Viewsonic');
    INSERT INTO vendor VALUES ('Amazon', 'P1', 100.0), ('Bestbuy', 'P1', 120.0),
                              ('Circuitcity', 'P1', 150.0), ('Buy.com', 'P2', 200.0),
                              ('Bestbuy', 'P2', 180.0), ('Bestbuy', 'P3', 120.0),
                              ('Circuitcity', 'P3', 140.0);
    |}
  in
  ignore (Sql.exec_script db script);
  db

let rows db q =
  match Sql.exec db q with
  | Sql.Rows rel -> rel
  | _ -> Alcotest.fail "expected rows"

let affected db q =
  match Sql.exec db q with
  | Sql.Affected n -> n
  | _ -> Alcotest.fail "expected an affected count"

let cell rel i j = Value.to_string (List.nth rel.Ra_eval.rows i).(j)

let test_ddl_and_insert () =
  let db = setup () in
  Alcotest.(check int) "products" 3
    (Table.row_count (Database.get_table db "product"));
  Alcotest.(check int) "vendors" 7 (Table.row_count (Database.get_table db "vendor"));
  Alcotest.(check bool) "index created" true
    (Table.has_index (Database.get_table db "vendor") "pid")

let test_select_where_order () =
  let db = setup () in
  let rel =
    rows db "SELECT vid, price FROM vendor WHERE pid = 'P1' ORDER BY price DESC"
  in
  Alcotest.(check int) "3 rows" 3 (List.length rel.Ra_eval.rows);
  Alcotest.(check string) "most expensive first" "Circuitcity" (cell rel 0 0)

let test_select_star_and_aliases () =
  let db = setup () in
  let rel = rows db "SELECT * FROM product" in
  Alcotest.(check int) "arity" 3 (Array.length rel.Ra_eval.cols);
  let rel =
    rows db "SELECT pname AS name, mfr maker FROM product WHERE pid = 'P2'"
  in
  Alcotest.(check (array string)) "aliases" [| "name"; "maker" |] rel.Ra_eval.cols;
  Alcotest.(check string) "value" "LCD 19" (cell rel 0 0)

let test_join_two_tables () =
  let db = setup () in
  let rel =
    rows db
      "SELECT p.pname, v.vid FROM product p, vendor v WHERE p.pid = v.pid AND v.price > 150 ORDER BY vid"
  in
  Alcotest.(check int) "2 expensive offers" 2 (List.length rel.Ra_eval.rows);
  Alcotest.(check string) "bestbuy" "Bestbuy" (cell rel 0 1);
  (* equi conjuncts must have landed in the join, not a post-filter over a
     cross product: check via scan accounting that no quadratic blowup
     happened is overkill here, but at least the result is right *)
  Alcotest.(check string) "lcd" "LCD 19" (cell rel 0 0)

let test_group_by_having () =
  let db = setup () in
  let rel =
    rows db
      "SELECT pid, COUNT(*) AS n, MIN(price) AS cheapest FROM vendor GROUP BY pid HAVING COUNT(*) >= 2 ORDER BY pid"
  in
  Alcotest.(check int) "3 groups" 3 (List.length rel.Ra_eval.rows);
  Alcotest.(check string) "P1 count" "3" (cell rel 0 1);
  Alcotest.(check string) "P1 min" "100.0" (cell rel 0 2)

let test_scalar_aggregate () =
  let db = setup () in
  let rel = rows db "SELECT COUNT(*) AS n, AVG(price) AS avgp FROM vendor" in
  Alcotest.(check string) "count" "7" (cell rel 0 0);
  Alcotest.(check bool) "avg around 144" true
    (match (List.hd rel.Ra_eval.rows).(1) with
    | Value.Float f -> f > 144.0 && f < 145.0
    | _ -> false)

let test_update_delete () =
  let db = setup () in
  Alcotest.(check int) "one updated" 1
    (affected db "UPDATE vendor SET price = price - 25 WHERE vid = 'Amazon'");
  let rel = rows db "SELECT price FROM vendor WHERE vid = 'Amazon'" in
  Alcotest.(check string) "new price" "75.0" (cell rel 0 0);
  Alcotest.(check int) "two deleted" 2 (affected db "DELETE FROM vendor WHERE price >= 180");
  Alcotest.(check int) "5 left" 5 (Table.row_count (Database.get_table db "vendor"))

let test_dml_fires_triggers () =
  let db = setup () in
  let fired = ref 0 in
  Database.create_trigger db
    { Database.trig_name = "t";
      trig_table = "vendor";
      trig_event = Database.Update;
      relevance = None;
      sql_text = "(test)";
      body = (fun ctx -> fired := List.length ctx.Database.inserted);
    };
  ignore (affected db "UPDATE vendor SET price = price + 1 WHERE pid = 'P1'");
  Alcotest.(check int) "statement trigger saw 3 rows" 3 !fired

let test_insert_with_column_list () =
  let db = setup () in
  ignore (affected db "INSERT INTO product (pid, pname, mfr) VALUES ('P4', 'OLED', 'LG')");
  let rel = rows db "SELECT pname FROM product WHERE pid = 'P4'" in
  Alcotest.(check string) "inserted" "OLED" (cell rel 0 0)

let test_null_handling () =
  let db = setup () in
  ignore (Sql.exec db "CREATE TABLE t (a INT PRIMARY KEY, b INT)");
  ignore (Sql.exec db "INSERT INTO t VALUES (1, NULL), (2, 5)");
  let rel = rows db "SELECT a FROM t WHERE b IS NULL" in
  Alcotest.(check string) "null row" "1" (cell rel 0 0);
  let rel = rows db "SELECT a FROM t WHERE b IS NOT NULL" in
  Alcotest.(check string) "non-null row" "2" (cell rel 0 0);
  (* comparisons with NULL match nothing *)
  let rel = rows db "SELECT a FROM t WHERE b <> 5" in
  Alcotest.(check int) "null never compares" 0 (List.length rel.Ra_eval.rows)

let test_plan_select_exposed () =
  let db = setup () in
  let plan = Sql.plan_select db "SELECT pid FROM vendor WHERE price < 130" in
  let rel = Ra_eval.eval (Ra_eval.ctx_of_db db) plan in
  Alcotest.(check int) "3 cheap offers" 3 (List.length rel.Ra_eval.rows)

let test_errors () =
  let db = setup () in
  let bad q =
    match Sql.exec db q with exception Sql.Error _ -> true | _ -> false
  in
  Alcotest.(check bool) "unknown table" true (bad "SELECT * FROM nope");
  Alcotest.(check bool) "unknown column" true (bad "SELECT nope FROM product");
  Alcotest.(check bool) "ambiguous column" true
    (bad "SELECT pid FROM product p, vendor v WHERE p.pid = v.pid");
  Alcotest.(check bool) "aggregate in where" true
    (bad "SELECT pid FROM vendor WHERE COUNT(*) > 1");
  Alcotest.(check bool) "bare select item under group" true
    (bad "SELECT vid FROM vendor GROUP BY pid");
  Alcotest.(check bool) "syntax" true (bad "SELEC pid FROM vendor");
  Alcotest.(check bool) "fk violation" true
    (bad "INSERT INTO vendor VALUES ('X', 'P9', 1.0)");
  Alcotest.(check bool) "duplicate pk" true
    (bad "INSERT INTO product VALUES ('P1', 'dup', 'dup')");
  Alcotest.(check (option string)) "integer literal out of range"
    (Some "integer literal out of range")
    (match Sql.exec db "SELECT * FROM t WHERE a = 99999999999999999999" with
    | exception Sql.Error msg -> Some msg
    | _ -> None)

let test_case_insensitive_keywords () =
  let db = setup () in
  let rel = rows db "select PID from VENDOR where PRICE < 130 order by pid" in
  Alcotest.(check int) "case-insensitive" 3 (List.length rel.Ra_eval.rows)

let test_script_with_comments () =
  let db = Database.create () in
  let results =
    Sql.exec_script db
      {|-- a comment
        CREATE TABLE x (a INT PRIMARY KEY);
        INSERT INTO x VALUES (1), (2); -- trailing comment
        SELECT COUNT(*) AS n FROM x|}
  in
  match results with
  | [ Sql.Done; Sql.Affected 2; Sql.Rows rel ] ->
    Alcotest.(check string) "count" "2" (cell rel 0 0)
  | _ -> Alcotest.fail "unexpected script results"

let () =
  Alcotest.run "sql"
    [ ( "sql",
        [ Alcotest.test_case "ddl + insert" `Quick test_ddl_and_insert;
          Alcotest.test_case "select/where/order" `Quick test_select_where_order;
          Alcotest.test_case "star + aliases" `Quick test_select_star_and_aliases;
          Alcotest.test_case "join" `Quick test_join_two_tables;
          Alcotest.test_case "group by + having" `Quick test_group_by_having;
          Alcotest.test_case "scalar aggregate" `Quick test_scalar_aggregate;
          Alcotest.test_case "update + delete" `Quick test_update_delete;
          Alcotest.test_case "DML fires triggers" `Quick test_dml_fires_triggers;
          Alcotest.test_case "insert with column list" `Quick test_insert_with_column_list;
          Alcotest.test_case "null handling" `Quick test_null_handling;
          Alcotest.test_case "plan_select" `Quick test_plan_select_exposed;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "case insensitivity" `Quick test_case_insensitive_keywords;
          Alcotest.test_case "script + comments" `Quick test_script_with_comments;
        ] );
    ]
