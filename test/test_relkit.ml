(* Tests for the relational substrate: values, schemas, tables, the database
   with statement-level triggers, and the Ra executor. *)

open Relkit

let v_int i = Value.Int i
let v_str s = Value.String s
let v_float f = Value.Float f

(* --- Value --- *)

let test_value_compare () =
  Alcotest.(check bool) "null < int" true (Value.compare Value.Null (v_int 0) < 0);
  Alcotest.(check bool) "int/float numeric" true (Value.compare (v_int 2) (v_float 2.0) = 0);
  Alcotest.(check bool) "int < float" true (Value.compare (v_int 2) (v_float 2.5) < 0);
  Alcotest.(check bool) "string order" true (Value.compare (v_str "a") (v_str "b") < 0)

let test_value_sql_eq () =
  Alcotest.(check bool) "null <> null" false (Value.sql_eq Value.Null Value.Null);
  Alcotest.(check bool) "null <> 1" false (Value.sql_eq Value.Null (v_int 1));
  Alcotest.(check bool) "1 = 1.0" true (Value.sql_eq (v_int 1) (v_float 1.0))

let test_value_hash_consistent () =
  (* equal values must hash equally, including across Int/Float *)
  Alcotest.(check int) "hash 2 = hash 2.0" (Value.hash (v_int 2)) (Value.hash (v_float 2.0))

let test_value_arith () =
  Alcotest.(check bool) "int add" true (Value.equal (Value.add (v_int 2) (v_int 3)) (v_int 5));
  Alcotest.(check bool) "mixed mul" true
    (Value.equal (Value.mul (v_int 2) (v_float 1.5)) (v_float 3.0));
  Alcotest.(check bool) "null propagates" true (Value.is_null (Value.add Value.Null (v_int 1)));
  Alcotest.check_raises "div by zero" (Invalid_argument "Value.div: division by zero")
    (fun () -> ignore (Value.div (v_int 1) (v_int 0)))

let test_value_literals () =
  Alcotest.(check string) "string quoted" "'o''brien'" (Value.to_sql_literal (v_str "o'brien"));
  Alcotest.(check string) "null" "NULL" (Value.to_sql_literal Value.Null)

(* --- Schema --- *)

let product_schema =
  Schema.make ~name:"product"
    ~columns:[ ("pid", Schema.TString); ("pname", Schema.TString); ("mfr", Schema.TString) ]
    ~primary_key:[ "pid" ] ()

let vendor_schema =
  Schema.make ~name:"vendor"
    ~foreign_keys:
      [ { Schema.fk_columns = [ "pid" ]; fk_table = "product"; fk_ref_columns = [ "pid" ] } ]
    ~columns:[ ("vid", Schema.TString); ("pid", Schema.TString); ("price", Schema.TFloat) ]
    ~primary_key:[ "vid"; "pid" ] ()

let test_schema_basics () =
  Alcotest.(check (list string)) "columns" [ "pid"; "pname"; "mfr" ]
    (Schema.column_names product_schema);
  Alcotest.(check int) "col_index" 1 (Schema.col_index product_schema "pname");
  Alcotest.(check bool) "pk not nullable" false
    (List.find (fun c -> c.Schema.col_name = "pid") product_schema.Schema.columns)
      .Schema.nullable

let test_schema_rejects_bad_pk () =
  Alcotest.check_raises "unknown pk col"
    (Invalid_argument
       "Schema.make: primary key references unknown column \"nope\" in table \"t\"")
    (fun () ->
      ignore
        (Schema.make ~name:"t" ~columns:[ ("a", Schema.TInt) ] ~primary_key:[ "nope" ] ()))

let test_schema_validate_row () =
  let ok = Schema.validate_row product_schema [| v_str "P1"; v_str "CRT"; v_str "X" |] in
  Alcotest.(check bool) "valid" true (Result.is_ok ok);
  let bad_arity = Schema.validate_row product_schema [| v_str "P1" |] in
  Alcotest.(check bool) "arity" true (Result.is_error bad_arity);
  let bad_null = Schema.validate_row product_schema [| Value.Null; v_str "a"; v_str "b" |] in
  Alcotest.(check bool) "null pk" true (Result.is_error bad_null);
  let bad_type = Schema.validate_row product_schema [| v_str "P1"; v_int 3; v_str "b" |] in
  Alcotest.(check bool) "type" true (Result.is_error bad_type)

(* --- Table --- *)

let mk_product_table () =
  let t = Table.create product_schema in
  Table.insert_exn t [| v_str "P1"; v_str "CRT 15"; v_str "Samsung" |];
  Table.insert_exn t [| v_str "P2"; v_str "LCD 19"; v_str "Samsung" |];
  Table.insert_exn t [| v_str "P3"; v_str "CRT 15"; v_str "Viewsonic" |];
  t

let test_table_pk_lookup () =
  let t = mk_product_table () in
  Alcotest.(check int) "count" 3 (Table.row_count t);
  (match Table.find_pk t [ v_str "P2" ] with
  | Some row -> Alcotest.(check string) "pname" "LCD 19" (Value.to_string row.(1))
  | None -> Alcotest.fail "P2 not found");
  Alcotest.(check bool) "missing" true (Table.find_pk t [ v_str "P9" ] = None)

let test_table_duplicate_pk () =
  let t = mk_product_table () in
  Alcotest.check_raises "dup"
    (Invalid_argument "Table.insert: duplicate primary key (P1) in table \"product\"")
    (fun () -> Table.insert_exn t [| v_str "P1"; v_str "x"; v_str "y" |])

let test_table_secondary_index () =
  let t = mk_product_table () in
  Table.create_index t "pname";
  let crt = Table.lookup t ~column:"pname" (v_str "CRT 15") in
  Alcotest.(check int) "two CRT 15" 2 (List.length crt);
  (* index maintained across replace and delete *)
  ignore (Table.replace_exn t [| v_str "P1"; v_str "LED 20"; v_str "Samsung" |]);
  Alcotest.(check int) "one CRT 15 after update" 1
    (List.length (Table.lookup t ~column:"pname" (v_str "CRT 15")));
  Alcotest.(check int) "one LED 20" 1
    (List.length (Table.lookup t ~column:"pname" (v_str "LED 20")));
  ignore (Table.delete_pk t [ v_str "P3" ]);
  Alcotest.(check int) "none after delete" 0
    (List.length (Table.lookup t ~column:"pname" (v_str "CRT 15")))

let test_table_lookup_without_index_scans () =
  let t = mk_product_table () in
  let rows = Table.lookup t ~column:"mfr" (v_str "Samsung") in
  Alcotest.(check int) "scan fallback" 2 (List.length rows)

(* Regression: NULL keys used to be entered into secondary indexes, so an
   indexed lookup on NULL returned the NULL-keyed rows while the scan path
   (SQL semantics: NULL = NULL is unknown) returned nothing. *)
let test_table_null_keys_not_indexed () =
  let schema =
    Schema.make ~name:"n"
      ~columns:[ ("id", Schema.TInt); ("k", Schema.TString); ("m", Schema.TString) ]
      ~primary_key:[ "id" ] ()
  in
  let t = Table.create schema in
  Table.insert_exn t [| v_int 1; v_str "a"; Value.Null |];
  Table.insert_exn t [| v_int 2; Value.Null; Value.Null |];
  Table.insert_exn t [| v_int 3; Value.Null; v_str "x" |];
  (* index built over existing rows: NULLs skipped *)
  Table.create_index t "k";
  Alcotest.(check int) "index holds only the non-NULL key" 1 (Table.index_entry_count t "k");
  (* both lookup paths agree: NULL matches nothing *)
  Alcotest.(check int) "indexed NULL lookup empty" 0
    (List.length (Table.lookup t ~column:"k" Value.Null));
  Alcotest.(check int) "scan NULL lookup empty" 0
    (List.length (Table.lookup t ~column:"m" Value.Null));
  (* non-NULL lookups unaffected by NULL-keyed rows *)
  Alcotest.(check int) "indexed lookup" 1
    (List.length (Table.lookup t ~column:"k" (v_str "a")));
  (* incremental maintenance across NULL <-> non-NULL transitions *)
  ignore (Table.replace_exn t [| v_int 2; v_str "a"; Value.Null |]);
  Alcotest.(check int) "NULL -> 'a' enters index" 2
    (List.length (Table.lookup t ~column:"k" (v_str "a")));
  ignore (Table.replace_exn t [| v_int 1; Value.Null; Value.Null |]);
  Alcotest.(check int) "'a' -> NULL leaves index" 1
    (List.length (Table.lookup t ~column:"k" (v_str "a")));
  Alcotest.(check int) "still no NULL entry" 1 (Table.index_entry_count t "k");
  ignore (Table.delete_pk t [ v_int 3 ]);
  Alcotest.(check int) "deleting a NULL-keyed row is a no-op on the index" 1
    (Table.index_entry_count t "k")

(* --- Database: DML, constraints, triggers --- *)

let mk_db () =
  let db = Database.create () in
  Database.create_table db product_schema;
  Database.create_table db vendor_schema;
  Database.create_index db ~table:"vendor" ~column:"pid";
  Database.insert_rows db ~table:"product"
    [ [| v_str "P1"; v_str "CRT 15"; v_str "Samsung" |];
      [| v_str "P2"; v_str "LCD 19"; v_str "Samsung" |];
      [| v_str "P3"; v_str "CRT 15"; v_str "Viewsonic" |];
    ];
  Database.insert_rows db ~table:"vendor"
    [ [| v_str "Amazon"; v_str "P1"; v_float 100.0 |];
      [| v_str "Bestbuy"; v_str "P1"; v_float 120.0 |];
      [| v_str "Circuitcity"; v_str "P1"; v_float 150.0 |];
      [| v_str "Buy.com"; v_str "P2"; v_float 200.0 |];
      [| v_str "Bestbuy"; v_str "P2"; v_float 180.0 |];
      [| v_str "Bestbuy"; v_str "P3"; v_float 120.0 |];
      [| v_str "Circuitcity"; v_str "P3"; v_float 140.0 |];
    ];
  db

let test_db_fk_violation () =
  let db = mk_db () in
  Alcotest.check_raises "fk"
    (Invalid_argument "foreign key violation: (P9) not present in \"product\"(pid)")
    (fun () ->
      Database.insert_rows db ~table:"vendor" [ [| v_str "Alice"; v_str "P9"; v_float 1.0 |] ])

(* A rejected multi-row INSERT changes nothing: a batch whose second row
   repeats a key already in the table must not leave its first row behind
   (that row would reach neither the change hook nor any trigger). *)
let test_db_failed_batch_is_atomic () =
  let db = mk_db () in
  let changes = ref 0 and fired = ref 0 in
  Database.attach_durability db (fun _ -> incr changes);
  Database.create_trigger db
    { Database.trig_name = "t";
      trig_table = "vendor";
      trig_event = Database.Insert;
      relevance = None;
      sql_text = "(test)";
      body = (fun _ -> incr fired);
    };
  let vendor = Database.get_table db "vendor" in
  let rows0 = Table.row_count vendor and version0 = Table.version vendor in
  let fresh = [| v_str "Newco"; v_str "P1"; v_float 1.0 |] in
  let taken = [| v_str "Amazon"; v_str "P1"; v_float 2.0 |] in
  Alcotest.check_raises "table duplicate"
    (Invalid_argument "duplicate primary key on insert into \"vendor\"")
    (fun () -> Database.insert_rows db ~table:"vendor" [ fresh; taken ]);
  Alcotest.check_raises "batch duplicate reported first"
    (Invalid_argument "duplicate primary key within inserted batch")
    (fun () -> Database.insert_rows db ~table:"vendor" [ taken; fresh; fresh ]);
  Alcotest.(check int) "row count unchanged" rows0 (Table.row_count vendor);
  Alcotest.(check int) "version unchanged" version0 (Table.version vendor);
  Alcotest.(check bool) "first row absent" true
    (Table.find_pk vendor [ v_str "Newco"; v_str "P1" ] = None);
  Alcotest.(check int) "no change record" 0 !changes;
  Alcotest.(check int) "no trigger" 0 !fired;
  Database.insert_rows db ~table:"vendor" [ fresh ];
  Alcotest.(check int) "the valid row still inserts" (rows0 + 1) (Table.row_count vendor)

(* An UPDATE that moves a row onto a key held outside the victim set, or
   onto a missing parent, is rejected before anything is mutated; keys may
   still move among the victims themselves. *)
let test_db_failed_update_is_atomic () =
  let db = mk_db () in
  let changes = ref 0 and fired = ref 0 in
  Database.attach_durability db (fun _ -> incr changes);
  Database.create_trigger db
    { Database.trig_name = "t";
      trig_table = "vendor";
      trig_event = Database.Update;
      relevance = None;
      sql_text = "(test)";
      body = (fun _ -> incr fired);
    };
  let vendor = Database.get_table db "vendor" in
  let rows0 = Table.to_rows vendor and version0 = Table.version vendor in
  let rejected label stmt =
    match Sql.exec db stmt with
    | _ -> Alcotest.failf "%s: accepted" label
    | exception Sql.Error _ ->
      Alcotest.(check int) (label ^ ": 7 vendor rows") 7 (Table.row_count vendor);
      Alcotest.(check bool) (label ^ ": rows unchanged") true (Table.to_rows vendor = rows0);
      Alcotest.(check int) (label ^ ": version unchanged") version0 (Table.version vendor);
      Alcotest.(check int) (label ^ ": no change hook") 0 !changes;
      Alcotest.(check int) (label ^ ": no trigger") 0 !fired
  in
  rejected "key taken" "UPDATE vendor SET pid = 'P2' WHERE vid = 'Bestbuy' AND pid = 'P3'";
  rejected "two rows onto one key" "UPDATE vendor SET pid = 'P1' WHERE vid = 'Bestbuy'";
  rejected "missing parent" "UPDATE vendor SET pid = 'P9' WHERE vid = 'Amazon'";
  (* Bestbuy's P1 and P2 rows swap keys *)
  let swap r =
    let pid = if Value.equal r.(1) (v_str "P1") then "P2" else "P1" in
    [| r.(0); v_str pid; r.(2) |]
  in
  let n =
    Database.update_rows db ~table:"vendor"
      ~where:(fun r ->
        Value.equal r.(0) (v_str "Bestbuy")
        && (Value.equal r.(1) (v_str "P1") || Value.equal r.(1) (v_str "P2")))
      ~set:swap
  in
  Alcotest.(check int) "swap: two rows updated" 2 n;
  Alcotest.(check int) "swap: 7 vendor rows" 7 (Table.row_count vendor);
  Alcotest.(check (option (float 0.0))) "swap: P2's price moved to P1" (Some 180.0)
    (Option.map
       (fun r -> match r.(2) with Value.Float f -> f | _ -> nan)
       (Table.find_pk vendor [ v_str "Bestbuy"; v_str "P1" ]));
  Alcotest.(check int) "swap: one change record" 1 !changes;
  Alcotest.(check int) "swap: one firing" 1 !fired

let test_db_update_fires_trigger_with_transitions () =
  let db = mk_db () in
  let seen = ref None in
  Database.create_trigger db
    { Database.trig_name = "t1";
      trig_table = "vendor";
      trig_event = Database.Update;
      relevance = None;
      sql_text = "(test)";
      body = (fun ctx -> seen := Some (ctx.Database.inserted, ctx.Database.deleted));
    };
  let n =
    Database.update_rows db ~table:"vendor"
      ~where:(fun row -> Value.equal row.(0) (v_str "Amazon"))
      ~set:(fun row -> [| row.(0); row.(1); v_float 75.0 |])
  in
  Alcotest.(check int) "one row updated" 1 n;
  match !seen with
  | Some ([ ins ], [ del ]) ->
    Alcotest.(check string) "new price" "75.0" (Value.to_string ins.(2));
    Alcotest.(check string) "old price" "100.0" (Value.to_string del.(2))
  | _ -> Alcotest.fail "trigger did not fire with singleton transition tables"

let test_db_statement_level_firing () =
  let db = mk_db () in
  let fired = ref 0 in
  let delta_size = ref 0 in
  Database.create_trigger db
    { Database.trig_name = "t1";
      trig_table = "vendor";
      trig_event = Database.Update;
      relevance = None;
      sql_text = "(test)";
      body =
        (fun ctx ->
          incr fired;
          delta_size := List.length ctx.Database.inserted);
    };
  (* One statement touching 3 rows fires the trigger once with |delta| = 3. *)
  let n =
    Database.update_rows db ~table:"vendor"
      ~where:(fun row -> Value.equal row.(1) (v_str "P1"))
      ~set:(fun row -> [| row.(0); row.(1); Value.add row.(2) (v_float 1.0) |])
  in
  Alcotest.(check int) "three rows" 3 n;
  Alcotest.(check int) "fired once" 1 !fired;
  Alcotest.(check int) "delta has 3 rows" 3 !delta_size

let test_db_no_fire_on_empty_statement () =
  let db = mk_db () in
  let fired = ref 0 in
  Database.create_trigger db
    { Database.trig_name = "t1";
      trig_table = "vendor";
      trig_event = Database.Delete;
      relevance = None;
      sql_text = "(test)";
      body = (fun _ -> incr fired);
    };
  let n = Database.delete_rows db ~table:"vendor" ~where:(fun _ -> false) in
  Alcotest.(check int) "nothing deleted" 0 n;
  Alcotest.(check int) "not fired" 0 !fired

let test_db_insert_delete_events () =
  let db = mk_db () in
  let log = ref [] in
  List.iter
    (fun (name, event) ->
      Database.create_trigger db
        { Database.trig_name = name;
          trig_table = "vendor";
          trig_event = event;
      relevance = None;
          sql_text = "(test)";
          body =
            (fun ctx ->
              log :=
                (name, List.length ctx.Database.inserted, List.length ctx.Database.deleted)
                :: !log);
        })
    [ ("ins", Database.Insert); ("del", Database.Delete) ];
  Database.insert_rows db ~table:"vendor" [ [| v_str "Newegg"; v_str "P2"; v_float 190.0 |] ];
  ignore (Database.delete_pk db ~table:"vendor" ~pk:[ v_str "Newegg"; v_str "P2" ]);
  Alcotest.(check (list (triple string int int)))
    "events" [ ("del", 0, 1); ("ins", 1, 0) ] !log

let test_db_trigger_recursion_cap () =
  let db = mk_db () in
  (* each statement must genuinely change the row (identity updates are
     dropped before the firing path), so toggle pname back and forth *)
  let toggle row =
    let next = if Value.equal row.(1) (v_str "ping") then "pong" else "ping" in
    [| row.(0); v_str next; row.(2) |]
  in
  Database.create_trigger db
    { Database.trig_name = "loop";
      trig_table = "product";
      trig_event = Database.Update;
      relevance = None;
      sql_text = "(test)";
      body =
        (fun ctx ->
          ignore
            (Database.update_rows ctx.Database.db ~table:"product"
               ~where:(fun row -> Value.equal row.(0) (v_str "P1"))
               ~set:toggle));
    };
  Alcotest.check_raises "depth cap"
    (Invalid_argument "Database: trigger recursion depth exceeded")
    (fun () ->
      ignore
        (Database.update_rows db ~table:"product"
           ~where:(fun row -> Value.equal row.(0) (v_str "P1"))
           ~set:toggle))

let test_db_load_rows_skips_triggers () =
  let db = mk_db () in
  let fired = ref 0 in
  Database.create_trigger db
    { Database.trig_name = "t";
      trig_table = "vendor";
      trig_event = Database.Insert;
      relevance = None;
      sql_text = "(test)";
      body = (fun _ -> incr fired);
    };
  Database.load_rows db ~table:"vendor" [ [| v_str "Load"; v_str "P1"; v_float 1.0 |] ];
  Alcotest.(check int) "no fire" 0 !fired;
  Alcotest.(check int) "loaded" 8 (Table.row_count (Database.get_table db "vendor"))

(* --- Ra_eval --- *)

let ctx db = Ra_eval.ctx_of_db db

let scan_vendor db = Ra.scan (Ra.Base "vendor") (Table.schema (Database.get_table db "vendor"))

let scan_product db =
  Ra.scan (Ra.Base "product") (Table.schema (Database.get_table db "product"))

let test_ra_scan_select_project () =
  let db = mk_db () in
  let plan =
    Ra.Project
      ( [ ("vid", Ra.Col "vid") ],
        Ra.Select (Ra.Binop (Ra.Gt, Ra.Col "price", Ra.Const (v_float 150.0)), scan_vendor db)
      )
  in
  let rel = Ra_eval.eval (ctx db) plan in
  let vids = List.sort compare (List.map (fun r -> Value.to_string r.(0)) rel.Ra_eval.rows) in
  Alcotest.(check (list string)) "expensive vendors" [ "Bestbuy"; "Buy.com" ] vids

let join_plan db kind =
  Ra.Join
    ( kind,
      Ra.Binop (Ra.Eq, Ra.Col "pid", Ra.Col "v_pid"),
      scan_product db,
      Ra.Scan
        (Ra.Base "vendor", [ ("vid", "v_vid"); ("pid", "v_pid"); ("price", "v_price") ]) )

let test_ra_inner_join () =
  let db = mk_db () in
  let rel = Ra_eval.eval (ctx db) (join_plan db Ra.Inner) in
  Alcotest.(check int) "7 pairs" 7 (List.length rel.Ra_eval.rows)

let test_ra_inl_equals_hash_join () =
  let db = mk_db () in
  (* The vendor scan is index-probeable on pid; compare against the same join
     forced through a hash join by hiding the scan under a Distinct. *)
  let inl = Ra_eval.eval (ctx db) (join_plan db Ra.Inner) in
  let hash =
    Ra_eval.eval (ctx db)
      (Ra.Join
         ( Ra.Inner,
           Ra.Binop (Ra.Eq, Ra.Col "pid", Ra.Col "v_pid"),
           scan_product db,
           Ra.Distinct
             (Ra.Scan
                ( Ra.Base "vendor",
                  [ ("vid", "v_vid"); ("pid", "v_pid"); ("price", "v_price") ] )) ))
  in
  Alcotest.(check bool) "same result" true (Ra_eval.equal_rel inl hash)

let test_ra_left_outer_join () =
  let db = mk_db () in
  (* delete all P3 vendors, then left-outer join keeps P3 padded with nulls *)
  ignore
    (Database.delete_rows db ~table:"vendor" ~where:(fun row ->
         Value.equal row.(1) (v_str "P3")));
  let rel = Ra_eval.eval (ctx db) (join_plan db Ra.Left_outer) in
  let p3_rows = List.filter (fun r -> Value.equal r.(0) (v_str "P3")) rel.Ra_eval.rows in
  (match p3_rows with
  | [ row ] -> Alcotest.(check bool) "padded" true (Value.is_null row.(3))
  | _ -> Alcotest.fail "expected exactly one padded P3 row");
  Alcotest.(check int) "5 + 1 rows" 6 (List.length rel.Ra_eval.rows)

let test_ra_anti_joins () =
  let db = mk_db () in
  ignore
    (Database.delete_rows db ~table:"vendor" ~where:(fun row ->
         Value.equal row.(1) (v_str "P3")));
  let left_anti = Ra_eval.eval (ctx db) (join_plan db Ra.Left_anti) in
  Alcotest.(check int) "P3 has no vendors" 1 (List.length left_anti.Ra_eval.rows);
  let right_anti =
    Ra_eval.eval (ctx db)
      (Ra.Join
         ( Ra.Right_anti,
           Ra.Binop (Ra.Eq, Ra.Col "pid", Ra.Col "v_pid"),
           Ra.Select (Ra.Binop (Ra.Eq, Ra.Col "pid", Ra.Const (v_str "P1")), scan_product db),
           Ra.Scan
             (Ra.Base "vendor", [ ("vid", "v_vid"); ("pid", "v_pid"); ("price", "v_price") ])
         ))
  in
  (* vendors whose product is not P1 *)
  Alcotest.(check int) "non-P1 vendors" 2 (List.length right_anti.Ra_eval.rows)

let test_ra_group_by () =
  let db = mk_db () in
  let plan =
    Ra.Group_by
      ([ "pid" ], [ ("n", Ra.Count_star); ("minp", Ra.Min (Ra.Col "price")) ], scan_vendor db)
  in
  let rel = Ra_eval.sorted (Ra_eval.eval (ctx db) plan) in
  let show r =
    Printf.sprintf "%s:%s:%s" (Value.to_string r.(0)) (Value.to_string r.(1))
      (Value.to_string r.(2))
  in
  Alcotest.(check (list string))
    "groups"
    [ "P1:3:100.0"; "P2:2:180.0"; "P3:2:120.0" ]
    (List.map show rel.Ra_eval.rows)

let test_ra_scalar_aggregate_over_empty () =
  let db = mk_db () in
  let plan =
    Ra.Group_by
      ( [],
        [ ("n", Ra.Count_star); ("s", Ra.Sum (Ra.Col "price")) ],
        Ra.Select (Ra.Const (Value.Bool false), scan_vendor db) )
  in
  let rel = Ra_eval.eval (ctx db) plan in
  match rel.Ra_eval.rows with
  | [ row ] ->
    Alcotest.(check string) "count 0" "0" (Value.to_string row.(0));
    Alcotest.(check bool) "sum null" true (Value.is_null row.(1))
  | _ -> Alcotest.fail "scalar aggregate must yield one row"

let test_ra_union_distinct () =
  let db = mk_db () in
  let pids = Ra.Project ([ ("pid", Ra.Col "pid") ], scan_vendor db) in
  let u = Ra.Union { all = false; inputs = [ pids; pids ] } in
  let rel = Ra_eval.eval (ctx db) u in
  Alcotest.(check int) "3 distinct pids" 3 (List.length rel.Ra_eval.rows);
  let ua = Ra.Union { all = true; inputs = [ pids; pids ] } in
  Alcotest.(check int) "14 with all" 14 (List.length (Ra_eval.eval (ctx db) ua).Ra_eval.rows)

let test_ra_order_by () =
  let db = mk_db () in
  let plan =
    Ra.Order_by
      ( [ ("price", Ra.Desc); ("vid", Ra.Asc) ],
        Ra.Project ([ ("vid", Ra.Col "vid"); ("price", Ra.Col "price") ], scan_vendor db) )
  in
  let rel = Ra_eval.eval (ctx db) plan in
  match rel.Ra_eval.rows with
  | first :: _ -> Alcotest.(check string) "max price first" "Buy.com" (Value.to_string first.(0))
  | [] -> Alcotest.fail "empty"

(* --- transition tables and OLD-OF --- *)

let with_update_ctx db f =
  (* Capture a real trigger context from an actual UPDATE statement. *)
  let captured = ref None in
  Database.create_trigger db
    { Database.trig_name = "capture";
      trig_table = "vendor";
      trig_event = Database.Update;
      relevance = None;
      sql_text = "(test)";
      body = (fun ctx -> captured := Some (Ra_eval.ctx_of_trigger ctx));
    };
  ignore
    (Database.update_rows db ~table:"vendor"
       ~where:(fun row -> Value.equal row.(0) (v_str "Amazon"))
       ~set:(fun row -> [| row.(0); row.(1); v_float 75.0 |]));
  Database.drop_trigger db "capture";
  match !captured with
  | Some tctx -> f tctx
  | None -> Alcotest.fail "trigger did not fire"

let test_ra_transition_tables () =
  let db = mk_db () in
  with_update_ctx db (fun tctx ->
      let delta = Ra_eval.eval tctx (Ra.scan (Ra.Delta "vendor") vendor_schema) in
      let nabla = Ra_eval.eval tctx (Ra.scan (Ra.Nabla "vendor") vendor_schema) in
      Alcotest.(check int) "delta 1" 1 (List.length delta.Ra_eval.rows);
      Alcotest.(check int) "nabla 1" 1 (List.length nabla.Ra_eval.rows);
      (match delta.Ra_eval.rows with
      | [ row ] -> Alcotest.(check string) "new" "75.0" (Value.to_string row.(2))
      | _ -> Alcotest.fail "delta");
      match nabla.Ra_eval.rows with
      | [ row ] -> Alcotest.(check string) "old" "100.0" (Value.to_string row.(2))
      | _ -> Alcotest.fail "nabla")

let test_ra_old_of_reconstruction () =
  let db = mk_db () in
  with_update_ctx db (fun tctx ->
      let old = Ra_eval.eval tctx (Ra.scan (Ra.Old_of "vendor") vendor_schema) in
      Alcotest.(check int) "still 7 rows" 7 (List.length old.Ra_eval.rows);
      let amazon = List.find (fun r -> Value.equal r.(0) (v_str "Amazon")) old.Ra_eval.rows in
      Alcotest.(check string) "pre-update price" "100.0" (Value.to_string amazon.(2));
      (* and the post-state still says 75 *)
      let cur = Ra_eval.eval tctx (Ra.scan (Ra.Base "vendor") vendor_schema) in
      let amazon' = List.find (fun r -> Value.equal r.(0) (v_str "Amazon")) cur.Ra_eval.rows in
      Alcotest.(check string) "post-update price" "75.0" (Value.to_string amazon'.(2)))

let test_ra_old_of_probe_matches_full_scan () =
  let db = mk_db () in
  with_update_ctx db (fun tctx ->
      (* join affected pids against OLD-OF(vendor): the INL path (index on
         pid) must agree with a hash join over the full reconstruction. *)
      let keys = Ra.Values ([ "k" ], [ [| v_str "P1" |] ]) in
      let probe_join =
        Ra.Join
          ( Ra.Inner,
            Ra.Binop (Ra.Eq, Ra.Col "k", Ra.Col "pid"),
            keys,
            Ra.scan (Ra.Old_of "vendor") vendor_schema )
      in
      let hash_join =
        Ra.Join
          ( Ra.Inner,
            Ra.Binop (Ra.Eq, Ra.Col "k", Ra.Col "pid"),
            keys,
            Ra.Distinct (Ra.scan (Ra.Old_of "vendor") vendor_schema) )
      in
      let a = Ra_eval.eval tctx probe_join and b = Ra_eval.eval tctx hash_join in
      Alcotest.(check bool) "INL = hash over OLD-OF" true (Ra_eval.equal_rel a b);
      Alcotest.(check int) "3 old P1 vendors" 3 (List.length a.Ra_eval.rows);
      let amazon = List.find (fun r -> Value.equal r.(1) (v_str "Amazon")) a.Ra_eval.rows in
      Alcotest.(check string) "old price via probe" "100.0" (Value.to_string amazon.(3)))

let test_ra_pk_probe () =
  let db = mk_db () in
  let keys = Ra.Values ([ "k" ], [ [| v_str "P2" |]; [| v_str "P9" |] ]) in
  let plan =
    Ra.Join (Ra.Inner, Ra.Binop (Ra.Eq, Ra.Col "k", Ra.Col "pid"), keys, scan_product db)
  in
  let rel = Ra_eval.eval (ctx db) plan in
  Alcotest.(check int) "only P2 matches" 1 (List.length rel.Ra_eval.rows)

(* --- SQL printing --- *)

let contains s frag =
  let n = String.length s and m = String.length frag in
  let rec go i = i + m <= n && (String.sub s i m = frag || go (i + 1)) in
  m = 0 || go 0

let test_sql_print_smoke () =
  let db = mk_db () in
  let plan =
    Ra.Order_by
      ( [ ("pid", Ra.Asc) ],
        Ra.Select
          ( Ra.Binop (Ra.Ge, Ra.Col "n", Ra.Const (v_int 2)),
            Ra.Group_by ([ "pid" ], [ ("n", Ra.Count_star) ], scan_vendor db) ) )
  in
  let sql = Sql_print.plan_to_sql plan in
  List.iter
    (fun frag ->
      if not (contains sql frag) then Alcotest.failf "missing %S in:\n%s" frag sql)
    [ "GROUP BY pid"; "COUNT(*)"; "ORDER BY pid"; "WHERE (n >= 2)" ]

let test_sql_print_old_of () =
  let sql = Sql_print.plan_to_sql (Ra.scan (Ra.Old_of "vendor") vendor_schema) in
  Alcotest.(check bool) "EXCEPT form" true (contains sql "EXCEPT SELECT * FROM INSERTED")

let test_sql_print_trigger_wrapper () =
  let db = mk_db () in
  let sql =
    Sql_print.trigger_to_sql ~name:"sqlTrigger1" ~table:"vendor" ~event:Database.Update
      ~body:(scan_vendor db)
  in
  Alcotest.(check bool) "header" true (contains sql "CREATE TRIGGER sqlTrigger1");
  Alcotest.(check bool) "referencing" true
    (contains sql "REFERENCING OLD_TABLE AS DELETED, NEW_TABLE AS INSERTED");
  Alcotest.(check bool) "statement level" true (contains sql "FOR EACH STATEMENT")

(* --- property tests --- *)

let value_gen =
  QCheck.Gen.(
    oneof
      [ return Value.Null;
        map (fun i -> Value.Int i) (int_range (-5) 5);
        map (fun s -> Value.String s) (oneofl [ "a"; "b"; "c" ]);
      ])

let small_rel_gen =
  QCheck.Gen.(
    let row = map (fun (a, b) -> [| a; b |]) (pair value_gen value_gen) in
    list_size (int_range 0 12) row)

let prop_union_all_counts =
  QCheck.Test.make ~name:"union_all row count = sum of inputs" ~count:100
    (QCheck.make small_rel_gen) (fun rows ->
      let db = Database.create () in
      let v = Ra.Values ([ "a"; "b" ], rows) in
      let u =
        Ra_eval.eval (Ra_eval.ctx_of_db db) (Ra.Union { all = true; inputs = [ v; v ] })
      in
      List.length u.Ra_eval.rows = 2 * List.length rows)

let prop_distinct_idempotent =
  QCheck.Test.make ~name:"distinct is idempotent" ~count:100 (QCheck.make small_rel_gen)
    (fun rows ->
      let db = Database.create () in
      let v = Ra.Values ([ "a"; "b" ], rows) in
      let once = Ra_eval.eval (Ra_eval.ctx_of_db db) (Ra.Distinct v) in
      let twice = Ra_eval.eval (Ra_eval.ctx_of_db db) (Ra.Distinct (Ra.Distinct v)) in
      Ra_eval.equal_rel once twice)

let prop_hash_join_equals_nested_loop =
  (* Compare the equi hash join against a cross product + filter. *)
  QCheck.Test.make ~name:"hash join = cross + select" ~count:100
    (QCheck.make (QCheck.Gen.pair small_rel_gen small_rel_gen)) (fun (l, r) ->
      let db = Database.create () in
      let lv = Ra.Values ([ "la"; "lb" ], l) in
      let rv = Ra.Values ([ "ra"; "rb" ], r) in
      let pred = Ra.Binop (Ra.Eq, Ra.Col "la", Ra.Col "ra") in
      let hash = Ra_eval.eval (Ra_eval.ctx_of_db db) (Ra.Join (Ra.Inner, pred, lv, rv)) in
      let nested =
        Ra_eval.eval (Ra_eval.ctx_of_db db)
          (Ra.Select (pred, Ra.Join (Ra.Inner, Ra.Const (Value.Bool true), lv, rv)))
      in
      Ra_eval.equal_rel hash nested)

let prop_old_of_inverts_update =
  (* After random single-row updates, OLD-OF(vendor) must equal the
     pre-statement table contents. *)
  QCheck.Test.make ~name:"OLD-OF reconstructs pre-state" ~count:50
    (QCheck.make QCheck.Gen.(int_range 0 6)) (fun i ->
      let db = mk_db () in
      let before =
        Ra_eval.sorted
          (Ra_eval.eval (Ra_eval.ctx_of_db db) (Ra.scan (Ra.Base "vendor") vendor_schema))
      in
      let vendors = Table.to_rows (Database.get_table db "vendor") in
      let victim = List.nth vendors (i mod List.length vendors) in
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
              let old =
                Ra_eval.sorted (Ra_eval.eval tctx (Ra.scan (Ra.Old_of "vendor") vendor_schema))
              in
              ok := Ra_eval.equal_rel old before);
        };
      ignore
        (Database.update_rows db ~table:"vendor"
           ~where:(fun row -> row == victim)
           ~set:(fun row -> [| row.(0); row.(1); Value.add row.(2) (v_float 7.0) |]));
      !ok)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_union_all_counts;
      prop_distinct_idempotent;
      prop_hash_join_equals_nested_loop;
      prop_old_of_inverts_update;
    ]

let () =
  Alcotest.run "relkit"
    [ ( "value",
        [ Alcotest.test_case "compare" `Quick test_value_compare;
          Alcotest.test_case "sql_eq" `Quick test_value_sql_eq;
          Alcotest.test_case "hash consistency" `Quick test_value_hash_consistent;
          Alcotest.test_case "arith" `Quick test_value_arith;
          Alcotest.test_case "literals" `Quick test_value_literals;
        ] );
      ( "schema",
        [ Alcotest.test_case "basics" `Quick test_schema_basics;
          Alcotest.test_case "bad pk" `Quick test_schema_rejects_bad_pk;
          Alcotest.test_case "validate row" `Quick test_schema_validate_row;
        ] );
      ( "table",
        [ Alcotest.test_case "pk lookup" `Quick test_table_pk_lookup;
          Alcotest.test_case "duplicate pk" `Quick test_table_duplicate_pk;
          Alcotest.test_case "secondary index" `Quick test_table_secondary_index;
          Alcotest.test_case "lookup scan fallback" `Quick test_table_lookup_without_index_scans;
          Alcotest.test_case "NULL keys not indexed" `Quick test_table_null_keys_not_indexed;
        ] );
      ( "database",
        [ Alcotest.test_case "fk violation" `Quick test_db_fk_violation;
          Alcotest.test_case "update trigger transitions" `Quick
            test_db_update_fires_trigger_with_transitions;
          Alcotest.test_case "statement-level firing" `Quick test_db_statement_level_firing;
          Alcotest.test_case "no fire on empty statement" `Quick
            test_db_no_fire_on_empty_statement;
          Alcotest.test_case "insert/delete events" `Quick test_db_insert_delete_events;
          Alcotest.test_case "recursion cap" `Quick test_db_trigger_recursion_cap;
          Alcotest.test_case "load skips triggers" `Quick test_db_load_rows_skips_triggers;
          Alcotest.test_case "failed batch is atomic" `Quick test_db_failed_batch_is_atomic;
          Alcotest.test_case "failed update is atomic" `Quick test_db_failed_update_is_atomic;
        ] );
      ( "ra_eval",
        [ Alcotest.test_case "scan/select/project" `Quick test_ra_scan_select_project;
          Alcotest.test_case "inner join" `Quick test_ra_inner_join;
          Alcotest.test_case "INL = hash join" `Quick test_ra_inl_equals_hash_join;
          Alcotest.test_case "left outer join" `Quick test_ra_left_outer_join;
          Alcotest.test_case "anti joins" `Quick test_ra_anti_joins;
          Alcotest.test_case "group by" `Quick test_ra_group_by;
          Alcotest.test_case "scalar agg over empty" `Quick test_ra_scalar_aggregate_over_empty;
          Alcotest.test_case "union" `Quick test_ra_union_distinct;
          Alcotest.test_case "order by" `Quick test_ra_order_by;
          Alcotest.test_case "transition tables" `Quick test_ra_transition_tables;
          Alcotest.test_case "OLD-OF reconstruction" `Quick test_ra_old_of_reconstruction;
          Alcotest.test_case "OLD-OF probe = scan" `Quick test_ra_old_of_probe_matches_full_scan;
          Alcotest.test_case "pk probe" `Quick test_ra_pk_probe;
        ] );
      ( "sql_print",
        [ Alcotest.test_case "plan fragments" `Quick test_sql_print_smoke;
          Alcotest.test_case "OLD-OF rendering" `Quick test_sql_print_old_of;
          Alcotest.test_case "trigger wrapper" `Quick test_sql_print_trigger_wrapper;
        ] );
      ("properties", qcheck_tests);
    ]
