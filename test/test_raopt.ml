(* Tests for the plan rewrites in Relkit.Ra_opt: semijoin pushdown (with
   equality transfer and sideways information passing), transition-join
   pushdown, and common-subplan sharing.  Each rewrite is checked for
   semantic preservation against a filter-semantics oracle, and for the
   physical effect (index probes instead of scans) via scan accounting. *)

open Relkit

let v_int i = Value.Int i
let v_str s = Value.String s

let db_with_parent_child () =
  let db = Database.create () in
  Database.create_table db
    (Schema.make ~name:"parent"
       ~columns:[ ("pid", Schema.TInt); ("label", Schema.TString) ]
       ~primary_key:[ "pid" ] ());
  Database.create_table db
    (Schema.make ~name:"child"
       ~columns:[ ("cid", Schema.TInt); ("pid", Schema.TInt); ("v", Schema.TInt) ]
       ~primary_key:[ "cid" ] ());
  Database.create_index db ~table:"child" ~column:"pid";
  Database.load_rows db ~table:"parent"
    (List.init 50 (fun i -> [| v_int i; v_str (Printf.sprintf "p%d" (i mod 7)) |]));
  Database.load_rows db ~table:"child"
    (List.init 400 (fun i -> [| v_int i; v_int (i mod 50); v_int (i mod 13) |]));
  db

let parent_scan db = Ra.scan (Ra.Base "parent") (Table.schema (Database.get_table db "parent"))
let child_scan db = Ra.scan (Ra.Base "child") (Table.schema (Database.get_table db "child"))

let keys_rel vals = Ra.Values ([ "k" ], List.map (fun v -> [| v_int v |]) vals)

(* oracle: a semijoin is just a filter on the link column *)
let filter_oracle ctx plan ~link ~vals =
  let rel = Ra_eval.eval ctx plan in
  let slot = Ra_eval.col_index rel link in
  { rel with
    Ra_eval.rows =
      List.filter
        (fun row -> List.exists (fun v -> Value.sql_eq row.(slot) (v_int v)) vals)
        rel.Ra_eval.rows;
  }

let check_push ?(name = "push = filter") ctx plan ~link ~vals =
  let pushed = Ra_opt.push_semijoin ~keys:(keys_rel vals) ~on:[ (link, "k") ] plan in
  let got = Ra_eval.eval ctx pushed in
  let expected = filter_oracle ctx plan ~link ~vals in
  if not (Ra_eval.equal_rel got expected) then
    Alcotest.failf "%s diverged:@.expected %a@.got %a" name Ra_eval.pp_rel expected
      Ra_eval.pp_rel got

let test_push_through_select_project () =
  let db = db_with_parent_child () in
  let ctx = Ra_eval.ctx_of_db db in
  let plan =
    Ra.Project
      ( [ ("key", Ra.Col "cid"); ("par", Ra.Col "pid") ],
        Ra.Select (Ra.Binop (Ra.Gt, Ra.Col "v", Ra.Const (v_int 3)), child_scan db) )
  in
  check_push ctx plan ~link:"par" ~vals:[ 1; 2; 3 ]

let test_push_through_group_by () =
  let db = db_with_parent_child () in
  let ctx = Ra_eval.ctx_of_db db in
  let plan = Ra.Group_by ([ "pid" ], [ ("n", Ra.Count_star) ], child_scan db) in
  check_push ctx plan ~link:"pid" ~vals:[ 5; 7 ]

let test_push_through_union () =
  let db = db_with_parent_child () in
  let ctx = Ra_eval.ctx_of_db db in
  let half cmp = Ra.Select (Ra.Binop (cmp, Ra.Col "v", Ra.Const (v_int 6)), child_scan db) in
  let plan = Ra.Union { all = true; inputs = [ half Ra.Lt; half Ra.Ge ] } in
  check_push ctx plan ~link:"pid" ~vals:[ 0; 49 ]

let test_push_transfers_across_join_equality () =
  (* the link column lives on the left, but the right side is restricted too
     through pid = c_pid *)
  let db = db_with_parent_child () in
  let ctx = Ra_eval.ctx_of_db db in
  let plan =
    Ra.Join
      ( Ra.Inner,
        Ra.Binop (Ra.Eq, Ra.Col "pid", Ra.Col "c_pid"),
        parent_scan db,
        Ra.Scan (Ra.Base "child", [ ("cid", "c_cid"); ("pid", "c_pid"); ("v", "c_v") ]) )
  in
  check_push ctx plan ~link:"pid" ~vals:[ 3; 4 ];
  (* and the physical effect: no full child scan *)
  Ra_eval.reset_scan_stats ctx.Ra_eval.scan_stats;
  let pushed = Ra_opt.push_semijoin ~keys:(keys_rel [ 3; 4 ]) ~on:[ ("pid", "k") ] plan in
  ignore (Ra_eval.eval ctx pushed);
  let child_rows =
    List.fold_left
      (fun acc (k, n) -> if k = "scan:child" then acc + n else acc)
      0 (Ra_eval.scan_stats_report ctx.Ra_eval.scan_stats)
  in
  Alcotest.(check int) "child probed, not scanned" 0 child_rows

let test_push_left_outer_keeps_padding () =
  let db = db_with_parent_child () in
  (* give one parent no children *)
  ignore
    (Database.delete_rows db ~table:"child" ~where:(fun r -> Value.equal r.(1) (v_int 9)));
  let ctx = Ra_eval.ctx_of_db db in
  let grouped = Ra.Group_by ([ "pid" ], [ ("n", Ra.Count_star) ], child_scan db) in
  let plan =
    Ra.Join
      ( Ra.Left_outer,
        Ra.Binop (Ra.Eq, Ra.Col "p_pid", Ra.Col "pid"),
        Ra.Scan (Ra.Base "parent", [ ("pid", "p_pid"); ("label", "label") ]),
        grouped )
  in
  check_push ctx plan ~link:"p_pid" ~vals:[ 8; 9; 10 ];
  (* parent 9 must survive as a padded row *)
  let pushed = Ra_opt.push_semijoin ~keys:(keys_rel [ 8; 9; 10 ]) ~on:[ ("p_pid", "k") ] plan in
  let rel = Ra_eval.eval ctx pushed in
  let nine =
    List.find (fun r -> Value.equal r.(0) (v_int 9)) rel.Ra_eval.rows
  in
  Alcotest.(check bool) "padded count" true (Value.is_null nine.(2))

let test_push_sideways_through_nested_join () =
  (* grandparent-style chain: the restriction enters via the left leg and
     must reach the grouped right leg through the join equality *)
  let db = db_with_parent_child () in
  let ctx = Ra_eval.ctx_of_db db in
  let grouped = Ra.Group_by ([ "pid" ], [ ("total", Ra.Sum (Ra.Col "v")) ], child_scan db) in
  let plan =
    Ra.Join
      ( Ra.Inner,
        Ra.Binop (Ra.Eq, Ra.Col "p_pid", Ra.Col "pid"),
        Ra.Scan (Ra.Base "parent", [ ("pid", "p_pid"); ("label", "label") ]),
        grouped )
  in
  check_push ctx plan ~link:"p_pid" ~vals:[ 11; 12 ];
  Ra_eval.reset_scan_stats ctx.Ra_eval.scan_stats;
  let pushed = Ra_opt.push_semijoin ~keys:(keys_rel [ 11; 12 ]) ~on:[ ("p_pid", "k") ] plan in
  ignore (Ra_eval.eval ctx pushed);
  let child_rows =
    List.fold_left
      (fun acc (k, n) -> if k = "scan:child" then acc + n else acc)
      0 (Ra_eval.scan_stats_report ctx.Ra_eval.scan_stats)
  in
  Alcotest.(check int) "grouped child side probed via sideways keys" 0 child_rows

let test_push_semijoin_deep_reports_progress () =
  let db = db_with_parent_child () in
  let scan = child_scan db in
  (* pushing into a bare scan only re-attaches at the root: no progress *)
  Alcotest.(check bool) "no progress on a bare scan" true
    (Ra_opt.push_semijoin_deep ~keys:(keys_rel [ 1 ]) ~on:[ ("pid", "k") ] scan = None);
  let deeper = Ra.Select (Ra.Binop (Ra.Gt, Ra.Col "v", Ra.Const (v_int 0)), scan) in
  Alcotest.(check bool) "progress through a select" true
    (Ra_opt.push_semijoin_deep ~keys:(keys_rel [ 1 ]) ~on:[ ("pid", "k") ] deeper <> None)

let test_shared_evaluated_once () =
  let db = db_with_parent_child () in
  let grouped = Ra.Group_by ([ "pid" ], [ ("n", Ra.Count_star) ], child_scan db) in
  (* the same subtree appears twice; CSE must make the engine evaluate it
     once per context *)
  let dup =
    Ra.Join
      ( Ra.Inner,
        Ra.Binop (Ra.Eq, Ra.Col "pid", Ra.Col "pid2"),
        grouped,
        Ra.Project ([ ("pid2", Ra.Col "pid"); ("n2", Ra.Col "n") ], grouped) )
  in
  let shared = Ra_opt.share_common_subplans dup in
  let run plan =
    let ctx = Ra_eval.ctx_of_db db in
    ignore (Ra_eval.eval ctx plan);
    List.fold_left
      (fun acc (k, n) -> if k = "scan:child" then acc + n else acc)
      0 (Ra_eval.scan_stats_report ctx.Ra_eval.scan_stats)
  in
  let unshared_rows = run dup in
  let shared_rows = run shared in
  Alcotest.(check bool)
    (Printf.sprintf "halved scans (%d -> %d)" unshared_rows shared_rows)
    true
    (shared_rows * 2 <= unshared_rows + 1);
  (* and of course the results agree *)
  Alcotest.(check bool) "same result" true
    (Ra_eval.equal_rel
       (Ra_eval.eval (Ra_eval.ctx_of_db db) dup)
       (Ra_eval.eval (Ra_eval.ctx_of_db db) shared))

let test_push_transition_joins_probes () =
  let db = db_with_parent_child () in
  (* simulate a firing: Δchild drives a join against the full parent table *)
  let captured = ref None in
  Database.create_trigger db
    { Database.trig_name = "c";
      trig_table = "child";
      trig_event = Database.Update;
      relevance = None;
      sql_text = "(test)";
      body = (fun tc -> captured := Some (Ra_eval.ctx_of_trigger tc));
    };
  ignore
    (Database.update_pk db ~table:"child" ~pk:[ v_int 7 ]
       ~set:(fun r -> [| r.(0); r.(1); v_int 99 |]));
  let tctx = Option.get !captured in
  let plan =
    Ra.Join
      ( Ra.Inner,
        Ra.Binop (Ra.Eq, Ra.Col "d_pid", Ra.Col "pid"),
        Ra.Scan (Ra.Delta "child", [ ("pid", "d_pid") ]),
        parent_scan db )
  in
  let optimized = Ra_opt.push_transition_joins plan in
  Alcotest.(check bool) "same result" true
    (Ra_eval.equal_rel (Ra_eval.eval tctx plan) (Ra_eval.eval tctx optimized));
  Ra_eval.reset_scan_stats tctx.Ra_eval.scan_stats;
  ignore (Ra_eval.eval tctx optimized);
  let parent_rows =
    List.fold_left
      (fun acc (k, n) -> if k = "scan:parent" then acc + n else acc)
      0 (Ra_eval.scan_stats_report tctx.Ra_eval.scan_stats)
  in
  Alcotest.(check int) "parent probed by pk, not scanned" 0 parent_rows

(* property: pushdown = filter, over random key sets and plan shapes *)

let plan_shapes db =
  [ ("scan", child_scan db, "pid");
    ( "select",
      Ra.Select (Ra.Binop (Ra.Lt, Ra.Col "v", Ra.Const (v_int 10)), child_scan db),
      "pid" );
    ("groupby", Ra.Group_by ([ "pid" ], [ ("n", Ra.Count_star) ], child_scan db), "pid");
    ( "join",
      Ra.Join
        ( Ra.Inner,
          Ra.Binop (Ra.Eq, Ra.Col "pid", Ra.Col "c_pid"),
          parent_scan db,
          Ra.Scan (Ra.Base "child", [ ("cid", "c_cid"); ("pid", "c_pid"); ("v", "c_v") ]) ),
      "pid" );
    ("distinct", Ra.Distinct (Ra.Project ([ ("pid", Ra.Col "pid") ], child_scan db)), "pid");
  ]

let prop_push_equals_filter =
  QCheck.Test.make ~name:"push_semijoin = filter (all shapes, random keys)" ~count:60
    (QCheck.make
       QCheck.Gen.(pair (int_range 0 4) (list_size (int_range 0 8) (int_range 0 55))))
    (fun (shape, vals) ->
      let db = db_with_parent_child () in
      let ctx = Ra_eval.ctx_of_db db in
      let _, plan, link = List.nth (plan_shapes db) (shape mod 5) in
      let pushed = Ra_opt.push_semijoin ~keys:(keys_rel vals) ~on:[ (link, "k") ] plan in
      Ra_eval.equal_rel (Ra_eval.eval ctx pushed) (filter_oracle ctx plan ~link ~vals))

let qcheck_tests = List.map QCheck_alcotest.to_alcotest [ prop_push_equals_filter ]

let () =
  Alcotest.run "ra_opt"
    [ ( "push_semijoin",
        [ Alcotest.test_case "select/project" `Quick test_push_through_select_project;
          Alcotest.test_case "group-by" `Quick test_push_through_group_by;
          Alcotest.test_case "union" `Quick test_push_through_union;
          Alcotest.test_case "equality transfer" `Quick test_push_transfers_across_join_equality;
          Alcotest.test_case "left outer padding" `Quick test_push_left_outer_keeps_padding;
          Alcotest.test_case "sideways passing" `Quick test_push_sideways_through_nested_join;
          Alcotest.test_case "progress detection" `Quick test_push_semijoin_deep_reports_progress;
        ] );
      ( "other passes",
        [ Alcotest.test_case "CSE evaluates once" `Quick test_shared_evaluated_once;
          Alcotest.test_case "transition joins probe" `Quick test_push_transition_joins_probes;
        ] );
      ("properties", qcheck_tests);
    ]
