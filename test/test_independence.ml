(* PR 8: static query–update independence.

   At arm time the runtime derives a relevance signature per SQL trigger
   from its XQGM plan (observed base columns via [Lineage.observed],
   constant path-predicate filters via [Lineage.site_filters]); the firing
   path uses it to prove statements independent before any delta plan runs,
   counting those skips in [independence_skips].

   This file also pins the prefilter bookkeeping fixes that rode along:
   - the firing path's table-level skip accounting uses a cached catalog
     count (no per-statement walk of the trigger list);
   - registration is O(1) amortized (reversed buckets, creation-order view
     rebuilt lazily) and preserves firing order across drops;
   - statements whose transition tables are empty after dropping
     value-identical pairs never enter the firing path at all;
   - a qcheck differential: pruning on vs off is observationally identical
     (documents, firing logs, audit records, subscriber deliveries) across
     all four strategies — pruning may only remove activations whose audit
     records carried zero kept pairs. *)

open Relkit
module Runtime = Trigview.Runtime
module Workload = Workloadlib.Workload

(* --- a flat single-table view with a column the view never reads --- *)

let flat_schema =
  Schema.make ~name:"flat"
    ~columns:
      [ ("id", Schema.TString); ("region", Schema.TString);
        ("val", Schema.TFloat); ("hidden", Schema.TString) ]
    ~primary_key:[ "id" ] ()

let flat_view =
  {|<doc>{for $r in view("default")/flat/row
    return <item><region>{$r/region}</region><val>{$r/val}</val></item>}</doc>|}

(* ten rows, two per region r0..r4 *)
let mk_mgr ?(independence = true) ?(strategy = Runtime.Grouped) () =
  let db = Database.create () in
  Database.create_table db flat_schema;
  Database.load_rows db ~table:"flat"
    (List.init 10 (fun i ->
         [| Value.String (Printf.sprintf "f%d" i);
            Value.String (Printf.sprintf "r%d" (i / 2));
            Value.Float (float_of_int i);
            Value.String "h" |]));
  let tuning = { Runtime.default_tuning with Runtime.independence } in
  let mgr = Runtime.create ~strategy ~tuning db in
  Runtime.define_view mgr ~name:"doc" flat_view;
  let log = ref [] in
  Runtime.register_action mgr ~name:"record" (fun fi ->
      log := fi.Runtime.fi_trigger :: !log);
  (db, mgr, log)

let region_trigger k =
  Printf.sprintf
    "CREATE TRIGGER t%d AFTER UPDATE ON view('doc')/item[./region = 'r%d'] \
     DO record(NEW_NODE)"
    k k

let set_val v r =
  let r = Array.copy r in
  r.(2) <- Value.Float v;
  r

let update_row db id set =
  Database.update_rows db ~table:"flat"
    ~where:(fun r -> Value.equal r.(0) (Value.String id))
    ~set

(* --- predicate-level pruning: equality path predicates --- *)

let test_eq_pruning () =
  let db, mgr, log = mk_mgr () in
  for k = 0 to 4 do
    Runtime.create_trigger mgr (region_trigger k)
  done;
  Runtime.reset_stats mgr;
  Alcotest.(check int) "one row" 1 (update_row db "f0" (set_val 99.0));
  let s = Runtime.stats mgr in
  Alcotest.(check int) "only the r0 trigger's plan ran" 1 s.Runtime.sql_firings;
  Alcotest.(check int) "four activations pruned" 4 s.Runtime.independence_skips;
  Alcotest.(check (list string)) "r0 trigger fired" [ "t0" ] !log;
  (* moving a row between regions keeps both sides' triggers live: the old
     value reaches r0's watcher via nabla, the new one r1's via delta *)
  log := [];
  Runtime.reset_stats mgr;
  ignore
    (update_row db "f0" (fun r ->
         let r = Array.copy r in
         r.(1) <- Value.String "r1";
         r));
  let s = Runtime.stats mgr in
  Alcotest.(check int) "both region watchers examined" 2 s.Runtime.sql_firings;
  Alcotest.(check int) "other three pruned" 3 s.Runtime.independence_skips

let test_insert_pruning () =
  let db, mgr, log = mk_mgr () in
  Runtime.create_trigger mgr
    "CREATE TRIGGER ti AFTER INSERT ON view('doc')/item[./region = 'r9'] \
     DO record(NEW_NODE)";
  Runtime.reset_stats mgr;
  Database.insert_rows db ~table:"flat"
    [ [| Value.String "fx"; Value.String "r7"; Value.Float 1.0; Value.String "h" |] ];
  let s = Runtime.stats mgr in
  Alcotest.(check int) "failing-constant insert pruned" 0 s.Runtime.sql_firings;
  Alcotest.(check int) "counted as independence skip" 1 s.Runtime.independence_skips;
  Alcotest.(check (list string)) "nothing fired" [] !log;
  Database.insert_rows db ~table:"flat"
    [ [| Value.String "fy"; Value.String "r9"; Value.Float 2.0; Value.String "h" |] ];
  Alcotest.(check (list string)) "matching insert fires" [ "ti" ] !log

(* --- column-level pruning: updates confined to unobserved columns --- *)

let test_column_pruning () =
  let db, mgr, log = mk_mgr () in
  Runtime.create_trigger mgr
    "CREATE TRIGGER tall AFTER UPDATE ON view('doc')/item DO record(NEW_NODE)";
  Runtime.reset_stats mgr;
  let n =
    update_row db "f0" (fun r ->
        let r = Array.copy r in
        r.(3) <- Value.String "z";
        r)
  in
  Alcotest.(check int) "row updated" 1 n;
  let s = Runtime.stats mgr in
  Alcotest.(check int) "unobserved-column update never fires" 0 s.Runtime.sql_firings;
  Alcotest.(check int) "pruned by column footprint" 1 s.Runtime.independence_skips;
  Alcotest.(check (list string)) "no dispatch" [] !log;
  ignore (update_row db "f0" (set_val 42.0));
  Alcotest.(check (list string)) "observed-column update fires" [ "tall" ] !log

(* --- the off switch restores the pre-independence behaviour --- *)

let test_pruning_off () =
  let db, mgr, log = mk_mgr ~independence:false () in
  for k = 0 to 4 do
    Runtime.create_trigger mgr (region_trigger k)
  done;
  Runtime.reset_stats mgr;
  ignore (update_row db "f0" (set_val 99.0));
  let s = Runtime.stats mgr in
  Alcotest.(check int) "every bucket member runs its plans" 5 s.Runtime.sql_firings;
  Alcotest.(check int) "no independence skips" 0 s.Runtime.independence_skips;
  (* the extra activations compute zero pairs, so dispatch is unchanged *)
  Alcotest.(check (list string)) "same firings as with pruning" [ "t0" ] !log

let test_explain_shows_signature () =
  let _, mgr, _ = mk_mgr () in
  Runtime.create_trigger mgr (region_trigger 3);
  let out = Runtime.explain mgr in
  let contains needle =
    let nh = String.length out and nn = String.length needle in
    let rec go i =
      i + nn <= nh && (String.sub out i nn = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "relevance line rendered" true (contains "relevance:");
  Alcotest.(check bool) "constant filter rendered" true (contains "region = 'r3'")

(* --- no-op statements never reach the firing path (satellite 3) --- *)

let test_noop_update_stats () =
  let db, mgr, log = mk_mgr () in
  Runtime.create_trigger mgr
    "CREATE TRIGGER tall AFTER UPDATE ON view('doc')/item DO record(NEW_NODE)";
  Runtime.reset_stats mgr;
  let n = update_row db "f0" Array.copy in
  Alcotest.(check int) "statement matched the row" 1 n;
  let s = Runtime.stats mgr in
  Alcotest.(check int) "no firings" 0 s.Runtime.sql_firings;
  Alcotest.(check int) "no prefilter skips" 0 s.Runtime.prefilter_skips;
  Alcotest.(check int) "no independence skips" 0 s.Runtime.independence_skips;
  Alcotest.(check int) "no dispatch" 0 s.Runtime.actions_dispatched;
  Alcotest.(check (list string)) "log empty" [] !log

(* --- prefilter bookkeeping at the Database layer (satellites 1 and 2) --- *)

let mk_flat_db () =
  let db = Database.create () in
  Database.create_table db flat_schema;
  Database.create_table db
    (Schema.make ~name:"lone"
       ~columns:[ ("id", Schema.TString); ("x", Schema.TFloat) ]
       ~primary_key:[ "id" ] ());
  Database.load_rows db ~table:"flat"
    [ [| Value.String "f0"; Value.String "r0"; Value.Float 0.0; Value.String "h" |] ];
  Database.load_rows db ~table:"lone" [ [| Value.String "l0"; Value.Float 0.0 |] ];
  db

let watch db fired name =
  Database.create_trigger db
    { Database.trig_name = name;
      trig_table = "flat";
      trig_event = Database.Update;
      relevance = None;
      sql_text = "(test)";
      body = (fun _ -> fired := name :: !fired);
    }

let test_registration_order () =
  let db = mk_flat_db () in
  let fired = ref [] in
  List.iter (watch db fired) [ "a"; "b"; "c" ];
  let names () =
    List.map
      (fun t -> t.Database.trig_name)
      (Database.triggers_on db ~table:"flat" ~event:Database.Update)
  in
  Alcotest.(check (list string)) "creation order" [ "a"; "b"; "c" ] (names ());
  ignore (update_row db "f0" (set_val 1.0));
  Alcotest.(check (list string)) "firing order = creation order" [ "a"; "b"; "c" ]
    (List.rev !fired);
  (* dropping from the middle and re-registering keeps the order coherent *)
  Database.drop_trigger db "b";
  watch db fired "d";
  Alcotest.(check (list string)) "order after drop + create" [ "a"; "c"; "d" ] (names ());
  fired := [];
  ignore (update_row db "f0" (set_val 2.0));
  Alcotest.(check (list string)) "firing order after drop" [ "a"; "c"; "d" ]
    (List.rev !fired);
  Alcotest.(check int) "cached catalog count" 3 (Database.trigger_count db)

let test_prefilter_skip_accounting () =
  let db = mk_flat_db () in
  let fired = ref [] in
  List.iter (watch db fired) [ "a"; "b"; "c"; "d"; "e"; "f"; "g" ];
  Database.reset_trigger_skips db;
  (* bucket miss on another table: the whole catalog is skipped, via the
     cached count (no per-statement walk of a 7-element list) *)
  ignore
    (Database.update_rows db ~table:"lone"
       ~where:(fun _ -> true)
       ~set:(fun r -> [| r.(0); Value.Float 9.0 |]));
  Alcotest.(check int) "whole catalog skipped on a foreign table" 7
    (Database.trigger_skips db);
  (* bucket miss on the same table, different event *)
  Database.insert_rows db ~table:"flat"
    [ [| Value.String "f9"; Value.String "r9"; Value.Float 9.0; Value.String "h" |] ];
  Alcotest.(check int) "same-table other-event statement skips all" 14
    (Database.trigger_skips db);
  Alcotest.(check (list string)) "nothing fired" [] !fired;
  Alcotest.(check int) "count maintained across DML" 7 (Database.trigger_count db)

(* --- qcheck differential: pruning on vs off, all strategies.  Ops mix leaf price updates (never prunable: price is
   observed), top-element renames (prunable against the path-predicated
   triggers' name constants) and no-op updates (dropped pre-firing). --- *)

let small =
  { Workload.depth = 3; leaf_tuples = 96; fanout = 8; num_triggers = 12; num_satisfied = 4 }

(* Three trigger families: path-predicated (the signature carries an
   equality on t1.name), WHERE-only (constants generalized away — no
   predicate pruning, column pruning only), and WHERE + count conjunct
   (its own GROUPED family). *)
let install_mixed_triggers mgr ~target =
  for i = 0 to small.Workload.num_triggers - 1 do
    let const =
      if i < small.Workload.num_satisfied then target
      else Printf.sprintf "nomatch%d" i
    in
    let text =
      if i mod 3 = 0 then
        Printf.sprintf
          "CREATE TRIGGER mix%d AFTER UPDATE ON view('doc')/e1[@name = '%s'] \
           DO record(NEW_NODE)"
          i const
      else if i mod 3 = 1 then
        Printf.sprintf
          "CREATE TRIGGER mix%d AFTER UPDATE ON view('doc')/e1 WHERE \
           NEW_NODE/@name = '%s' DO record(NEW_NODE)"
          i const
      else
        Printf.sprintf
          "CREATE TRIGGER mix%d AFTER UPDATE ON view('doc')/e1 WHERE \
           NEW_NODE/@name = '%s' and count(NEW_NODE/e2) >= 1 DO record(NEW_NODE)"
          i const
    in
    Runtime.create_trigger mgr text
  done

let apply_op built (kind, top, step) =
  let top = top mod Array.length built.Workload.top_names in
  match kind with
  | 0 -> Workload.update_leaf built ~top_index:top ~step
  | 1 ->
    (* rename the top element: prunable for watchers of other names *)
    ignore
      (Database.update_pk built.Workload.db ~table:"t1"
         ~pk:[ Value.String (Printf.sprintf "t1r%d" top) ]
         ~set:(fun r -> [| r.(0); Value.String (Printf.sprintf "name%d~%d" top step) |]))
  | _ ->
    (* identity update: dropped before the firing path in both runs *)
    ignore
      (Database.update_pk built.Workload.db ~table:"t1"
         ~pk:[ Value.String (Printf.sprintf "t1r%d" top) ]
         ~set:Array.copy)

let run_workload ~independence ~strategy ops =
  let built = Workload.build small in
  let db = built.Workload.db in
  let tuning = { Runtime.default_tuning with Runtime.independence } in
  let mgr = Runtime.create ~strategy ~tuning db in
  Runtime.define_view mgr ~name:"doc" built.Workload.view_text;
  let log = ref [] in
  Runtime.register_action mgr ~name:"record" (fun fi ->
      log :=
        ( fi.Runtime.fi_stmt_id,
          fi.Runtime.fi_trigger,
          Database.string_of_event fi.Runtime.fi_event )
        :: !log);
  let target = built.Workload.top_names.(0) in
  install_mixed_triggers mgr ~target;
  let hub = Subscribe.attach mgr in
  let deliveries = ref [] in
  Subscribe.add_callback hub (fun n ->
      deliveries := Subscribe.Notification.to_ndjson n :: !deliveries);
  Subscribe.subscribe hub
    (Printf.sprintf
       "s0 AFTER UPDATE ON view('doc')/e1 WHERE NEW_NODE/@name = '%s'" target);
  Subscribe.subscribe hub "s1 AFTER UPDATE ON view('doc')/e1";
  Runtime.set_audit mgr true;
  List.iter
    (fun op ->
      apply_op built op;
      ignore (Subscribe.flush hub))
    ops;
  let doc =
    let schema_of name = Table.schema (Database.get_table db name) in
    let view =
      Xquery.Compile.view_of_string ~schema_of ~name:"doc" built.Workload.view_text
    in
    Xmlkit.Xml.to_string (Xquery.Compile.materialize (Ra_eval.ctx_of_db db) view)
  in
  let audit =
    List.map
      (fun r ->
        Obs.Audit.
          ( r.stmt_id,
            r.sql_trigger,
            r.delta_rows,
            r.nabla_rows,
            r.pairs_computed,
            r.pairs_spurious,
            r.pairs_kept,
            r.dispatched ))
      (Runtime.audit_records mgr)
  in
  (doc, List.sort compare !log, List.sort compare audit, List.sort compare !deliveries)

(* Multiset difference of the off-run's audit records against the on-run's:
   [Some removed] when on ⊆ off (both sorted), [None] when the on-run has a
   record the off-run lacks. *)
let rec audit_removed off on =
  match off, on with
  | rest, [] -> Some rest
  | [], _ :: _ -> None
  | o :: off', n :: on' ->
    if o = n then audit_removed off' on'
    else if compare o n < 0 then
      Option.map (fun d -> o :: d) (audit_removed off' on)
    else None

let strategies =
  [ Runtime.Ungrouped; Runtime.Grouped; Runtime.Grouped_agg; Runtime.Materialized ]

let op_gen =
  QCheck.Gen.(triple (int_range 0 2) (int_range 0 11) (int_range 0 40))

let prop_independence_differential =
  QCheck.Test.make
    ~name:"pruning on = pruning off (doc, log, audit, deliveries)" ~count:4
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 1 4) op_gen))
    (fun ops ->
      List.for_all
        (fun strategy ->
          let doc_on, log_on, audit_on, del_on =
            run_workload ~independence:true ~strategy ops
          in
          let doc_off, log_off, audit_off, del_off =
            run_workload ~independence:false ~strategy ops
          in
          doc_on = doc_off && log_on = log_off && del_on = del_off
          &&
          match audit_removed audit_off audit_on with
          | None -> false  (* pruning may never add an activation *)
          | Some removed ->
            (* removed activations must have been provably idle *)
            List.for_all
              (fun (_, _, _, _, _, _, kept, dispatched) ->
                kept = 0 && dispatched = 0)
              removed)
        strategies)

let () =
  Alcotest.run "independence"
    [ ( "pruning",
        [ Alcotest.test_case "equality predicate" `Quick test_eq_pruning;
          Alcotest.test_case "insert constant filter" `Quick test_insert_pruning;
          Alcotest.test_case "column footprint" `Quick test_column_pruning;
          Alcotest.test_case "off switch" `Quick test_pruning_off;
          Alcotest.test_case "explain signature" `Quick test_explain_shows_signature;
        ] );
      ( "firing path",
        [ Alcotest.test_case "no-op update stats" `Quick test_noop_update_stats;
          Alcotest.test_case "registration order" `Quick test_registration_order;
          Alcotest.test_case "prefilter accounting" `Quick test_prefilter_skip_accounting;
        ] );
      ( "differential",
        List.map QCheck_alcotest.to_alcotest [ prop_independence_differential ] );
    ]
