(* Golden tests for the firing-provenance audit trail: one fixed
   single-table workload, one trigger, one update — the [Runtime.why]
   lineage rendering is pinned verbatim under every strategy.  The output is deterministic by design: audit ids and
   statement ids follow execution order and no timestamps are printed. *)

open Relkit

let product_schema =
  Schema.make ~name:"product"
    ~columns:
      [ ("pid", Schema.TString); ("pname", Schema.TString); ("price", Schema.TFloat) ]
    ~primary_key:[ "pid" ] ()

let view_text =
  {|<catalog>
    {for $p in view("default")/product/row
     return <product name="{$p/pname}"><price>{$p/price}</price></product>}
  </catalog>|}

let mk_db () =
  let db = Database.create () in
  Database.create_table db product_schema;
  Database.insert_rows db ~table:"product"
    [ [| Value.String "P1"; Value.String "crt"; Value.Float 10.0 |];
      [| Value.String "P2"; Value.String "lcd"; Value.Float 20.0 |];
    ];
  db

(* Statement ids in the goldens: #1 is the seed insert, #2 the trigger
   grouping's constants-table insert (absent for MATERIALIZED), the last
   one the audited update. *)
let setup ?condition ?(audit = true) strategy =
  let db = mk_db () in
  let mgr = Trigview.Runtime.create ~strategy db in
  Trigview.Runtime.define_view mgr ~name:"catalog" view_text;
  let fired = ref [] in
  Trigview.Runtime.register_action mgr ~name:"rec" (fun fi ->
      fired := fi.Trigview.Runtime.fi_audit_id :: !fired);
  if audit then Trigview.Runtime.set_audit mgr true;
  Trigview.Runtime.create_trigger mgr
    (Printf.sprintf
       "CREATE TRIGGER t AFTER UPDATE ON view('catalog')/product %sDO rec(NEW_NODE)"
       (match condition with None -> "" | Some c -> "WHERE " ^ c ^ " "));
  ignore
    (Database.update_pk db ~table:"product" ~pk:[ Value.String "P1" ]
       ~set:(fun r -> [| r.(0); r.(1); Value.Float 11.0 |]));
  (mgr, fired)

let why_expected ~strategy_name ~plan_mode =
  Printf.sprintf
    "firing #1 — UPDATE on view \"catalog\" (strategy %s, group 0)\n\
    \  statement   : #3 UPDATE on product (Δ=1 inserted row, ∇=1 deleted row)\n\
    \  sql trigger : xmltrig$g0$product$UPDATE\n\
    \  delta query : %s plan over product\n\
    \  node pairs  : 1 computed, 0 spurious (OLD = NEW, suppressed), 1 kept\n\
    \  condition   : none\n\
    \  actions     :\n\
    \    - trigger \"t\" action \"rec\": fired (OLD_NODE absent, NEW_NODE present)\n"
    strategy_name plan_mode

let check_why label expected (mgr, fired) =
  Alcotest.(check string) label expected (Trigview.Runtime.why mgr 1);
  Alcotest.(check (list int)) (label ^ ": fi_audit_id links back") [ 1 ] !fired

let test_ungrouped () =
  check_why "ungrouped why"
    (why_expected ~strategy_name:"UNGROUPED" ~plan_mode:"compiled")
    (setup Trigview.Runtime.Ungrouped)

let test_grouped () =
  check_why "grouped why"
    (why_expected ~strategy_name:"GROUPED" ~plan_mode:"compiled")
    (setup Trigview.Runtime.Grouped)

let test_grouped_agg () =
  check_why "grouped-agg why"
    (why_expected ~strategy_name:"GROUPED-AGG" ~plan_mode:"compiled")
    (setup Trigview.Runtime.Grouped_agg)

(* The MATERIALIZED diff examines both products: P2's node is unchanged and
   is suppressed as spurious — exactly the noise the translated strategies
   never compute. *)
let test_materialized () =
  check_why "materialized why"
    "firing #1 — UPDATE on view \"catalog\" (strategy MATERIALIZED)\n\
    \  statement   : #2 UPDATE on product (Δ=1 inserted row, ∇=1 deleted row)\n\
    \  sql trigger : xmltrig$mat$t$product$UPDATE\n\
    \  delta query : materialized plan over product\n\
    \  node pairs  : 2 computed, 1 spurious (OLD = NEW, suppressed), 1 kept\n\
    \  condition   : none\n\
    \  actions     :\n\
    \    - trigger \"t\" action \"rec\": fired (OLD_NODE present, NEW_NODE present)\n"
    (setup Trigview.Runtime.Materialized)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn > 0 && go 0

let test_pushed_condition () =
  let mgr, _ = setup ~condition:"NEW_NODE/@name = 'crt'" Trigview.Runtime.Grouped in
  let out = Trigview.Runtime.why mgr 1 in
  Alcotest.(check bool) "pushed condition line" true
    (contains out
       "condition   : pushed into the delta query (rejected pairs never surface)")

let test_fallback_condition_rejected () =
  let mgr, fired = setup ~condition:"NEW_NODE/nosuch/x < 80" Trigview.Runtime.Grouped in
  Alcotest.(check (list int)) "rejected: action never ran" [] !fired;
  Alcotest.(check string) "fallback-rejected why"
    "firing #1 — UPDATE on view \"catalog\" (strategy GROUPED, group 0)\n\
    \  statement   : #3 UPDATE on product (Δ=1 inserted row, ∇=1 deleted row)\n\
    \  sql trigger : xmltrig$g0$product$UPDATE\n\
    \  delta query : compiled plan over product\n\
    \  node pairs  : 1 computed, 0 spurious (OLD = NEW, suppressed), 1 kept\n\
    \  condition   : evaluated per dispatch below (1 rejected)\n\
    \  actions     :\n\
    \    - trigger \"t\" action \"rec\": condition-rejected [WHERE \
     ($NEW_NODE/nosuch/x < 80) → false] (OLD_NODE absent, NEW_NODE present)\n"
    (Trigview.Runtime.why mgr 1)

let test_summary_line () =
  let mgr, _ = setup Trigview.Runtime.Grouped in
  Alcotest.(check string) "audit summary"
    "#1    stmt#3    UPDATE product      \
     xmltrig$g0$product$UPDATE                    pairs=1 kept=1 spurious=0 \
     condrej=0 dispatched=1\n"
    (Trigview.Runtime.audit mgr)

let test_audit_off () =
  let mgr, fired = setup ~audit:false Trigview.Runtime.Grouped in
  Alcotest.(check (list int)) "fi_audit_id is 0 when off" [ 0 ] !fired;
  Alcotest.(check int) "no records" 0
    (List.length (Trigview.Runtime.audit_records mgr));
  Alcotest.(check string) "why explains the miss"
    "no such firing #1 (ids run 1..0)\n" (Trigview.Runtime.why mgr 1)

let test_unknown_and_evicted_ids () =
  let mgr, _ = setup Trigview.Runtime.Grouped in
  Alcotest.(check string) "out of range"
    "no such firing #7 (ids run 1..1)\n" (Trigview.Runtime.why mgr 7)

(* A maintained view copy annotates the records it consumed, closing the
   provenance loop downstream of the action dispatch. *)
let test_maintain_annotates () =
  let db = mk_db () in
  let mgr = Trigview.Runtime.create ~strategy:Trigview.Runtime.Grouped db in
  Trigview.Runtime.define_view mgr ~name:"catalog" view_text;
  Trigview.Runtime.set_audit mgr true;
  let copy = Trigview.Maintain.attach mgr ~path:"view('catalog')/product" in
  ignore
    (Database.update_pk db ~table:"product" ~pk:[ Value.String "P1" ]
       ~set:(fun r -> [| r.(0); r.(1); Value.Float 11.0 |]));
  Alcotest.(check int) "delta applied" 1 (Trigview.Maintain.deltas_applied copy);
  let out =
    String.concat "\n"
      (List.map Obs.Audit.render_record (Trigview.Runtime.audit_records mgr))
  in
  Alcotest.(check bool) "note recorded" true
    (contains out "notes       :\n    - maintained copy applied delta #1")

let () =
  Alcotest.run "audit"
    [ ( "why-golden",
        [ Alcotest.test_case "UNGROUPED" `Quick test_ungrouped;
          Alcotest.test_case "GROUPED" `Quick test_grouped;
          Alcotest.test_case "GROUPED-AGG" `Quick test_grouped_agg;
          Alcotest.test_case "MATERIALIZED" `Quick test_materialized;
        ] );
      ( "conditions",
        [ Alcotest.test_case "pushed" `Quick test_pushed_condition;
          Alcotest.test_case "fallback rejected" `Quick test_fallback_condition_rejected;
        ] );
      ( "log",
        [ Alcotest.test_case "summary line" `Quick test_summary_line;
          Alcotest.test_case "audit off" `Quick test_audit_off;
          Alcotest.test_case "unknown id" `Quick test_unknown_and_evicted_ids;
          Alcotest.test_case "maintain annotates" `Quick test_maintain_annotates;
        ] );
    ]
