(* Golden tests for [Runtime.explain]: one fixed single-table workload, one
   trigger, one update, per strategy -- the rendered plan annotation is
   pinned verbatim.  The output is deterministic by design: group ids
   follow creation order, fragment key binding names are masked, and the
   cardinalities are those of the single update.  A nested-view case
   checks the fragment sections structurally (its generated column names
   embed a process-global op counter, so verbatim pinning would depend on
   test execution order). *)

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

let setup strategy =
  let db = mk_db () in
  let mgr = Trigview.Runtime.create ~strategy db in
  Trigview.Runtime.define_view mgr ~name:"catalog" view_text;
  Trigview.Runtime.register_action mgr ~name:"rec" (fun _ -> ());
  Trigview.Runtime.create_trigger mgr
    "CREATE TRIGGER t AFTER UPDATE ON view('catalog')/product DO rec(NEW_NODE)";
  ignore
    (Database.update_pk db ~table:"product" ~pk:[ Value.String "P1" ]
       ~set:(fun r -> [| r.(0); r.(1); Value.Float 11.0 |]));
  mgr

(* The annotated plan is identical for the three compiled strategies on this
   single-table view: grouping only changes how triggers share it, not the
   maintenance plan itself. *)
let compiled_plan_body =
  "pipeline[project]  [last=1 rows, total=1 over 1 execs]\n\
  \  nl-join inner  [last=1 rows, total=1 over 1 execs]\n\
  \    hash-join inner (build right)  [last=1 rows, total=1 over 1 execs]\n\
  \      pipeline[project]  [last=1 rows, total=1 over 1 execs]\n\
  \        hash-join inner (build right)  [last=1 rows, total=1 over 1 execs]\n\
  \          shared  [last=1 rows, total=1 over 1 execs, cache hit=1 miss=0]\n\
  \            union distinct  [last=1 rows, total=1 over 1 execs]\n\
  \              pipeline[project,project]  [last=1 rows, total=1 over 1 execs]\n\
  \                delta:product  [last=1 rows, total=1 over 1 execs]\n\
  \              pipeline[project,project]  [last=1 rows, total=1 over 1 execs]\n\
  \                nabla:product  [last=1 rows, total=1 over 1 execs]\n\
  \          pipeline[project,project,project]  [last=1 rows, total=1 over 1 execs]\n\
  \            inl-join inner (probe product via pk)  [last=1 rows, total=1 over 1 execs]\n\
  \              distinct  [last=1 rows, total=1 over 1 execs]\n\
  \                pipeline[project]  [last=1 rows, total=1 over 1 execs]\n\
  \                  shared  [last=1 rows, total=1 over 1 execs, cache hit=0 miss=1]\n\
  \                    union distinct  [see above]\n\
  \      pipeline[project]  [last=1 rows, total=1 over 1 execs]\n\
  \        hash-join inner (build right)  [last=1 rows, total=1 over 1 execs]\n\
  \          shared  [last=1 rows, total=1 over 1 execs, cache hit=1 miss=0]\n\
  \            union distinct  [last=1 rows, total=1 over 1 execs]\n\
  \              pipeline[project,project]  [last=1 rows, total=1 over 1 execs]\n\
  \                delta:product  [last=1 rows, total=1 over 1 execs]\n\
  \              pipeline[project,project]  [last=1 rows, total=1 over 1 execs]\n\
  \                nabla:product  [last=1 rows, total=1 over 1 execs]\n\
  \          pipeline[project,project,project]  [last=1 rows, total=1 over 1 execs]\n\
  \            inl-join inner (probe oldof product via pk)  [last=1 rows, total=1 over 1 execs]\n\
  \              distinct  [last=1 rows, total=1 over 1 execs]\n\
  \                pipeline[project]  [last=1 rows, total=1 over 1 execs]\n\
  \                  shared  [last=1 rows, total=1 over 1 execs, cache hit=0 miss=1]\n\
  \                    union distinct  [see above]\n\
  \    scan:trigconsts0  [last=1 rows, total=1 over 1 execs]\n"

let compiled_expected strategy_name =
  Printf.sprintf
    "== group 0: %s UPDATE on view catalog ==\ntriggers: t\n-- table product: \
     compiled\n   relevance: cols={pid,pname,price} pred=-\n%s"
    strategy_name compiled_plan_body

let check_golden label expected mgr =
  Alcotest.(check string) label expected (Trigview.Runtime.explain mgr)

let test_ungrouped () =
  check_golden "ungrouped explain" (compiled_expected "UNGROUPED")
    (setup Trigview.Runtime.Ungrouped)

let test_grouped () =
  check_golden "grouped explain" (compiled_expected "GROUPED")
    (setup Trigview.Runtime.Grouped)

let test_grouped_agg () =
  check_golden "grouped-agg explain" (compiled_expected "GROUPED-AGG")
    (setup Trigview.Runtime.Grouped_agg)

let test_materialized () =
  check_golden "materialized explain"
    "== group 0: MATERIALIZED UPDATE on view catalog ==\n\
     triggers: t\n\
     plan: MATERIALIZED baseline -- recompute the monitored level and diff \
     snapshots on every relevant statement\n"
    (setup Trigview.Runtime.Materialized)

(* ------------------------------------------------------------------ *)
(* Nested view: the inner for becomes a tagger fragment.  Generated
   column names embed a global op-counter id ([offer<N>$pid]), so we
   normalize digit runs that directly precede '$' and assert structure
   instead of pinning the whole rendering. *)

let offer_schema =
  Schema.make ~name:"offer"
    ~columns:[ ("oid", Schema.TString); ("pid", Schema.TString); ("price", Schema.TFloat) ]
    ~primary_key:[ "oid" ]
    ~foreign_keys:
      [ { Schema.fk_columns = [ "pid" ]; fk_table = "product"; fk_ref_columns = [ "pid" ] } ]
    ()

let nested_view_text =
  {|<catalog>
    {for $p in view("default")/product/row
     let $offers := view("default")/offer/row[./pid = $p/pid]
     return <product name="{$p/pname}">
       {for $o in $offers return <offer>{$o/price}</offer>}
     </product>}
  </catalog>|}

let setup_nested () =
  let db = mk_db () in
  Database.create_table db offer_schema;
  Database.create_index db ~table:"offer" ~column:"pid";
  Database.insert_rows db ~table:"offer"
    [ [| Value.String "O1"; Value.String "P1"; Value.Float 9.0 |];
      [| Value.String "O2"; Value.String "P1"; Value.Float 12.0 |];
    ];
  let mgr = Trigview.Runtime.create ~strategy:Trigview.Runtime.Grouped_agg db in
  Trigview.Runtime.define_view mgr ~name:"catalog" nested_view_text;
  Trigview.Runtime.register_action mgr ~name:"rec" (fun _ -> ());
  Trigview.Runtime.create_trigger mgr
    "CREATE TRIGGER t AFTER UPDATE ON view('catalog')/product DO rec(NEW_NODE)";
  ignore
    (Database.update_pk db ~table:"offer" ~pk:[ Value.String "O1" ]
       ~set:(fun r -> [| r.(0); r.(1); Value.Float 9.5 |]));
  mgr

(* Strip maximal digit runs immediately preceding '$' ("offer22$pid" ->
   "offer$pid") so assertions survive op-counter drift. *)
let mask_op_ids s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    let j = ref !i in
    while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do
      incr j
    done;
    if !j > !i && !j < n && s.[!j] = '$' then i := !j
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

let count_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i acc =
    if i + nn > nh then acc
    else if String.sub hay i nn = needle then go (i + nn) (acc + 1)
    else go (i + 1) acc
  in
  if nn = 0 then 0 else go 0 0

let contains hay needle = count_substring hay needle > 0

let test_nested () =
  let mgr = setup_nested () in
  let out = mask_op_ids (Trigview.Runtime.explain mgr) in
  let check_has label needle =
    Alcotest.(check bool) label true (contains out needle)
  in
  check_has "header" "== group 0: GROUPED-AGG UPDATE on view catalog ==";
  check_has "triggers line" "triggers: t\n";
  check_has "offer table compiled" "-- table offer: compiled";
  check_has "product table compiled" "-- table product: compiled";
  (* the offer update ran the offer plan; the product plan never fired *)
  check_has "offer plan executed" "[last=1 rows, total=1 over 1 execs]";
  check_has "product plan unexecuted" "[never run]";
  (* tagger fragments render with masked key relations *)
  check_has "fragment section" "fragment (link on offer$pid):";
  check_has "fragment key masked" "rel:fragkeys$_";
  Alcotest.(check bool) "no raw fragkeys name" false (contains out "rel:fragkeys$0");
  (* index selection is visible in the annotations *)
  check_has "index probe" "inl-join inner (probe offer via index pid)";
  check_has "old-state index probe" "inl-join inner (probe oldof offer via index pid)";
  check_has "aggregate grouping" "group_by [offer$pid] aggs=1";
  (* every fragment appears under both table sections: 2 live + 2 never-run *)
  Alcotest.(check int) "fragment count" 4 (count_substring out "fragment (link on")

let () =
  Alcotest.run "explain"
    [ ( "golden",
        [ Alcotest.test_case "UNGROUPED" `Quick test_ungrouped;
          Alcotest.test_case "GROUPED" `Quick test_grouped;
          Alcotest.test_case "GROUPED-AGG" `Quick test_grouped_agg;
          Alcotest.test_case "MATERIALIZED" `Quick test_materialized;
        ] );
      ("nested", [ Alcotest.test_case "fragments and masking" `Quick test_nested ]);
    ]
