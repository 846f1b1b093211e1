(* The workload observatory's ANALYZE/TUNE advisor.

   - golden structure of [analyze] (text) and [analyze_json] (via the
     shared Tjson parser) on the paper's catalog example;
   - the Table-2 acceptance points: with the manager armed GROUPED, a
     1-trigger workload models UNGROUPED cheaper, a 1000-trigger workload
     keeps GROUPED;
   - TUNE round-trip: the applied recommendation re-arms live, the
     subsequent firing log is byte-identical to a runtime armed directly
     with the recommended strategy, and the transition survives
     checkpoint + reopen;
   - drop_trigger telemetry hygiene: histograms and window series die
     with the trigger, [triggers_dropped] records the drop. *)

open Relkit
module Workload = Workloadlib.Workload

let dir_counter = ref 0

let fresh_dir name =
  incr dir_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "trigview_advisor_%d_%d_%s" (Unix.getpid ()) !dir_counter
         name)
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

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let check_contains label haystack needle =
  if not (contains haystack needle) then
    Alcotest.failf "%s: expected %S in:\n%s" label needle haystack

(* --- the catalog example --- *)

let product_schema () =
  Schema.make ~name:"product"
    ~columns:
      [ ("pid", Schema.TString); ("pname", Schema.TString);
        ("price", Schema.TFloat) ]
    ~primary_key:[ "pid" ] ()

let view_text =
  {|<catalog>
    {for $p in view("default")/product/row
     return <product name="{$p/pname}"><price>{$p/price}</price></product>}
  </catalog>|}

let mk_db () =
  let db = Database.create () in
  Database.create_table db (product_schema ());
  Database.insert_rows db ~table:"product"
    [ [| Value.String "P1"; Value.String "crt"; Value.Float 10.0 |];
      [| Value.String "P2"; Value.String "lcd"; Value.Float 20.0 |];
    ];
  db

let bump_price db pid =
  ignore
    (Database.update_pk db ~table:"product" ~pk:[ Value.String pid ]
       ~set:(fun r -> [| r.(0); r.(1); Value.add r.(2) (Value.Float 1.0) |]))

let setup ?(strategy = Trigview.Runtime.Grouped) ?(action = fun _ -> ()) () =
  let db = mk_db () in
  let mgr = Trigview.Runtime.create ~strategy db in
  Trigview.Runtime.define_view mgr ~name:"catalog" view_text;
  Trigview.Runtime.register_action mgr ~name:"rec" action;
  Trigview.Runtime.create_trigger mgr
    "CREATE TRIGGER t AFTER UPDATE ON view('catalog')/product DO rec(NEW_NODE)";
  (db, mgr)

(* --- golden analyze output --- *)

let test_analyze_text () =
  let db, mgr = setup () in
  bump_price db "P1";
  bump_price db "P2";
  let out = Trigview.Runtime.analyze mgr in
  List.iter
    (check_contains "analyze" out)
    [ "workload observatory: window = ";
      "== trigger t (group ";
      "cohort of 1";
      "current: GROUPED";
      "modeled cost/stmt:";
      "UNGROUPED=";
      "GROUPED=";
      "GROUPED-AGG=";
      "MATERIALIZED=";
      (* a singleton cohort under GROUPED pays the constants join for
         nothing: the advisor must propose UNGROUPED *)
      "recommendation: UNGROUPED";
    ]

let test_analyze_json () =
  let db, mgr = setup () in
  bump_price db "P1";
  let j = Tjson.parse_json (Trigview.Runtime.analyze_json mgr) in
  let window = Tjson.member_exn "root" "window" j in
  ignore (Tjson.as_num "buckets" (Tjson.member_exn "window" "buckets" window));
  let trig =
    match Tjson.as_arr "triggers" (Tjson.member_exn "root" "triggers" j) with
    | [ t ] -> t
    | l -> Alcotest.failf "expected 1 trigger object, got %d" (List.length l)
  in
  let str k = Tjson.as_str k (Tjson.member_exn "trigger" k trig) in
  Alcotest.(check string) "name" "t" (str "name");
  Alcotest.(check string) "strategy" "GROUPED" (str "strategy");
  Alcotest.(check string) "recommendation" "UNGROUPED" (str "recommendation");
  Alcotest.(check (float 1e-9)) "cohort" 1.0
    (Tjson.as_num "cohort_members" (Tjson.member_exn "t" "cohort_members" trig));
  let obs = Tjson.member_exn "trigger" "observed" trig in
  Alcotest.(check bool) "windowed observation" true
    (match Tjson.member_exn "observed" "windowed" obs with
    | Tjson.J_bool b -> b
    | _ -> false);
  Alcotest.(check bool) "observed cost positive" true
    (Tjson.as_num "cost" (Tjson.member_exn "observed" "cost_per_stmt_ns" obs)
     > 0.0);
  let modeled = Tjson.member_exn "trigger" "modeled_cost_ns" trig in
  List.iter
    (fun k ->
      if Tjson.member k modeled = None then
        Alcotest.failf "modeled_cost_ns missing %S" k)
    [ "UNGROUPED"; "GROUPED"; "GROUPED-AGG"; "MATERIALIZED" ];
  (* report_json embeds the same advisor object under "observatory" *)
  let rep = Tjson.parse_json (Trigview.Runtime.report_json mgr) in
  let oby = Tjson.member_exn "report" "observatory" rep in
  ignore (Tjson.member_exn "observatory" "knobs" oby);
  ignore (Tjson.member_exn "observatory" "series" oby);
  ignore (Tjson.member_exn "observatory" "advisor" oby)

(* --- Table-2 acceptance: the recommendation flips with cohort size --- *)

let accept_params n =
  { Workload.quick_defaults with
    leaf_tuples = 512;
    num_triggers = n;
    num_satisfied = min n 20;
  }

let reco_at n =
  let p = accept_params n in
  let built = Workload.build p in
  let mgr =
    Trigview.Runtime.create ~strategy:Trigview.Runtime.Grouped built.Workload.db
  in
  Trigview.Runtime.define_view mgr ~name:"doc" built.Workload.view_text;
  Trigview.Runtime.register_action mgr ~name:"record" (fun _ -> ());
  Workload.install_triggers mgr p ~target_name:built.Workload.top_names.(0);
  for step = 0 to 4 do
    Workload.update_leaf built ~top_index:0 ~step
  done;
  match Trigview.Runtime.recommendations mgr with
  | [] -> Alcotest.fail "no recommendations"
  | r :: _ ->
    (* the workload's negative count-thresholds split one plan group off
       (distinct condition shape), so the first cohort holds most — not
       all — of the n triggers *)
    Alcotest.(check bool)
      (Printf.sprintf "cohort size at %d (got %d)" n r.Trigview.Runtime.r_members)
      true
      (r.Trigview.Runtime.r_members >= max 1 (n * 9 / 10)
      && r.Trigview.Runtime.r_members <= n);
    r.Trigview.Runtime.r_recommended

let test_acceptance_flip () =
  Alcotest.(check string) "1 trigger -> UNGROUPED" "UNGROUPED"
    (Trigview.Runtime.strategy_to_string (reco_at 1));
  Alcotest.(check string) "1000 triggers -> GROUPED" "GROUPED"
    (Trigview.Runtime.strategy_to_string (reco_at 1000))

(* --- TUNE round-trip --- *)

let doc_log log fi =
  let render = function
    | Some x -> Xmlkit.Xml.to_string x
    | None -> "-"
  in
  log :=
    Printf.sprintf "%s|%s|%s" fi.Trigview.Runtime.fi_trigger
      (render fi.Trigview.Runtime.fi_old)
      (render fi.Trigview.Runtime.fi_new)
    :: !log

let test_tune_round_trip () =
  let dir = fresh_dir "tune" in
  let log = ref [] in
  let db, mgr = setup ~action:(doc_log log) () in
  Trigview.Runtime.attach_durability mgr ~data_dir:dir;
  bump_price db "P1";
  bump_price db "P2";
  let summary = Trigview.Runtime.tune mgr in
  check_contains "tune summary" summary "t: GROUPED -> UNGROUPED";
  check_contains "tune summary" summary "1 trigger(s) re-armed";
  Alcotest.(check (option string)) "re-armed strategy"
    (Some "UNGROUPED")
    (Option.map Trigview.Runtime.strategy_to_string
       (Trigview.Runtime.trigger_strategy mgr "t"));
  bump_price db "P1";
  bump_price db "P2";
  (* a second tune is a no-op: the cohort already runs the recommendation *)
  let summary2 = Trigview.Runtime.tune mgr in
  check_contains "idempotent tune" summary2 "0 trigger(s) re-armed";
  (* the full firing log must be byte-identical to a runtime armed with
     UNGROUPED from the start, fed the same statements *)
  let log' = ref [] in
  let db', _mgr' =
    setup ~strategy:Trigview.Runtime.Ungrouped ~action:(doc_log log') ()
  in
  bump_price db' "P1";
  bump_price db' "P2";
  bump_price db' "P1";
  bump_price db' "P2";
  Alcotest.(check (list string)) "firing logs byte-identical" !log' !log;
  (* the transition survives checkpoint + reopen *)
  Trigview.Runtime.checkpoint mgr;
  let log'' = ref [] in
  let r =
    Trigview.Runtime.reopen
      ~actions:[ ("rec", doc_log log'') ]
      ~data_dir:dir ()
  in
  Alcotest.(check (list string)) "clean recovery" []
    (r.Trigview.Runtime.recovery.Durability.Recovery.errors
    @ r.Trigview.Runtime.rearm_errors);
  Alcotest.(check (option string)) "strategy survives reopen"
    (Some "UNGROUPED")
    (Option.map Trigview.Runtime.strategy_to_string
       (Trigview.Runtime.trigger_strategy r.Trigview.Runtime.runtime "t"));
  bump_price (Trigview.Runtime.database r.Trigview.Runtime.runtime) "P1";
  Alcotest.(check int) "fires after reopen" 1 (List.length !log'')

(* --- drop hygiene: telemetry dies with the trigger --- *)

let test_drop_unregisters_telemetry () =
  let db, mgr = setup () in
  bump_price db "P1";
  let names_before =
    List.map fst (Trigview.Runtime.latencies mgr)
  in
  Alcotest.(check bool) "trigger histogram live" true
    (List.mem "t" names_before);
  Alcotest.(check bool) "firing histogram live" true
    (List.exists (fun n -> contains n "firing:g") names_before);
  let group_series () =
    List.filter
      (fun n ->
        List.exists
          (fun pfx -> contains n (pfx ^ ":g"))
          [ "firings"; "latency_ns"; "pairs"; "kept"; "spurious"; "scan_rows" ])
      (Obs.Window.names (Database.window db))
  in
  (* no statement here leaves OLD = NEW, so [spurious] never registers *)
  Alcotest.(check (list string)) "window series live"
    [ "firings:g0"; "kept:g0"; "latency_ns:g0"; "pairs:g0"; "scan_rows:g0" ]
    (group_series ());
  Trigview.Runtime.drop_trigger mgr "t";
  let names_after = List.map fst (Trigview.Runtime.latencies mgr) in
  Alcotest.(check bool) "trigger histogram gone" false
    (List.mem "t" names_after);
  Alcotest.(check bool) "firing histogram gone" false
    (List.exists (fun n -> contains n "firing:g") names_after);
  Alcotest.(check (list string)) "all six window series gone" [] (group_series ());
  Alcotest.(check int) "dropped counted" 1
    (Trigview.Runtime.stats mgr).Trigview.Runtime.triggers_dropped

let () =
  Alcotest.run "advisor"
    [ ( "analyze",
        [ Alcotest.test_case "text golden" `Quick test_analyze_text;
          Alcotest.test_case "json golden" `Quick test_analyze_json;
        ] );
      ( "acceptance",
        [ Alcotest.test_case "reco flips with cohort size" `Slow
            test_acceptance_flip;
        ] );
      ( "tune",
        [ Alcotest.test_case "round trip + reopen" `Quick test_tune_round_trip ] );
      ( "hygiene",
        [ Alcotest.test_case "drop unregisters telemetry" `Quick
            test_drop_unregisters_telemetry;
        ] );
    ]
