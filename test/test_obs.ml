(* Observability-layer unit tests: the trace ring's eviction policy, the
   percentile clamp, and well-formedness of every JSON/Prometheus export
   (report_json, trace json, audit_json, Chrome trace-event, text
   exposition).  JSON is checked with a minimal recursive-descent parser —
   enough to reject anything a real parser would reject. *)

open Relkit

(* the JSON parser is Tjson, shared across the test executables *)

open Tjson

(* --- trace ring: a full buffer evicts the OLDEST event --- *)

let ev name start =
  { Obs.Trace.ev_name = name; ev_note = ""; ev_start_ns = Int64.of_int start;
    ev_dur_ns = 1L }

let test_trace_ring_eviction () =
  let tr = Obs.Trace.create ~limit:4 () in
  for i = 1 to 6 do
    Obs.Trace.record tr (ev (Printf.sprintf "e%d" i) (i * 10))
  done;
  Alcotest.(check (list string)) "newest window kept"
    [ "e3"; "e4"; "e5"; "e6" ]
    (List.map (fun e -> e.Obs.Trace.ev_name) (Obs.Trace.events tr));
  Alcotest.(check int) "dropped counts evictions" 2 (Obs.Trace.dropped tr);
  (* draining continues to rotate: two more evictions *)
  Obs.Trace.record tr (ev "e7" 70);
  Obs.Trace.record tr (ev "e8" 80);
  Alcotest.(check (list string)) "window advanced"
    [ "e5"; "e6"; "e7"; "e8" ]
    (List.map (fun e -> e.Obs.Trace.ev_name) (Obs.Trace.events tr));
  Alcotest.(check int) "dropped accumulated" 4 (Obs.Trace.dropped tr)

let test_audit_ring_eviction () =
  let a = Obs.Audit.create ~limit:2 () in
  Obs.Audit.set_enabled a true;
  let mk id =
    { Obs.Audit.id; ts_ns = 0L; stmt_id = id; stmt_event = "UPDATE";
      stmt_table = "t"; sql_trigger = "trig"; strategy = "GROUPED";
      group_id = 0; view = "v"; plan_table = "t"; plan_mode = "compiled";
      frag_keys = []; cond_mode = "none"; origin = ""; delta_rows = 0; nabla_rows = 0;
      pairs_computed = 0; pairs_spurious = 0; pairs_kept = 0;
      cond_rejected = 0; dispatched = 0; actions = []; notes = [];
    }
  in
  List.iter (fun id -> Obs.Audit.add a (mk id)) [ 1; 2; 3 ];
  Alcotest.(check (list int)) "newest two kept" [ 2; 3 ]
    (List.map (fun r -> r.Obs.Audit.id) (Obs.Audit.records a));
  Alcotest.(check int) "dropped" 1 (Obs.Audit.dropped a);
  Alcotest.(check bool) "evicted id explained" true
    (String.length (Obs.Audit.why a 1) > 0 && Obs.Audit.find a 1 = None)

(* --- percentile clamp: the geometric midpoint cannot leave [min, max] --- *)

let test_percentile_empty () =
  let h = Obs.Metrics.create_histogram () in
  Alcotest.(check (float 0.0)) "empty p50" 0.0 (Obs.Metrics.percentile_ns h 0.5)

let test_percentile_single_sample () =
  let h = Obs.Metrics.create_histogram () in
  Obs.Metrics.observe h 1000L;
  (* raw midpoint of bucket [512, 1024) is ~724 ns — below the only sample;
     the clamp pins every percentile to it *)
  List.iter
    (fun q ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "single-sample p%.0f" (q *. 100.0))
        1000.0
        (Obs.Metrics.percentile_ns h q))
    [ 0.5; 0.95; 0.99 ]

let test_percentile_same_bucket () =
  let h = Obs.Metrics.create_histogram () in
  List.iter (fun ns -> Obs.Metrics.observe h ns) [ 600L; 700L; 800L ];
  List.iter
    (fun q ->
      let p = Obs.Metrics.percentile_ns h q in
      Alcotest.(check bool)
        (Printf.sprintf "p%.0f within observed range" (q *. 100.0))
        true
        (p >= 600.0 && p <= 800.0))
    [ 0.01; 0.5; 0.99 ]

(* --- export formats over a live runtime --- *)

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

let setup_live () =
  let db = Database.create () in
  Database.create_table db product_schema;
  Database.insert_rows db ~table:"product"
    [ [| Value.String "P1"; Value.String "crt"; Value.Float 10.0 |];
      [| Value.String "P2"; Value.String "lcd"; Value.Float 20.0 |];
    ];
  let mgr = Trigview.Runtime.create ~strategy:Trigview.Runtime.Grouped db in
  Trigview.Runtime.define_view mgr ~name:"catalog" view_text;
  Trigview.Runtime.register_action mgr ~name:"rec" (fun _ -> ());
  Trigview.Runtime.set_tracing mgr true;
  Trigview.Runtime.set_audit mgr true;
  Trigview.Runtime.create_trigger mgr
    "CREATE TRIGGER t AFTER UPDATE ON view('catalog')/product DO rec(NEW_NODE)";
  ignore
    (Database.update_pk db ~table:"product" ~pk:[ Value.String "P1" ]
       ~set:(fun r -> [| r.(0); r.(1); Value.Float 11.0 |]));
  mgr

let test_json_exports_well_formed () =
  let mgr = setup_live () in
  check_valid_json "report_json" (Trigview.Runtime.report_json mgr);
  check_valid_json "explain_json" (Trigview.Runtime.explain_json mgr);
  check_valid_json "trace_json" (Trigview.Runtime.trace_json mgr);
  check_valid_json "audit_json" (Trigview.Runtime.audit_json mgr);
  check_valid_json "trace_chrome_json" (Trigview.Runtime.trace_chrome_json mgr)

let test_chrome_trace_structure () =
  let mgr = setup_live () in
  let events =
    match parse_json (Trigview.Runtime.trace_chrome_json mgr) with
    | J_obj fields -> (
      match List.assoc_opt "traceEvents" fields with
      | Some (J_arr evs) -> evs
      | _ -> Alcotest.fail "no traceEvents array")
    | _ -> Alcotest.fail "chrome trace is not an object"
  in
  Alcotest.(check bool) "has events" true (events <> []);
  let field name = function
    | J_obj fs -> List.assoc_opt name fs
    | _ -> None
  in
  let num = function Some (J_num f) -> f | _ -> Alcotest.fail "missing number" in
  let str = function Some (J_str s) -> s | _ -> Alcotest.fail "missing string" in
  (* every event: non-negative ts; complete events also non-negative dur;
     per-phase ts sequences are monotone (spans sort by start, instants by
     timestamp) *)
  let last_span = ref neg_infinity and last_instant = ref neg_infinity in
  let spans = ref 0 and instants = ref 0 in
  List.iter
    (fun e ->
      let ts = num (field "ts" e) in
      Alcotest.(check bool) "ts non-negative" true (ts >= 0.0);
      match str (field "ph" e) with
      | "X" ->
        incr spans;
        let dur = num (field "dur" e) in
        Alcotest.(check bool) "dur non-negative" true (dur >= 0.0);
        Alcotest.(check bool) "span ts monotone" true (ts >= !last_span);
        last_span := ts
      | "i" ->
        incr instants;
        Alcotest.(check bool) "instant ts monotone" true (ts >= !last_instant);
        last_instant := ts
      | ph -> Alcotest.failf "unexpected phase %S" ph)
    events;
  Alcotest.(check bool) "has span events" true (!spans > 0);
  (* auditing was on and the update fired: its record must be an instant *)
  Alcotest.(check bool) "audit records exported as instants" true (!instants > 0)

let test_prometheus_exposition () =
  let mgr = setup_live () in
  let out = Trigview.Runtime.metrics_prometheus mgr in
  let lines = String.split_on_char '\n' out in
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then begin
        Alcotest.(check bool)
          (Printf.sprintf "metric line starts with family name: %s" line)
          true
          (String.length line > 9 && String.sub line 0 9 = "trigview_");
        match String.rindex_opt line ' ' with
        | None -> Alcotest.failf "no value on line %S" line
        | Some i ->
          let v = String.sub line (i + 1) (String.length line - i - 1) in
          if float_of_string_opt v = None then
            Alcotest.failf "non-numeric value %S on line %S" v line
      end)
    lines;
  let contains needle =
    let nh = String.length out and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub out i nn = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (contains needle))
    [ "# TYPE trigview_runtime_total counter";
      "# TYPE trigview_latency_ns histogram";
      "trigview_runtime_total{name=\"sql_firings\"}";
      "trigview_latency_ns_bucket{name=";
      "le=\"+Inf\"";
      "trigview_audit_total{name=\"records\"} 1";
    ]

(* The full family/label inventory, with durability attached so every
   runtime family is present.  Window rates and the advisor's pick depend
   on timing, so their values are masked. *)
let test_prometheus_inventory () =
  let mgr = setup_live () in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "trigview_obs_%d" (Unix.getpid ()))
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
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  Trigview.Runtime.attach_durability mgr ~data_dir:dir;
  ignore
    (Database.update_pk (Trigview.Runtime.database mgr) ~table:"product"
       ~pk:[ Value.String "P2" ]
       ~set:(fun r -> [| r.(0); r.(1); Value.Float 21.0 |]));
  let out = Trigview.Runtime.metrics_prometheus mgr in
  Trigview.Runtime.detach_durability mgr;
  Prom_inventory.check
    ~timed:
      [ "trigview_window_rate"; "trigview_window_ewma";
        "trigview_recommended_strategy" ]
    "runtime families"
    [
      "# TYPE trigview_runtime_total counter";
      "trigview_runtime_total{name=\"sql_firings\"} 2";
      "trigview_runtime_total{name=\"rows_computed\"} 2";
      "trigview_runtime_total{name=\"actions_dispatched\"} 2";
      "trigview_runtime_total{name=\"plans_compiled\"} 1";
      "trigview_runtime_total{name=\"compiled_execs\"} 2";
      "trigview_runtime_total{name=\"build_cache_hits\"} 0";
      "trigview_runtime_total{name=\"build_cache_misses\"} 0";
      "trigview_runtime_total{name=\"prefilter_skips\"} 1";
      "trigview_runtime_total{name=\"independence_skips\"} 0";
      "trigview_runtime_total{name=\"triggers_dropped\"} 0";
      "# TYPE trigview_obs_config gauge";
      "trigview_obs_config{name=\"trace_ring\"} 8192";
      "trigview_obs_config{name=\"audit_ring\"} 4096";
      "trigview_obs_config{name=\"window_buckets\"} 12";
      "trigview_obs_config{name=\"window_width_ms\"} 5000";
      "trigview_obs_config{name=\"request_deadline_ms\"} 10000";
      "# TYPE trigview_window_rate gauge";
      "trigview_window_rate{name=\"dml:product\"} _";
      "trigview_window_rate{name=\"dml:trigconsts0\"} _";
      "trigview_window_rate{name=\"dml_rows:product\"} _";
      "trigview_window_rate{name=\"dml_rows:trigconsts0\"} _";
      "trigview_window_rate{name=\"firings:g0\"} _";
      "trigview_window_rate{name=\"kept:g0\"} _";
      "trigview_window_rate{name=\"latency_ns:g0\"} _";
      "trigview_window_rate{name=\"pairs:g0\"} _";
      "trigview_window_rate{name=\"scan_rows:g0\"} _";
      "trigview_window_rate{name=\"skips:prefilter\"} _";
      "# TYPE trigview_window_ewma gauge";
      "trigview_window_ewma{name=\"dml:product\"} _";
      "trigview_window_ewma{name=\"dml:trigconsts0\"} _";
      "trigview_window_ewma{name=\"dml_rows:product\"} _";
      "trigview_window_ewma{name=\"dml_rows:trigconsts0\"} _";
      "trigview_window_ewma{name=\"firings:g0\"} _";
      "trigview_window_ewma{name=\"kept:g0\"} _";
      "trigview_window_ewma{name=\"latency_ns:g0\"} _";
      "trigview_window_ewma{name=\"pairs:g0\"} _";
      "trigview_window_ewma{name=\"scan_rows:g0\"} _";
      "trigview_window_ewma{name=\"skips:prefilter\"} _";
      "# TYPE trigview_recommended_strategy gauge";
      "trigview_recommended_strategy{name=\"t\"} _";
      "# TYPE trigview_scan_rows_total counter";
      "trigview_scan_rows_total{name=\"delta:product\"} 4";
      "trigview_scan_rows_total{name=\"nabla:product\"} 4";
      "trigview_scan_rows_total{name=\"scan:trigconsts0\"} 2";
      "# TYPE trigview_probe_total counter";
      "trigview_probe_total{name=\"product/pk_probes\"} 8";
      "trigview_probe_total{name=\"product/pk_hits\"} 6";
      "trigview_probe_total{name=\"product/idx_probes\"} 0";
      "trigview_probe_total{name=\"product/idx_hits\"} 0";
      "trigview_probe_total{name=\"product/scan_lookups\"} 0";
      "trigview_probe_total{name=\"product/lookup_cache_hits\"} 0";
      "trigview_probe_total{name=\"trigconsts0/pk_probes\"} 1";
      "trigview_probe_total{name=\"trigconsts0/pk_hits\"} 0";
      "trigview_probe_total{name=\"trigconsts0/idx_probes\"} 0";
      "trigview_probe_total{name=\"trigconsts0/idx_hits\"} 0";
      "trigview_probe_total{name=\"trigconsts0/scan_lookups\"} 0";
      "trigview_probe_total{name=\"trigconsts0/lookup_cache_hits\"} 0";
      "# TYPE trigview_latency_ns histogram";
      "trigview_latency_ns_bucket{name=\"firing:g0:product\",le=\"+Inf\"} 2";
      "trigview_latency_ns_sum{name=\"firing:g0:product\"} _";
      "trigview_latency_ns_count{name=\"firing:g0:product\"} 2";
      "trigview_latency_ns_bucket{name=\"t\",le=\"+Inf\"} 2";
      "trigview_latency_ns_sum{name=\"t\"} _";
      "trigview_latency_ns_count{name=\"t\"} 2";
      "# TYPE trigview_durability_ns histogram";
      "trigview_durability_ns_bucket{name=\"checkpoint\",le=\"+Inf\"} 1";
      "trigview_durability_ns_sum{name=\"checkpoint\"} _";
      "trigview_durability_ns_count{name=\"checkpoint\"} 1";
      "trigview_durability_ns_bucket{name=\"wal.append\",le=\"+Inf\"} 1";
      "trigview_durability_ns_sum{name=\"wal.append\"} _";
      "trigview_durability_ns_count{name=\"wal.append\"} 1";
      "trigview_durability_ns_bucket{name=\"wal.fsync\",le=\"+Inf\"} 1";
      "trigview_durability_ns_sum{name=\"wal.fsync\"} _";
      "trigview_durability_ns_count{name=\"wal.fsync\"} 1";
      "# TYPE trigview_audit_total counter";
      "trigview_audit_total{name=\"records\"} 2";
      "trigview_audit_total{name=\"dropped\"} 0";

    ]
    out

let () =
  Alcotest.run "obs"
    [ ( "ring",
        [ Alcotest.test_case "trace eviction" `Quick test_trace_ring_eviction;
          Alcotest.test_case "audit eviction" `Quick test_audit_ring_eviction;
        ] );
      ( "percentiles",
        [ Alcotest.test_case "empty" `Quick test_percentile_empty;
          Alcotest.test_case "single sample" `Quick test_percentile_single_sample;
          Alcotest.test_case "same bucket" `Quick test_percentile_same_bucket;
        ] );
      ( "exports",
        [ Alcotest.test_case "JSON well-formed" `Quick test_json_exports_well_formed;
          Alcotest.test_case "chrome trace" `Quick test_chrome_trace_structure;
          Alcotest.test_case "prometheus" `Quick test_prometheus_exposition;
          Alcotest.test_case "prometheus inventory" `Quick test_prometheus_inventory;
        ] );
    ]
