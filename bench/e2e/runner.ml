(* One run of one workload: set-up, warm-up, timed phase, checks, and the
   metrics it reports.  The last line printed is the result object
   {"correct", "attempted", "failed", "metrics"}. *)

open Harness

type config = {
  seed : int;
  seconds : float;
  trace : bool;
  check_only : bool;  (* one set-up, no warm-up: the smoke test *)
  out : string;  (* where a traced run writes its layer and Perfetto files *)
}

(* The state is built at least [min_setups] times before the run, and more
   until the builds have taken [setup_budget_s]; after the checks it is
   built again until all builds have taken [setup_total_s].  setup_s is the
   median of the fastest quarter of the builds, as the timed phase's medians
   come from its fastest quarter of windows: the host's speed shifts every
   few seconds, and builds at both ends of the run meet more of its fast
   spells.  A full collection runs between builds, so one build's garbage
   does not raise the next one's heap peak. *)
let warmup_s = 3.0
let min_setups = 3
let setup_budget_s = 1.0
let setup_total_s = 3.0

let p s q = Samples.percentile s q
let per_s n (sl : slices) = if sl.wall_ns = 0L then 0.0 else float_of_int n /. (Int64.to_float sl.wall_ns /. 1e9)

let merged tbl keys =
  let s = Samples.create () in
  List.iter
    (fun k -> Option.iter (fun x -> Array.iter (Samples.add s) (Samples.to_array x)) (Hashtbl.find_opt tbl k))
    keys;
  s

let self_p ctx keys q = p (merged ctx.self keys) q
let incl_p ctx key q = p (merged ctx.incl [ key ]) q

(* The gated rates and medians come from the fastest quarter of the
   untraced half-second windows (see [Harness.fastest]); the tails and
   [ops_per_s_whole] from every window, so a stall (a checkpoint, a major GC
   slice) always counts in them. *)
let fastest_share = 0.25
let whole sl = fastest sl 1.0
let rate (w : pooled) n = if w.secs > 0.0 then float_of_int n /. w.secs else 0.0

(* (name, value, samples); [heap_words] is the heap's peak at the end of the
   timed phase *)
let end_to_end ctx ~builds ~heap_words =
  let f = fastest ctx.plain fastest_share in
  [ ("setup_s", Samples.low_median (Samples.to_array builds) fastest_share, Samples.count builds);
    ("ops_per_s", rate f f.ops, f.ops);
    ("stmt_p50_ms", p f.stmt 0.50, Samples.count f.stmt);
    ("notify_p50_ms", p f.notify 0.50, Samples.count f.notify);
    ("notifs_per_s", rate f (Samples.count f.notify), Samples.count f.notify);
    ("heap_peak_mb", float_of_int (heap_words * (Sys.word_size / 8)) /. 1e6, 1);
  ]

(* Printed beside the end-to-end metrics, not gated: tails swing with the
   host more than any bound allows, and queries exist on one workload. *)
let also ctx =
  let all = whole ctx.plain in
  [ ("ops_per_s_whole", rate all all.ops, all.ops, "1/s");
    ("stmt_p99_ms", p all.stmt 0.99, Samples.count all.stmt, "ms");
    ("notify_p99_ms", p all.notify 0.99, Samples.count all.notify, "ms");
    ("query_p50_ms", p all.query 0.50, Samples.count all.query, "ms");
    ("query_p99_ms", p all.query 0.99, Samples.count all.query, "ms");
    ( "failed_frac",
      (if ctx.attempted = 0 then 0.0 else float_of_int ctx.failed /. float_of_int ctx.attempted),
      ctx.attempted,
      "ratio" );
  ]

let per_layer ctx ~before ~after =
  let pl = ctx.plain and tr = ctx.traced in
  let all = whole pl in
  let stmts = float_of_int (Samples.count pl.stmt + Samples.count tr.stmt) in
  let per_stmt x = if stmts > 0.0 then x /. stmts else 0.0 in
  let delta ?name metric = Prom.sum ?name after metric -. Prom.sum ?name before metric in
  let runtime name = delta ~name "trigview_runtime_total" in
  let layer name = Option.value ~default:0.0 (Hashtbl.find_opt ctx.layer name) in
  let setup_p name q = Option.fold ~none:0.0 ~some:(fun s -> p s q) (Hashtbl.find_opt ctx.setup_calls name) in
  let durability name q = Prom.delta_percentile ~before ~after "trigview_durability_ns" name q in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let wall_s (sl : slices) = Int64.to_float sl.wall_ns /. 1e9 in
  [ ("op.ops_per_s_whole", rate all all.ops);
    ("op.stmt_p99_ms", p all.stmt 0.99);
    ("op.notify_p99_ms", p all.notify 0.99);
    ("httpd.transport_p50_ms", self_p ctx [ "http.rtt" ] 0.5);
    ("httpd.busy_frac", layer "httpd.busy_frac");
    ("httpd.deadline_aborts", delta ~name:"deadline_aborts" "trigview_http_total");
    ("httpd.overloads", delta ~name:"overloads" "trigview_http_total");
    ("api.query_p50_ms", p all.query 0.5);
    ("api.query_p99_ms", p all.query 0.99);
    ("api.query_self_p50_ms", self_p ctx [ "http GET /views" ] 0.5);
    ("api.query_self_p99_ms", self_p ctx [ "http GET /views" ] 0.99);
    ("api.write_self_p50_ms", self_p ctx [ "http POST /sql"; "http POST /views/update" ] 0.5);
    ("sql.self_p50_ms", self_p ctx [ "Sql.exec" ] 0.5);
    ("sql.self_p99_ms", self_p ctx [ "Sql.exec" ] 0.99);
    ("viewupdate.self_p50_ms", self_p ctx [ "Viewupdate.execute" ] 0.5);
    ("viewupdate.self_p99_ms", self_p ctx [ "Viewupdate.execute" ] 0.99);
    ("database.dml_self_p50_ms", self_p ctx [ "dml" ] 0.5);
    ("database.prefilter_skips_per_stmt", per_stmt (runtime "prefilter_skips"));
    ("database.independence_skips_per_stmt", per_stmt (runtime "independence_skips"));
    ("runtime.trigger_self_p50_ms", self_p ctx [ "trigger" ] 0.5);
    ("runtime.dispatch_self_p50_ms", self_p ctx [ "dispatch" ] 0.5);
    ("runtime.firings_per_stmt", per_stmt (runtime "sql_firings"));
    ("runtime.pairs_per_stmt", per_stmt (runtime "rows_computed"));
    ("runtime.dispatch_per_pair", ratio (runtime "actions_dispatched") (runtime "rows_computed"));
    ("runtime.scan_rows_per_stmt", per_stmt (delta "trigview_scan_rows_total"));
    ("pushdown.plan_self_p50_ms", self_p ctx [ "plan.exec" ] 0.5);
    ("pushdown.frag_self_p50_ms", self_p ctx [ "frag.exec" ] 0.5);
    ("pushdown.tagger_self_p50_ms", self_p ctx [ "tagger" ] 0.5);
    ("pool.cpu_per_wall", ratio pl.cpu_s (wall_s pl));
    ("subscribe.flush_p50_ms", incl_p ctx "Subscribe.flush" 0.5);
    ("subscribe.flush_p99_ms", incl_p ctx "Subscribe.flush" 0.99);
    ("subscribe.enqueued_per_stmt", per_stmt (delta "trigview_subscription_enqueued_total"));
    ("subscribe.dropped", delta "trigview_subscription_dropped_total");
    ("subscribe.coalesced", delta "trigview_subscription_coalesced_total");
    ("notification.render_p50_us", 1e3 *. incl_p ctx "Notification.to_ndjson" 0.5);
    ("notification.bytes_p50", layer "notification.bytes_p50");
    ("wal.append_p50_us", durability "wal.append" 0.5 /. 1e3);
    ("wal.fsync_p99_us", durability "wal.fsync" 0.99 /. 1e3);
    ( "wal.fsyncs_per_kstmt",
      1e3 *. per_stmt (Prom.delta_count ~before ~after "trigview_durability_ns" "wal.fsync") );
    ("wal.bytes_per_stmt", layer "wal.bytes_per_stmt");
    ("store.checkpoint_p50_ms", layer "store.checkpoint_p50_ms");
    ("store.checkpoint_max_ms", layer "store.checkpoint_max_ms");
    ("recovery.reopen_s", layer "recovery.reopen_s");
    ("recovery.replay_s", layer "recovery.replay_s");
    ("recovery.rearm_s", layer "recovery.rearm_s");
    ("compile.view_ms", setup_p "define_view" 0.5);
    ("compile.trigger_p50_ms", setup_p "create_trigger" 0.5);
    ("gc.alloc_kb_per_op", ratio (pl.alloc_words *. float_of_int (Sys.word_size / 8) /. 1024.0) (float_of_int pl.ops));
    ("gc.major_per_kop", ratio (1e3 *. float_of_int pl.majors) (float_of_int pl.ops));
    ("trace.overhead_pct", 100.0 *. (ratio (per_s pl.ops pl) (per_s tr.ops tr) -. 1.0));
    ("trace.dropped", float_of_int ctx.trace_dropped);
    ("trace.self_sum_err_pct", 100.0 *. ratio (Float.abs (ctx.self_ns -. ctx.dur_ns)) ctx.dur_ns);
  ]

let metrics_json defs values =
  Json.Obj
    (List.map
       (fun (d : Metric.t) ->
         let v = List.assoc d.Metric.name values in
         (d.Metric.name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str d.Metric.unit_) ]))
       defs)

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let span_stats ctx =
  Hashtbl.fold (fun k s acc -> (k, s) :: acc) ctx.self []
  |> List.sort compare
  |> List.map (fun (k, self) ->
         let incl = Hashtbl.find ctx.incl k in
         ( k,
           Json.Obj
             [ ("n", Json.Num (float_of_int (Samples.count self)));
               ("self_p50_ms", Json.Num (p self 0.5));
               ("self_p99_ms", Json.Num (p self 0.99));
               ("self_total_ms", Json.Num (Array.fold_left ( +. ) 0.0 (Samples.to_array self)));
               ("incl_p50_ms", Json.Num (p incl 0.5));
               ("incl_p99_ms", Json.Num (p incl 0.99));
             ] ))

let execute (w : workload) cfg =
  let ctx = create ~seed:cfg.seed ~tmp:(Filename.concat cfg.out "tmp") ~trace:cfg.trace in
  let builds = Samples.create () in
  let build () =
    Hashtbl.reset ctx.setup_calls;
    let t0 = now () in
    let inst = w.setup ctx in
    Samples.add builds (ms_since t0 /. 1e3);
    inst
  in
  let built_s () = Array.fold_left ( +. ) 0.0 (Samples.to_array builds) in
  let rec first () =
    let inst = build () in
    if cfg.check_only || (Samples.count builds >= min_setups && built_s () >= setup_budget_s) then inst
    else begin
      inst.close ();
      Gc.compact ();
      first ()
    end
  in
  let inst = first () in
  let before, after, heap_words =
    Fun.protect ~finally:inst.close (fun () ->
        if not cfg.check_only then inst.run ctx ~seconds:warmup_s;
        Gc.compact ();
        let before = Prom.parse (inst.prom ()) in
        ctx.recording <- true;
        inst.run ctx ~seconds:cfg.seconds;
        ctx.recording <- false;
        let heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
        let after = Prom.parse (inst.prom ()) in
        inst.finish ctx;
        (before, after, heap_words))
  in
  while (not cfg.check_only) && built_s () < setup_total_s do
    Gc.compact ();
    (build ()).close ()
  done;
  (try Sys.rmdir ctx.tmp with Sys_error _ -> ());
  if cfg.trace then begin
    check ctx (ctx.trace_dropped = 0) (Printf.sprintf "%d trace events dropped" ctx.trace_dropped);
    check ctx (ctx.inexact = 0)
      (Printf.sprintf "%d single-domain ops whose span self times do not add up" ctx.inexact)
  end;
  let e2e = end_to_end ctx ~builds ~heap_words in
  let layers = per_layer ctx ~before ~after in
  Printf.printf "trigbench %s seed=%d seconds=%g trace=%b\n" w.name cfg.seed cfg.seconds cfg.trace;
  List.iter
    (fun (name, v, n, unit_) -> Printf.printf "  %-22s %14.4f %-5s n=%d\n" name v unit_ n)
    (List.map (fun (name, v, n) -> (name, v, n, (Option.get (Metric.find name)).Metric.unit_)) e2e
    @ also ctx);
  if cfg.trace then begin
    List.iter
      (fun (name, v) ->
        let d = Option.get (Metric.find name) in
        Printf.printf "  %-38s %14.4f %s\n" name v d.Metric.unit_)
      layers;
    mkdir_p cfg.out;
    let base = Filename.concat cfg.out w.name in
    write_file (base ^ ".layers.json")
      (Json.to_string
         (Json.Obj
            [ ("workload", Json.Str w.name);
              ("seed", Json.Num (float_of_int cfg.seed));
              ("metrics", metrics_json Metric.per_layer layers);
              ("spans", Json.Obj (span_stats ctx));
            ])
      ^ "\n");
    write_file (base ^ ".trace.json") (Spans.chrome_json (List.rev ctx.kept));
    Printf.printf "  wrote %s.layers.json and %s.trace.json\n" base base
  end;
  let metrics =
    if cfg.trace then metrics_json Metric.per_layer layers
    else metrics_json Metric.end_to_end (List.map (fun (n, v, _) -> (n, v)) e2e)
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool (ctx.failed = 0));
            ("attempted", Json.Num (float_of_int (max 1 ctx.attempted)));
            ("failed", Json.Num (float_of_int ctx.failed));
            ("metrics", metrics);
          ]));
  ctx.failed = 0
