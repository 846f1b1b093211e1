(* The benchmark harness: regenerates every figure of the paper's evaluation
   (§6 and Appendix G).

     dune exec bench/main.exe            -- quick (scaled-down) sweeps
     dune exec bench/main.exe -- --full  -- Table 2 paper-scale parameters
     dune exec bench/main.exe -- --fig=17,23
     dune exec bench/main.exe -- --bechamel  -- bechamel micro-benchmarks

   Absolute numbers are not comparable to the paper's 933 MHz testbed; the
   claims under reproduction are the *shapes*: UNGROUPED grows linearly with
   the trigger count while GROUPED/GROUPED-AGG stay flat (Fig. 17), run time
   grows roughly linearly with depth (Fig. 18) and with the number of
   satisfied triggers (Fig. 24), is insensitive to database size for the
   translated triggers but not for the MATERIALIZED baseline (Fig. 23), and
   GROUPED-AGG's advantage grows with fanout (Fig. 22). *)

module Runtime = Trigview.Runtime

let dispatched = ref 0

let mgr_of strategy (built : Workloadlib.Workload.built) =
  let mgr = Runtime.create ~strategy built.Workloadlib.Workload.db in
  Runtime.define_view mgr ~name:"doc" built.Workloadlib.Workload.view_text;
  Runtime.register_action mgr ~name:"record" (fun _ -> incr dispatched);
  mgr

(* One measurement: wall clock from the OS monotonic clock (immune to NTP
   slews and, unlike the old [Sys.time]-only code, to the wall/CPU confusion
   that undercounted any time spent off-CPU), plus process CPU time.  A large
   wall/cpu gap flags paging or scheduler noise in a run. *)
type sample = { wall_ms : float; cpu_ms : float }

let nan_sample = { wall_ms = Float.nan; cpu_ms = Float.nan }

(* Average ms per single-row leaf update. *)
let time_point ?(updates = 40) ?(trace = false) ?(audit = false) params strategy =
  let built = Workloadlib.Workload.build params in
  let mgr = mgr_of strategy built in
  Workloadlib.Workload.install_triggers mgr params ~target_name:built.Workloadlib.Workload.top_names.(0);
  (* warm up: fault in indexes and shared plans *)
  for step = 0 to 2 do
    Workloadlib.Workload.update_leaf built ~top_index:0 ~step
  done;
  if trace then Runtime.set_tracing mgr true;
  if audit then Runtime.set_audit mgr true;
  Runtime.reset_stats mgr;
  let w0 = Monotonic_clock.now () in
  let c0 = Sys.time () in
  for step = 3 to 3 + updates - 1 do
    Workloadlib.Workload.update_leaf built ~top_index:0 ~step
  done;
  let c1 = Sys.time () in
  let w1 = Monotonic_clock.now () in
  let n = float_of_int updates in
  { wall_ms = Int64.to_float (Int64.sub w1 w0) /. 1e6 /. n;
    cpu_ms = (c1 -. c0) *. 1000.0 /. n;
  }

(* --- JSON export (--json): machine-readable per-figure numbers --- *)

let json_requested = ref false
let json_entries : (string * string * string * sample) list ref = ref []

let record ~fig ~row ~series sample =
  json_entries := (fig, row, series, sample) :: !json_entries;
  sample

let json_float v =
  if Float.is_nan v then "null" else Printf.sprintf "%.6f" v

(* Audit-enabled overhead on the [overhead] figure, as a percentage of the
   everything-off baseline; CI gates on this staying under 10%. *)
let audit_overhead_pct () =
  let find row =
    List.find_map
      (fun (fig, r, _, sample) ->
        if fig = "overhead" && r = row && not (Float.is_nan sample.wall_ms) then
          Some sample.wall_ms
        else None)
      !json_entries
  in
  match find "baseline", find "audit-on" with
  | Some base, Some audit when base > 0.0 -> (audit -. base) /. base *. 100.0
  | _ -> Float.nan

(* Subscription-path overhead on the [fanout] figure's "overhead" rows:
   hub-delivered notifications vs bare action dispatch with identical
   trigger structure and arguments; CI gates on this staying under 10%. *)
let subscription_overhead_pct () =
  let find series =
    List.find_map
      (fun (fig, r, s, sample) ->
        if fig = "fanout" && r = "overhead" && s = series
           && not (Float.is_nan sample.wall_ms)
        then Some sample.wall_ms
        else None)
      !json_entries
  in
  match find "bare-dispatch", find "subscription" with
  | Some base, Some sub when base > 0.0 -> (sub -. base) /. base *. 100.0
  | _ -> Float.nan

(* fanout figure sidecar: delivered-notification throughput per
   (subscriber count, coalescing) cell. *)
let fanout_throughput : (string * string * float) list ref = ref []

(* Per-phase wall-time breakdowns ("phases" section of the JSON): span
   totals per strategy over one traced sweep. *)
let phase_entries : (string * (string * float) list) list ref = ref []

let write_json ~full path =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"mode\": \"%s\",\n" (if full then "full" else "quick"));
  Buffer.add_string buf
    (Printf.sprintf "  \"audit_overhead_pct\": %s,\n"
       (json_float (audit_overhead_pct ())));
  Buffer.add_string buf
    (Printf.sprintf "  \"subscription_overhead_pct\": %s,\n"
       (json_float (subscription_overhead_pct ())));
  Buffer.add_string buf "  \"fanout_throughput\": [";
  let tputs = List.rev !fanout_throughput in
  List.iteri
    (fun i (row, series, nps) ->
      if i > 0 then Buffer.add_string buf ",";
      Buffer.add_string buf
        (Printf.sprintf
           "\n    {\"subscribers\": %s, \"series\": \"%s\", \
            \"notifications_per_sec\": %s}"
           row series (json_float nps)))
    tputs;
  Buffer.add_string buf (if tputs = [] then "],\n" else "\n  ],\n");
  Buffer.add_string buf "  \"phases\": {";
  List.iteri
    (fun i (series, phases) ->
      if i > 0 then Buffer.add_string buf ",";
      Buffer.add_string buf (Printf.sprintf "\n    \"%s\": {" series);
      List.iteri
        (fun j (name, ms) ->
          if j > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf (Printf.sprintf "\"%s\": %.3f" name ms))
        phases;
      Buffer.add_string buf "}")
    (List.rev !phase_entries);
  Buffer.add_string buf "\n  },\n";
  Buffer.add_string buf "  \"entries\": [\n";
  let entries = List.rev !json_entries in
  List.iteri
    (fun i (fig, row, series, s) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"figure\": \"%s\", \"row\": \"%s\", \"series\": \"%s\", \
            \"wall_ms_per_update\": %s, \"cpu_ms_per_update\": %s}%s\n"
           fig row series (json_float s.wall_ms) (json_float s.cpu_ms)
           (if i = List.length entries - 1 then "" else ",")))
    entries;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "\nwrote %s\n" path

let print_header title columns =
  Printf.printf "\n== %s ==\n" title;
  Printf.printf "%-12s %s\n" (List.hd columns)
    (String.concat "" (List.map (Printf.sprintf "%14s") (List.tl columns)))

let print_row label cells =
  Printf.printf "%-12s %s\n%!" label
    (String.concat ""
       (List.map
          (fun v -> if Float.is_nan v then Printf.sprintf "%14s" "-" else Printf.sprintf "%14.3f" v)
          cells))

(* Sample rows print as wall/cpu pairs in one column per series. *)
let print_header_s title columns =
  Printf.printf "\n== %s ==\n" title;
  Printf.printf "%-12s %s\n" (List.hd columns)
    (String.concat "" (List.map (Printf.sprintf "%18s") (List.tl columns)))

let print_row_s label cells =
  Printf.printf "%-12s %s\n%!" label
    (String.concat ""
       (List.map
          (fun s ->
            if Float.is_nan s.wall_ms then Printf.sprintf "%18s" "-"
            else
              Printf.sprintf "%18s"
                (Printf.sprintf "%.2f/%.2f" s.wall_ms s.cpu_ms))
          cells))

(* --- Figure 17: varying the number of triggers --- *)

let fig17 ~full =
  let base = if full then Workloadlib.Workload.paper_defaults else Workloadlib.Workload.quick_defaults in
  let counts =
    if full then [ 1; 10; 100; 1_000; 10_000; 100_000 ] else [ 1; 10; 100; 1_000; 4_000 ]
  in
  (* UNGROUPED evaluates one plan set per trigger per update; cap it so the
     sweep terminates (the paper's graph shows it diverging anyway) *)
  let ungrouped_cap = if full then 2_000 else 500 in
  print_header_s "Figure 17: number of triggers vs avg time per update (wall/cpu ms)"
    [ "#triggers"; "UNGROUPED"; "GROUPED"; "GROUPED-AGG" ];
  List.iter
    (fun n ->
      let row = string_of_int n in
      let rec17 series s = record ~fig:"17" ~row ~series s in
      let p = { base with Workloadlib.Workload.num_triggers = n; num_satisfied = min n 20 } in
      let updates = if n > 1000 then 10 else 30 in
      let ungrouped =
        rec17 "UNGROUPED"
          (if n <= ungrouped_cap then time_point ~updates p Runtime.Ungrouped
           else nan_sample)
      in
      let grouped = rec17 "GROUPED" (time_point ~updates p Runtime.Grouped) in
      let grouped_agg = rec17 "GROUPED-AGG" (time_point ~updates p Runtime.Grouped_agg) in
      print_row_s row [ ungrouped; grouped; grouped_agg ])
    counts

(* --- Figure 18: varying the hierarchy depth --- *)

let fig18 ~full =
  let base = if full then Workloadlib.Workload.paper_defaults else Workloadlib.Workload.quick_defaults in
  print_header_s "Figure 18: hierarchy depth vs avg time per update (wall/cpu ms)"
    [ "depth"; "GROUPED"; "GROUPED-AGG" ];
  List.iter
    (fun d ->
      let row = string_of_int d in
      let p = { base with Workloadlib.Workload.depth = d } in
      print_row_s row
        [ record ~fig:"18" ~row ~series:"GROUPED" (time_point p Runtime.Grouped);
          record ~fig:"18" ~row ~series:"GROUPED-AGG" (time_point p Runtime.Grouped_agg);
        ])
    [ 2; 3; 4; 5 ]

(* --- Figure 22: varying the fanout (leaf tuples per XML element) --- *)

let fig22 ~full =
  let base = if full then Workloadlib.Workload.paper_defaults else Workloadlib.Workload.quick_defaults in
  let fanouts = if full then [ 16; 32; 64; 128; 256; 512; 1024 ] else [ 16; 32; 64; 128; 256 ] in
  print_header_s "Figure 22: fanout vs avg time per update (wall/cpu ms)"
    [ "fanout"; "GROUPED"; "GROUPED-AGG" ];
  List.iter
    (fun f ->
      let row = string_of_int f in
      let p = { base with Workloadlib.Workload.fanout = f } in
      print_row_s row
        [ record ~fig:"22" ~row ~series:"GROUPED" (time_point p Runtime.Grouped);
          record ~fig:"22" ~row ~series:"GROUPED-AGG" (time_point p Runtime.Grouped_agg);
        ])
    fanouts

(* --- Figure 23: varying the number of leaf tuples (database size) --- *)

let fig23 ~full =
  let base = if full then Workloadlib.Workload.paper_defaults else Workloadlib.Workload.quick_defaults in
  let sizes =
    if full then [ 32_000; 64_000; 128_000; 256_000; 512_000; 1_024_000 ]
    else [ 8_000; 16_000; 32_000; 64_000 ]
  in
  (* MATERIALIZED recomputes the whole view per update: keep it to sizes
     where that is bearable, to show the contrast *)
  let mat_cap = if full then 128_000 else 32_000 in
  print_header_s "Figure 23: leaf tuples vs avg time per update (wall/cpu ms)"
    [ "leaves"; "GROUPED"; "GROUPED-AGG"; "MATERIALIZED" ];
  List.iter
    (fun n ->
      let row = string_of_int n in
      let p = { base with Workloadlib.Workload.leaf_tuples = n } in
      let mat =
        record ~fig:"23" ~row ~series:"MATERIALIZED"
          (if n <= mat_cap then
             time_point ~updates:5
               { p with Workloadlib.Workload.num_triggers = 1; num_satisfied = 1 }
               Runtime.Materialized
           else nan_sample)
      in
      print_row_s row
        [ record ~fig:"23" ~row ~series:"GROUPED" (time_point p Runtime.Grouped);
          record ~fig:"23" ~row ~series:"GROUPED-AGG" (time_point p Runtime.Grouped_agg);
          mat;
        ])
    sizes

(* --- Figure 24: varying the number of satisfied triggers --- *)

let fig24 ~full =
  let base = if full then Workloadlib.Workload.paper_defaults else Workloadlib.Workload.quick_defaults in
  print_header_s "Figure 24: satisfied triggers vs avg time per update (wall/cpu ms)"
    [ "satisfied"; "GROUPED"; "GROUPED-AGG" ];
  List.iter
    (fun s ->
      let row = string_of_int s in
      let p = { base with Workloadlib.Workload.num_satisfied = s } in
      print_row_s row
        [ record ~fig:"24" ~row ~series:"GROUPED" (time_point p Runtime.Grouped);
          record ~fig:"24" ~row ~series:"GROUPED-AGG" (time_point p Runtime.Grouped_agg);
        ])
    [ 1; 20; 40; 60; 80; 100 ]

(* --- §6 intro: trigger compile time --- *)

let compile_time ~full =
  let base = if full then Workloadlib.Workload.paper_defaults else Workloadlib.Workload.quick_defaults in
  print_header "Trigger compile time (ms; the paper reports ~100 ms)"
    [ "depth"; "first"; "subsequent" ];
  List.iter
    (fun d ->
      let p = { base with Workloadlib.Workload.depth = d; Workloadlib.Workload.leaf_tuples = 4_000 } in
      let built = Workloadlib.Workload.build p in
      let mgr = mgr_of Runtime.Grouped built in
      let t0 = Sys.time () in
      Runtime.create_trigger mgr
        "CREATE TRIGGER c0 AFTER UPDATE ON view('doc')/e1 WHERE NEW_NODE/@name = 'x' DO record(NEW_NODE)";
      (* a group's plans compile on their first use; EXPLAIN forces them *)
      ignore (Runtime.explain mgr);
      let t1 = Sys.time () in
      let n = 50 in
      for i = 1 to n do
        Runtime.create_trigger mgr
          (Printf.sprintf
             "CREATE TRIGGER c%d AFTER UPDATE ON view('doc')/e1 WHERE NEW_NODE/@name = 'x%d' DO record(NEW_NODE)"
             i i)
      done;
      let t2 = Sys.time () in
      print_row (string_of_int d)
        [ (t1 -. t0) *. 1000.0; (t2 -. t1) *. 1000.0 /. float_of_int n ])
    [ 2; 3; 4; 5 ]

(* --- recovery_time: durability overhead is not a paper figure, but the
   north star (production service) needs restart cost to be predictable:
   recovery wall-clock must scale with the WAL tail, not the database --- *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let recovery_dir name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "trigview_recovery_%d_%s" (Unix.getpid ()) name)

(* Build a durable instance, run [before] updates, checkpoint, run [after]
   updates, tear the runtime down, and measure (a) raw database recovery and
   (b) a full [Runtime.reopen] including view/trigger re-arming. *)
let recovery_point p ~dir ~before ~after =
  rm_rf dir;
  let built = Workloadlib.Workload.build p in
  let mgr = mgr_of Runtime.Grouped_agg built in
  Workloadlib.Workload.install_triggers mgr p
    ~target_name:built.Workloadlib.Workload.top_names.(0);
  Runtime.attach_durability ~policy:Durability.Wal.Never mgr ~data_dir:dir;
  for step = 0 to before - 1 do
    Workloadlib.Workload.update_leaf built ~top_index:0 ~step
  done;
  if before > 0 then Runtime.checkpoint mgr;
  for step = before to before + after - 1 do
    Workloadlib.Workload.update_leaf built ~top_index:0 ~step
  done;
  Runtime.detach_durability mgr;  (* closes + syncs the WAL: the "crash" *)
  let wal_kb = float_of_int (Durability.Wal.total_bytes dir) /. 1024.0 in
  let t0 = Unix.gettimeofday () in
  ignore (Durability.Recovery.recover ~data_dir:dir ());
  let t1 = Unix.gettimeofday () in
  let r = Runtime.reopen ~actions:[ ("record", fun _ -> ()) ] ~data_dir:dir () in
  let t2 = Unix.gettimeofday () in
  Runtime.detach_durability r.Runtime.runtime;
  rm_rf dir;
  (wal_kb, (t1 -. t0) *. 1000.0, (t2 -. t1) *. 1000.0)

let recovery_time ~full =
  let base = if full then Workloadlib.Workload.paper_defaults else Workloadlib.Workload.quick_defaults in
  let p =
    { base with
      Workloadlib.Workload.leaf_tuples = (if full then 32_000 else 4_000);
      num_triggers = (if full then 1_000 else 100);
      num_satisfied = 10;
    }
  in
  print_header "recovery_time: WAL tail length vs recovery wall-clock"
    [ "updates"; "wal KB"; "recover ms"; "reopen ms" ];
  List.iter
    (fun n ->
      let wal_kb, rec_ms, reopen_ms =
        recovery_point p ~dir:(recovery_dir (Printf.sprintf "wal%d" n)) ~before:0
          ~after:n
      in
      print_row (string_of_int n) [ wal_kb; rec_ms; reopen_ms ])
    (if full then [ 0; 1_000; 10_000; 40_000 ] else [ 0; 250; 1_000; 4_000 ]);
  let total = if full then 20_000 else 2_000 in
  print_header
    (Printf.sprintf
       "recovery_time: snapshot age (updates since checkpoint, %d total)" total)
    [ "age"; "wal KB"; "recover ms"; "reopen ms" ];
  List.iter
    (fun age ->
      let wal_kb, rec_ms, reopen_ms =
        recovery_point p ~dir:(recovery_dir (Printf.sprintf "age%d" age))
          ~before:(total - age) ~after:age
      in
      print_row (string_of_int age) [ wal_kb; rec_ms; reopen_ms ])
    (if full then [ 0; 2_000; 10_000; 20_000 ] else [ 0; 200; 1_000; 2_000 ])

(* --- phases: where does an update's wall time go, per strategy ---

   One traced sweep per strategy; the span totals (DML bookkeeping, SQL
   trigger firing, plan execution, fragment execution, tagging, action
   dispatch) are aggregated by span name.  Spans nest — "trigger" contains
   "plan.exec" which contains "frag.exec" — so the columns are a breakdown,
   not a disjoint partition. *)

let phase_names = [ "dml"; "trigger"; "plan.exec"; "frag.exec"; "tagger"; "dispatch" ]

let phases ~full =
  let base = if full then Workloadlib.Workload.paper_defaults else Workloadlib.Workload.quick_defaults in
  let p = { base with Workloadlib.Workload.num_triggers = 100; num_satisfied = 10 } in
  let updates = 20 in
  print_header
    (Printf.sprintf "Per-phase wall time (ms over %d updates, tracing on)" updates)
    ("strategy" :: phase_names);
  List.iter
    (fun (series, strategy) ->
      let built = Workloadlib.Workload.build p in
      let mgr = mgr_of strategy built in
      Workloadlib.Workload.install_triggers mgr p
        ~target_name:built.Workloadlib.Workload.top_names.(0);
      for step = 0 to 2 do
        Workloadlib.Workload.update_leaf built ~top_index:0 ~step
      done;
      Runtime.set_tracing mgr true;
      for step = 3 to 3 + updates - 1 do
        Workloadlib.Workload.update_leaf built ~top_index:0 ~step
      done;
      Runtime.set_tracing mgr false;
      let tracer = Relkit.Database.tracer (Runtime.database mgr) in
      let totals = Hashtbl.create 8 in
      List.iter
        (fun ev ->
          let name = ev.Obs.Trace.ev_name in
          let prev = Option.value ~default:0L (Hashtbl.find_opt totals name) in
          Hashtbl.replace totals name (Int64.add prev ev.Obs.Trace.ev_dur_ns))
        (Obs.Trace.events tracer);
      let row =
        List.map
          (fun name ->
            ( name,
              Int64.to_float (Option.value ~default:0L (Hashtbl.find_opt totals name))
              /. 1e6 ))
          phase_names
      in
      phase_entries := (series, row) :: !phase_entries;
      print_row series (List.map snd row))
    [ ("GROUPED", Runtime.Grouped); ("GROUPED-AGG", Runtime.Grouped_agg) ]

(* --- overhead: cost of leaving span tracing / firing auditing enabled --- *)

let overhead ~full =
  let base = if full then Workloadlib.Workload.paper_defaults else Workloadlib.Workload.quick_defaults in
  let p = { base with Workloadlib.Workload.num_triggers = 100; num_satisfied = 10 } in
  print_header_s
    "Tracing / audit overhead (GROUPED, 100 triggers; wall/cpu ms per update)"
    [ "variant"; "GROUPED" ];
  List.iter
    (fun (label, trace, audit) ->
      let s = time_point ~updates:20 ~trace ~audit p Runtime.Grouped in
      print_row_s label [ record ~fig:"overhead" ~row:label ~series:"GROUPED" s ])
    [ ("baseline", false, false);
      ("tracing-on", true, false);
      ("audit-on", false, true);
    ]

(* --- view_update: write-through view DML vs direct base DML (PR 6) ---

   Not a paper figure: it gates the updatable-view translator.  The same
   leaf-price updates run (a) as direct base-table UPDATEs and (b) as
   REPLACE NODE view DML through the Viewupdate planner — parse, path
   composition, anchoring, the static safety proof, then the identical
   base UPDATE — with the full trigger load installed on both.  The
   planner work is per-statement and data-independent, so the translation
   must stay within a few percent of direct DML; CI gates it at <= 15%. *)

let view_update_setup p ~via_view =
  let built = Workloadlib.Workload.build p in
  let mgr = mgr_of Runtime.Grouped_agg built in
  Workloadlib.Workload.install_triggers mgr p
    ~target_name:built.Workloadlib.Workload.top_names.(0);
  let leaves = built.Workloadlib.Workload.leaf_ids_of_top.(0) in
  let leaf_table = Workloadlib.Workload.table_name p.Workloadlib.Workload.depth in
  let apply step price =
    let leaf = leaves.(step mod Array.length leaves) in
    if via_view then
      ignore
        (Viewupdate.execute mgr
           (Printf.sprintf
              "REPLACE NODE view('doc')/e1/e2/e3[./id = '%s'] WITH \
               <e3><id>%s</id><price>%d</price></e3>"
              leaf leaf price))
    else
      ignore
        (Relkit.Database.update_pk built.Workloadlib.Workload.db ~table:leaf_table
           ~pk:[ Relkit.Value.String leaf ]
           ~set:(fun row ->
             let row = Array.copy row in
             row.(Array.length row - 1) <- Relkit.Value.Float (float_of_int price);
             row))
  in
  (mgr, apply)

let view_update_fig ~full =
  let base =
    if full then Workloadlib.Workload.paper_defaults else Workloadlib.Workload.quick_defaults
  in
  let p =
    { base with Workloadlib.Workload.num_triggers = (if full then 1_000 else 200);
      num_satisfied = 10 }
  in
  (* per-update cost is well under a millisecond, so a short run is mostly
     scheduler noise: time enough updates for a stable per-update figure, and
     interleave the two variants in batches so machine-load drift during the
     run lands on both sides instead of skewing the ratio *)
  let updates = if full then 200 else 400 in
  let batches = 8 in
  let batch = updates / batches in
  print_header_s
    "View-update translation overhead (GROUPED-AGG; wall/cpu ms per update)"
    [ "variant"; "GROUPED-AGG" ];
  let dmgr, direct_apply = view_update_setup p ~via_view:false in
  let vmgr, view_apply = view_update_setup p ~via_view:true in
  (* warm up with changing values so neither side plans a no-op *)
  for step = 0 to 2 do
    direct_apply step (500 + step);
    view_apply step (500 + step)
  done;
  Runtime.reset_stats dmgr;
  Runtime.reset_stats vmgr;
  let timed apply step0 n =
    let w0 = Monotonic_clock.now () in
    let c0 = Sys.time () in
    for step = step0 to step0 + n - 1 do apply step (1000 + step) done;
    let c1 = Sys.time () in
    let w1 = Monotonic_clock.now () in
    (Int64.to_float (Int64.sub w1 w0) /. 1e6, (c1 -. c0) *. 1000.0)
  in
  let dwall = ref 0.0 and dcpu = ref 0.0 and vwall = ref 0.0 and vcpu = ref 0.0 in
  for b = 0 to batches - 1 do
    let step0 = 3 + (b * batch) in
    let w, c = timed direct_apply step0 batch in
    dwall := !dwall +. w;
    dcpu := !dcpu +. c;
    let w, c = timed view_apply step0 batch in
    vwall := !vwall +. w;
    vcpu := !vcpu +. c
  done;
  let n = float_of_int (batches * batch) in
  let direct = { wall_ms = !dwall /. n; cpu_ms = !dcpu /. n } in
  let view = { wall_ms = !vwall /. n; cpu_ms = !vcpu /. n } in
  print_row_s "direct-dml"
    [ record ~fig:"view_update" ~row:"direct-dml" ~series:"GROUPED-AGG" direct ];
  print_row_s "view-dml"
    [ record ~fig:"view_update" ~row:"view-dml" ~series:"GROUPED-AGG" view ];
  let pct =
    if direct.wall_ms > 0.0 then (view.wall_ms -. direct.wall_ms) /. direct.wall_ms *. 100.0
    else Float.nan
  in
  let ups s = if s.wall_ms > 0.0 then 1000.0 /. s.wall_ms else Float.nan in
  Printf.printf
    "view-DML overhead vs direct base DML: %.2f%% (%.0f vs %.0f updates/sec)\n" pct
    (ups view) (ups direct);
  if !json_requested then begin
    let oc = open_out "BENCH_6.json" in
    Printf.fprintf oc
      "{\n\
      \  \"mode\": \"%s\",\n\
      \  \"view_update_overhead_pct\": %s,\n\
      \  \"direct_updates_per_sec\": %s,\n\
      \  \"view_dml_updates_per_sec\": %s,\n\
      \  \"direct_wall_ms_per_update\": %s,\n\
      \  \"view_dml_wall_ms_per_update\": %s\n\
       }\n"
      (if full then "full" else "quick")
      (json_float pct) (json_float (ups direct)) (json_float (ups view))
      (json_float direct.wall_ms) (json_float view.wall_ms);
    close_out oc;
    Printf.printf "wrote BENCH_6.json\n"
  end

(* --- fanout: subscription fan-out and delivery throughput (PR 5) ---

   Not a paper figure: it sizes the notification-delivery subsystem layered
   on the trigger runtime.  N subscribers watch the same hot top-level
   element; each DML statement fires N subscription triggers, and a flush
   drains every queue into a counting callback sink.  Updates run in
   batches of [batch] per flush, so the COALESCE-on series collapses the
   batch's same-key notifications to one per subscriber per window while
   COALESCE-off delivers every event — same DML cost, ~1/batch the
   deliveries.  The "overhead" rows compare the full subscription path
   against bare action dispatch with identical trigger structure and
   arguments (DO record(OLD_NODE, NEW_NODE)), isolating the cost of
   notification construction + queueing + delivery. *)

let fanout_batch = 5

let fanout_params ~full =
  { Workloadlib.Workload.quick_defaults with
    Workloadlib.Workload.leaf_tuples = (if full then 8_000 else 2_000);
    fanout = 16;
    num_triggers = 0;
    num_satisfied = 0;
  }

let fanout_run p ~subs ~coalesce =
  let built = Workloadlib.Workload.build p in
  let mgr = mgr_of Runtime.Grouped built in
  let hub = Subscribe.attach mgr in
  let delivered = ref 0 in
  Subscribe.add_callback hub (fun _ -> incr delivered);
  let target = built.Workloadlib.Workload.top_names.(0) in
  for i = 0 to subs - 1 do
    Subscribe.subscribe hub
      (Printf.sprintf
         "fan%d AFTER UPDATE ON view('doc')/e1 WHERE NEW_NODE/@name = '%s' \
          QUEUE 1024 OVERFLOW drop-oldest COALESCE %s"
         i target
         (if coalesce then "on" else "off"))
  done;
  for step = 0 to fanout_batch - 1 do
    Workloadlib.Workload.update_leaf built ~top_index:0 ~step
  done;
  ignore (Subscribe.flush hub);
  delivered := 0;
  let rounds = if subs >= 1_000 then 3 else 6 in
  let w0 = Monotonic_clock.now () in
  let c0 = Sys.time () in
  for r = 0 to rounds - 1 do
    for b = 0 to fanout_batch - 1 do
      Workloadlib.Workload.update_leaf built ~top_index:0
        ~step:(fanout_batch + (r * fanout_batch) + b)
    done;
    ignore (Subscribe.flush hub)
  done;
  let c1 = Sys.time () in
  let w1 = Monotonic_clock.now () in
  let wall_ms = Int64.to_float (Int64.sub w1 w0) /. 1e6 in
  let updates = float_of_int (rounds * fanout_batch) in
  let nps =
    if wall_ms > 0.0 then float_of_int !delivered /. (wall_ms /. 1000.0)
    else Float.nan
  in
  ( { wall_ms = wall_ms /. updates; cpu_ms = (c1 -. c0) *. 1000.0 /. updates },
    !delivered,
    nps )

let fanout_overhead p =
  let updates = 60 in
  let n = 20 in
  let measure_once install flush_after =
    let built = Workloadlib.Workload.build p in
    let mgr = mgr_of Runtime.Grouped built in
    let flush = install mgr built in
    for step = 0 to 2 do
      Workloadlib.Workload.update_leaf built ~top_index:0 ~step
    done;
    flush ();
    (* the gate compares two ~30 us/update deltas: compact first so major
       GC debt from earlier sweeps doesn't land inside either timed loop *)
    Gc.compact ();
    let w0 = Monotonic_clock.now () in
    let c0 = Sys.time () in
    for step = 3 to 3 + updates - 1 do
      Workloadlib.Workload.update_leaf built ~top_index:0 ~step;
      if flush_after then flush ()
    done;
    let c1 = Sys.time () in
    let w1 = Monotonic_clock.now () in
    let u = float_of_int updates in
    { wall_ms = Int64.to_float (Int64.sub w1 w0) /. 1e6 /. u;
      cpu_ms = (c1 -. c0) *. 1000.0 /. u;
    }
  in
  let install_bare mgr built =
    let target = built.Workloadlib.Workload.top_names.(0) in
    for i = 0 to n - 1 do
      Runtime.create_trigger mgr
        (Printf.sprintf
           "CREATE TRIGGER base%d AFTER UPDATE ON view('doc')/e1 WHERE \
            NEW_NODE/@name = '%s' DO record(OLD_NODE, NEW_NODE)"
           i target)
    done;
    fun () -> ()
  in
  let install_sub mgr built =
    let hub = Subscribe.attach mgr in
    Subscribe.add_callback hub (fun _ -> ());
    let target = built.Workloadlib.Workload.top_names.(0) in
    for i = 0 to n - 1 do
      Subscribe.subscribe hub
        (Printf.sprintf
           "ovh%d AFTER UPDATE ON view('doc')/e1 WHERE NEW_NODE/@name = '%s' \
            QUEUE 4096 COALESCE off"
           i target)
    done;
    fun () -> ignore (Subscribe.flush hub)
  in
  (* best of 5, alternating the two variants so slow drift (CPU frequency,
     heap growth) lands on both sides equally; timing noise is strictly
     additive, so the minimum is the faithful estimate of each path *)
  let best a b = if Float.is_nan a.wall_ms || b.wall_ms < a.wall_ms then b else a in
  let bare = ref nan_sample and sub = ref nan_sample in
  for _ = 1 to 5 do
    bare := best !bare (measure_once install_bare false);
    sub := best !sub (measure_once install_sub true)
  done;
  (!bare, !sub)

let fanout_fig ~full =
  let p = fanout_params ~full in
  let counts = if full then [ 10; 100; 1_000; 4_000 ] else [ 10; 100; 1_000 ] in
  (* the overhead comparison runs first (cold, small heap) and at the
     standard workload scale (same as the audit-overhead gate) so the
     delivery cost is measured against a realistic per-statement baseline,
     not the tiny fan-out document *)
  let base =
    if full then Workloadlib.Workload.paper_defaults
    else Workloadlib.Workload.quick_defaults
  in
  let bare, sub =
    fanout_overhead
      { base with Workloadlib.Workload.num_triggers = 0; num_satisfied = 0 }
  in
  print_header_s
    (Printf.sprintf
       "fanout: subscribers vs avg time per update (wall/cpu ms; %d updates \
        per flush window)"
       fanout_batch)
    [ "#subs"; "COALESCE-off"; "COALESCE-on" ];
  List.iter
    (fun n ->
      let row = string_of_int n in
      let s_off, d_off, nps_off = fanout_run p ~subs:n ~coalesce:false in
      let s_on, d_on, nps_on = fanout_run p ~subs:n ~coalesce:true in
      ignore (record ~fig:"fanout" ~row ~series:"coalesce-off" s_off);
      ignore (record ~fig:"fanout" ~row ~series:"coalesce-on" s_on);
      fanout_throughput :=
        (row, "coalesce-on", nps_on)
        :: (row, "coalesce-off", nps_off)
        :: !fanout_throughput;
      print_row_s row [ s_off; s_on ];
      Printf.printf
        "             delivered: off=%d (%.0f notifs/s)  on=%d (%.0f notifs/s)\n%!"
        d_off nps_off d_on nps_on)
    counts;
  ignore (record ~fig:"fanout" ~row:"overhead" ~series:"bare-dispatch" bare);
  ignore (record ~fig:"fanout" ~row:"overhead" ~series:"subscription" sub);
  print_row_s "overhead" [ bare; sub ];
  let pct = subscription_overhead_pct () in
  if not (Float.is_nan pct) then
    Printf.printf
      "subscription-path overhead vs bare dispatch (20 subscribers): %.2f%%\n%!"
      pct

(* --- PR 8 figure: static query–update independence --- *)

(* N triggers each watch a distinct region through a constant path predicate
   ([./region = 'rK']); every statement updates the single r0 row.  With
   pruning the firing path proves the other N-1 triggers independent before
   any delta plan runs (their signatures carry [region = 'rK'] equality
   filters, so the indexed bucket never even surfaces them as candidates),
   and per-statement cost should stay near-flat from 1 to 1000 triggers.
   Without pruning each statement pays N delta-plan runs.  The row count is
   fixed — one row per region, independent of N — so data size never
   confounds the sweep. *)

let independence_regions = 1_000

let independence_build ~independence n =
  let db = Relkit.Database.create () in
  Relkit.Database.create_table db
    (Relkit.Schema.make ~name:"flat"
       ~columns:
         [ ("id", Relkit.Schema.TString); ("region", Relkit.Schema.TString);
           ("val", Relkit.Schema.TFloat) ]
       ~primary_key:[ "id" ] ());
  Relkit.Database.load_rows db ~table:"flat"
    (List.init independence_regions (fun i ->
         [| Relkit.Value.String (Printf.sprintf "f%d" i);
            Relkit.Value.String (Printf.sprintf "r%d" i);
            Relkit.Value.Float 0.0 |]));
  let tuning = { Runtime.default_tuning with Runtime.independence } in
  let mgr = Runtime.create ~strategy:Runtime.Grouped ~tuning db in
  Runtime.define_view mgr ~name:"doc"
    {|<doc>{for $r in view("default")/flat/row
      return <item><region>{$r/region}</region><val>{$r/val}</val></item>}</doc>|};
  Runtime.register_action mgr ~name:"record" (fun _ -> incr dispatched);
  for k = 0 to n - 1 do
    Runtime.create_trigger mgr
      (Printf.sprintf
         "CREATE TRIGGER ind%d AFTER UPDATE ON view('doc')/item[./region = \
          'r%d'] DO record(NEW_NODE)"
         k k)
  done;
  db

let independence_point ~independence ~reps ~updates n =
  let db = independence_build ~independence n in
  let step = ref 0 in
  let run_window () =
    let w0 = Monotonic_clock.now () in
    let c0 = Sys.time () in
    for _ = 1 to updates do
      incr step;
      ignore
        (Relkit.Database.update_rows db ~table:"flat"
           ~where:(fun r -> Relkit.Value.equal r.(0) (Relkit.Value.String "f0"))
           ~set:(fun r ->
             let r = Array.copy r in
             r.(2) <- Relkit.Value.Float (float_of_int !step);
             r))
    done;
    let c1 = Sys.time () in
    let w1 = Monotonic_clock.now () in
    let nf = float_of_int updates in
    { wall_ms = Int64.to_float (Int64.sub w1 w0) /. 1e6 /. nf;
      cpu_ms = (c1 -. c0) *. 1000.0 /. nf;
    }
  in
  (* warm up (fault in plans and indexes), then keep the best window: the
     min is the standard noise-robust point estimate for a fixed workload *)
  ignore (run_window ());
  let best = ref (run_window ()) in
  for _ = 2 to reps do
    let s = run_window () in
    if s.wall_ms < !best.wall_ms then best := s
  done;
  !best

let independence_fig ~full =
  let counts = [ 1; 10; 100; 1_000 ] in
  let reps = if full then 5 else 3 in
  let updates = if full then 60 else 20 in
  print_header_s
    (Printf.sprintf
       "independence: irrelevant triggers vs avg time per update (wall/cpu \
        ms; %d rows, one relevant trigger, best of %d windows)"
       independence_regions reps)
    [ "#triggers"; "pruning-on"; "pruning-off" ];
  let cells = ref [] in
  List.iter
    (fun n ->
      let on = independence_point ~independence:true ~reps ~updates n in
      (* the unpruned series pays n plan runs per statement; shrink its
         window at large n so the sweep stays bounded *)
      let off_updates = max 4 (updates * 10 / n) in
      let off =
        independence_point ~independence:false ~reps ~updates:off_updates n
      in
      ignore
        (record ~fig:"independence" ~row:(string_of_int n) ~series:"pruning-on"
           on);
      ignore
        (record ~fig:"independence" ~row:(string_of_int n)
           ~series:"pruning-off" off);
      cells := (n, on, off) :: !cells;
      print_row_s (string_of_int n) [ on; off ])
    counts;
  let cells = List.rev !cells in
  let on_wall n =
    List.find_map
      (fun (n', on, _) ->
        if n = n' && not (Float.is_nan on.wall_ms) then Some on.wall_ms
        else None)
      cells
  in
  let ratio =
    match on_wall 1, on_wall 1_000 with
    | Some w1, Some w1000 when w1 > 0.0 -> w1000 /. w1
    | _ -> Float.nan
  in
  if not (Float.is_nan ratio) then
    Printf.printf
      "independence flat ratio (pruned, 1000 triggers vs 1): %.3fx\n%!" ratio;
  if !json_requested then begin
    let oc = open_out "BENCH_8.json" in
    let series =
      String.concat ",\n"
        (List.map
           (fun (n, on, off) ->
             Printf.sprintf
               "    {\"triggers\": %d, \"pruned_wall_ms\": %s, \
                \"pruned_cpu_ms\": %s, \"unpruned_wall_ms\": %s, \
                \"unpruned_cpu_ms\": %s}"
               n (json_float on.wall_ms) (json_float on.cpu_ms)
               (json_float off.wall_ms) (json_float off.cpu_ms))
           cells)
    in
    Printf.fprintf oc
      "{\n\
      \  \"mode\": \"%s\",\n\
      \  \"rows\": %d,\n\
      \  \"independence_flat_ratio\": %s,\n\
      \  \"series\": [\n%s\n  ]\n\
       }\n"
      (if full then "full" else "quick")
      independence_regions (json_float ratio) series;
    close_out oc;
    Printf.printf "wrote BENCH_8.json\n"
  end

(* --- advisor: auto-tuned (ANALYZE + TUNE) vs the best fixed strategy ---

   A mixed workload where the Table-2 winner flips mid-run: phase 1 runs
   with a single installed trigger (UNGROUPED wins — GROUPED pays the
   constants-table join for nothing), then the remaining n-1 structurally
   similar triggers arrive (GROUPED wins — UNGROUPED pays n plan runs per
   statement).  Each fixed strategy is timed through both phases; the
   auto run starts on the manager default and calls [tune] at each phase
   boundary, letting the advisor re-arm from observed windowed profiles.
   Auto must hold ≥0.9× the best manual throughput (BENCH_9.json,
   CI-gated). *)

let advisor_trigger_text i const threshold =
  Printf.sprintf
    "CREATE TRIGGER bench%d AFTER UPDATE ON view('doc')/%s WHERE \
     NEW_NODE/@name = '%s' and count(NEW_NODE/%s) >= %d DO record(NEW_NODE)"
    i
    (Workloadlib.Workload.elem_name 1)
    const
    (Workloadlib.Workload.elem_name 2)
    threshold

let advisor_install mgr p ~target_name ~from_i ~to_i =
  for i = from_i to to_i do
    if i < p.Workloadlib.Workload.num_satisfied then
      Runtime.create_trigger mgr (advisor_trigger_text i target_name (-i))
    else
      Runtime.create_trigger mgr
        (advisor_trigger_text i (Printf.sprintf "nomatch%d" i) 1)
  done

(* Best-of-[reps] timed windows of [updates] leaf updates (first window is
   the discarded warm-up). *)
let advisor_phase_time built ~updates ~reps =
  let window () =
    let w0 = Monotonic_clock.now () in
    let c0 = Sys.time () in
    for step = 1 to updates do
      Workloadlib.Workload.update_leaf built ~top_index:0 ~step
    done;
    let c1 = Sys.time () in
    let w1 = Monotonic_clock.now () in
    let n = float_of_int updates in
    { wall_ms = Int64.to_float (Int64.sub w1 w0) /. 1e6 /. n;
      cpu_ms = (c1 -. c0) *. 1000.0 /. n;
    }
  in
  ignore (window ());
  let best = ref (window ()) in
  for _ = 2 to reps do
    let s = window () in
    if s.wall_ms < !best.wall_ms then best := s
  done;
  !best

let advisor_fig ~full =
  let n = if full then 1_000 else 200 in
  let updates = if full then 40 else 20 in
  let reps = if full then 4 else 3 in
  let p =
    { Workloadlib.Workload.quick_defaults with
      Workloadlib.Workload.leaf_tuples = (if full then 16_000 else 2_000);
      num_triggers = n;
      num_satisfied = min n 20;
    }
  in
  print_header_s
    (Printf.sprintf
       "advisor: auto-tune vs fixed strategies on a phase-flipping workload \
        (wall/cpu ms per update; 1 then %d triggers, best of %d windows)" n
       reps)
    [ "phase"; "UNGROUPED"; "GROUPED"; "auto" ];
  (* fixed-strategy runs: both phases under one strategy *)
  let manual strategy =
    let built = Workloadlib.Workload.build p in
    let mgr = mgr_of strategy built in
    let target = built.Workloadlib.Workload.top_names.(0) in
    advisor_install mgr p ~target_name:target ~from_i:0 ~to_i:0;
    let t1 = advisor_phase_time built ~updates ~reps in
    advisor_install mgr p ~target_name:target ~from_i:1 ~to_i:(n - 1);
    let tn = advisor_phase_time built ~updates ~reps in
    (t1, tn)
  in
  let u1, un = manual Runtime.Ungrouped in
  let g1, gn = manual Runtime.Grouped in
  (* auto run: manager default GROUPED; the advisor must discover the
     phase-1 singleton wants UNGROUPED, then flip back when the fleet
     arrives *)
  let built = Workloadlib.Workload.build p in
  let mgr = mgr_of Runtime.Grouped built in
  let target = built.Workloadlib.Workload.top_names.(0) in
  advisor_install mgr p ~target_name:target ~from_i:0 ~to_i:0;
  for step = 1 to 5 do
    (* observe before tuning: the advisor models from windowed profiles *)
    Workloadlib.Workload.update_leaf built ~top_index:0 ~step
  done;
  ignore (Runtime.tune mgr);
  let reco_at_1 =
    match Runtime.trigger_strategy mgr "bench0" with
    | Some s -> Runtime.strategy_to_string s
    | None -> "?"
  in
  Printf.printf "phase 1 (1 trigger): advisor re-armed bench0 as %s\n%!"
    reco_at_1;
  let a1 = advisor_phase_time built ~updates ~reps in
  advisor_install mgr p ~target_name:target ~from_i:1 ~to_i:(n - 1);
  for step = 1 to 5 do
    Workloadlib.Workload.update_leaf built ~top_index:0 ~step
  done;
  ignore (Runtime.tune mgr);
  let reco_at_n =
    match Runtime.trigger_strategy mgr "bench0" with
    | Some s -> Runtime.strategy_to_string s
    | None -> "?"
  in
  Printf.printf "phase 2 (%d triggers): advisor re-armed bench0 as %s\n%!" n
    reco_at_n;
  let an = advisor_phase_time built ~updates ~reps in
  print_row_s "1" [ u1; g1; a1 ];
  print_row_s (string_of_int n) [ un; gn; an ];
  List.iter
    (fun (row, series, s) -> ignore (record ~fig:"advisor" ~row ~series s))
    [ ("1", "UNGROUPED", u1); ("1", "GROUPED", g1); ("1", "auto", a1);
      (string_of_int n, "UNGROUPED", un); (string_of_int n, "GROUPED", gn);
      (string_of_int n, "auto", an);
    ];
  (* throughput over the whole run = inverse of the summed per-phase time *)
  let total a b = a.wall_ms +. b.wall_ms in
  let manual_best = Float.min (total u1 un) (total g1 gn) in
  let ratio =
    let auto = total a1 an in
    if auto > 0.0 then manual_best /. auto else Float.nan
  in
  let best_name =
    if total u1 un <= total g1 gn then "UNGROUPED" else "GROUPED"
  in
  Printf.printf
    "auto vs best manual (%s): %.3fx throughput (>= 0.9 required)\n%!"
    best_name ratio;
  if !json_requested then begin
    let oc = open_out "BENCH_9.json" in
    Printf.fprintf oc
      "{\n\
      \  \"mode\": \"%s\",\n\
      \  \"n_triggers\": %d,\n\
      \  \"updates_per_phase\": %d,\n\
      \  \"analyze_reco_at_1\": \"%s\",\n\
      \  \"analyze_reco_at_n\": \"%s\",\n\
      \  \"best_manual\": \"%s\",\n\
      \  \"manual_ungrouped_ms\": [%s, %s],\n\
      \  \"manual_grouped_ms\": [%s, %s],\n\
      \  \"auto_ms\": [%s, %s],\n\
      \  \"auto_vs_best_manual_ratio\": %s\n\
       }\n"
      (if full then "full" else "quick")
      n updates reco_at_1 reco_at_n best_name (json_float u1.wall_ms)
      (json_float un.wall_ms) (json_float g1.wall_ms) (json_float gn.wall_ms)
      (json_float a1.wall_ms) (json_float an.wall_ms) (json_float ratio);
    close_out oc;
    Printf.printf "wrote BENCH_9.json\n"
  end

(* --- http: closed-loop multi-client front-door throughput ---

   N client domains drive the HTTP server over real TCP with a mixed
   workload: RQL view queries, SQL DML (firing triggers through the
   subscription hub into the SSE ring) and long-poll subscription reads,
   while each client also holds one persistent SSE stream open.  The main
   domain pumps [Api.step] — the same single-threaded discipline as the
   CLI — so the measurement includes queueing for the shared event loop.
   Reports requests/sec and per-request latency percentiles
   (BENCH_10.json, CI-gated). *)

let http_catalog_text =
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

let http_make_db () =
  let open Relkit in
  let db = Database.create () in
  Database.create_table db
    (Schema.make ~name:"product"
       ~columns:
         [ ("pid", Schema.TString); ("pname", Schema.TString);
           ("mfr", Schema.TString) ]
       ~primary_key:[ "pid" ] ());
  Database.create_table db
    (Schema.make ~name:"vendor"
       ~columns:
         [ ("vid", Schema.TString); ("pid", Schema.TString);
           ("price", Schema.TFloat) ]
       ~primary_key:[ "vid"; "pid" ] ());
  Database.create_index db ~table:"vendor" ~column:"pid";
  Database.insert_rows db ~table:"product"
    [ [| Value.String "P1"; Value.String "CRT 15"; Value.String "Samsung" |];
      [| Value.String "P2"; Value.String "LCD 19"; Value.String "Samsung" |];
    ];
  Database.insert_rows db ~table:"vendor"
    [ [| Value.String "Amazon"; Value.String "P1"; Value.Float 100.0 |];
      [| Value.String "Bestbuy"; Value.String "P1"; Value.Float 120.0 |];
      [| Value.String "Buy.com"; Value.String "P2"; Value.Float 200.0 |];
      [| Value.String "Bestbuy"; Value.String "P2"; Value.Float 180.0 |];
    ];
  db

(* a blocking-socket HTTP client: one request per connection *)
let http_client_request port ~meth ~target ~body =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let req =
    Printf.sprintf "%s %s HTTP/1.1\r\nhost: bench\r\ncontent-length: %d\r\n\r\n%s"
      meth target (String.length body) body
  in
  let rec send off =
    if off < String.length req then
      send (off + Unix.write_substring fd req off (String.length req - off))
  in
  send 0;
  (* read to end of the content-length-framed response *)
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 65536 in
  let find_head () =
    let d = Buffer.contents buf in
    let rec go i =
      if i + 3 >= String.length d then None
      else if String.sub d i 4 = "\r\n\r\n" then Some (d, i)
      else go (i + 1)
    in
    go 0
  in
  let body_len head =
    let lower = String.lowercase_ascii head in
    let key = "content-length:" in
    let rec find i =
      if i + String.length key > String.length lower then 0
      else if String.sub lower i (String.length key) = key then
        let rest = String.sub lower (i + String.length key)
            (String.length lower - i - String.length key) in
        let line = List.hd (String.split_on_char '\r' rest) in
        (match int_of_string_opt (String.trim line) with Some n -> n | None -> 0)
      else find (i + 1)
    in
    find 0
  in
  let rec read_all () =
    match find_head () with
    | Some (d, head_end)
      when String.length d - head_end - 4
           >= body_len (String.sub d 0 head_end) ->
      d
    | _ -> (
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> Buffer.contents buf
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        read_all ())
  in
  read_all ()

let http_percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else sorted.(min (n - 1) (int_of_float (q *. float_of_int (n - 1))))

let http_fig ~full =
  let clients = if full then 8 else 4 in
  let requests = if full then 400 else 120 in
  print_header_s
    (Printf.sprintf
       "http: closed-loop front door, %d client domains x %d mixed requests \
        (query/DML/long-poll + 1 SSE stream each)"
       clients requests)
    [ "metric"; "value" ];
  let db = http_make_db () in
  let mgr = Runtime.create ~strategy:Runtime.Grouped_agg db in
  Runtime.define_view mgr ~name:"catalog" http_catalog_text;
  let hub = Subscribe.attach mgr in
  Subscribe.subscribe hub
    "feed AFTER UPDATE ON view('catalog')/product/vendor";
  let api = Httpfront.Api.create ~port:0 ~mgr ~hub () in
  let port = Httpfront.Api.port api in
  let live = Atomic.make clients in
  let targets =
    [| ("GET", "/views/catalog", "");
       ("GET", "/views/catalog?ge(price,130)&sort(-price)&level=vendor", "");
       ("GET", "/views/catalog?eq(name,string:CRT%2015)&select(name)", "");
       ("GET", "/views/catalog?sort(-price)&limit(0,2)&level=vendor", "");
       ("POST", "/sql", "UPDATE vendor SET price = 101.0 WHERE vid = 'Amazon'");
       ("GET", "/subscribe/feed?mode=longpoll&cursor=0", "");
    |]
  in
  (* mix: 4 query shapes, 1 DML, 1 long-poll, round-robin offset per client *)
  let client k () =
    (* one persistent SSE stream for the whole run *)
    let sse = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect sse (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    let greeting = "GET /subscribe/feed HTTP/1.1\r\nhost: bench\r\n\r\n" in
    ignore (Unix.write_substring sse greeting 0 (String.length greeting));
    let lat = Array.make requests Float.nan in
    let errors = ref 0 in
    for i = 0 to requests - 1 do
      (* DML first so long-polls always have events to batch *)
      let meth, target, body =
        if i = 0 then targets.(4) else targets.((i + k) mod Array.length targets)
      in
      (* vary the written price so each DML really changes the view and
         fires the trigger (a constant write is a no-op after the first) *)
      let body =
        if meth = "POST" then
          Printf.sprintf
            "UPDATE vendor SET price = %d.5 WHERE vid = 'Amazon'"
            (100 + (((k * requests) + i) mod 50))
        else body
      in
      let t0 = Monotonic_clock.now () in
      (try
         let resp = http_client_request port ~meth ~target ~body in
         if String.length resp < 12 || String.sub resp 9 3 >= "500" then
           incr errors
       with _ -> incr errors);
      let t1 = Monotonic_clock.now () in
      lat.(i) <- Int64.to_float (Int64.sub t1 t0) /. 1e6
    done;
    (* drain whatever the SSE stream accumulated, then hang up *)
    Unix.set_nonblock sse;
    let events = ref 0 in
    let chunk = Bytes.create 65536 in
    (try
       let rec drain () =
         let n = Unix.read sse chunk 0 (Bytes.length chunk) in
         if n > 0 then begin
           let d = Bytes.sub_string chunk 0 n in
           String.iteri
             (fun i c ->
               if c = 'i' && i + 3 <= String.length d
                  && String.sub d i 3 = "id:" then incr events)
             d;
           drain ()
         end
       in
       drain ()
     with Unix.Unix_error _ -> ());
    (try Unix.close sse with _ -> ());
    Atomic.decr live;
    (lat, !errors, !events)
  in
  let w0 = Monotonic_clock.now () in
  let domains = List.init clients (fun k -> Domain.spawn (client k)) in
  (* the main domain is the event loop *)
  while Atomic.get live > 0 do
    ignore (Httpfront.Api.step ~timeout_ms:1 api)
  done;
  (* final rounds: flush any SSE tails before the clients hang up *)
  for _ = 1 to 10 do
    ignore (Httpfront.Api.step ~timeout_ms:1 api)
  done;
  let results = List.map Domain.join domains in
  let w1 = Monotonic_clock.now () in
  Httpfront.Api.stop api;
  let wall_s = Int64.to_float (Int64.sub w1 w0) /. 1e9 in
  let lats =
    Array.concat (List.map (fun (l, _, _) -> l) results)
  in
  Array.sort compare lats;
  let errors = List.fold_left (fun a (_, e, _) -> a + e) 0 results in
  let sse_events = List.fold_left (fun a (_, _, ev) -> a + ev) 0 results in
  let total = clients * requests in
  let rps = float_of_int total /. wall_s in
  let p50 = http_percentile lats 0.50 in
  let p99 = http_percentile lats 0.99 in
  Printf.printf "  %-24s %d\n" "requests" total;
  Printf.printf "  %-24s %.1f\n" "requests/sec" rps;
  Printf.printf "  %-24s %.3f\n" "p50 ms" p50;
  Printf.printf "  %-24s %.3f\n" "p99 ms" p99;
  Printf.printf "  %-24s %d\n" "errors" errors;
  Printf.printf "  %-24s %d\n" "sse events delivered" sse_events;
  Printf.printf "  %-24s %d\n%!" "server overloads (503)"
    (Httpfront.Httpd.overloads (Httpfront.Api.httpd api));
  ignore
    (record ~fig:"http" ~row:"closed-loop" ~series:"p99"
       { wall_ms = p99; cpu_ms = Float.nan });
  if !json_requested then begin
    let oc = open_out "BENCH_10.json" in
    Printf.fprintf oc
      "{\n\
      \  \"mode\": \"%s\",\n\
      \  \"clients\": %d,\n\
      \  \"requests\": %d,\n\
      \  \"wall_s\": %s,\n\
      \  \"requests_per_sec\": %s,\n\
      \  \"p50_ms\": %s,\n\
      \  \"p99_ms\": %s,\n\
      \  \"errors\": %d,\n\
      \  \"sse_events\": %d\n\
       }\n"
      (if full then "full" else "quick")
      clients total (json_float wall_s) (json_float rps) (json_float p50)
      (json_float p99) errors sse_events;
    close_out oc;
    Printf.printf "wrote BENCH_10.json\n"
  end

(* --- bechamel micro-benchmarks: one Test.make per figure --- *)

let bechamel_suite () =
  let open Bechamel in
  let p = { Workloadlib.Workload.quick_defaults with Workloadlib.Workload.leaf_tuples = 4_000; num_triggers = 100 } in
  let scenario name params strategy =
    Test.make ~name
      (Staged.stage
         (let built = Workloadlib.Workload.build params in
          let mgr = mgr_of strategy built in
          Workloadlib.Workload.install_triggers mgr params ~target_name:built.Workloadlib.Workload.top_names.(0);
          let step = ref 0 in
          fun () ->
            incr step;
            Workloadlib.Workload.update_leaf built ~top_index:0 ~step:!step))
  in
  let tests =
    [ scenario "fig17:100-triggers" p Runtime.Grouped;
      scenario "fig18:depth-4" { p with Workloadlib.Workload.depth = 4 } Runtime.Grouped;
      scenario "fig22:fanout-128" { p with Workloadlib.Workload.fanout = 128 } Runtime.Grouped_agg;
      scenario "fig23:8k-leaves" { p with Workloadlib.Workload.leaf_tuples = 8_000 } Runtime.Grouped;
      scenario "fig24:40-satisfied" { p with Workloadlib.Workload.num_satisfied = 40 } Runtime.Grouped_agg;
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  Printf.printf "\n== bechamel micro-benchmarks (ns per update) ==\n%!";
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ]) in
      let results =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          instance raw
      in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "%-32s %12.0f ns\n%!" name est
          | _ -> Printf.printf "%-32s (no estimate)\n%!" name)
        results)
    tests

(* --- driver --- *)

let () =
  let args = Array.to_list Sys.argv in
  let full = List.mem "--full" args in
  let bechamel = List.mem "--bechamel" args in
  json_requested := List.mem "--json" args;
  let figs =
    match
      List.find_map
        (fun a ->
          if String.length a > 6 && String.sub a 0 6 = "--fig=" then
            Some (String.sub a 6 (String.length a - 6))
          else None)
        args
    with
    | Some s -> String.split_on_char ',' s
    | None ->
      [ "17"; "18"; "22"; "23"; "24"; "compile"; "recovery";
        "phases"; "overhead"; "fanout"; "view_update"; "independence";
        "advisor"; "http" ]
  in
  Printf.printf
    "Triggers over XML Views of Relational Data — benchmark harness (%s mode)\n"
    (if full then "paper-scale" else "quick");
  if bechamel then bechamel_suite ()
  else
    List.iter
      (fun f ->
        match f with
        | "17" -> fig17 ~full
        | "18" -> fig18 ~full
        | "22" -> fig22 ~full
        | "23" -> fig23 ~full
        | "24" -> fig24 ~full
        | "compile" -> compile_time ~full
        | "recovery" -> recovery_time ~full
        | "phases" -> phases ~full
        | "overhead" -> overhead ~full
        | "fanout" -> fanout_fig ~full
        | "view_update" -> view_update_fig ~full
        | "independence" -> independence_fig ~full
        | "advisor" -> advisor_fig ~full
        | "http" -> http_fig ~full
        | other -> Printf.printf "unknown figure %S\n" other)
      figs;
  (* BENCH_5.json holds the overhead, fanout and phases results: a run of
     other figures leaves it alone rather than overwrite it with nulls *)
  if !json_requested
     && List.exists (fun f -> List.mem f [ "overhead"; "fanout"; "phases" ]) figs
  then write_json ~full "BENCH_5.json";
  Printf.printf "\n(total action dispatches across all sweeps: %d)\n" !dispatched
