(* The metrics trigbench reports: every untraced run prints [end_to_end],
   every traced run prints [per_layer].  BENCHMARK.json repeats the
   end-to-end list with each metric's regression bound; the unit test
   keeps the two in step. *)

type t = { name : string; unit_ : string; better : [ `Lower | `Higher ] }

let m name unit_ better = { name; unit_; better }

let end_to_end =
  [ m "setup_s" "s" `Lower;
    m "ops_per_s" "1/s" `Higher;
    m "stmt_p50_ms" "ms" `Lower;
    m "notify_p50_ms" "ms" `Lower;
    m "notifs_per_s" "1/s" `Higher;
    m "heap_peak_mb" "MB" `Lower;
  ]

(* Layer names are the program's module names; [op] is the whole write or
   query, over every window of the timed phase: its tail is reported here
   because it moves with the host more than a bound can allow.  A layer a
   workload does not exercise reads 0. *)
let per_layer =
  [ m "op.ops_per_s_whole" "1/s" `Higher;
    m "op.stmt_p99_ms" "ms" `Lower;
    m "op.notify_p99_ms" "ms" `Lower;
    m "httpd.transport_p50_ms" "ms" `Lower;
    m "httpd.busy_frac" "ratio" `Lower;
    m "httpd.deadline_aborts" "count" `Lower;
    m "httpd.overloads" "count" `Lower;
    m "api.query_p50_ms" "ms" `Lower;
    m "api.query_p99_ms" "ms" `Lower;
    m "api.query_self_p50_ms" "ms" `Lower;
    m "api.query_self_p99_ms" "ms" `Lower;
    m "api.write_self_p50_ms" "ms" `Lower;
    m "sql.self_p50_ms" "ms" `Lower;
    m "sql.self_p99_ms" "ms" `Lower;
    m "viewupdate.self_p50_ms" "ms" `Lower;
    m "viewupdate.self_p99_ms" "ms" `Lower;
    m "database.dml_self_p50_ms" "ms" `Lower;
    m "database.prefilter_skips_per_stmt" "count" `Higher;
    m "database.independence_skips_per_stmt" "count" `Higher;
    m "runtime.trigger_self_p50_ms" "ms" `Lower;
    m "runtime.dispatch_self_p50_ms" "ms" `Lower;
    m "runtime.firings_per_stmt" "count" `Lower;
    m "runtime.pairs_per_stmt" "count" `Lower;
    m "runtime.dispatch_per_pair" "ratio" `Higher;
    m "runtime.scan_rows_per_stmt" "count" `Lower;
    m "pushdown.plan_self_p50_ms" "ms" `Lower;
    m "pushdown.frag_self_p50_ms" "ms" `Lower;
    m "pushdown.tagger_self_p50_ms" "ms" `Lower;
    m "pool.cpu_per_wall" "ratio" `Higher;
    m "subscribe.flush_p50_ms" "ms" `Lower;
    m "subscribe.flush_p99_ms" "ms" `Lower;
    m "subscribe.enqueued_per_stmt" "count" `Lower;
    m "subscribe.dropped" "count" `Lower;
    m "subscribe.coalesced" "count" `Lower;
    m "notification.render_p50_us" "us" `Lower;
    m "notification.bytes_p50" "bytes" `Lower;
    m "wal.append_p50_us" "us" `Lower;
    m "wal.fsync_p99_us" "us" `Lower;
    m "wal.fsyncs_per_kstmt" "count" `Lower;
    m "wal.bytes_per_stmt" "bytes" `Lower;
    m "store.checkpoint_p50_ms" "ms" `Lower;
    m "store.checkpoint_max_ms" "ms" `Lower;
    m "recovery.reopen_s" "s" `Lower;
    m "recovery.replay_s" "s" `Lower;
    m "recovery.rearm_s" "s" `Lower;
    m "compile.view_ms" "ms" `Lower;
    m "compile.trigger_p50_ms" "ms" `Lower;
    m "gc.alloc_kb_per_op" "kB" `Lower;
    m "gc.major_per_kop" "count" `Lower;
    m "trace.overhead_pct" "%" `Lower;
    m "trace.dropped" "count" `Lower;
    m "trace.self_sum_err_pct" "%" `Lower;
  ]

let better_string = function `Lower -> "lower" | `Higher -> "higher"
let find name = List.find_opt (fun d -> d.name = name) (end_to_end @ per_layer)
