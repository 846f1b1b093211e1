(* trigview_cli: an interactive shell over the paper's product/vendor catalog.

   Starts with the Figure 2 database and the Figure 3 catalog view published;
   lets you create XML triggers, run DML, and inspect the materialized view,
   the generated SQL triggers and the runtime statistics.

     dune exec bin/trigview_cli.exe -- --strategy grouped-agg
     dune exec bin/trigview_cli.exe -- --script demo.txt *)

open Relkit
module Runtime = Trigview.Runtime
module Hub = Subscribe
module Server = Subscribe.Server
module Api = Httpfront.Api

let catalog_view =
  {|<catalog>
    {for $prodname in distinct(view("default")/product/row/pname)
     let $products := view("default")/product/row[./pname = $prodname]
     let $vendors := view("default")/vendor/row[./pid = $products/pid]
     where count($vendors) >= 2
     return <product name="{$prodname}">
       {for $vendor in $vendors return <vendor>{$vendor/*}</vendor>}
     </product>}
  </catalog>|}

let make_db () =
  let db = Database.create () in
  Database.create_table db
    (Schema.make ~name:"product"
       ~columns:[ ("pid", Schema.TString); ("pname", Schema.TString); ("mfr", Schema.TString) ]
       ~primary_key:[ "pid" ] ());
  Database.create_table db
    (Schema.make ~name:"vendor"
       ~columns:[ ("vid", Schema.TString); ("pid", Schema.TString); ("price", Schema.TFloat) ]
       ~primary_key:[ "vid"; "pid" ]
       ~foreign_keys:
         [ { Schema.fk_columns = [ "pid" ]; fk_table = "product"; fk_ref_columns = [ "pid" ] } ]
       ());
  Database.create_index db ~table:"vendor" ~column:"pid";
  Database.create_index db ~table:"product" ~column:"pname";
  Database.insert_rows db ~table:"product"
    [ [| Value.String "P1"; Value.String "CRT 15"; Value.String "Samsung" |];
      [| Value.String "P2"; Value.String "LCD 19"; Value.String "Samsung" |];
      [| Value.String "P3"; Value.String "CRT 15"; Value.String "Viewsonic" |];
    ];
  Database.insert_rows db ~table:"vendor"
    [ [| Value.String "Amazon"; Value.String "P1"; Value.Float 100.0 |];
      [| Value.String "Bestbuy"; Value.String "P1"; Value.Float 120.0 |];
      [| Value.String "Circuitcity"; Value.String "P1"; Value.Float 150.0 |];
      [| Value.String "Buy.com"; Value.String "P2"; Value.Float 200.0 |];
      [| Value.String "Bestbuy"; Value.String "P2"; Value.Float 180.0 |];
      [| Value.String "Bestbuy"; Value.String "P3"; Value.Float 120.0 |];
      [| Value.String "Circuitcity"; Value.String "P3"; Value.Float 140.0 |];
    ];
  db

let help_text =
  {|commands:
  help                        this message
  SELECT/INSERT/UPDATE/... .  run a SQL statement against the database
  view                        print the materialized catalog view
  sql                         show the generated SQL triggers
  triggers                    list installed XML triggers
  trigger CREATE TRIGGER ...  install an XML trigger (action: notify)
  drop NAME                   drop an XML trigger
  price VID PID AMOUNT        update a vendor's price
  add VID PID AMOUNT          add a vendor offer
  remove VID PID              remove a vendor offer
  product PID NAME MFR        add a product
  stats                       runtime statistics: counters, scan rows, probe
                              counts, latency histograms, durability timings
  stats-json                  the same as one JSON object
  explain                     annotated plan per trigger group: compiled vs
                              interpreted, join choices, last-run cardinalities
  explain-json                the same as JSON
  analyze                     workload-observatory report: per trigger the
                              observed windowed cost under the current
                              strategy, the modeled cost of each alternative,
                              and a recommendation (incl. fragments worth
                              materializing)
  analyze-json                the same as one JSON object
  tune [NAME|all]             apply the advisor's recommendations by re-arming
                              triggers live (default: all); logged so recovery
                              replays the transition
  trace on|off                enable/disable span tracing (also: --trace)
  trace                       dump the recorded span timeline
  trace json                  dump the recorded spans as JSON
  trace chrome                dump spans + audit instants as Chrome trace-event
                              JSON (load in Perfetto / chrome://tracing)
  trace clear                 drop recorded spans
  audit on|off                enable/disable firing provenance (also: --audit)
  audit                       one summary line per recorded firing
  audit-json                  the audit records as a JSON array
  audit clear                 drop recorded audit records
  why ID                      full lineage of firing ID: statement, SQL trigger,
                              delta query, pair counts, condition, actions
  update STMT                 run a view-DML statement against a published view:
                                INSERT NODE <xml> INTO view("v")/path
                                REPLACE NODE view("v")/path WITH <xml>
                                DELETE NODE view("v")/path [WHERE cond]
                              translated to base DML; rejected with a diagnostic
                              when ambiguous or side-effecting
  explain-update STMT         print the translated base DML and the injectivity /
                              safety verdict without executing
  update-strategy VIEW S      ambiguity strategy for VIEW: reject | first | all
  metrics-prom                counters + latency histograms in Prometheus
                              text exposition format (includes subscription
                              delivery metrics)
  checkpoint                  snapshot the database and truncate the WAL
  subscribe NAME AFTER EV ON PATH [WHERE C] [QUEUE n] [OVERFLOW p] [COALESCE on]
                              register a change-feed subscription over the view
  unsubscribe NAME            drop a subscription (and its trigger)
  subscriptions               per-subscription delivery counters and depths
  flush                       end the coalescing window: deliver pending
                              notifications to all sinks
  autoflush on|off            flush automatically after every command (on by
                              default; turn off to demo coalescing windows)
  serve PATH                  start the notification socket server on Unix
                              socket PATH (also: --socket)
  serve-http PORT             start the HTTP front door on 127.0.0.1:PORT
                              (also: --http; PORT 0 picks an ephemeral port)
  pump [MS]                   run the socket/HTTP server event loops for MS
                              milliseconds (default 100)
  quit                        exit|}

let notify_action fi =
  Printf.printf "! %s fired (%s)\n" fi.Runtime.fi_trigger
    (Database.string_of_event fi.Runtime.fi_event);
  Option.iter
    (fun n -> Printf.printf "  OLD: %s\n" (Xmlkit.Xml.to_string n))
    fi.Runtime.fi_old;
  Option.iter
    (fun n -> Printf.printf "  NEW: %s\n" (Xmlkit.Xml.to_string n))
    fi.Runtime.fi_new

let run strategy script data_dir trace audit socket http no_independence =
  let tuning =
    { Runtime.default_tuning with Runtime.independence = not no_independence }
  in
  let mgr, recovered_meta =
    match data_dir with
    | Some dir when Durability.Recovery.has_state ~data_dir:dir ->
      (* a previous session left durable state: crash-recover it *)
      let r =
        Runtime.reopen ~strategy ~tuning ~actions:[ ("notify", notify_action) ]
          ~data_dir:dir ()
      in
      Printf.printf
        "recovered %s: %d WAL record(s) replayed%s, %d view(s) and %d trigger(s) re-armed\n"
        dir r.Runtime.recovery.Durability.Recovery.wal_applied
        (match r.Runtime.recovery.Durability.Recovery.wal_status with
        | Durability.Wal.Clean -> ""
        | Durability.Wal.Torn { reason; _ } ->
          Printf.sprintf " (torn tail dropped: %s)" reason)
        r.Runtime.rearmed_views r.Runtime.rearmed_triggers;
      List.iter
        (fun e -> Printf.printf "recovery warning: %s\n" e)
        (r.Runtime.recovery.Durability.Recovery.errors @ r.Runtime.rearm_errors);
      (r.Runtime.runtime, Some r.Runtime.recovery.Durability.Recovery.meta)
    | _ ->
      let db = make_db () in
      let mgr = Runtime.create ~strategy ~tuning db in
      Runtime.define_view mgr ~name:"catalog" catalog_view;
      Runtime.register_action mgr ~name:"notify" notify_action;
      Option.iter
        (fun dir ->
          Runtime.attach_durability mgr ~data_dir:dir;
          Printf.printf "durability attached at %s\n" dir)
        data_dir;
      (mgr, None)
  in
  if trace then Runtime.set_tracing mgr true;
  if audit then Runtime.set_audit mgr true;
  let hub = Hub.attach mgr in
  (match recovered_meta with
  | None -> ()
  | Some meta ->
    List.iter (fun e -> Printf.printf "subscription warning: %s\n" e) (Hub.rearm hub ~meta);
    let n = List.length (Hub.subscription_names hub) in
    if n > 0 then Printf.printf "%d subscription(s) re-armed\n" n);
  let autoflush = ref true in
  (* echo delivered notifications in the shell, NDJSON as on the wire *)
  Hub.add_callback hub (fun n -> Printf.printf "~ %s\n" (Subscribe.Notification.to_ndjson n));
  Option.iter
    (fun path ->
      Hub.add_server hub (Server.create ~path ());
      Printf.printf "notification server listening on %s\n" path)
    socket;
  let api = ref None in
  let start_http port =
    let a = Api.create ~port ~mgr ~hub () in
    api := Some a;
    Printf.printf "http server listening on http://127.0.0.1:%d\n" (Api.port a)
  in
  Option.iter start_http http;
  (* pump the socket/HTTP event loops until they go idle (bounded) *)
  let pump ms =
    let step_once tmo =
      (match Hub.server hub with
      | None -> 0
      | Some srv -> Server.step ~timeout_ms:tmo srv)
      + (match !api with None -> 0 | Some a -> Api.step ~timeout_ms:tmo a)
    in
    if Hub.server hub <> None || Option.is_some !api then begin
      let budget = ref (max 1 (ms / 10)) in
      ignore (step_once (min ms 10));
      while !budget > 0 do
        decr budget;
        if step_once 10 = 0 then budget := 0
      done
    end
  in
  let flush_now ~verbose () =
    let n = Hub.flush hub in
    pump 50;
    if verbose || n > 0 then Printf.printf "%d notification(s) delivered\n" n
  in
  let db = Runtime.database mgr in
  let schema_of name = Table.schema (Database.get_table db name) in
  let view = Xquery.Compile.view_of_string ~schema_of ~name:"catalog" catalog_view in
  let interactive = script = None in
  let input =
    match script with Some path -> open_in path | None -> stdin
  in
  Printf.printf
    "trigview shell — strategy %s; the Figure 2 database and Figure 3 catalog view are loaded.\n\
     Type 'help' for commands.\n"
    (Runtime.strategy_to_string strategy);
  let rec loop () =
    if interactive then (print_string "> "; flush stdout);
    match input_line input with
    | exception End_of_file -> ()
    | line ->
      let line = String.trim line in
      (try
         match String.split_on_char ' ' line with
         | [ "" ] -> ()
         | [ "help" ] -> print_endline help_text
         | [ "quit" ] | [ "exit" ] -> raise Exit
         | [ "view" ] ->
           print_string
             (Xmlkit.Xml.to_pretty_string
                (Xquery.Compile.materialize (Ra_eval.ctx_of_db db) view))
         | [ "sql" ] ->
           List.iter
             (fun (name, sql) -> Printf.printf "---- %s ----\n%s\n" name sql)
             (Runtime.generated_sql mgr)
         | [ "triggers" ] ->
           List.iter print_endline (Runtime.trigger_names mgr);
           Printf.printf "(%d SQL triggers underneath)\n" (Runtime.sql_trigger_count mgr)
         | "trigger" :: _ ->
           let text = String.sub line 8 (String.length line - 8) in
           Runtime.create_trigger mgr text;
           Printf.printf "installed; %d SQL triggers now registered\n"
             (Runtime.sql_trigger_count mgr)
         | [ "drop"; name ] -> Runtime.drop_trigger mgr name
         | [ "price"; vid; pid; amount ] ->
           let changed =
             Database.update_pk db ~table:"vendor"
               ~pk:[ Value.String vid; Value.String pid ]
               ~set:(fun row -> [| row.(0); row.(1); Value.Float (float_of_string amount) |])
           in
           if not changed then Printf.printf "no such vendor offer\n"
         | [ "add"; vid; pid; amount ] ->
           Database.insert_rows db ~table:"vendor"
             [ [| Value.String vid; Value.String pid; Value.Float (float_of_string amount) |] ]
         | [ "remove"; vid; pid ] ->
           if not (Database.delete_pk db ~table:"vendor" ~pk:[ Value.String vid; Value.String pid ])
           then Printf.printf "no such vendor offer\n"
         | "product" :: pid :: name :: mfr ->
           Database.insert_rows db ~table:"product"
             [ [| Value.String pid; Value.String name; Value.String (String.concat " " mfr) |] ]
         | [ "stats" ] -> print_string (Runtime.report mgr)
         | [ "stats-json" ] -> print_endline (Runtime.report_json mgr)
         | [ "explain" ] -> print_string (Runtime.explain mgr)
         | [ "explain-json" ] -> print_endline (Runtime.explain_json mgr)
         | [ "analyze" ] -> print_string (Runtime.analyze mgr)
         | [ "analyze-json" ] -> print_endline (Runtime.analyze_json mgr)
         | [ "tune" ] | [ "tune"; "all" ] -> print_string (Runtime.tune mgr)
         | [ "tune"; name ] -> print_string (Runtime.tune ~trigger:name mgr)
         | [ "trace"; "on" ] ->
           Runtime.set_tracing mgr true;
           Printf.printf "tracing on\n"
         | [ "trace"; "off" ] ->
           Runtime.set_tracing mgr false;
           Printf.printf "tracing off\n"
         | [ "trace" ] -> print_string (Runtime.trace_render mgr)
         | [ "trace"; "json" ] -> print_endline (Runtime.trace_json mgr)
         | [ "trace"; "chrome" ] -> print_endline (Runtime.trace_chrome_json mgr)
         | [ "trace"; "clear" ] -> Runtime.trace_clear mgr
         | [ "audit"; "on" ] ->
           Runtime.set_audit mgr true;
           Printf.printf "audit on\n"
         | [ "audit"; "off" ] ->
           Runtime.set_audit mgr false;
           Printf.printf "audit off\n"
         | [ "audit" ] -> print_string (Runtime.audit mgr)
         | [ "audit-json" ] -> print_endline (Runtime.audit_json mgr)
         | [ "audit"; "clear" ] -> Runtime.audit_clear mgr
         | [ "why"; id ] -> (
           match int_of_string_opt id with
           | Some id -> print_string (Runtime.why mgr id)
           | None -> Printf.printf "usage: why <firing id>\n")
         | [ "metrics-prom" ] ->
           print_string (Runtime.metrics_prometheus mgr);
           print_string (Hub.metrics_prometheus hub);
           Option.iter (fun a -> print_string (Api.metrics_prometheus a)) !api
         | "subscribe" :: _ ->
           Hub.subscribe hub (String.sub line 10 (String.length line - 10));
           Printf.printf "subscribed; %d SQL triggers now registered\n"
             (Runtime.sql_trigger_count mgr)
         | [ "unsubscribe"; name ] -> Hub.unsubscribe hub name
         | [ "subscriptions" ] -> print_string (Hub.report hub)
         | [ "flush" ] -> flush_now ~verbose:true ()
         | [ "autoflush"; "on" ] -> autoflush := true
         | [ "autoflush"; "off" ] -> autoflush := false
         | [ "serve"; path ] ->
           if Hub.server hub <> None then Printf.printf "server already running\n"
           else begin
             Hub.add_server hub (Server.create ~path ());
             Printf.printf "notification server listening on %s\n" path
           end
         | [ "serve-http"; port ] -> (
           if Option.is_some !api then Printf.printf "http server already running\n"
           else
             match int_of_string_opt port with
             | Some port when port >= 0 -> start_http port
             | _ -> Printf.printf "usage: serve-http <port>\n")
         | [ "pump" ] -> pump 100
         | [ "pump"; ms ] -> (
           match int_of_string_opt ms with
           | Some ms -> pump ms
           | None -> Printf.printf "usage: pump <milliseconds>\n")
         | [ "checkpoint" ] ->
           if Runtime.durability_attached mgr then begin
             Runtime.checkpoint mgr;
             Printf.printf "checkpoint written; WAL truncated\n"
           end
           else Printf.printf "no durability attached (start with --data-dir DIR)\n"
         | "update" :: verb :: _
           when List.mem (String.uppercase_ascii verb) [ "INSERT"; "REPLACE"; "DELETE" ] ->
           let text = String.sub line 7 (String.length line - 7) in
           let p = Viewupdate.execute mgr text in
           Printf.printf "%d base statement(s) executed\n" (List.length p.Viewupdate.p_ops);
           List.iter
             (fun op -> Printf.printf "  %s\n" (Viewupdate.base_op_render db op))
             p.Viewupdate.p_ops
         | "explain-update" :: _ when String.length line > 15 ->
           let text = String.sub line 15 (String.length line - 15) in
           print_string (Viewupdate.explain mgr text)
         | [ "update-strategy"; vname; s ] -> (
           let strat =
             match s with
             | "reject" -> Some Viewupdate.Reject_ambiguous
             | "first" -> Some Viewupdate.First_candidate
             | "all" -> Some Viewupdate.All_candidates
             | _ -> None
           in
           match strat with
           | Some strat ->
             Viewupdate.set_strategy mgr ~view:vname strat;
             Printf.printf "strategy for view %S: %s\n" vname
               (Viewupdate.strategy_to_string strat)
           | None -> Printf.printf "usage: update-strategy VIEW reject|first|all\n")
         | first :: _
           when List.mem
                  (String.uppercase_ascii first)
                  [ "SELECT"; "INSERT"; "UPDATE"; "DELETE"; "CREATE" ] -> (
           match Sql.exec db line with
           | Sql.Rows rel ->
             Printf.printf "%s\n" (String.concat " | " (Array.to_list rel.Ra_eval.cols));
             List.iter
               (fun row ->
                 Printf.printf "%s\n"
                   (String.concat " | "
                      (Array.to_list (Array.map Value.to_string row))))
               rel.Ra_eval.rows;
             Printf.printf "(%d rows)\n" (List.length rel.Ra_eval.rows)
           | Sql.Affected n -> Printf.printf "%d row(s) affected\n" n
           | Sql.Done -> Printf.printf "ok\n")
         | _ -> Printf.printf "unrecognized command (try 'help')\n"
       with
      | Exit -> raise Exit
      | Runtime.Error msg -> Printf.printf "error: %s\n" msg
      | Viewupdate.Error msg -> Printf.printf "view-update error: %s\n" msg
      | Viewupdate.Rejected d -> print_string (Viewupdate.render_diagnostic d)
      | Hub.Error msg -> Printf.printf "subscription error: %s\n" msg
      | Sql.Error msg -> Printf.printf "sql error: %s\n" msg
      | Invalid_argument msg -> Printf.printf "error: %s\n" msg
      | Failure msg -> Printf.printf "error: %s\n" msg);
      if !autoflush then flush_now ~verbose:false ();
      loop ()
  in
  (try loop () with Exit -> ());
  (* orderly shutdown: deliver what is pending, then make everything
     appended so far durable *)
  if Hub.subscription_names hub <> [] then flush_now ~verbose:false ();
  let srv = Hub.server hub in
  Hub.close_sinks hub;
  Option.iter Server.stop srv;
  Option.iter Api.stop !api;
  Runtime.durability_sync mgr;
  if not interactive then close_in input

open Cmdliner

let strategy_arg =
  let strategy_conv =
    Arg.enum
      [ ("ungrouped", Runtime.Ungrouped); ("grouped", Runtime.Grouped);
        ("grouped-agg", Runtime.Grouped_agg); ("materialized", Runtime.Materialized);
      ]
  in
  Arg.(
    value
    & opt strategy_conv Runtime.Grouped_agg
    & info [ "strategy" ] ~doc:"Trigger processing strategy.")

let script_arg =
  Arg.(value & opt (some file) None & info [ "script" ] ~doc:"Read commands from $(docv).")

let data_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "data-dir" ]
        ~doc:
          "Durability directory: WAL segments and snapshots are kept in \
           $(docv).  If it already holds state from a previous session, the \
           database, views and XML triggers are crash-recovered from it.")

let trace_arg =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Enable span tracing from the start (DML, trigger firings, plan \
           and fragment executions, tagging, dispatch); dump with the \
           $(b,trace) command.")

let audit_arg =
  Arg.(
    value & flag
    & info [ "audit" ]
        ~doc:
          "Enable the firing-provenance audit log from the start; inspect \
           with the $(b,audit) and $(b,why) commands.")

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ]
        ~doc:
          "Serve notifications over the Unix-domain socket $(docv): \
           subscriptions' notifications are published to connected clients \
           as length-prefixed NDJSON frames (see the $(b,subscribe) and \
           $(b,pump) commands).")

let http_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "http" ]
        ~doc:
          "Serve the HTTP front door on 127.0.0.1:$(docv): RQL view queries \
           ($(b,GET /views/NAME)), SQL and view-DML endpoints, SSE/long-poll \
           subscription feeds and the Prometheus $(b,/metrics) surface.  \
           Port 0 picks an ephemeral port (printed at startup).")

let no_independence_arg =
  Arg.(
    value & flag
    & info [ "no-independence" ]
        ~doc:
          "Disable static query–update independence pruning: every (table, \
           event) bucket hit runs its delta plans even when the trigger's \
           relevance signature (column footprint + constant path \
           predicates) proves the statement cannot affect it.  \
           Semantics-preserving, only slower; the pruning's work is visible \
           as the $(b,independence_skips) counter in $(b,stats) and \
           $(b,metrics-prom).")

let cmd =
  Cmd.v
    (Cmd.info "trigview" ~doc:"Triggers over XML views of relational data — interactive shell")
    Term.(
      const run $ strategy_arg $ script_arg $ data_dir_arg $ trace_arg
      $ audit_arg $ socket_arg $ http_arg $ no_independence_arg)

let () = exit (Cmd.eval cmd)
