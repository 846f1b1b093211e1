(* The trigview HTTP API: routing, rendering, and the runtime wiring.
   See api.mli for the endpoint contract. *)

module Runtime = Trigview.Runtime
module Database = Relkit.Database
module Value = Relkit.Value
module Ra = Relkit.Ra
module Ra_eval = Relkit.Ra_eval
module Ra_compile = Relkit.Ra_compile
module Sql = Relkit.Sql
module Xml = Xmlkit.Xml
module Hub = Subscribe

type t = {
  mgr : Runtime.t;
  hub : Hub.t;
  httpd : Httpd.t;
  registry : Obs.Metrics.registry;  (* per-endpoint latency histograms *)
  mutable hub_dirty : bool;
      (* a handler ran DML: flush the hub after the transport round (sink
         delivery publishes back into the httpd ring and must not run
         under the transport lock) *)
}

(* --- JSON / XML rendering helpers --- *)

let jesc = Obs.Metrics.json_escape

let json_of_value = function
  | Value.Null -> "null"
  | Value.Int n -> string_of_int n
  | Value.Float f ->
    if Float.is_finite f then
      let s = Printf.sprintf "%.12g" f in
      if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"
    else "null"
  | Value.Bool b -> if b then "true" else "false"
  | Value.String s -> Printf.sprintf "\"%s\"" (jesc s)

let xml_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_response ?(status = 200) body =
  Httpd.Respond
    { status; headers = [ ("content-type", "application/json") ]; body }

let text_response ?(status = 200) ~ctype body =
  Httpd.Respond { status; headers = [ ("content-type", ctype) ]; body }

let error_response status msg =
  json_response ~status (Printf.sprintf "{\"error\": \"%s\"}" (jesc msg))

(* RQL errors carry a structured payload — the offending query plus the
   queryable fields as [name] singletons — so clients can self-correct. *)
let rql_error ~query ~fields msg =
  json_response ~status:400
    (Printf.sprintf
       "{\"error\": \"%s\", \"detail\": {\"query\": \"%s\", \"fields\": [%s]}}"
       (jesc msg) (jesc query)
       (String.concat ", "
          (List.map (fun f -> Printf.sprintf "[\"%s\"]" (jesc f)) fields)))

(* --- query-string handling ---

   A view query string mixes RQL terms (name(args)) with plain key=value
   options (level, format, mode, cursor).  A part is an option when its
   '=' comes before any '('. *)

let split_query qs =
  let parts = List.filter (fun s -> s <> "") (String.split_on_char '&' qs) in
  let opts, terms =
    List.partition_map
      (fun part ->
        match String.index_opt part '=' with
        | Some i
          when (match String.index_opt part '(' with
               | None -> true
               | Some j -> i < j) ->
          Either.Left
            ( Rql.pct_decode (String.sub part 0 i),
              Rql.pct_decode
                (String.sub part (i + 1) (String.length part - i - 1)) )
        | _ -> Either.Right part)
      parts
  in
  (opts, String.concat "&" terms)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* --- GET /views/:name --- *)

let query_view t name (req : Httpd.request) =
  let opts, rql_text = split_query req.query in
  let level = List.assoc_opt "level" opts in
  let format =
    match List.assoc_opt "format" opts with
    | Some "xml" -> `Xml
    | Some "json" -> `Json
    | Some other ->
      raise (Rql.Error (Printf.sprintf "unknown format %S" other))
    | None -> (
      match List.assoc_opt "accept" req.headers with
      | Some a when contains_sub a "application/xml" -> `Xml
      | _ -> `Json)
  in
  let { Runtime.lr_tag = level_tag; lr_fields; lr_order; lr_rows; lr_nodes } =
    Runtime.read_level t.mgr ~view:name ?level ()
  in
  let q = Rql.parse rql_text in
  let db = Runtime.database t.mgr in
  (* the queried relation is the level's scalar rows, bound by name: RQL
     filters and sorts compile onto a scan of it and run through the same
     compiling executor as the trigger runtime's plans; XML is built only
     for the page [limit] returns *)
  let plan =
    Rql.compile ~fields:lr_fields ~order:lr_order q
      (Ra.Scan
         (Ra.Rel "rql$level", List.map (fun c -> (c, c)) (Array.to_list lr_rows.Ra_eval.cols)))
  in
  let ctx = { (Ra_eval.ctx_of_db db) with Ra_eval.rels = [ ("rql$level", lr_rows) ] } in
  let matched = (Ra_compile.exec (Ra_compile.compile db plan) ctx).Ra_eval.rows in
  let total = List.length matched in
  let page = Rql.limit_slice q matched in
  let out = List.combine page (lr_nodes page) in
  let field_names = List.map fst lr_fields in
  let render_fields =
    List.map
      (fun f -> (f, Ra_eval.col_index lr_rows (List.assoc f lr_fields)))
      (match q.Rql.select with
      | [] -> field_names
      | sel -> List.map (Rql.resolve_field ~columns:field_names) sel)
  in
  match format with
  | `Json ->
    let row_json (row, node) =
      let fields_json =
        String.concat ", "
          (List.map
             (fun (f, i) ->
               Printf.sprintf "\"%s\": %s" (jesc f) (json_of_value row.(i)))
             render_fields)
      in
      Printf.sprintf "{\"fields\": {%s}, \"xml\": \"%s\"}" fields_json
        (jesc (Xml.to_string node))
    in
    json_response
      (Printf.sprintf
         "{\"view\": \"%s\", \"level\": \"%s\", \"total\": %d, \"count\": %d, \
          \"rows\": [%s]}"
         (jesc name) (jesc level_tag) total (List.length out)
         (String.concat ", " (List.map row_json out)))
  | `Xml ->
    let buf = Buffer.create 1024 in
    Buffer.add_string buf
      (Printf.sprintf
         "<results view=\"%s\" level=\"%s\" total=\"%d\" count=\"%d\">"
         (xml_escape name) (xml_escape level_tag) total (List.length out));
    List.iter (fun (_, node) -> Buffer.add_string buf (Xml.to_string node)) out;
    Buffer.add_string buf "</results>";
    text_response ~ctype:"application/xml" (Buffer.contents buf)

(* --- POST /sql --- *)

let exec_sql t (req : Httpd.request) =
  let db = Runtime.database t.mgr in
  match Sql.exec db req.body with
  | Sql.Rows rel ->
    let cols =
      String.concat ", "
        (List.map
           (fun c -> Printf.sprintf "\"%s\"" (jesc c))
           (Array.to_list rel.Ra_eval.cols))
    in
    let rows =
      String.concat ", "
        (List.map
           (fun row ->
             Printf.sprintf "[%s]"
               (String.concat ", "
                  (List.map json_of_value (Array.to_list row))))
           rel.Ra_eval.rows)
    in
    json_response
      (Printf.sprintf "{\"cols\": [%s], \"rows\": [%s], \"count\": %d}" cols
         rows
         (List.length rel.Ra_eval.rows))
  | Sql.Affected n ->
    t.hub_dirty <- true;
    json_response (Printf.sprintf "{\"affected\": %d}" n)
  | Sql.Done ->
    t.hub_dirty <- true;
    json_response "{\"ok\": true}"

(* --- POST /views/:name/update --- *)

let view_update t name (req : Httpd.request) =
  (* parse first so a statement aimed at another view 409s before any
     planning or execution *)
  let stmt = Viewupdate.parse req.body in
  let target_view =
    let root (p : Xquery.Ast.path) =
      match p.Xquery.Ast.root with
      | Xquery.Ast.R_view v -> v
      | Xquery.Ast.R_var _ -> ""
    in
    match stmt with
    | Viewupdate.Insert_node { into; _ } -> root into
    | Viewupdate.Replace_node { path; _ } -> root path
    | Viewupdate.Delete_node { path; _ } -> root path
  in
  if target_view <> name then
    error_response 409
      (Printf.sprintf "statement targets view %S, not %S" target_view name)
  else begin
    let p = Viewupdate.execute t.mgr req.body in
    t.hub_dirty <- true;
    let db = Runtime.database t.mgr in
    json_response
      (Printf.sprintf
         "{\"ok\": true, \"view\": \"%s\", \"level\": \"%s\", \"targets\": \
          %d, \"ops\": [%s]}"
         (jesc p.Viewupdate.p_view) (jesc p.Viewupdate.p_level)
         p.Viewupdate.p_targets
         (String.concat ", "
            (List.map
               (fun op ->
                 Printf.sprintf "\"%s\"" (jesc (Viewupdate.base_op_render db op)))
               p.Viewupdate.p_ops)))
  end

let diagnostic_json (d : Viewupdate.diagnostic) =
  Printf.sprintf
    "{\"error\": \"rejected\", \"reason\": \"%s\", \"view\": \"%s\", \
     \"level\": \"%s\", \"table\": \"%s\", \"candidates\": %d, \
     \"side_effects\": [%s]}"
    (jesc d.Viewupdate.d_reason) (jesc d.Viewupdate.d_view)
    (jesc d.Viewupdate.d_level) (jesc d.Viewupdate.d_table)
    (List.length d.Viewupdate.d_candidates)
    (String.concat ", "
       (List.map
          (fun s -> Printf.sprintf "\"%s\"" (jesc s))
          d.Viewupdate.d_side_effects))

(* --- GET /subscribe/:name --- *)

let subscribe_feed t name (req : Httpd.request) =
  match Hub.find_sub t.hub name with
  | None -> error_response 404 (Printf.sprintf "unknown subscription %S" name)
  | Some _ ->
    let opts, _ = split_query req.query in
    let cursor =
      match List.assoc_opt "last-event-id" req.headers with
      | Some v -> ( match int_of_string_opt (String.trim v) with
        | Some n when n >= 0 -> n
        | _ -> 0)
      | None -> (
        match List.assoc_opt "cursor" opts with
        | Some v -> (
          match int_of_string_opt v with Some n when n >= 0 -> n | _ -> 0)
        | None -> 0)
    in
    (match List.assoc_opt "mode" opts with
    | Some "longpoll" -> Httpd.Long_poll { channel = Some name; cursor }
    | Some "sse" | None -> Httpd.Sse { channel = Some name; cursor }
    | Some other ->
      error_response 400 (Printf.sprintf "unknown mode %S" other))

(* --- operational surface --- *)

(* The HTTP server's metric families, declared once. *)
let families t =
  let open Obs.Metrics in
  let h = t.httpd in
  [ counter "trigview_http_total" (fun () ->
        [ ("requests", Httpd.requests h);
          ("responses", Httpd.responses h);
          ("overloads", Httpd.overloads h);
          ("deadline_aborts", Httpd.deadline_aborts h);
          ("clients_evicted", Httpd.clients_evicted h);
          ("clients_dropped", Httpd.clients_dropped h);
          ("sse_streams", Httpd.sse_streams h);
          ("sse_events_sent", Httpd.sse_events_sent h);
          ("published", Httpd.published h);
        ]);
    gauge "trigview_http_connections" (fun () ->
        [ ("connected", Httpd.connection_count h); ("inflight", Httpd.inflight h) ]);
    gauge "trigview_http_config" (fun () ->
        [ ("deadline_ms", Httpd.deadline_ms h); ("max_inflight", Httpd.max_inflight h) ]);
    histogram "trigview_http_latency_ns" (fun () -> histograms t.registry);
  ]

let metrics_prometheus t = Obs.Metrics.prometheus (families t)

let all_metrics ?api mgr hub =
  Obs.Metrics.prometheus
    (Runtime.families mgr @ Hub.families hub
    @ match api with Some t -> families t | None -> [])

(* --- routing --- *)

let split_path p = List.filter (fun s -> s <> "") (String.split_on_char '/' p)

let endpoint_label (req : Httpd.request) =
  match (req.meth, split_path req.path) with
  | "GET", "views" :: _ -> "GET /views"
  | "POST", [ "views"; _; "update" ] -> "POST /views/update"
  | "POST", [ "sql" ] -> "POST /sql"
  | "GET", "subscribe" :: _ -> "GET /subscribe"
  | "GET", [ "metrics" ] -> "GET /metrics"
  | "GET", [ "stats" ] -> "GET /stats"
  | "GET", [ "analyze" ] -> "GET /analyze"
  | "GET", [ "healthz" ] -> "GET /healthz"
  | meth, _ -> meth ^ " other"

let route t (req : Httpd.request) =
  match (req.meth, split_path req.path) with
  | "GET", [ "views"; name ] -> query_view t name req
  | "POST", [ "sql" ] -> exec_sql t req
  | "POST", [ "views"; name; "update" ] -> view_update t name req
  | "GET", [ "subscribe"; name ] -> subscribe_feed t name req
  | "GET", [ "metrics" ] ->
    text_response ~ctype:"text/plain; version=0.0.4"
      (all_metrics ~api:t t.mgr t.hub)
  | "GET", [ "stats" ] -> json_response (Runtime.report_json t.mgr)
  | "GET", [ "analyze" ] -> json_response (Runtime.analyze_json t.mgr)
  | "GET", [ "healthz" ] -> json_response "{\"ok\": true}"
  | _, ([ "sql" ] | [ "views"; _ ] | [ "views"; _; "update" ]
       | [ "subscribe"; _ ] | [ "metrics" ] | [ "stats" ] | [ "analyze" ]) ->
    error_response 405 "method not allowed"
  | _ -> error_response 404 "not found"

let handle t (req : Httpd.request) =
  let label = endpoint_label req in
  let tracer = Database.tracer (Runtime.database t.mgr) in
  let t0 = Obs.Trace.now () in
  let act =
    try route t req with
    | Rql.Error msg ->
      let fields =
        try
          let opts, _ = split_query req.query in
          match split_path req.path with
          | [ "views"; name ] ->
            Runtime.view_level_fields t.mgr ~view:name
              ?level:(List.assoc_opt "level" opts) ()
          | _ -> []
        with _ -> []
      in
      rql_error ~query:req.query ~fields msg
    | Runtime.Error msg -> error_response 404 msg
    | Sql.Error msg -> error_response 400 msg
    | Viewupdate.Error msg -> error_response 400 msg
    | Viewupdate.Rejected d -> json_response ~status:422 (diagnostic_json d)
    | Invalid_argument msg | Failure msg -> error_response 400 msg
  in
  Obs.Metrics.observe_in t.registry ("http:" ^ label)
    (Int64.sub (Obs.Trace.now ()) t0);
  if Obs.Trace.enabled tracer then Obs.Trace.finish_note tracer t0 "http" label;
  act

(* --- lifecycle --- *)

let create ?max_inflight ?deadline_ms ?retain ?(port = 0) ~mgr ~hub () =
  let httpd = Httpd.create ?max_inflight ?deadline_ms ?retain ~port () in
  let t =
    { mgr;
      hub;
      httpd;
      registry = Obs.Metrics.create_registry ();
      hub_dirty = false;
    }
  in
  Httpd.set_handler httpd (fun req -> handle t req);
  (* notifications flow into the HTTP replay ring alongside the other
     sinks; the channel is the subscription name, the payload the same
     NDJSON the socket server frames *)
  Hub.add_callback hub (fun n ->
      ignore
        (Httpd.publish httpd
           ~channel:n.Hub.Notification.subscription
           (Hub.Notification.to_ndjson n)));
  t

let httpd t = t.httpd
let port t = Httpd.port t.httpd

(* One transport round, then any deferred hub flush.  The flush happens
   with the transport lock released: sink delivery publishes back into
   this server via {!Httpd.publish}, which takes the lock itself.  A zero-timeout extra round pushes the
   freshly queued SSE bytes onto the wire within the same call. *)
let step ?timeout_ms t =
  let n = Httpd.step ?timeout_ms t.httpd in
  if t.hub_dirty then begin
    t.hub_dirty <- false;
    ignore (Hub.flush t.hub);
    n + Httpd.step ~timeout_ms:0 t.httpd
  end
  else n

let stop t = Httpd.stop t.httpd
