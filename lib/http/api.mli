(** The trigview HTTP API: routes {!Httpd} requests onto the runtime.

    Endpoints:

    - [GET /views/:name] — query a published view's repeated elements
      with an {!Rql} query string (plus [level=tag] to query a nested
      level, [format=json|xml] / [Accept: application/xml] to pick the
      rendering).  Filters and sorts compile onto the relational
      planner ({!Relkit.Ra_compile}) over the level's provenance
      fields, read as scalar rows ({!Trigview.Runtime.read_level});
      XML is built only for the rows [limit] returns.
    - [POST /sql] — body is one SQL statement, executed exactly like
      the CLI's SQL path: triggers fire, audit origin and WAL records
      are written by the same machinery.
    - [POST /views/:name/update] — body is a view-DML statement
      ([INSERT NODE ...] / [REPLACE NODE ...] / [DELETE NODE ...])
      planned and executed by {!Viewupdate}; 409 when the statement
      targets a different view than the URL, 422 with the structured
      diagnostic when the planner rejects it.
    - [GET /subscribe/:name] — subscription feed as SSE (default) or
      long-poll ([mode=longpoll]).  The cursor is the replay ring's
      gseq: [Last-Event-ID] header or [cursor=N]; at-least-once across
      reconnects, with a [gap] event when the cursor has fallen out of
      retention.
    - [GET /metrics] — Prometheus text: {!all_metrics}.
    - [GET /stats] — {!Trigview.Runtime.report_json}.
    - [GET /analyze] — {!Trigview.Runtime.analyze_json}.
    - [GET /healthz] — liveness.

    Per-endpoint latency histograms land in the API's
    {!Obs.Metrics.registry} (labels [GET /views], [POST /sql], ...);
    when the runtime's tracer is enabled every request records an
    [http] span noted with its endpoint.

    DML handlers only mark the hub dirty; {!step} flushes it after the
    transport round so sink delivery (including {!Httpd.publish} back
    into this server's SSE ring) never runs under the transport lock. *)

type t

val create :
  ?max_inflight:int ->
  ?deadline_ms:int ->
  ?retain:int ->
  ?port:int ->
  mgr:Trigview.Runtime.t ->
  hub:Subscribe.t ->
  unit ->
  t

val httpd : t -> Httpd.t
val port : t -> int

(** One transport round; flushes the hub afterwards when a DML request
    fired triggers, so notifications reach SSE/long-poll clients within
    the same call. *)
val step : ?timeout_ms:int -> t -> int

val stop : t -> unit

(** The HTTP server's metric families in Prometheus text format:
    transport counters ([trigview_http_total]), connection and
    configuration gauges, and the per-endpoint latency histograms. *)
val metrics_prometheus : t -> string

(** The whole exposition [GET /metrics] serves: the runtime's
    ({!Trigview.Runtime.families}), the hub's ([Subscribe.families]) and
    (when [api] is given) the HTTP server's families, rendered as one
    list.  The CLI's [metrics-prom] calls it too, without [api] until a
    server is started. *)
val all_metrics : ?api:t -> Trigview.Runtime.t -> Subscribe.t -> string
