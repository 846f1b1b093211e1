(** The trigger manager — the system architecture of Figure 6.

    A manager owns a set of published views over one database, a registry of
    external action functions, and the installed XML triggers.  Creating an
    XML trigger runs the full paper pipeline: parse → compose Path with the
    view (§3.3) → event pushdown (Appendix C) → affected-node graph (§4) →
    grouping (§5.1) → pushdown to relational plans (§5.2) → registration of
    one SQL trigger per (base table, relational event).  When a SQL trigger
    fires, the plans compute the (OLD_NODE, NEW_NODE) pairs, the tagger
    rebuilds the XML, and the activation module dispatches to the OCaml
    action callbacks.

    Strategies match the paper's evaluation:
    - [Ungrouped]: one plan set per XML trigger (§6's UNGROUPED);
    - [Grouped]: structurally similar triggers share one plan set
      parameterized by a constants table (GROUPED);
    - [Grouped_agg]: GROUPED plus the inverse-maintenance rewrite of
      aggregates over the pre-update state (GROUPED-AGG);
    - [Materialized]: the rejected baseline of §1 — keep the monitored view
      level materialized, recompute and diff on every relevant statement. *)

type strategy = Ungrouped | Grouped | Grouped_agg | Materialized

val strategy_to_string : strategy -> string

(** Inverse of {!strategy_to_string}; [None] on unknown spellings. *)
val strategy_of_string : string -> strategy option

(** What the activation module hands to an action callback. *)
type firing = {
  fi_trigger : string;  (** XML trigger name *)
  fi_event : Relkit.Database.event;
  fi_old : Xmlkit.Xml.t option;  (** OLD_NODE (absent for INSERT) *)
  fi_new : Xmlkit.Xml.t option;  (** NEW_NODE (absent for DELETE) *)
  fi_args : Xqgm.Xval.t list;  (** the Action's evaluated parameters *)
  fi_audit_id : int;
      (** id of the audit record this firing links to (see {!why}); [0]
          when auditing is disabled *)
  fi_stmt_id : int;
      (** id of the DML statement this firing derives from
          ({!Relkit.Database.statement_count} at execution time); lets
          downstream consumers order notifications by statement *)
}

type action = firing -> unit

type stats = {
  sql_firings : int;  (** SQL trigger activations *)
  rows_computed : int;  (** (OLD, NEW) pairs produced by the plans *)
  actions_dispatched : int;
  plans_compiled : int;
      (** {!Relkit.Ra_compile} plans built (one-time, at trigger creation) *)
  compiled_execs : int;  (** executions through compiled plans *)
  build_cache_hits : int;
      (** hash-join build sides reused across firings (version check passed) *)
  build_cache_misses : int;  (** build sides (re)materialized *)
  prefilter_skips : int;
      (** SQL triggers the (table, event) relevance prefilter never even
          examined, summed over statements; they are not audited either *)
  independence_skips : int;
      (** SQL triggers inside an activated (table, event) bucket that the
          static relevance signature (column footprint / constant
          predicates derived from the trigger's XQGM plan at arm time)
          proved independent of the statement — skipped before any delta
          plan ran, and not audited *)
  triggers_dropped : int;
      (** XML triggers dropped over the runtime's lifetime; explains
          per-trigger series vanishing from the latency registry and the
          window *)
}

type t

exception Error of string

(** Optimizer-pass toggles, for ablation studies (bench target
    [ablation]), plus observatory and server settings.  The boolean
    toggles default to on; turning any off is always semantics-preserving,
    only slower.  Firing always runs sequentially on the calling domain;
    see DESIGN.md "Concurrency model". *)
type tuning = {
  push_affected_keys : bool;
      (** semijoin-restrict plans by the affected keys (§5.2 pushdown) *)
  share_subplans : bool;  (** common-subplan sharing (the WITH clauses) *)
  compile_plans : bool;
      (** compile trigger-group plans once with {!Relkit.Ra_compile} and
          execute firings through the compiled form; off = interpret every
          firing with {!Relkit.Ra_eval} *)
  independence : bool;
      (** derive static relevance signatures (column footprints + constant
          WHERE filters from the XQGM plan) when arming triggers and let
          the firing path prune statements provably independent of a
          trigger before any delta plan runs; off = every bucket hit fires
          (the pre-independence behaviour) *)
  window_buckets : int;
      (** bucket count of the sliding statistics window (defaults from
          [$TRIGVIEW_WINDOW_BUCKETS], else 12); applied to the database's
          window at {!create} when it differs from the current geometry *)
  window_width_ms : int;
      (** bucket width in milliseconds (defaults from
          [$TRIGVIEW_WINDOW_WIDTH_MS], else 5000) *)
}

(** Every toggle on; the window settings come from their
    environment variables. *)
val default_tuning : tuning

val create : ?strategy:strategy -> ?tuning:tuning -> Relkit.Database.t -> t
val database : t -> Relkit.Database.t
val strategy : t -> strategy

(** Compiles and publishes a view; its name is the one used in trigger
    paths.  @raise Error on parse/compile problems. *)
val define_view : t -> name:string -> string -> unit

(** The compiled form of a published view, for layers that plan against its
    XQGM graph directly (the view-update translator). *)
val find_view : t -> string -> Xquery.Compile.view option

(** Registers an external function callable from trigger actions.
    Callbacks run synchronously, inside the firing statement. *)
val register_action : t -> name:string -> action -> unit

(** Parses and installs an XML trigger (syntax of §2.2).  [log] (default
    true) controls whether the DDL is recorded for durability; layers that
    persist their own lifecycle records (see {!record_custom_ddl}) pass
    [~log:false] so recovery does not arm the trigger twice.
    @raise Error on syntax errors, unknown views/actions, paths over
    non-trigger-specifiable views (Theorem 1), or unsupported conditions. *)
val create_trigger : ?log:bool -> t -> string -> unit

val drop_trigger : ?log:bool -> t -> string -> unit
val trigger_names : t -> string list

(** Appends a custom DDL record to the runtime's durability log, so
    subsystems layered above the runtime (e.g. the subscription hub) ride
    the same WAL/checkpoint/recovery machinery.  {!reopen} ignores kinds it
    does not know; the owning layer replays them from
    [reopened.recovery.meta].  A later record of kind ["drop_<kind>"] with
    the same name compacts the pair away at the next checkpoint. *)
val record_custom_ddl : t -> kind:string -> name:string -> payload:string -> unit

(** Number of SQL triggers currently registered underneath. *)
val sql_trigger_count : t -> int

(** The generated SQL trigger texts, for inspection (cf. Figure 16). *)
val generated_sql : t -> (string * string) list

val stats : t -> stats
val reset_stats : t -> unit

(** Scan accounting over all plan executions of this manager (interpreted
    and compiled), per source ("scan:T", "delta:T", ...).  Each manager owns
    its accumulator, so concurrent managers do not interfere. *)
val reset_scan_rows : t -> unit

val scan_rows_total : t -> int
val scan_rows_report : t -> (string * int) list

(** Materializes the nodes a trigger path selects (used by
    {!Maintain} for initial population, and handy for debugging).
    @raise Error on unknown views or non-composable paths. *)
val view_nodes : t -> path:string -> Xmlkit.Xml.t list

(** {2 Query-over-view entry point (the HTTP front door's read path)} *)

type view_row = {
  vr_tag : string;  (** element tag of the level *)
  vr_node : Xmlkit.Xml.t;  (** the constructed element, document order *)
  vr_fields : (string * Relkit.Value.t) list;
      (** the level's provenance fields (["@attr"], simple child tags,
          ["count(tag)"]) atomized to scalars — the relation RQL queries
          compile against *)
}

(** Field names exposed at [level] (default: the view's repeated
    top-level element).
    @raise Error on unknown view or level. *)
val view_level_fields : t -> view:string -> ?level:string -> unit -> string list

(** One {!view_row} per element of [level], in document order, evaluated
    through the reference XQGM evaluator against current table contents.
    @raise Error on unknown view or level. *)
val view_rows : t -> view:string -> ?level:string -> unit -> view_row list

(** {2 Observability: tracing, latency histograms, EXPLAIN}

    Span tracing is off by default and costs nothing while disabled (the
    instrumented sites take one mutable-bool read).  Latency histograms are
    log-bucketed and always on: one per XML trigger (dispatch time:
    condition evaluation + action callback) and one per trigger-group
    firing body ([firing:g<id>:<table>]: plan execution, tagging and
    dispatch of one SQL-trigger activation with a non-empty transition). *)

(** Enables/disables span tracing on the underlying database's tracer:
    DML statements, SQL-trigger firings, plan and fragment executions,
    tagging, and action dispatch. *)
val set_tracing : t -> bool -> unit

val tracing_enabled : t -> bool
val trace_clear : t -> unit

(** The recorded spans as an indented timeline (see {!Obs.Trace.render}). *)
val trace_render : t -> string

val trace_json : t -> string

(** Per-trigger and per-firing latency histograms, name-sorted. *)
val latencies : t -> (string * Obs.Metrics.histogram) list


(** WAL append/fsync and checkpoint latency histograms; [[]] when no
    durability store is attached. *)
val durability_timings : t -> (string * Obs.Metrics.histogram) list

(** Renders every trigger group's execution plan: strategy, monitored view,
    member triggers, and per base table the compiled-vs-interpreted choice
    plus (when compiled) the annotated physical plan of
    {!Pushdown.explain_compiled} — operator labels with join/probe choices,
    last-run cardinalities, cache traffic.  Deterministic for a fixed
    trigger-creation and firing history: no timestamps, no hash order. *)
val explain : t -> string

(** The same structure as JSON: an array of group objects. *)
val explain_json : t -> string

(** The runtime's metric families, each declared once: runtime counters
    ([trigview_runtime_total]), observability configuration
    ([trigview_obs_config]), windowed rates and EWMAs, the advisor's
    recommended strategy per trigger (coded 0–3 in {!strategy} order),
    per-source scan rows, per-table probe counts, the latency registry,
    durability timings (only while a store is attached) and audit totals.
    Samples are read from their owning stores when a renderer calls the
    family, never on the firing path.  {!metrics_prometheus}, {!report} and
    [report_json]'s ["metrics"] object all render this list. *)
val families : t -> Obs.Metrics.family list

(** {!families} as aligned text, one block per family. *)
val report : t -> string

(** The machine-readable form (what [GET /stats] and the CLI's
    [stats-json] return): [{"strategy", "metrics", "observatory",
    "explain"}].  ["metrics"] is {!families} as JSON, one object per
    family keyed by label (histograms as count/mean/percentile objects);
    ["observatory"] holds the knobs (the [trigview_obs_config] samples),
    every windowed series with its total, window sum, rate and EWMA, and
    the advisor ({!analyze_json}); ["explain"] is {!explain_json}. *)
val report_json : t -> string

(** {2 Workload observatory: windowed profiles, ANALYZE, TUNE}

    The database maintains a sliding window ({!Obs.Window}) of per-table
    DML rates, skip rates and per-group firing profiles (latency, pair
    counts, scan rows, fragment-cache traffic).  [analyze] feeds the
    windowed profiles into a cost model of the paper's Table-2 trade-off —
    UNGROUPED pays one delta plan per trigger and per statement, GROUPED
    one shared plan plus the constants-table join, MATERIALIZED a
    recompute sized by the monitored base tables — and recommends, per
    trigger cohort, the cheapest strategy (with hysteresis: a switch must
    model ≥10% cheaper).  [tune] applies recommendations by re-arming the
    trigger live from its logged DDL; the transition is itself logged, so
    recovery replays it. *)

(** Windowed (or, when the window is empty, lifetime) observation of one
    trigger cohort. *)
type observed = {
  ob_firings : float;
  ob_rate : float;  (** plan activations/sec over the covered window *)
  ob_latency_ns : float;  (** mean ns per activation *)
  ob_pairs : float;
  ob_kept : float;
  ob_spurious : float;
  ob_scan_rows : float;
  ob_windowed : bool;  (** [false] = window empty, lifetime totals used *)
}

type recommendation = {
  r_trigger : string;
  r_group : int;
  r_members : int;  (** cohort size: triggers sharing plan structure *)
  r_current : strategy;
  r_recommended : strategy;
  r_observed_ns : float;  (** observed cohort cost per relevant statement *)
  r_modeled_ns : (strategy * float) list;
      (** modeled per-statement cost under each strategy; [[]] when the
          cohort has no observed firings *)
  r_rate : float;
  r_observed : observed;
  r_frags : string list;
      (** view fragments worth materializing (greedy selection from
          fragment-cache hit/miss traffic); [[]] when the cache is warm *)
  r_reason : string;
}

(** One recommendation per installed trigger, in creation order.  Also
    records recommendation *changes* as instants for
    {!trace_chrome_json}. *)
val recommendations : t -> recommendation list

(** Human-readable ANALYZE report: per trigger the observed windowed cost
    under the current strategy, the modeled cost under each alternative,
    and the recommendation. *)
val analyze : t -> string

val analyze_json : t -> string

(** Applies the advisor's recommendations ([?trigger] restricts to one):
    every trigger whose recommended strategy differs is dropped and
    re-created from its logged DDL under the new strategy (subscriptions
    and registered actions are unaffected; the drop/tune/create triple is
    logged so recovery replays the transition).  Returns a summary.
    @raise Error on unknown [?trigger] or when a trigger has no logged
    DDL (created with [~log:false]). *)
val tune : ?trigger:string -> t -> string

(** Pins [name]'s strategy for its next (re-)creation, overriding the
    manager default — the mechanism both {!tune} and recovery's ["tune"]
    meta records use. *)
val set_strategy_override : t -> string -> strategy -> unit

(** The strategy a currently-installed trigger actually runs under. *)
val trigger_strategy : t -> string -> strategy option

(** {2 Firing provenance: "why did this trigger fire?"}

    The audit log (off by default, one boolean load per probe while
    disabled) records one structured {!Obs.Audit.record} per SQL-trigger
    activation that reached a delta query, carrying the full lineage chain:
    DML statement (id, event, table, Δ/∇ transition row counts) → generated
    SQL trigger → delta query (plan mode, fragment link keys) → (OLD_NODE,
    NEW_NODE) pair counts split into kept / spurious (OLD = NEW) /
    condition-rejected → action invocations with per-dispatch condition
    outcomes.  Action callbacks receive the record's id as
    {!firing.fi_audit_id} and downstream consumers (e.g. {!Maintain}) can
    annotate the record through it. *)

val set_audit : t -> bool -> unit
val audit_enabled : t -> bool
val audit_clear : t -> unit

(** The live records, oldest first (bounded ring; oldest evicted). *)
val audit_records : t -> Obs.Audit.record list

(** One summary line per record, plus an eviction note when the ring
    overflowed. *)
val audit : t -> string

(** The records as a JSON array. *)
val audit_json : t -> string

(** Renders the full lineage chain of one firing by audit id; explains
    itself when the id was evicted or never existed. *)
val why : t -> int -> string

(** {2 Export: Perfetto and Prometheus}

    [trace_chrome_json] renders the recorded spans as Chrome trace-event
    JSON (load in Perfetto / chrome://tracing): spans become ["ph": "X"]
    complete events, audit records become instant events carrying the full
    record as [args].  [metrics_prometheus] renders {!families} in
    Prometheus text exposition format. *)

val trace_chrome_json : t -> string
val metrics_prometheus : t -> string

(** {2 Durability: WAL + snapshots + crash recovery}

    With durability attached, every committed DML/DDL statement is appended
    to a write-ahead log under [data_dir], and every view definition and XML
    trigger DDL is logged as a meta record.  After a crash, {!reopen}
    restores the database from the latest snapshot plus the WAL tail and
    re-compiles / re-arms all views and XML triggers, so the next statement
    fires exactly the actions an uncrashed instance would have fired.

    Tables named [trigconsts*] (the runtime's trigger-grouping constants
    tables) are system state: excluded from the log and snapshots, they are
    regenerated when triggers are re-armed. *)

(** Attaches a durability store rooted at [data_dir] and takes an immediate
    checkpoint of the current database and catalog.
    @raise Error if one is already attached. *)
val attach_durability :
  ?segment_limit:int ->
  ?policy:Durability.Wal.sync_policy ->
  t ->
  data_dir:string ->
  unit

(** Atomic snapshot (write-temp-then-rename) of the database plus the
    logical catalog; truncates the WAL.  @raise Error if not attached. *)
val checkpoint : t -> unit

val detach_durability : t -> unit
val durability_attached : t -> bool

(** Forces an fsync of the WAL regardless of the sync policy. *)
val durability_sync : t -> unit

type reopened = {
  runtime : t;
  recovery : Durability.Recovery.outcome;
  rearmed_views : int;
  rearmed_triggers : int;
  rearm_errors : string list;
      (** views/triggers whose re-compilation failed (e.g. an action
          function missing from [actions]); recovery itself still succeeds *)
}

(** Rebuilds a runtime from [data_dir]: latest valid snapshot, then the WAL
    tail replayed through the normal DML path with triggers suppressed
    (stopping cleanly at a torn tail), then views and XML triggers re-armed
    from their logged DDL.  [actions] must name every action function the
    recovered triggers use — closures cannot be persisted.  Durability is
    re-attached and a fresh checkpoint taken before returning. *)
val reopen :
  ?strategy:strategy ->
  ?tuning:tuning ->
  ?segment_limit:int ->
  ?policy:Durability.Wal.sync_policy ->
  ?actions:(string * action) list ->
  data_dir:string ->
  unit ->
  reopened
