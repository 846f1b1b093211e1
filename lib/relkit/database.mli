(** The database: a catalog of tables, DML statements that compute transition
    tables, and statement-level AFTER triggers (the SQL-trigger substrate of
    the paper, §2.3).

    Every DML call ([insert_rows] / [update_rows] / [delete_rows]) is one SQL
    statement: it applies the change, then fires each AFTER trigger defined
    on that (table, event) once, passing the [INSERTED] (Δ) and [DELETED]
    (∇) transition tables — exactly DB2's [FOR EACH STATEMENT ... REFERENCING
    OLD_TABLE AS DELETED, NEW_TABLE AS INSERTED] semantics. *)

type t

type event = Insert | Update | Delete

val string_of_event : event -> string

(** Context passed to a firing trigger: the post-update database plus the
    statement's transition tables. *)
type trigger_ctx = {
  db : t;
  target : string;  (** table the statement modified *)
  event : event;
  stmt_id : int;
      (** id of the DML statement that fired this trigger (1-based,
          monotone per database); audit records use it to name the exact
          statement a firing derives from *)
  inserted : Value.t array list;  (** Δtable: new versions (empty on DELETE) *)
  deleted : Value.t array list;  (** ∇table: old versions (empty on INSERT) *)
}

type trigger = {
  trig_name : string;
  trig_table : string;
  trig_event : event;
  body : trigger_ctx -> unit;
  relevance : relevance option;
      (** static relevance signature derived at arm time; [None] = always
          fire on a bucket hit (the pre-independence behaviour) *)
  sql_text : string;  (** printable form of the generated trigger *)
}

(** Static query–update independence signature of one trigger, derived by
    the caller from the trigger's plans.  The firing path uses it to prove,
    before any plan runs, that a statement cannot produce an (OLD, NEW)
    pair for this trigger: an UPDATE whose pairs are all identical on
    [rel_cols], or a statement none of whose transition rows passes
    [rel_pred], is skipped (counted in {!independence_skips}).  All three
    components are sound over-approximations supplied by the deriving
    layer; [rel_pred] must answer [true] on any doubt (NULLs, exceptions). *)
and relevance = {
  rel_cols : string list option;
      (** base columns of [trig_table] the trigger's plans can observe;
          [None] = all *)
  rel_pred : (Value.t array -> bool) option;
      (** constant-filter test over full base rows; [None] = unconstrained *)
  rel_eq : (string * Value.t) option;
      (** an equality every plan site implies, enabling value-indexed
          bucket lookup *)
}

(** A committed statement with full row images ([before]/[after] are
    pairwise), as reported to the durability hook.  Replaying a change
    stream through the DML path regenerates identical transition tables. *)
type change =
  | Ch_insert of { table : string; rows : Value.t array list }
  | Ch_update of {
      table : string;
      before : Value.t array list;
      after : Value.t array list;
    }
  | Ch_delete of { table : string; rows : Value.t array list }
  | Ch_create_table of Schema.t
  | Ch_create_index of { table : string; column : string }

(** Ring/window capacities default from the [TRIGVIEW_TRACE_RING],
    [TRIGVIEW_AUDIT_RING], [TRIGVIEW_WINDOW_BUCKETS] and
    [TRIGVIEW_WINDOW_WIDTH_MS] environment variables (see {!Obs.Knobs}). *)
val create : unit -> t

(** The database's span tracer (one per database, created disabled).  All
    layers that can reach a [t] — DML, trigger firing, the runtime's plan
    execution, the durability hook — record their spans here, so enabling it
    observes a statement end-to-end. *)
val tracer : t -> Obs.Trace.t

(** The database's firing-provenance audit log (one per database, created
    disabled, same ownership story as {!tracer}): the runtime's generated
    SQL-trigger bodies append one structured record per firing. *)
val audit : t -> Obs.Audit.t

(** The database's sliding-window statistics (per-table DML rates, skip
    rates, and the runtime's per-group firing profiles). *)
val window : t -> Obs.Window.t

(** Replace the window with a fresh one using a different bucket
    geometry.  Lifetime totals restart; intended to be called before any
    traffic (the runtime applies [tuning] overrides this way). *)
val set_window : t -> buckets:int -> width_ms:int -> unit

(** Number of DML statements executed so far (= the id stamped on the most
    recent one; see {!trigger_ctx.stmt_id}). *)
val statement_count : t -> int

(** Provenance of the statement currently executing: layers that translate a
    higher-level statement into base DML (the view-update translator) set
    this to the source text around their DML calls, so triggers and audit
    records fired underneath can name the true cause.  [""] = a direct
    relational statement. *)
val statement_origin : t -> string

(** [with_statement_origin db origin f] runs [f] with {!statement_origin}
    set to [origin], restoring the previous value afterwards (also on
    exceptions). *)
val with_statement_origin : t -> string -> (unit -> 'a) -> 'a

(** [attach_durability db f] calls [f] after every committed DML/DDL
    statement (insert/update/delete with full row images, table and index
    creation).  One observer at a time; see [lib/relkit/durability] for the
    WAL-backed implementation. *)
val attach_durability : t -> (change -> unit) -> unit

val detach_durability : t -> unit

(** [without_logging db f] runs [f] with the durability hook muted: its
    statements are system state regenerated from logical DDL on recovery
    (e.g. the runtime's trigger-constants tables). *)
val without_logging : t -> (unit -> 'a) -> 'a

(** [with_triggers_suppressed db f] runs [f] without firing AFTER triggers.
    Crash recovery replays a log that already contains the full effects of
    every statement — including those issued by trigger bodies — so replay
    must not fire them again. *)
val with_triggers_suppressed : t -> (unit -> 'a) -> 'a

(** @raise Invalid_argument on duplicate table name. *)
val create_table : t -> Schema.t -> unit

(** Removes a table from the catalog without emitting a change notification:
    meant for runtime-owned derived state (e.g. trigger-grouping constants
    tables), which durability already excludes; a no-op when absent. *)
val drop_table : t -> string -> unit

(** @raise Not_found if absent. *)
val get_table : t -> string -> Table.t

val find_table : t -> string -> Table.t option
val table_names : t -> string list

(** Content-version counter of a table (0 if the table does not exist);
    delegates to {!Table.version}.  Compiled plans ({!Ra_compile}) compare
    versions to decide whether a cached hash-join build side is still
    valid. *)
val table_version : t -> string -> int

(** Secondary index management (delegates to {!Table}). *)
val create_index : t -> table:string -> column:string -> unit

(** [insert_rows db ~table rows] validates each row (types, NOT NULL, PK
    uniqueness, FK references), inserts them, and fires AFTER INSERT
    triggers once with Δ = [rows].
    @raise Invalid_argument on constraint violation (the statement is not
    applied in that case). *)
val insert_rows : t -> table:string -> Value.t array list -> unit

(** Bulk load: validates and inserts without firing triggers (used to build
    benchmark databases). *)
val load_rows : t -> table:string -> Value.t array list -> unit

(** [update_rows db ~table ~where ~set] updates all rows satisfying [where],
    firing AFTER UPDATE triggers once with ∇ = old versions and Δ = new
    versions.  Pairs [set] left fully identical are dropped from the
    transition tables (and from the durability hook): a statement that
    changes no row values never enters the firing path.  Returns the number
    of rows {e matched} (SQL affected-count semantics, identical pairs
    included). *)
val update_rows :
  t ->
  table:string ->
  where:(Value.t array -> bool) ->
  set:(Value.t array -> Value.t array) ->
  int

(** {!update_rows} with a hint naming the only columns [set] can write
    (e.g. a SQL SET list), bounding the firing path's changed-column scan
    (separate entry point so the hint never burdens existing callers). *)
val update_rows_hint :
  t ->
  table:string ->
  where:(Value.t array -> bool) ->
  touched_cols:string list ->
  set:(Value.t array -> Value.t array) ->
  int

(** Keyed single-row update (fast path: no table scan).  Returns [true] if a
    row with that primary key existed. *)
val update_pk :
  t -> table:string -> pk:Value.t list -> set:(Value.t array -> Value.t array) -> bool

val delete_rows : t -> table:string -> where:(Value.t array -> bool) -> int
val delete_pk : t -> table:string -> pk:Value.t list -> bool

(** Triggers never examined thanks to the (table, event) prefilter index,
    summed over all statements that had a firing opportunity. *)
val trigger_skips : t -> int

val reset_trigger_skips : t -> unit

(** Triggers inside an activated (table, event) bucket that the static
    relevance signature proved independent of the statement — skipped
    before any delta plan ran.  Kept separate from {!trigger_skips}: the
    prefilter counts table-level misses, this counts column/predicate-level
    ones. *)
val independence_skips : t -> int

val reset_independence_skips : t -> unit

(** Trigger catalog.  Triggers fire in creation order.
    @raise Invalid_argument on duplicate trigger name or unknown table. *)
val create_trigger : t -> trigger -> unit

val drop_trigger : t -> string -> unit
val triggers_on : t -> table:string -> event:event -> trigger list
val trigger_count : t -> int

(** All triggers' printable SQL, for inspection. *)
val trigger_sql : t -> (string * string) list
