(** Updatable XML views: write-through view DML compiled onto base tables.

    The read side of the system publishes XML views of relational data and
    compiles XML triggers down to SQL triggers; this module closes the loop
    on the write side.  It accepts three DML verbs over a published view

    {v
      INSERT NODE <xml> INTO view("v")/path
      REPLACE NODE view("v")/path WITH <xml>
      DELETE NODE view("v")/path [WHERE cond]
    v}

    plans them against the view's XQGM graph, and translates each into
    base-table INSERT / UPDATE / DELETE statements, following the
    translation + side-effect analysis of Liu et al.'s updatable-XML-views
    work: a targeted view node is updatable when its level's canonical key
    pins a unique base row ({!Xqgm.Lineage} provenance covering the base
    table's primary key), and the update is accepted only when it provably
    re-renders nothing but the targeted nodes — checked statically through
    {!Xqgm.Lineage.dependents} when possible, and otherwise dynamically by
    differencing the current document against a hypothetical evaluation of
    the post-update state (no base table is touched until the translation
    is verified).

    Ambiguous updates — a node whose level maps to several candidate base
    rows, e.g. deleting a grouped [<product>] built from two product rows —
    raise {!Rejected} with a structured diagnostic listing the candidates,
    unless a BIRDS-style programmable strategy ({!set_strategy}) resolves
    the choice for that view.

    Accepted translations execute through the normal {!Relkit.Database}
    path: they stamp statement ids, fire SQL triggers (and hence XML
    triggers), appear in the audit ring tagged with the originating view-DML
    text, replicate to subscribers, and land in the WAL. *)

(** A parsed view-DML statement. *)
type stmt =
  | Insert_node of { xml : Xmlkit.Xml.t; into : Xquery.Ast.path }
  | Replace_node of { path : Xquery.Ast.path; xml : Xmlkit.Xml.t }
  | Delete_node of { path : Xquery.Ast.path; where : Xquery.Ast.expr option }

(** One translated base-table statement. *)
type base_op =
  | Ins of { table : string; row : Relkit.Value.t array }
  | Upd of {
      table : string;
      pk : Relkit.Value.t list;
      before : Relkit.Value.t array;
      after : Relkit.Value.t array;
    }
  | Del of { table : string; pk : Relkit.Value.t list; row : Relkit.Value.t array }

(** The translation of one view-DML statement, as shown by [explain-update]. *)
type plan = {
  p_text : string;  (** the source view-DML text *)
  p_view : string;
  p_level : string;  (** tag path of the targeted level, e.g. "catalog/product" *)
  p_anchor : string;  (** base table the level is anchored to *)
  p_targets : int;  (** view nodes the path selected *)
  p_verdict : string list;  (** injectivity / safety verdict, one line each *)
  p_ops : base_op list;  (** base statements, in execution order *)
}

(** Why an update was refused: the ambiguity or side effect, with the
    candidate base rows (an ambiguous update always names >= 2). *)
type diagnostic = {
  d_stmt : string;
  d_view : string;
  d_level : string;
  d_table : string;  (** implicated base table; "" when none identified *)
  d_reason : string;
  d_candidates : (string * Relkit.Value.t array) list;  (** (table, row) *)
  d_side_effects : string list;  (** dependent graph sites / diff findings *)
}

exception Error of string  (** parse errors, unknown views/levels/fields *)

exception Rejected of diagnostic

val render_diagnostic : diagnostic -> string

(** {2 Programmable ambiguity strategies (BIRDS-style)}

    When a targeted node does not pin a unique base row, the view's strategy
    decides.  [Custom f] receives the ambiguity and returns the base rows to
    operate on ([None] falls back to rejection); strategy-resolved
    translations still run the side-effect verification, so e.g.
    [First_candidate] is rejected when deleting only the first candidate
    would leave the targeted node visible. *)

type ambiguity = {
  amb_stmt : string;
  amb_view : string;
  amb_level : string;
  amb_table : string;
  amb_schema : Relkit.Schema.t;
  amb_candidates : Relkit.Value.t array list;
}

type strategy =
  | Reject_ambiguous  (** the default: raise {!Rejected} *)
  | First_candidate
  | All_candidates
  | Custom of (ambiguity -> Relkit.Value.t array list option)

val strategy_to_string : strategy -> string

(** Per-runtime, per-view strategy registry; {!execute}'s [?strategy]
    overrides it.  Held by the runtime itself, so a strategy set for a view
    on one runtime never applies to a same-named view of another and is
    freed with its runtime. *)
val set_strategy : Trigview.Runtime.t -> view:string -> strategy -> unit

val clear_strategy : Trigview.Runtime.t -> view:string -> unit
val strategy_for : Trigview.Runtime.t -> view:string -> strategy

(** {2 Parsing, planning, execution} *)

(** @raise Error on malformed statements. *)
val parse : string -> stmt

(** Plans without executing: parse, resolve the level, anchor it, translate,
    and verify.  @raise Error / Rejected. *)
val plan : Trigview.Runtime.t -> ?strategy:strategy -> string -> plan

(** Plans and executes the translation through the normal [Database] path
    (statement ids, triggers, audit, WAL), with
    {!Relkit.Database.statement_origin} set to the view-DML text.  With
    durability attached, one ["viewdml"] meta record naming the statement
    goes to the WAL as recovery provenance; it is no catalog entry, so
    the next checkpoint leaves it behind, and nothing is kept in memory.
    @raise Error / Rejected; the database is untouched in that case. *)
val execute : Trigview.Runtime.t -> ?strategy:strategy -> string -> plan

(** Renders the plan — or the rejection diagnostic — without executing;
    never raises {!Rejected}. *)
val explain : Trigview.Runtime.t -> string -> string

val render_plan : plan -> string
val base_op_to_string : base_op -> string

(** Like {!base_op_to_string} but with column names resolved through the
    database's schemas (SQL-shaped [SET c = v] / [WHERE pk = v] clauses). *)
val base_op_render : Relkit.Database.t -> base_op -> string
