(** Trigger pushdown (§5.2 of the paper): compile an XQGM graph into
    relational plans plus tagging templates, and evaluate them through the
    relational engine.

    [shred] splits a graph into a scalar {!Relkit.Ra} plan per nesting level
    (the branches of the paper's sorted outer union) and a template per
    XML-valued column describing how the tagger rebuilds nodes from rows.
    aggXMLFrag aggregates become child levels linked to their parent by the
    grouping columns.

    [compile] prepares a shredded graph once against a database and
    [render_compiled] executes it per firing: child levels are restricted to
    the parent's link keys with {!Relkit.Ra_opt.push_semijoin} (so only
    affected subtrees are ever computed), rows are grouped and ordered, and
    templates are instantiated — the constant-space tagger.  Only the
    requested columns are materialized: a trigger whose action needs only
    NEW_NODE never touches the OLD side's content.

    [invert_old_aggregates] is the GROUPED-AGG optimization (§5.2): a
    GroupBy over the pre-update table computes its COUNT/SUM aggregates from
    the post-state aggregate and the transition tables instead
    (old = new + ∇-contributions − Δ-contributions), eliminating OLD-OF
    access for distributive aggregates.  MIN/MAX are not invertible and are
    left untouched, as in the paper. *)

exception Not_pushable of string

type atom =
  | A_col of string
  | A_const of Relkit.Value.t

type template =
  | T_elem of {
      tag : string;
      attrs : (string * atom) list;
      content : template list;
    }
  | T_atom of atom
  | T_frag of frag

and frag = {
  f_plan : Relkit.Ra.t;  (** child level plan, unrestricted *)
  f_template : template;  (** instantiated once per child row *)
  f_link : (string * string) list;  (** (parent plan column, child plan column) *)
  f_order : string list;  (** child columns giving document order *)
}

type t = {
  plan : Relkit.Ra.t;  (** scalar part of the top level *)
  out_cols : string list;  (** the original graph's output columns *)
  xml : (string * template) list;  (** XML-valued outputs *)
}

(** @raise Not_pushable when the graph uses features with no relational
    translation (node comparisons, XML-valued unions, computed attribute
    contents); callers fall back to direct XQGM evaluation. *)
val shred : Xqgm.Op.t -> t

(** Rewrites every invertible GroupBy-over-OLD-OF in the shredded plans. *)
val invert_old_aggregates : table:string -> t -> t

(** The child-level link-key signature of every fragment in the shredded
    graph (one ["k1,k2"] entry per distinct fragment, outermost first).
    Static per plan; audit records stamp it as the delta query's lineage. *)
val frag_keys : t -> string list

(** A shredded graph compiled once against a database: plans go through
    {!Relkit.Ra_compile}, template column references become slots, and each
    fragment level's parent-key semijoin restriction is planned at compile
    time (parameterized by a per-firing key binding) instead of being
    rebuilt and re-optimized on every firing. *)
type compiled

(** Shared fragment-engine memo: templates whose fragments have the same
    child plan/template (the OLD- and NEW-node sides of one trigger group,
    or several groups over the same view) share the per-fragment child
    executor and its version-keyed result cache.  Pass the same memo to
    every [compile] over one database to enable cross-template sharing. *)
type frag_memo

val create_frag_memo : unit -> frag_memo

(** @raise Not_found / Invalid_argument when the plans or templates do not
    resolve against the database catalog; callers fall back to direct XQGM
    evaluation. *)
val compile :
  ?counters:Relkit.Ra_compile.counters ->
  ?frag_memo:frag_memo ->
  Relkit.Database.t ->
  t ->
  compiled

(** Runs the compiled top-level scalar plan: one row per output tuple,
    holding the scalar output columns (and the hidden columns the templates
    read) but no XML. *)
val exec_scalar : compiled -> Relkit.Ra_eval.ctx -> Relkit.Ra_eval.rel

(** [tag_rows c ctx rows] builds the requested output columns ([cols],
    default all) of [rows], which must come from {!exec_scalar} on [c].
    Fragment engines bind only these rows' link keys, so tagging a few
    rows of a large level computes only their subtrees. *)
val tag_rows :
  ?cols:string list ->
  compiled ->
  Relkit.Ra_eval.ctx ->
  Relkit.Value.t array list ->
  Xqgm.Eval.xrel

(** Per-firing execution, {!exec_scalar} then {!tag_rows} over every row;
    produces what {!Xqgm.Eval.eval} produces for the shredded graph on the
    same context.  [cols] defaults to all output columns. *)
val render_compiled :
  ?cols:string list -> compiled -> Relkit.Ra_eval.ctx -> Xqgm.Eval.xrel

(** Annotated physical plan of the compiled top level followed by each
    fragment child level (see {!Relkit.Ra_compile.explain}): operator
    labels with join choices, last-run cardinalities, cache traffic.
    [fragkeys$N] binding names are masked to [fragkeys$_] so the output is
    stable across runtime instances. *)
val explain_compiled : compiled -> string

(** The same as a JSON object: [{"plan": ..., "fragments": [...]}]. *)
val explain_compiled_json : compiled -> string

(** The printable single-query form (shared subplans as WITH clauses), for
    the generated SQL trigger text. *)
val to_sql : t -> string
