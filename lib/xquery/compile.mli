(** Compilation of XQuery view definitions to XQGM (the XPERANTO front-end
    of §2.1).

    The compiler handles the paper's hierarchical-FLWOR class of views:
    FLWOR expressions iterating over default-view table rows (or over
    [distinct(...)] of a column), [let]-bound correlated row sets used in
    aggregates and nested loops, [where] predicates mixing scalar comparisons
    with aggregate conditions, quantified expressions, and element
    constructors nesting further FLWORs to arbitrary depth.  Anything outside
    this class raises {!Unsupported} with a description.

    Besides the XQGM graph, compilation produces a {!view_tree}: the
    element-structure skeleton of the view with, per level, the operator
    producing that level's elements, its canonical key, and provenance from
    attributes / simple child elements back to columns.  View composition
    (trigger paths, conditions) works on this tree.

    A nested element is in the document only when its ancestors'
    predicates hold, and each level's operator says so itself: it is
    semijoined, on its correlation columns, with its parent level's
    surviving rows (the parent's iteration after its [where], carrying only
    the aggregates that [where] reads), which are restricted by theirs in
    turn.  Every reader of a level — triggers, view rows, view DML — thus
    sees exactly the document's elements.  The document's own graph
    nests the unrestricted levels, whose parents filter their groups. *)

exception Unsupported of string

type view_tree = {
  elem_tag : string;
  op : Xqgm.Op.t;
      (** produces one tuple per element of this level in the document:
          ancestors' predicates included *)
  node_col : string;  (** the column holding the constructed element *)
  key : string list;  (** canonical key of [op] *)
  fields : (string * string) list;
      (** provenance: ["@attr"], simple child-element tags, and
          ["count(tag)"] for exposed child counts, mapped to scalar columns
          of [op] *)
  corr : string list;
      (** correlation columns linking this level to its parent (exposed in
          both levels' operators); empty at the root.  They are the key of
          the semijoin with the parent's surviving rows, and nested
          trigger-condition grouping (§5.1) groups on them. *)
  children : view_tree list;
}

type view = {
  view_name : string;
  definition : Ast.expr;
  tree : view_tree;
}

(** Compiles a view definition (as parsed by {!Parser.parse_expr}).  The
    definition must be a single element constructor (the document element).
    @raise Unsupported on constructs outside the supported class. *)
val compile_view :
  schema_of:(string -> Relkit.Schema.t) -> name:string -> Ast.expr -> view

(** Convenience: parse + compile.
    @raise Parser.Parse_error / Unsupported. *)
val view_of_string :
  schema_of:(string -> Relkit.Schema.t) -> name:string -> string -> view

(** Materializes the view's document element through the reference
    evaluator (used by tests, the CLI and the MATERIALIZED baseline). *)
val materialize : Relkit.Ra_eval.ctx -> view -> Xmlkit.Xml.t

(** Operator mappings shared with {!Compose}. *)
val cmp_op : Ast.cmp -> Relkit.Ra.binop

val arith_op : Ast.arith -> Relkit.Ra.binop
