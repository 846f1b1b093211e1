(** Interpreting executor for {!Ra} plans.

    Physical planning is done on the fly:
    - equi-join conjuncts are detected and executed as hash joins;
    - a join whose inner side is a (possibly filtered) scan of a base table
      with a usable index — or of [Old_of] — runs as an index-nested-loop
      join, probing per outer row;
    - probes against [Old_of b] hit [b]'s index and patch the result with the
      statement's Δ/∇ rows, so the pre-update state is never materialized
      (Design decision 2 in DESIGN.md).

    This module is the reference oracle: {!Ra_compile} makes the same
    physical decisions once per plan and must produce identical results. *)

type rel = {
  cols : string array;
  rows : Value.t array list;
}

(** Accounting of rows materialized by full source scans (index probes do
    not count), keyed by source description ("scan:T", "delta:T", ...).
    Owned by whoever creates the context — each runtime manager keeps its
    own accumulator, so concurrent managers cannot corrupt each other's
    counters.  Tests use it to assert that affected-key pushdown keeps
    per-update work independent of table sizes. *)
type scan_stats

val create_scan_stats : unit -> scan_stats
val count_scan : scan_stats -> string -> int -> unit
val reset_scan_stats : scan_stats -> unit
val scan_stats_total : scan_stats -> int

(** Adds every per-source count of [src] into [into].  The firing path
    accumulates each firing into private stats (its total feeds the
    per-group [scan_rows] window series) and merges them into the
    manager's shared accumulator. *)
val merge_scan_stats : into:scan_stats -> scan_stats -> unit

(** Per-source row counts, highest first. *)
val scan_stats_report : scan_stats -> (string * int) list

(** Evaluation context: the (post-update) database plus the transition
    tables of the firing statement, and any auxiliary named relations. *)
type ctx = {
  db : Database.t;
  trans : (string * (Value.t array list * Value.t array list)) list;
      (** table → (Δ rows, ∇ rows) *)
  rels : (string * rel) list;  (** bindings for {!Ra.Rel} sources *)
  shared_memo : (int, rel) Hashtbl.t;
      (** per-firing cache for {!Ra.Shared} subplans; fresh in each context *)
  scan_stats : scan_stats;  (** scan accounting sink for this context *)
}

(** [ctx_of_trigger ?stats tc] builds a firing context.  When [stats] is
    given, scan accounting accumulates there (shared across firings);
    otherwise each context gets a fresh private accumulator. *)
val ctx_of_trigger : ?stats:scan_stats -> Database.trigger_ctx -> ctx

(** Context over a quiescent database: all transition tables empty. *)
val ctx_of_db : ?stats:scan_stats -> Database.t -> ctx

(** @raise Invalid_argument on malformed plans or unknown sources. *)
val eval : ctx -> Ra.t -> rel

(** Rows of table [name] in the pre-statement state, reconstructed from the
    current contents and the transition tables (the paper's B_old). *)
val old_rows : ctx -> string -> Value.t array list

(** The (Δ, ∇) transition rows recorded for a table (empty pair if none). *)
val transitions : ctx -> string -> Value.t array list * Value.t array list

(** Column position in a relation.  @raise Not_found if absent. *)
val col_index : rel -> string -> int

(** Rows as association lists, for tests. *)
val rows_assoc : rel -> (string * Value.t) list list

(** Deterministically sorted copy (all columns ascending), for comparisons. *)
val sorted : rel -> rel

val equal_rel : rel -> rel -> bool
val pp_rel : Format.formatter -> rel -> unit

(** Hashing rows by value (SQL semantics are applied by callers; [Null]
    hashes/compares like an ordinary value here). *)
module Row_tbl : Hashtbl.S with type key = Value.t array

(** [row_set rows] is a membership set over row values. *)
val row_set : Value.t array list -> unit Row_tbl.t

(** Column-name → slot maps and expression compilation against a fixed
    layout.  {!Ra_compile} resolves these once per plan; the interpreter
    redoes them per evaluation. *)
val colmap : string array -> (string, int) Hashtbl.t

(** @raise Invalid_argument on unknown column. *)
val slot : (string, int) Hashtbl.t -> string -> int

val compile_expr : (string, int) Hashtbl.t -> Ra.expr -> Value.t array -> Value.t
val compile_pred : (string, int) Hashtbl.t -> Ra.expr -> Value.t array -> bool

(** Join planning shared by the interpreter and {!Ra_compile}: predicate
    decomposition into equi/residual conjuncts, and recognition of
    index-probeable inner sides. *)
module Planner : sig
  val conjuncts : Ra.expr -> Ra.expr list

  type join_split = {
    equi : (string * string) list;  (** (left col, right col) *)
    residual : Ra.expr list;
  }

  val split_join_pred :
    left_cols:string list -> right_cols:string list -> Ra.expr -> join_split

  (** A join inner side of shape [Select? (Scan (Base|Old_of))]. *)
  type probe_side = {
    p_table : string;
    p_old : bool;
    p_renames : (string * string) list;  (** source col → output col *)
    p_filter : Ra.expr option;  (** over output columns *)
  }

  val as_probe_side : Ra.t -> probe_side option

  type probe_strategy =
    | Probe_pk of (string * string) list
        (** (outer col, pk source col) in PK order: full-PK lookup *)
    | Probe_index of string * string
        (** (outer col, indexed source col): secondary-index lookup *)

  val probe_strategy :
    Table.t -> probe_side -> (string * string) list -> probe_strategy option
end
