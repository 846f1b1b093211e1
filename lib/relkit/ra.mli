(** Relational-algebra plans.

    These are the plans generated by trigger pushdown (the bodies of the SQL
    triggers of the paper) and executed by {!Ra_eval}.  Sources include the
    transition tables [Delta] (DB2's [INSERTED] / the paper's Δtable) and
    [Nabla] ([DELETED] / ∇table) and the virtual pre-update table [Old_of]
    (the paper's [B_old] = (B EXCEPT ΔB) UNION ∇B, §4.2). *)

type source =
  | Base of string  (** current (post-update) contents of a base table *)
  | Delta of string  (** rows inserted / new versions of updated rows *)
  | Nabla of string  (** rows deleted / old versions of updated rows *)
  | Old_of of string  (** pre-update contents, reconstructed virtually *)
  | Rel of string  (** a named auxiliary relation, e.g. a constants table *)

type binop =
  | Eq
  | Neq
  | Lt
  | Le
  | Gt
  | Ge
  | And
  | Or
  | Add
  | Sub
  | Mul
  | Div
  | Mod

type expr =
  | Col of string
  | Const of Value.t
  | Binop of binop * expr * expr
  | Not of expr
  | Is_null of expr

type agg =
  | Count_star
  | Count of expr  (** counts non-NULL *)
  | Sum of expr
  | Min of expr
  | Max of expr
  | Avg of expr

type join_kind =
  | Inner
  | Left_outer  (** unmatched left rows padded with NULLs *)
  | Left_anti  (** left rows with no match; output = left columns *)
  | Right_anti  (** right rows with no match; output = right columns *)

type dir = Asc | Desc

type t =
  | Scan of source * (string * string) list
      (** [(source column, output name)] pairs; the projection/renaming
          applied at the scan *)
  | Select of expr * t
  | Project of (string * expr) list * t  (** [(output name, expr)] *)
  | Join of join_kind * expr * t * t
      (** input column sets must be disjoint; use [Const (Bool true)] for a
          cross product *)
  | Group_by of string list * (string * agg) list * t
      (** grouping columns (propagated) plus named aggregates.  With no
          grouping columns, produces exactly one row (SQL scalar-aggregate
          semantics). *)
  | Union of { all : bool; inputs : t list }
      (** positional column alignment; output names come from the first
          input *)
  | Distinct of t
  | Order_by of (string * dir) list * t
  | Values of string list * Value.t array list  (** inline constant relation *)
  | Shared of int * t
      (** a common subplan (the SQL trigger's WITH clauses, cf. Figure 16):
          evaluated once per firing and memoized by id in the evaluation
          context *)

(** Output column names of a plan, in order.
    @raise Invalid_argument on malformed plans (e.g. joins with overlapping
    column sets, unions with mismatched arities). *)
val columns : t -> string list

(** Convenience constructors. *)

val scan : source -> Schema.t -> t
(** [scan src schema] scans with identity renaming over [schema]'s columns. *)

val scan_as : source -> prefix:string -> Schema.t -> t
(** Renames every column [c] to [prefix ^ c]. *)

val conj : expr list -> expr
(** Conjunction; [conj [] = Const (Bool true)]. *)

val eq_cols : (string * string) list -> expr
(** Equality conjunction over column pairs. *)

(** Wraps a plan as a shared subplan with a fresh id. *)
val shared : t -> t

(** [map_inputs f plan] is [plan] with [f] applied to each direct input
    ([Shared] keeps its id). *)
val map_inputs : (t -> t) -> t -> t

val pp_expr : Format.formatter -> expr -> unit
val pp : Format.formatter -> t -> unit

(** Free columns referenced by an expression. *)
val expr_columns : expr -> string list
