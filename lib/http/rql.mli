(** RQL — the front door's Resource Query Language.

    A query string is a ['&']-separated conjunction of terms:

    {v
      eq(region,ASIA)&ge(price,100)&sort(-open_auctions,+name)&limit(0,50)
    v}

    - comparison terms [eq(f,v)] [ne] [lt] [le] [gt] [ge]: field [f]
      compares against literal [v];
    - [sort(±f,...)]: sort keys in priority order, ['-'] descending,
      ['+'] (or nothing) ascending;
    - [limit(offset,count)]: slice of the sorted result;
    - [select(f,...)]: restrict the fields rendered per row.

    Literals parse as int, then float, then [true]/[false]/[null], else
    string; the prefix [string:] forces a string (so [string:123] is the
    text "123").  Field names and literal values are percent-decoded
    after tokenization, so encoded structural characters ([%26], [%28],
    [%2C], ...) are data.  {!print} renders the canonical form, which
    re-parses to the same query (the qcheck round-trip property).

    Queries compile onto the relational planner: {!compile} wraps a plan
    producing the queried columns with [Select] / [Order_by] nodes, so
    filtering and sorting run through the same {!Relkit.Ra_compile}
    executor as the trigger runtime's delta queries, over the scalar rows
    of a view level before any of its XML is built. *)

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type filter = {
  f_field : string;
  f_cmp : cmp;
  f_value : Relkit.Value.t;
}

type t = {
  filters : filter list;  (** conjunction, in query order *)
  sorts : (string * bool) list;  (** (field, descending), priority order *)
  limit : (int * int) option;  (** (offset, count) *)
  select : string list;  (** [] = all fields *)
}

val empty : t

exception Error of string

(** Percent-decoding shared with the routing layer.
    @raise Error on malformed encodings. *)
val pct_decode : string -> string

(** @raise Error on malformed queries (unknown operator, bad arity,
    unbalanced parentheses, bad percent-encoding). *)
val parse : string -> t

(** Canonical rendering; [parse (print q)] is structurally [q]. *)
val print : t -> string

(** [resolve_field ~columns f] maps an RQL field name to a plan column:
    [f] itself, or ["@" ^ f] (so [eq(name,...)] reaches the attribute
    field ["@name"]).
    @raise Error when neither exists. *)
val resolve_field : columns:string list -> string -> string

(** [compile ~fields ~order q plan] wraps [plan] with the query's
    [Select] and [Order_by].  [fields] maps each queryable field name to
    the column of [plan] holding it; filter and sort fields resolve
    through {!resolve_field} and then this map.  The sort keys are
    followed by the [order] columns ascending, the order [plan]'s rows
    take in the document, so rows that tie on every sort key keep
    document order.  [limit] and [select] are not part of the plan:
    apply {!limit_slice} to the executed rows and filter rendered fields.
    @raise Error on unknown fields. *)
val compile :
  fields:(string * string) list -> order:string list -> t -> Relkit.Ra.t -> Relkit.Ra.t

(** Applies the [limit(offset,count)] slice. *)
val limit_slice : t -> 'a list -> 'a list
