(** Mutable row store for one table: a primary-key hash map plus optional
    secondary hash indexes on single columns.

    All mutation goes through {!Database}, which enforces constraints and
    fires triggers; [Table] only maintains storage and indexes. *)

type t

(** Hash tables keyed by primary-key values, with the equality and hash
    the row store uses ({!Value.equal}, {!Value.hash}). *)
module Pk_table : Hashtbl.S with type key = Value.t list

val create : Schema.t -> t
val schema : t -> Schema.t
val row_count : t -> int

(** Monotonic content-version counter: bumped by every insert / delete /
    replace.  {!Ra_compile} keys its cached hash-join build sides on it, so
    any mutation — including ones issued while durability logging is muted —
    invalidates derived artifacts. *)
val version : t -> int

(** Adds a secondary hash index on [column] (no-op if already present).
    @raise Not_found if the column does not exist. *)
val create_index : t -> string -> unit

val indexed_columns : t -> string list

(** [find_pk t pk] is the row whose primary key equals [pk], if any. *)
val find_pk : t -> Value.t list -> Value.t array option

(** [lookup t ~column v] returns all rows with [row.column = v], with SQL
    equality semantics: a NULL [v] matches nothing and returns [[]] on both
    the indexed and the scan path.  Uses the secondary index when one
    exists, otherwise scans. *)
val lookup : t -> column:string -> Value.t -> Value.t array list

(** [lookup_cached] is [lookup] through a per-version memo: repeated probes
    of the same [(column, value)] between two mutations share one result
    list.  Used by the compiled executor; any table mutation invalidates. *)
val lookup_cached : t -> column:string -> Value.t -> Value.t array list

val has_index : t -> string -> bool

(** Distinct keys currently stored in the secondary index on [column].
    NULLs are never indexed, so this equals the number of distinct non-NULL
    values present.  Used by tests and EXPLAIN output.
    @raise Invalid_argument if no index exists on [column]. *)
val index_entry_count : t -> string -> int

(** Always-on access-path counters, as [(name, count)] pairs:
    [pk_probes]/[pk_hits] ({!find_pk}), [idx_probes]/[idx_hits]
    (indexed {!lookup}), [scan_lookups] (unindexed {!lookup}), and
    [lookup_cache_hits] ({!lookup_cached} memo hits). *)
val probe_report : t -> (string * int) list

val reset_probe_report : t -> unit

(** Iterate over all rows (order unspecified). *)
val iter : t -> (Value.t array -> unit) -> unit

val fold : t -> init:'a -> f:('a -> Value.t array -> 'a) -> 'a
val to_rows : t -> Value.t array list

(** Low-level mutations used by {!Database}.  [insert_exn] fails on duplicate
    primary key; [delete_pk] returns the removed row. *)
val insert_exn : t -> Value.t array -> unit

val delete_pk : t -> Value.t list -> Value.t array option

(** [replace t row] overwrites the row with the same primary key (which must
    exist) and returns the old version. *)
val replace_exn : t -> Value.t array -> Value.t array
