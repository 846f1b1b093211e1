(** Compiling executor for {!Ra} plans.

    [compile] makes every per-plan decision once — column-name → offset
    resolution, rename slot computation, Select/Project fusion, physical
    join selection (the same index-nested-loop vs. hash choices as
    {!Ra_eval}, via {!Ra_eval.Planner}) — and returns a tree of closures.
    Executing it against a per-firing context only runs row loops.

    Hash-join build sides whose subplans read only base tables (no
    transition tables, no [Old_of], no [Rel] bindings) are additionally
    cached across executions and revalidated by comparing {!Table.version}
    counters, so repeated firings skip rebuilding them until a dependency
    table changes.

    A compiled plan is bound to the database it was compiled against
    (table handles are captured at compile time): execute it only with
    contexts over that same database.  {!Ra_eval.eval} is the reference
    oracle — for any plan and context both executors return the same
    multiset of rows. *)

(** Instrumentation shared by all plans compiled with the same record
    (the runtime keeps one per manager, surfaced through its stats). *)
type counters = {
  mutable plans_compiled : int;
  mutable compiled_execs : int;
  mutable build_cache_hits : int;
  mutable build_cache_misses : int;
}

val create_counters : unit -> counters
val reset_counters : counters -> unit

type t

(** Output column names, in order (equal to [Ra.columns] of the plan). *)
val cols : t -> string list

(** Per-operator annotation, one per compiled node.  [a_label] names the
    physical operator chosen at compile time (INL vs hash join, probe kind,
    cacheable build side); the mutable fields fill in as the plan runs —
    output cardinality of the last execution, cumulative rows, execution
    count, and build-cache / shared-memo hit/miss traffic. *)
type annot = {
  a_label : string;
  mutable a_last_rows : int;
  mutable a_total_rows : int;
  mutable a_execs : int;
  mutable a_hits : int;
  mutable a_misses : int;
  a_children : annot list;
}

(** Root of the plan's annotation tree (shared with the executing closures:
    reading it after an [exec] sees that execution's cardinalities). *)
val annot : t -> annot

(** Render the annotated physical plan as an indented tree: one line per
    operator with last/total cardinalities, execution count, and cache
    traffic.  Deterministic given a deterministic workload — no times, no
    hash order.  Nodes that never ran say [never run]. *)
val explain : t -> string

(** Same annotation tree as a JSON object (nested [children] arrays). *)
val explain_json : t -> string

(** [static_deps plan] is [Some tables] when the plan's result depends only
    on the current contents of [tables] (no transition tables, no [Old_of],
    no [Rel] bindings): a materialization keyed on those tables' version
    counters stays valid until one of them mutates.  [None] otherwise. *)
val static_deps : Ra.t -> string list option

(** [compile ?counters db plan] resolves [plan] against [db]'s catalog.
    @raise Invalid_argument on malformed plans (arity mismatches, unknown
    columns) and [Not_found] on base tables absent from [db]. *)
val compile : ?counters:counters -> Database.t -> Ra.t -> t

(** Execute against a firing context over the compilation database.
    Transition tables, [Rel] bindings and the shared-subplan memo are read
    from the context per call; scan accounting goes to its [scan_stats]. *)
val exec : t -> Ra_eval.ctx -> Ra_eval.rel

