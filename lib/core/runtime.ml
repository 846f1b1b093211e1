module Database = Relkit.Database
module Schema = Relkit.Schema
module Value = Relkit.Value
module Ra = Relkit.Ra
module Ra_opt = Relkit.Ra_opt
module Ra_eval = Relkit.Ra_eval
module Op = Xqgm.Op
module Expr = Xqgm.Expr
module Xval = Xqgm.Xval
module Eval = Xqgm.Eval
module Xml = Xmlkit.Xml
module Lineage = Xqgm.Lineage
module Ast = Xquery.Ast
module Compile = Xquery.Compile
module Compose = Xquery.Compose

type strategy = Ungrouped | Grouped | Grouped_agg | Materialized

let strategy_to_string = function
  | Ungrouped -> "UNGROUPED"
  | Grouped -> "GROUPED"
  | Grouped_agg -> "GROUPED-AGG"
  | Materialized -> "MATERIALIZED"

let strategy_of_string = function
  | "UNGROUPED" -> Some Ungrouped
  | "GROUPED" -> Some Grouped
  | "GROUPED-AGG" -> Some Grouped_agg
  | "MATERIALIZED" -> Some Materialized
  | _ -> None

type firing = {
  fi_trigger : string;
  fi_event : Database.event;
  fi_old : Xml.t option;
  fi_new : Xml.t option;
  fi_args : Xval.t list;
  fi_audit_id : int;  (* audit record this firing links to; 0 when auditing off *)
  fi_stmt_id : int;  (* DML statement this firing derives from *)
}

type action = firing -> unit

type stats = {
  sql_firings : int;
  rows_computed : int;
  actions_dispatched : int;
  plans_compiled : int;
  compiled_execs : int;
  build_cache_hits : int;
  build_cache_misses : int;
  prefilter_skips : int;
      (* SQL triggers never examined thanks to the (table, event) index *)
  independence_skips : int;
      (* SQL triggers inside an activated bucket that the static relevance
         signature proved independent of the statement *)
  triggers_dropped : int;
      (* XML triggers dropped over the runtime's lifetime; their telemetry
         series are unregistered on drop, so this counter is what keeps
         Prometheus scrapes from seeing series vanish unexplained *)
}

exception Error of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Error msg)) fmt

type tuning = {
  independence : bool;
      (* derive static relevance signatures at arm time and let the firing
         path prune provably independent statements; off = every bucket hit
         fires (the pre-independence behaviour) *)
  window_buckets : int;
      (* sliding-window ring geometry for the observatory: number of
         time buckets ... *)
  window_width_ms : int;
      (* ... and the width of each, so the window spans
         buckets × width_ms of recent traffic *)
}

let default_tuning =
  { independence = true;
    window_buckets = Obs.Knobs.window_buckets ();
    window_width_ms = Obs.Knobs.window_width_ms ();
  }

(* --- execution plan per (group, table): pushed-down or middleware --- *)

type exec =
  | Compiled of Pushdown.compiled
      (* the pushed-down plan, compiled once per group against the database *)
  | Middleware of string
      (* why the plan is not pushed down (the graph is not pushable, or its
         plan failed to compile): every firing evaluates [tp_graph] *)

(* State a layer above the runtime keeps per runtime (see {!layer_state}). *)
type layer_state = ..

(* What a (group, table) delta query compiles to. *)
type compiled_plan = {
  cp_exec : exec;
  cp_frag_keys : string list;
      (* the delta query's fragment link-key signature, static per plan;
         audit records stamp it so [why] can name the fragments involved *)
  cp_sql : string Lazy.t;  (* rendering deep plans is expensive: on demand *)
}

type table_plan = {
  tp_table : string;
  tp_plan : compiled_plan Lazy.t;
      (* shredded, optimized and compiled on the first statement on
         [tp_table] that reaches it (or on EXPLAIN): a table the workload
         never writes costs no planning *)
  tp_graph : Op.t;  (* the affected-node graph, for middleware / display *)
  tp_rel_events : Database.event list;
  tp_relevant_cols : string list;  (* UPDATE transition pruning *)
}

and member = {
  m_trigger : Trigger.t;
  m_fallback_cond : Ast.expr option;
  m_args : Ast.expr list;
}

and group = {
  g_id : int;
  g_signature : string;
  g_event : Database.event;  (* the XML-level event *)
  g_key : string list;
  g_consts_table : string;
  g_needs_old : bool ref;
  g_needs_new : bool ref;
  g_node_compare : bool;
  g_plans : table_plan list;
  g_members : (string, member list) Hashtbl.t;
      (* a constants row's trig_ids -> its members, newest first: the delta
         plan returns trig_ids, so dispatch is one lookup per kept pair.  A
         materialized group has no constants table; its one member is keyed
         by its own name *)
  mutable g_next_cid : int;
  g_consts_index : (string, int * string) Hashtbl.t;
      (* constants vector -> (cid, current trig_ids); avoids rescanning the
         constants table when the 100 000th similar trigger arrives *)
  g_monitored : Compose.monitored;
  g_view : string;
  g_cond_mode : string;
      (* how member conditions are evaluated — "pushed" (in the plan),
         "fallback" (per dispatch), "none"; shared by all members because
         the condition shape is part of the group signature *)
  g_strategy : strategy;
      (* the strategy this group was armed under; usually the runtime's
         default, but TUNE can re-arm individual triggers differently *)
  g_cohort : string;
      (* structural cohort key: view | path | event | condition skeleton
         (literals blanked).  Triggers sharing a cohort would share one
         group under GROUPED, so the advisor's cost model sizes cohorts,
         not groups, when comparing strategies *)
}

and t = {
  db : Database.t;
  strat : strategy;
  tuning : tuning;
  mutable views : (string * Compile.view) list;
  mutable actions : (string * action) list;  (* name -> callback *)
  groups : (string, group) Hashtbl.t;  (* group signature -> group *)
  trigger_index : (string, entry) Hashtbl.t;  (* trigger name -> entry *)
  mutable next_trigger_seq : int;
  (* Materialized baseline: one snapshot per (view, path) *)
  mutable snapshots : (string * (string * Xml.t) list ref) list;
  (* the runtime's own counters; [stats] reads the rest from their owners
     (the Ra_compile record, the database's firing path) *)
  mutable n_firings : int;  (* SQL trigger activations *)
  mutable n_rows : int;  (* (OLD, NEW) pairs produced by the plans *)
  mutable n_dispatched : int;
  mutable n_dropped : int;  (* lifetime: [reset_stats] keeps it *)
  ra_counters : Relkit.Ra_compile.counters;
  frag_memo : Pushdown.frag_memo;
      (* fragment engines shared across all compiled trigger groups and
         view-level readers *)
  mutable level_plans : (Compile.view_tree * exec) list;
      (* view levels read so far (physical key), each compiled on its
         first read *)
  scan_stats : Ra_eval.scan_stats;
      (* per-manager scan accounting, shared by all firing contexts *)
  histograms : Obs.Metrics.registry;
      (* always-on log-bucketed latency histograms: one per XML trigger
         (dispatch time, condition + action) and one per trigger-group
         firing body (plan execution + tagging + dispatch, non-empty
         firings only) *)
  mutable next_group : int;
  template_cache : (string, template_plans) Hashtbl.t;
  (* the live DDL records (views, XML triggers, TUNE pins, custom kinds),
     keyed by (kind, name), with their insertion sequence numbers.  This —
     not the compiled plans — is what durability persists; recovery
     re-compiles and re-arms from it. *)
  catalog : (string * string, int * string) Hashtbl.t;  (* -> seq, payload *)
  mutable catalog_seq : int;
  mutable layer_states : layer_state list;
  mutable store : Durability.Store.t option;
  strategy_overrides : (string, strategy) Hashtbl.t;
      (* per-trigger strategy pins applied by TUNE: consulted (instead of
         [strat]) when the named trigger is (re-)armed; persisted as
         custom "tune" DDL records so recovery re-applies them *)
  last_reco : (string, strategy) Hashtbl.t;
      (* most recent recommendation per trigger, to detect changes *)
  mutable reco_instants : (string * int64 * string) list;
      (* recommendation-change instants (name, ts_ns, args json), newest
         first, exported into the Chrome trace *)
}

(* One armed XML trigger: its group, the key of its constants vector in the
   group's [g_consts_index] (a materialized group has no constants), and a
   creation sequence number that orders listings. *)
and entry = {
  e_group : group;
  e_key : string;
  e_seq : int;
}

(* Compiled plan templates, shared across groups of this manager with the
   same structure: trigger compile time is paid once per structure, so
   installing 100 000 similar triggers stays cheap. *)
and template_plans = {
  tmpl_key : string list;
  tmpl_node_compare : bool;
  tmpl_plans :
    (string (* table *) * Pushdown.t option Lazy.t * Op.t * Database.event list * string list)
    list;
}

let tp_exec tp = (Lazy.force tp.tp_plan).cp_exec
let tp_frag_keys tp = (Lazy.force tp.tp_plan).cp_frag_keys

let create ?(strategy = Grouped_agg) ?(tuning = default_tuning) db =
  (* Apply window-geometry overrides before any traffic; leave the window
     alone when the tuning matches, so totals survive re-creation. *)
  let w = Database.window db in
  if
    Obs.Window.buckets w <> tuning.window_buckets
    || Obs.Window.width_ms w <> tuning.window_width_ms
  then
    Database.set_window db ~buckets:tuning.window_buckets
      ~width_ms:tuning.window_width_ms;
  { db;
    strat = strategy;
    tuning;
    views = [];
    actions = [];
    groups = Hashtbl.create 16;
    trigger_index = Hashtbl.create 64;
    next_trigger_seq = 0;
    snapshots = [];
    n_firings = 0;
    n_rows = 0;
    n_dispatched = 0;
    n_dropped = 0;
    ra_counters = Relkit.Ra_compile.create_counters ();
    frag_memo = Pushdown.create_frag_memo ();
    level_plans = [];
    scan_stats = Ra_eval.create_scan_stats ();
    histograms = Obs.Metrics.create_registry ();
    next_group = 0;
    template_cache = Hashtbl.create 16;
    catalog = Hashtbl.create 64;
    catalog_seq = 0;
    layer_states = [];
    store = None;
    strategy_overrides = Hashtbl.create 8;
    last_reco = Hashtbl.create 8;
    reco_instants = [];
  }

(* Tables owned by the runtime itself (trigger-grouping constants tables).
   They are regenerated when triggers are re-armed, so durability excludes
   them from both the WAL and snapshots. *)
let is_system_table name = String.length name >= 10 && String.sub name 0 10 = "trigconsts"

let log_meta t ~kind ~name ~payload =
  Option.iter (fun s -> Durability.Store.log_meta s ~kind ~name ~payload) t.store

(* Every record goes to the WAL.  In memory a ["drop_<kind>"] record, for
   any kind, cancels the live ["<kind>"] records of its name and is not
   kept itself, so the catalog holds only what is live. *)
let record_ddl t ~kind ~name ~payload =
  (if String.length kind > 5 && String.sub kind 0 5 = "drop_" then begin
     let key = (String.sub kind 5 (String.length kind - 5), name) in
     while Hashtbl.mem t.catalog key do
       Hashtbl.remove t.catalog key
     done
   end
   else begin
     Hashtbl.add t.catalog (kind, name) (t.catalog_seq, payload);
     t.catalog_seq <- t.catalog_seq + 1
   end);
  log_meta t ~kind ~name ~payload

(* The live catalog in log order: the meta a checkpoint embeds in its
   snapshot.  Its cost follows the live entries, not the history. *)
let current_meta t =
  Hashtbl.fold (fun (kind, name) (seq, payload) acc -> (seq, (kind, name, payload)) :: acc)
    t.catalog []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map snd

let record_custom_ddl = record_ddl

let layer_state t ~find ~create =
  match List.find_map find t.layer_states with
  | Some s -> s
  | None ->
    let s = create () in
    t.layer_states <- s :: t.layer_states;
    Option.get (find s)

let database t = t.db
let strategy t = t.strat

let stats t =
  let ra = t.ra_counters in
  { sql_firings = t.n_firings;
    rows_computed = t.n_rows;
    actions_dispatched = t.n_dispatched;
    plans_compiled = ra.Relkit.Ra_compile.plans_compiled;
    compiled_execs = ra.Relkit.Ra_compile.compiled_execs;
    build_cache_hits = ra.Relkit.Ra_compile.build_cache_hits;
    build_cache_misses = ra.Relkit.Ra_compile.build_cache_misses;
    prefilter_skips = Database.trigger_skips t.db;
    independence_skips = Database.independence_skips t.db;
    triggers_dropped = t.n_dropped;
  }

let reset_stats t =
  t.n_firings <- 0;
  t.n_rows <- 0;
  t.n_dispatched <- 0;
  Database.reset_trigger_skips t.db;
  Database.reset_independence_skips t.db;
  Relkit.Ra_compile.reset_counters t.ra_counters

(* Scan accounting over all plan executions of this manager (compiled
   and middleware), per source; tests assert no-full-scan properties here. *)
let reset_scan_rows t = Ra_eval.reset_scan_stats t.scan_stats
let scan_rows_total t = Ra_eval.scan_stats_total t.scan_stats
let scan_rows_report t = Ra_eval.scan_stats_report t.scan_stats

let schema_of t name =
  match Database.find_table t.db name with
  | Some tbl -> Relkit.Table.schema tbl
  | None -> fail "unknown table %S" name

let define_view t ~name text =
  if List.mem_assoc name t.views then fail "view %S already exists" name;
  match Compile.view_of_string ~schema_of:(schema_of t) ~name text with
  | view ->
    t.views <- (name, view) :: t.views;
    record_ddl t ~kind:"view" ~name ~payload:text
  | exception Compile.Unsupported msg -> fail "cannot compile view %S: %s" name msg
  | exception Xquery.Parser.Parse_error msg -> fail "cannot parse view %S: %s" name msg
  | exception Xqgm.Keys.Not_trigger_specifiable msg ->
    fail "view %S is not trigger-specifiable (Theorem 1): %s" name msg

let find_view t name = List.assoc_opt name t.views

let register_action t ~name action =
  t.actions <- (name, action) :: List.remove_assoc name t.actions

(* Armed triggers, oldest first. *)
let triggers_by_seq t =
  Hashtbl.fold (fun name e acc -> (name, e) :: acc) t.trigger_index []
  |> List.sort (fun (_, a) (_, b) -> Int.compare a.e_seq b.e_seq)

(* Trigger groups, oldest first. *)
let groups_by_id t =
  Hashtbl.fold (fun _ g acc -> g :: acc) t.groups []
  |> List.sort (fun a b -> Int.compare a.g_id b.g_id)

let trigger_names t = List.rev_map fst (triggers_by_seq t)
let sql_trigger_count t = Database.trigger_count t.db

let generated_sql t =
  List.concat_map
    (fun g ->
      List.map
        (fun tp ->
          (Printf.sprintf "group%d/%s" g.g_id tp.tp_table, Lazy.force (Lazy.force tp.tp_plan).cp_sql))
        g.g_plans)
    (List.rev (groups_by_id t))

(* --- constants extraction (trigger grouping, §5.1) --- *)

let gc_col i = Printf.sprintf "gc$%d" i

(* Replace every non-boolean constant by a reference to a constants-table
   column, sharing the column counter across the given expressions. *)
let generalize_many (exprs : Expr.t list) : Expr.t list * Value.t list =
  let consts = ref [] in
  let rec go = function
    | Expr.Const (Value.Bool _ as v) -> Expr.Const v
    | Expr.Const v ->
      let i = List.length !consts in
      consts := !consts @ [ v ];
      Expr.Col (gc_col i)
    | Expr.Col c -> Expr.Col c
    | Expr.Binop (op, a, b) -> Expr.Binop (op, go a, go b)
    | Expr.Not e -> Expr.Not (go e)
    | Expr.Is_null e -> Expr.Is_null (go e)
    | Expr.Node_eq (a, b) -> Expr.Node_eq (go a, go b)
    | Expr.Elem _ as e -> e
  in
  let gs = List.map go exprs in
  (gs, !consts)

let value_col_type = function
  | Value.Int _ -> Schema.TInt
  | Value.Float _ -> Schema.TFloat
  | Value.String _ -> Schema.TString
  | Value.Bool _ -> Schema.TBool
  | Value.Null -> Schema.TString

(* --- argument / side analysis --- *)

let rec expr_mentions_var name (e : Ast.expr) =
  match e with
  | Ast.Path { root = Ast.R_var v; _ } -> v = name
  | Ast.Lit _ -> false
  | Ast.Path _ -> false
  | Ast.Cmp (_, a, b) | Ast.Arith (_, a, b) | Ast.And (a, b) | Ast.Or (a, b) ->
    expr_mentions_var name a || expr_mentions_var name b
  | Ast.Not e -> expr_mentions_var name e
  | Ast.Call (_, args) -> List.exists (expr_mentions_var name) args
  | Ast.Quantified { source; satisfies; _ } ->
    expr_mentions_var name source || expr_mentions_var name satisfies
  | Ast.Elem { attrs; content; _ } ->
    List.exists (fun (_, e) -> expr_mentions_var name e) attrs
    || List.exists
         (function
           | Ast.C_text _ -> false
           | Ast.C_elem e | Ast.C_enclosed e -> expr_mentions_var name e)
         content
  | Ast.Flwor { clauses; where; return } ->
    List.exists
      (function Ast.For (_, e) | Ast.Let (_, e) -> expr_mentions_var name e)
      clauses
    || (match where with Some w -> expr_mentions_var name w | None -> false)
    || expr_mentions_var name return

(* Constant-fold literal arithmetic in action arguments.  The expression
   parser has no unary minus, so a negative literal like [-5] arrives as
   [Arith (Sub, Lit 0, Lit 5)]; folding turns it (and any other
   all-literal arithmetic) back into a single [Lit] that [validate_arg]
   accepts and [eval_arg] returns as an atom. *)
let rec fold_arg (a : Ast.expr) : Ast.expr =
  match a with
  | Ast.Arith (op, l, r) -> (
    match fold_arg l, fold_arg r with
    | Ast.Lit (Value.Int x), Ast.Lit (Value.Int y) -> (
      match op with
      | Ast.Add -> Ast.Lit (Value.Int (x + y))
      | Ast.Sub -> Ast.Lit (Value.Int (x - y))
      | Ast.Mul -> Ast.Lit (Value.Int (x * y))
      | Ast.Div when y <> 0 -> Ast.Lit (Value.Int (x / y))
      | Ast.Mod when y <> 0 -> Ast.Lit (Value.Int (x mod y))
      | _ -> a)
    | l', r' -> (
      let as_float = function
        | Ast.Lit (Value.Float f) -> Some f
        | Ast.Lit (Value.Int i) -> Some (float_of_int i)
        | _ -> None
      in
      match as_float l', as_float r' with
      | Some x, Some y -> (
        match op with
        | Ast.Add -> Ast.Lit (Value.Float (x +. y))
        | Ast.Sub -> Ast.Lit (Value.Float (x -. y))
        | Ast.Mul -> Ast.Lit (Value.Float (x *. y))
        | Ast.Div -> Ast.Lit (Value.Float (x /. y))
        | Ast.Mod -> a)
      | _ -> if l' == l && r' == r then a else Ast.Arith (op, l', r')))
  | _ -> a

let validate_arg (a : Ast.expr) =
  let rec ok = function
    | Ast.Lit _ -> true
    | Ast.Path { root = Ast.R_var ("OLD_NODE" | "NEW_NODE"); _ } -> true
    | Ast.Call (("count" | "sum" | "min" | "max" | "avg"), [ p ]) -> ok p
    | _ -> false
  in
  if not (ok (fold_arg a)) then
    fail "unsupported action argument %s (use literals or OLD_NODE/NEW_NODE paths)"
      (Ast.expr_to_string a)

let eval_arg ~old_node ~new_node (a : Ast.expr) : Xval.t =
  let nodes_of (p : Ast.path) =
    let base =
      match p.Ast.root with
      | Ast.R_var "OLD_NODE" -> old_node
      | Ast.R_var "NEW_NODE" -> new_node
      | _ -> None
    in
    match base with
    | None -> []
    | Some node ->
      if p.Ast.steps = [] then [ node ]
      else
        let steps =
          List.map
            (fun (s : Ast.step) ->
              { Xmlkit.Xpath.axis =
                  (match s.Ast.axis with
                  | Ast.Child -> Xmlkit.Xpath.Child
                  | Ast.Descendant -> Xmlkit.Xpath.Descendant
                  | Ast.Attribute -> Xmlkit.Xpath.Attribute
                  | Ast.Self -> Xmlkit.Xpath.Self);
                test =
                  (if s.Ast.name = "*" then Xmlkit.Xpath.Any
                   else Xmlkit.Xpath.Name s.Ast.name);
                preds = [];
              })
            p.Ast.steps
        in
        Xmlkit.Xpath.eval node { Xmlkit.Xpath.absolute = false; steps }
  in
  match fold_arg a with
  | Ast.Lit v -> Xval.atom v
  | Ast.Path p -> Xval.seq (List.map Xval.node (nodes_of p))
  | Ast.Call ("count", [ Ast.Path p ]) -> Xval.atom (Value.Int (List.length (nodes_of p)))
  | Ast.Call ((("sum" | "min" | "max" | "avg") as fn), [ Ast.Path p ]) -> (
    let nums =
      List.filter_map
        (fun n -> float_of_string_opt (String.trim (Xml.text_content n)))
        (nodes_of p)
    in
    match nums with
    | [] -> Xval.atom Value.Null
    | _ ->
      let v =
        match fn with
        | "sum" -> List.fold_left ( +. ) 0.0 nums
        | "min" -> List.fold_left Float.min Float.infinity nums
        | "max" -> List.fold_left Float.max Float.neg_infinity nums
        | _ -> List.fold_left ( +. ) 0.0 nums /. float_of_int (List.length nums)
      in
      Xval.atom (Value.Float v))
  | _ -> Xval.atom Value.Null

(* --- transition-table pruning (Appendix F.1, refined to scanned columns) --- *)

let prune_ctx (ctx : Ra_eval.ctx) ~table ~pk_slots ~relevant_slots =
  match List.assoc_opt table ctx.Ra_eval.trans with
  | None | Some ([], _) | Some (_, []) -> ctx
  | Some (delta, nabla) ->
    let key_of row = List.map (fun i -> row.(i)) pk_slots in
    let nabla_by_pk = Hashtbl.create (List.length nabla) in
    List.iter
      (fun row -> Hashtbl.replace nabla_by_pk (List.map Value.to_string (key_of row)) row)
      nabla;
    let same_relevant a b =
      List.for_all (fun i -> Value.equal a.(i) b.(i)) relevant_slots
    in
    let dropped_nabla = Hashtbl.create 8 in
    let delta' =
      List.filter
        (fun d ->
          match Hashtbl.find_opt nabla_by_pk (List.map Value.to_string (key_of d)) with
          | Some n when same_relevant d n ->
            Hashtbl.replace dropped_nabla (List.map Value.to_string (key_of n)) ();
            false
          | _ -> true)
        delta
    in
    let nabla' =
      List.filter
        (fun n ->
          not (Hashtbl.mem dropped_nabla (List.map Value.to_string (key_of n))))
        nabla
    in
    { ctx with
      Ra_eval.trans =
        (table, (delta', nabla'))
        :: List.remove_assoc table ctx.Ra_eval.trans;
    }

(* --- installing a group's SQL triggers --- *)

let decode_node = function
  | Xval.Node n -> Some n
  | Xval.Atom Value.Null -> None
  | Xval.Seq [] -> None
  | v -> fail "unexpected node value %s" (Xval.to_string v)

(* Record the outcome of one member dispatch on a live audit record.  Only
   reached when auditing is on, so the allocations here are off the
   audit-disabled hot path. *)
let audit_action (r : Obs.Audit.record) m ~outcome ~old_node ~new_node =
  (match outcome with
  | Obs.Audit.Fired -> r.Obs.Audit.dispatched <- r.Obs.Audit.dispatched + 1
  | Obs.Audit.Condition_rejected ->
    r.Obs.Audit.cond_rejected <- r.Obs.Audit.cond_rejected + 1
  | Obs.Audit.No_action -> ());
  r.Obs.Audit.actions <-
    { Obs.Audit.a_trigger = m.m_trigger.Trigger.name;
      a_action = m.m_trigger.Trigger.action;
      a_outcome = outcome;
      a_condition =
        (match m.m_fallback_cond with Some c -> Ast.expr_to_string c | None -> "");
      a_has_old = old_node <> None;
      a_has_new = new_node <> None;
    }
    :: r.Obs.Audit.actions

(* Open the audit record of one firing: inserted before dispatch so action
   callbacks can link back by id; its counters are mutated as the firing
   proceeds.  Callers reach this only when auditing is on, so the firing
   path pays one boolean load when it is off.  [trans] is the (Δ, ∇) pair
   the firing ran over. *)
let open_audit t (tc : Database.trigger_ctx) ~sql_trigger ~strategy
    ~group_id ~view ~plan_table ~plan_mode ~frag_keys ~cond_mode
    ~trans:(delta, nabla) =
  let audit_log = Database.audit t.db in
  let r =
    { Obs.Audit.id = Obs.Audit.fresh_id audit_log;
      ts_ns = Obs.Trace.now ();
      stmt_id = tc.Database.stmt_id;
      stmt_event = Database.string_of_event tc.Database.event;
      stmt_table = tc.Database.target;
      sql_trigger;
      strategy = strategy_to_string strategy;
      group_id;
      view;
      plan_table;
      plan_mode;
      frag_keys;
      cond_mode;
      origin = Database.statement_origin t.db;
      delta_rows = List.length delta;
      nabla_rows = List.length nabla;
      pairs_computed = 0;
      pairs_spurious = 0;
      pairs_kept = 0;
      cond_rejected = 0;
      dispatched = 0;
      actions = [];
      notes = [];
    }
  in
  Obs.Audit.add audit_log r;
  r

let dispatch ?audit ?(stmt_id = 0) t group ~trig_ids ~old_node ~new_node =
  let members =
    match Hashtbl.find_opt group.g_members trig_ids with
    | Some ms -> ms
    | None -> []
  in
  let audit_id = match audit with Some r -> r.Obs.Audit.id | None -> 0 in
  List.iter
    (fun m ->
      let t0 = Obs.Trace.now () in
      let passes =
        match m.m_fallback_cond with
        | None -> true
        | Some cond -> Compose.condition_fallback cond ~old_node ~new_node
      in
      let callback =
        if passes then List.assoc_opt m.m_trigger.Trigger.action t.actions else None
      in
      (match audit with
      | Some r ->
        let outcome =
          if not passes then Obs.Audit.Condition_rejected
          else if Option.is_none callback then Obs.Audit.No_action
          else Obs.Audit.Fired
        in
        audit_action r m ~outcome ~old_node ~new_node
      | None -> ());
      if passes then begin
        t.n_dispatched <- t.n_dispatched + 1;
        (match callback with
        | Some action ->
          action
            { fi_trigger = m.m_trigger.Trigger.name;
              fi_event = group.g_event;
              fi_old = old_node;
              fi_new = new_node;
              fi_args = List.map (eval_arg ~old_node ~new_node) m.m_args;
              fi_audit_id = audit_id;
              fi_stmt_id = stmt_id;
            }
        | None -> ())
      end;
      let dt = Int64.sub (Obs.Trace.now ()) t0 in
      Obs.Metrics.observe_in t.histograms m.m_trigger.Trigger.name dt;
      let tracer = Database.tracer t.db in
      if Obs.Trace.enabled tracer then
        Obs.Trace.finish_note tracer t0 "dispatch" m.m_trigger.Trigger.name)
    members

(* --- static query–update independence (signature derivation) ---

   At arm time, the trigger's monitored plan determines (a) which base
   columns of each table its delta queries can observe and (b) which
   constant predicates every contributing row must satisfy (the path
   predicates compiled into the plan as literals — WHERE-condition
   constants are generalized into the constants table and deliberately
   invisible here).  The firing path uses the resulting signature to prove
   statements independent before any delta plan runs. *)

(* Does [row] satisfy one resolved filter?  Mirrors [Ra_eval.value_cmp] for
   non-NULL scalars; anything uncertain (NULL, out-of-range slot) answers
   [true] — the row is then treated as relevant. *)
let relevance_filter_holds row (s, cmp, v) =
  s >= Array.length row
  ||
  let a = row.(s) in
  Value.is_null a || Value.is_null v
  ||
  let c = Value.compare a v in
  (match cmp with
  | Ra.Eq -> c = 0
  | Ra.Neq -> c <> 0
  | Ra.Lt -> c < 0
  | Ra.Le -> c <= 0
  | Ra.Gt -> c > 0
  | Ra.Ge -> c >= 0
  | Ra.And | Ra.Or | Ra.Add | Ra.Sub | Ra.Mul | Ra.Div | Ra.Mod -> true)

(* The signature for one (plan, table): observed columns come from
   [Lineage.observed], the needed-columns pass over the monitored plan (the
   raw scan footprint would list every schema column the Table op exposes,
   observed or not); the predicate is the disjunction over scan sites of
   each site's constant-filter conjunction.  A site with no (resolvable)
   filters disables the predicate entirely: rows reaching it are
   unconstrained. *)
let derive_relevance t ~table monitored_op =
  if not t.tuning.independence then None
  else begin
    let schema = schema_of t table in
    let cols = Lineage.observed ~table monitored_op in
    let sites = Lineage.site_filters ~table monitored_op in
    let resolve f =
      match Schema.col_index schema f.Lineage.f_col with
      | s -> Some (s, f.Lineage.f_cmp, f.Lineage.f_const)
      | exception _ -> None
    in
    let rsites = List.map (List.filter_map resolve) sites in
    let pred =
      if rsites = [] || List.mem [] rsites then None
      else
        Some
          (fun row -> List.exists (List.for_all (relevance_filter_holds row)) rsites)
    in
    let eq =
      (* an equality implied by every site lets the bucket index this
         trigger by (column, constant) *)
      match sites with
      | [] -> None
      | first :: rest ->
        List.find_opt
          (fun f ->
            f.Lineage.f_cmp = Ra.Eq
            && List.for_all
                 (List.exists (fun g ->
                      g.Lineage.f_cmp = Ra.Eq
                      && g.Lineage.f_col = f.Lineage.f_col
                      && Value.equal g.Lineage.f_const f.Lineage.f_const))
                 rest)
          first
        |> Option.map (fun f -> (f.Lineage.f_col, f.Lineage.f_const))
    in
    Some { Database.rel_cols = Some cols; rel_pred = pred; rel_eq = eq }
  end

(* Printable form of a signature, for [explain]. *)
let relevance_summary ~table monitored_op =
  let observed = Lineage.observed ~table monitored_op in
  let sites = Lineage.site_filters ~table monitored_op in
  let cols = String.concat "," observed in
  let pred =
    if sites = [] || List.exists (fun s -> s = []) sites then "-"
    else
      String.concat " OR "
        (List.map
           (fun s ->
             "(" ^ String.concat " AND " (List.map Lineage.filter_to_string s) ^ ")")
           sites)
  in
  Printf.sprintf "cols={%s} pred=%s" cols pred

(* The names of one group's telemetry: six windowed series (the advisor's
   cost profile) and, per base table, a firing-latency histogram.  Built
   once per install, so the firing body never formats strings; dropping the
   group unregisters exactly these. *)
type series = {
  s_firings : string;
  s_latency : string;
  s_pairs : string;
  s_kept : string;
  s_spurious : string;
  s_scan : string;
}

let group_series gid =
  let name pfx = Printf.sprintf "%s:g%d" pfx gid in
  { s_firings = name "firings";
    s_latency = name "latency_ns";
    s_pairs = name "pairs";
    s_kept = name "kept";
    s_spurious = name "spurious";
    s_scan = name "scan_rows";
  }

let window_series s =
  [ s.s_firings; s.s_latency; s.s_pairs; s.s_kept; s.s_spurious; s.s_scan ]

(* One firing's windowed cost profile, for the advisor: the firing ended at
   [now] after [dt] ns; zero counts add nothing. *)
let add_profile t ws ~now ~dt ~pairs ~kept ~spurious ~scanned =
  let w = Database.window t.db in
  Obs.Window.add w ~now ws.s_firings 1.0;
  Obs.Window.add w ~now ws.s_latency (Int64.to_float dt);
  if pairs > 0 then Obs.Window.add w ~now ws.s_pairs (float_of_int pairs);
  if kept > 0 then Obs.Window.add w ~now ws.s_kept (float_of_int kept);
  if spurious > 0 then Obs.Window.add w ~now ws.s_spurious (float_of_int spurious);
  if scanned > 0 then Obs.Window.add w ~now ws.s_scan (float_of_int scanned)

let firing_histogram gid table = Printf.sprintf "firing:g%d:%s" gid table

let install_sql_triggers t group =
  let ws = group_series group.g_id in
  List.iter
    (fun tp ->
      let h_firing = firing_histogram group.g_id tp.tp_table in
      let schema = schema_of t tp.tp_table in
      let pk_slots =
        List.map (Schema.col_index schema) schema.Schema.primary_key
      in
      let relevant_slots = List.map (Schema.col_index schema) tp.tp_relevant_cols in
      (* One firing: run the delta plans over the statement's transition
         tables, drop spurious (OLD = NEW) pairs and dispatch the rest.
         The manager's scan total before and after the plans (not the
         dispatch: actions may cascade into other firings) gives this
         firing's [scan_rows] window value. *)
      let body tc =
        let scan0 = Ra_eval.scan_stats_total t.scan_stats in
        let ctx = Ra_eval.ctx_of_trigger ~stats:t.scan_stats tc in
        let ctx =
          if tc.Database.event = Database.Update then
            prune_ctx ctx ~table:tp.tp_table ~pk_slots ~relevant_slots
          else ctx
        in
        let empty =
          match List.assoc_opt tp.tp_table ctx.Ra_eval.trans with
          | Some ([], []) -> true
          | _ -> false
        in
        if empty then t.n_firings <- t.n_firings + 1
        else begin
          let t0 = Obs.Trace.now () in
          let cols =
            [ "trig_ids" ]
            @ (if !(group.g_needs_old) || group.g_node_compare then [ "old_node" ] else [])
            @ if !(group.g_needs_new) || group.g_node_compare then [ "new_node" ] else []
          in
          let rel =
            match tp_exec tp with
            | Compiled comp -> Pushdown.render_compiled ~cols comp ctx
            | Middleware _ ->
              let full = Eval.eval ctx tp.tp_graph in
              let slots = List.map (Eval.col_index full) cols in
              { Eval.cols = Array.of_list cols;
                rows =
                  List.map
                    (fun row -> Array.of_list (List.map (fun i -> row.(i)) slots))
                    full.Eval.rows;
              }
          in
          let idx c = Eval.col_index rel c in
          let ti = idx "trig_ids" in
          let oi = if List.mem "old_node" cols then Some (idx "old_node") else None in
          let ni = if List.mem "new_node" cols then Some (idx "new_node") else None in
          t.n_firings <- t.n_firings + 1;
          let scanned = Ra_eval.scan_stats_total t.scan_stats - scan0 in
          let arec =
            if not (Obs.Audit.enabled (Database.audit t.db)) then None
            else
              Some
                (open_audit t tc
                   ~sql_trigger:
                     (Printf.sprintf "xmltrig$g%d$%s$%s" group.g_id tp.tp_table
                        (Database.string_of_event tc.Database.event))
                   ~strategy:group.g_strategy ~group_id:group.g_id
                   ~view:group.g_view ~plan_table:tp.tp_table
                   ~plan_mode:
                     (match tp_exec tp with
                     | Compiled _ -> "compiled"
                     | Middleware _ -> "middleware")
                   ~frag_keys:(tp_frag_keys tp) ~cond_mode:group.g_cond_mode
                   ~trans:
                     (Option.value ~default:([], [])
                        (List.assoc_opt tp.tp_table ctx.Ra_eval.trans)))
          in
          let pc = List.length rel.Eval.rows in
          t.n_rows <- t.n_rows + pc;
          (match arec with
          | Some r -> r.Obs.Audit.pairs_computed <- pc
          | None -> ());
          (* Consecutive rows usually carry the same (old, new) nodes — one
             view node matched by many triggers — and the compiled getters
             share them physically, so remember the last verdict. *)
          let last_cmp = ref None in
          let n_spurious = ref 0 and n_kept = ref 0 in
          List.iter
            (fun row ->
              let old_node = Option.bind oi (fun i -> decode_node row.(i)) in
              let new_node = Option.bind ni (fun i -> decode_node row.(i)) in
              let spurious =
                group.g_node_compare
                &&
                match old_node, new_node with
                | Some a, Some b -> (
                  match !last_cmp with
                  | Some (a', b', verdict) when a' == a && b' == b -> verdict
                  | _ ->
                    let verdict = Xml.equal a b in
                    last_cmp := Some (a, b, verdict);
                    verdict)
                | _ -> false
              in
              if spurious then begin
                incr n_spurious;
                match arec with
                | Some r ->
                  r.Obs.Audit.pairs_spurious <- r.Obs.Audit.pairs_spurious + 1
                | None -> ()
              end
              else begin
                let trig_ids =
                  match row.(ti) with
                  | Xval.Atom (Value.String s) -> s
                  | v -> fail "bad trig_ids value %s" (Xval.to_string v)
                in
                incr n_kept;
                (match arec with
                | Some r -> r.Obs.Audit.pairs_kept <- r.Obs.Audit.pairs_kept + 1
                | None -> ());
                dispatch ?audit:arec ~stmt_id:tc.Database.stmt_id t group
                  ~trig_ids ~old_node ~new_node
              end)
            rel.Eval.rows;
          let fin = Obs.Trace.now () in
          let dt = Int64.sub fin t0 in
          Obs.Metrics.observe_in t.histograms h_firing dt;
          add_profile t ws ~now:fin ~dt ~pairs:pc ~kept:!n_kept
            ~spurious:!n_spurious ~scanned
        end
      in
      (* one signature per (plan, table), shared by all relational events:
         a statement provably unable to change the monitored level cannot
         produce an XML event of any kind *)
      let relevance =
        derive_relevance t ~table:tp.tp_table group.g_monitored.Compose.m_op
      in
      List.iter
        (fun ev ->
          Database.create_trigger t.db
            { Database.trig_name =
                Printf.sprintf "xmltrig$g%d$%s$%s" group.g_id tp.tp_table
                  (Database.string_of_event ev);
              trig_table = tp.tp_table;
              trig_event = ev;
              body;
              relevance;
              (* the full text is available via [generated_sql]; rendering a
                 deep plan eagerly here would dominate trigger creation *)
              sql_text =
                Printf.sprintf "-- SQL trigger for %s (see Runtime.generated_sql)"
                  tp.tp_table;
            })
        tp.tp_rel_events)
    group.g_plans

(* --- group construction --- *)

let consts_template = "trigconsts$template"

(* Renames [from] to [to_] in a plan's base scans; a [Shared] body is
   renamed once and stays shared by all its references (plans with affected
   keys threaded through nested levels reference them from every scan). *)
let rename_base_table ~from ~to_ (plan : Ra.t) : Ra.t =
  let memo = Hashtbl.create 8 in
  let rec go = function
    | Ra.Scan (Ra.Base tname, renames) when tname = from -> Ra.Scan (Ra.Base to_, renames)
    | Ra.Shared (id, _) as p -> (
      match Hashtbl.find_opt memo id with
      | Some r -> r
      | None ->
        let r = Ra.map_inputs go p in
        Hashtbl.add memo id r;
        r)
    | p -> Ra.map_inputs go p
  in
  go plan

let rec rename_in_template ~from ~to_ (tpl : Pushdown.template) =
  match tpl with
  | Pushdown.T_atom a -> Pushdown.T_atom a
  | Pushdown.T_elem { tag; attrs; content } ->
    Pushdown.T_elem
      { tag; attrs; content = List.map (rename_in_template ~from ~to_) content }
  | Pushdown.T_frag f ->
    Pushdown.T_frag
      { f with
        Pushdown.f_plan = rename_base_table ~from ~to_ f.Pushdown.f_plan;
        f_template = rename_in_template ~from ~to_ f.Pushdown.f_template;
      }

let rename_shred ~from ~to_ (s : Pushdown.t) =
  { s with
    Pushdown.plan = rename_base_table ~from ~to_ s.Pushdown.plan;
    xml =
      List.map (fun (c, tpl) -> (c, rename_in_template ~from ~to_ tpl)) s.Pushdown.xml;
  }

(* Each operator of the (DAG-shaped) graph is rebuilt once. *)
let rename_op_table ~from ~to_ (op : Op.t) : Op.t =
  let memo = Hashtbl.create 16 in
  let rec go (op : Op.t) =
    match Hashtbl.find_opt memo op.Op.id with
    | Some r -> r
    | None ->
      let r =
        match op.Op.node with
        | Op.Table { table; binding; cols } ->
          if table = from then Op.table ~binding to_ cols else op
        | Op.Select { input; pred } -> Op.select ~pred (go input)
        | Op.Project { input; defs } -> Op.project ~defs (go input)
        | Op.Join { kind; left; right; pred } -> Op.join ~kind ~pred (go left) (go right)
        | Op.Group_by { input; keys; aggs; order } -> Op.group_by ~keys ~aggs ~order (go input)
        | Op.Union { cols; inputs } ->
          Op.union ~cols (List.map (fun (i, m) -> (go i, m)) inputs)
      in
      Hashtbl.add memo op.Op.id r;
      r
  in
  go op

let signature ~view_name ~path_text ~event ~cond_shape ~n_consts ~strat =
  Printf.sprintf "%s|%s|%s|%s|%d|%s" view_name path_text
    (Database.string_of_event event)
    cond_shape n_consts
    (match strat with Grouped_agg -> "agg" | _ -> "plain")

let build_template t ~strat ~monitored ~event ~cond_rel ~nested ~n_consts =
  (* spurious-update checking (Appendix E.1/F): injective views need none;
     aggregate-only non-injectivity compares the aggregate columns in the
     plan; otherwise the tagger compares the full nodes *)
  let node_compare = ref false in
  let verdict_check table =
    if event <> Database.Update then Angraph.No_check
    else
      match Xqgm.Injective.analyze ~table ~schema_of:(schema_of t) monitored.Compose.m_op with
      | Xqgm.Injective.Injective -> Angraph.No_check
      | Xqgm.Injective.Agg_only cols -> Angraph.Compare_cols cols
      | Xqgm.Injective.Opaque ->
        node_compare := true;
        Angraph.No_check
  in
  let consts_cols =
    ("cid", "cid") :: ("trig_ids", "trig_ids")
    :: List.init n_consts (fun i -> (gc_col i, gc_col i))
  in
  let consts_op = Op.table consts_template consts_cols in
  let events =
    Event_pushdown.source_events monitored.Compose.m_op event
  in
  let tables = List.sort_uniq compare (List.map (fun e -> e.Event_pushdown.ev_table) events) in
  let m : Angraph.monitored =
    { Angraph.graph = monitored.Compose.m_op;
      node_col = monitored.Compose.m_node_col;
      key = monitored.Compose.m_key;
    }
  in
  let plans =
    List.filter_map
      (fun table ->
        let check = verdict_check table in
        match
          Angraph.create ~schema_of:(schema_of t) ~event ~table ~check ?cond:cond_rel
            ~consts:consts_op ?nested m
        with
        | None -> None
        | Some an ->
          let shred =
            lazy
            (match Pushdown.shred an.Angraph.graph with
            | shred ->
              (* Pass order matters: (1) restrict by affected keys — before
                 the GROUPED-AGG rewrite introduces transition scans into the
                 old side, which would hide the restriction opportunity;
                 (2) invert old aggregates; (3) share common subplans — a
                 shared plan is evaluated once, so it must already contain
                 the affected-keys join (ProductCount over AffectedKeys,
                 Fig. 16). *)
              let shred =
                { shred with
                  Pushdown.plan = Ra_opt.push_transition_joins shred.Pushdown.plan;
                }
              in
              let shred =
                if strat = Grouped_agg then
                  Pushdown.invert_old_aggregates ~table shred
                else shred
              in
              Some
                { shred with
                  Pushdown.plan = Ra_opt.share_common_subplans shred.Pushdown.plan;
                }
            | exception Pushdown.Not_pushable _ -> None)
          in
          let rel_events =
            List.filter_map
              (fun e ->
                if e.Event_pushdown.ev_table = table then Some e.Event_pushdown.ev_event
                else None)
              events
            |> List.sort_uniq compare
          in
          let relevant = Event_pushdown.relevant_columns monitored.Compose.m_op ~table in
          Some (table, shred, an.Angraph.graph, rel_events, relevant))
      tables
  in
  { tmpl_key = monitored.Compose.m_key; tmpl_node_compare = !node_compare; tmpl_plans = plans }

(* Instantiation compiles each pushed-down plan once against the database,
   when it is first needed (the group's constants table and its indexes
   exist by then, so probe strategies can resolve against them).  A
   compilation failure degrades to middleware evaluation, never to an
   error. *)
let instantiate_template t tmpl ~consts_table =
  List.map
    (fun (table, shred, graph, rel_events, relevant) ->
      let graph = rename_op_table ~from:consts_template ~to_:consts_table graph in
      let middleware why =
        { cp_exec = Middleware why;
          cp_sql =
            lazy
              (Printf.sprintf "-- middleware evaluation (%s):\n%s" why
                 (Xqgm.Print.to_string graph));
          cp_frag_keys = [];
        }
      in
      let plan =
        lazy
          (match Lazy.force shred with
          | None -> middleware "graph not pushable"
          | Some s -> (
            let s = rename_shred ~from:consts_template ~to_:consts_table s in
            match
              Pushdown.compile ~counters:t.ra_counters ~frag_memo:t.frag_memo t.db s
            with
            | comp ->
              { cp_exec = Compiled comp;
                cp_sql = lazy (Pushdown.to_sql s);
                cp_frag_keys = Pushdown.frag_keys s;
              }
            | exception _ -> middleware "compilation failed"))
      in
      { tp_table = table;
        tp_plan = plan;
        tp_graph = graph;
        tp_rel_events = rel_events;
        tp_relevant_cols = relevant;
      })
    tmpl.tmpl_plans

(* --- consts table management --- *)

let create_consts_table t ~name ~consts =
  let cols =
    [ ("cid", Schema.TInt); ("trig_ids", Schema.TString) ]
    @ List.mapi (fun i v -> (gc_col i, value_col_type v)) consts
  in
  Database.create_table t.db
    (Schema.make ~name ~columns:cols ~primary_key:[ "cid" ] ());
  (* the generated plans probe the constants table by constant value *)
  List.iteri (fun i _ -> Database.create_index t.db ~table:name ~column:(gc_col i)) consts

(* A constants vector's key in [g_consts_index]. *)
let consts_key consts = String.concat "\x00" (List.map Value.to_string consts)

let add_member_constants t group ~key ~consts ~trig_name =
  match Hashtbl.find_opt group.g_consts_index key with
  | Some (cid, old_ids) ->
    let new_ids = old_ids ^ "," ^ trig_name in
    ignore
      (Database.update_pk t.db ~table:group.g_consts_table ~pk:[ Value.Int cid ]
         ~set:(fun r ->
           let r = Array.copy r in
           r.(1) <- Value.String new_ids;
           r));
    Hashtbl.replace group.g_consts_index key (cid, new_ids);
    (new_ids, old_ids)
  | None ->
    let cid = group.g_next_cid in
    group.g_next_cid <- cid + 1;
    Database.insert_rows t.db ~table:group.g_consts_table
      [ Array.of_list (Value.Int cid :: Value.String trig_name :: consts) ];
    Hashtbl.replace group.g_consts_index key (cid, trig_name);
    (trig_name, "")

(* --- the Materialized baseline --- *)

let snapshot_key view_name path_text = view_name ^ "#" ^ path_text

let level_snapshot t (m : Compose.monitored) =
  let rel = Eval.eval (Ra_eval.ctx_of_db ~stats:t.scan_stats t.db) m.Compose.m_op in
  let kslots = List.map (Eval.col_index rel) m.Compose.m_key in
  let nslot = Eval.col_index rel m.Compose.m_node_col in
  List.map
    (fun row ->
      let key =
        String.concat "\x00" (List.map (fun i -> Xval.to_string row.(i)) kslots)
      in
      match row.(nslot) with
      | Xval.Node n -> (key, n)
      | v -> fail "level row is not a node: %s" (Xval.to_string v))
    rel.Eval.rows

let install_materialized t ~gid (tr : Trigger.t) view_name m =
  let ws = group_series gid in
  (* one snapshot per trigger: each diff consumes its own before-image *)
  let key =
    snapshot_key view_name (Ast.path_to_string tr.Trigger.path) ^ "#" ^ tr.Trigger.name
  in
  let snap =
    match List.assoc_opt key t.snapshots with
    | Some s -> s
    | None ->
      let s = ref (level_snapshot t m) in
      t.snapshots <- (key, s) :: t.snapshots;
      s
  in
  (* every statement that can change the level refreshes the snapshot, not
     only those that can cause this trigger's event: an INSERT trigger's
     before-image must already hold a node an earlier statement updated *)
  let events =
    List.sort_uniq compare
      (List.concat_map
         (Event_pushdown.source_events m.Compose.m_op)
         [ Database.Insert; Database.Update; Database.Delete ])
  in
  (* the trigger as its audit actions name it: the body evaluates the
     condition itself, so the audit reports it as the fallback *)
  let audited =
    { m_trigger = tr; m_fallback_cond = tr.Trigger.condition; m_args = tr.Trigger.args }
  in
  let body tc =
    let bt0 = Obs.Trace.now () in
    let n_computed = ref 0 and n_sp = ref 0 and n_kept = ref 0 in
    t.n_firings <- t.n_firings + 1;
    let before = !snap in
    let after = level_snapshot t m in
    snap := after;
    let arec =
      if not (Obs.Audit.enabled (Database.audit t.db)) then None
      else
        Some
          (open_audit t tc
             ~sql_trigger:
               (Printf.sprintf "xmltrig$mat$%s$%s$%s" tr.Trigger.name
                  tc.Database.target
                  (Database.string_of_event tc.Database.event))
             ~strategy:Materialized
             ~group_id:(-1) (* materialized triggers are not grouped *)
             ~view:view_name ~plan_table:tc.Database.target
             ~plan_mode:"materialized" ~frag_keys:[]
             ~cond_mode:
               (if tr.Trigger.condition <> None then "fallback" else "none")
             ~trans:(tc.Database.inserted, tc.Database.deleted))
    in
    let audit_id = match arec with Some r -> r.Obs.Audit.id | None -> 0 in
    let fire ~old_node ~new_node =
      let t0 = Obs.Trace.now () in
      incr n_kept;
      t.n_rows <- t.n_rows + 1;
      let passes =
        match tr.Trigger.condition with
        | None -> true
        | Some c -> Compose.condition_fallback c ~old_node ~new_node
      in
      let callback =
        if passes then List.assoc_opt tr.Trigger.action t.actions else None
      in
      (match arec with
      | Some r ->
        r.Obs.Audit.pairs_kept <- r.Obs.Audit.pairs_kept + 1;
        let outcome =
          if not passes then Obs.Audit.Condition_rejected
          else if Option.is_none callback then Obs.Audit.No_action
          else Obs.Audit.Fired
        in
        audit_action r audited ~outcome ~old_node ~new_node
      | None -> ());
      if passes then begin
        t.n_dispatched <- t.n_dispatched + 1;
        (match callback with
        | Some action ->
          action
            { fi_trigger = tr.Trigger.name;
              fi_event = tr.Trigger.event;
              fi_old = old_node;
              fi_new = new_node;
              fi_args =
                List.map (eval_arg ~old_node ~new_node) tr.Trigger.args;
              fi_audit_id = audit_id;
              fi_stmt_id = tc.Database.stmt_id;
            }
        | None -> ())
      end;
      Obs.Metrics.observe_in t.histograms tr.Trigger.name
        (Int64.sub (Obs.Trace.now ()) t0)
    in
    (* pair accounting for the audit record: every candidate the diff
       examines is "computed"; UPDATE candidates whose before/after nodes
       are structurally equal are the spurious ones the diff suppresses *)
    let seen_pair spurious =
      incr n_computed;
      if spurious then incr n_sp;
      match arec with
      | Some r ->
        r.Obs.Audit.pairs_computed <- r.Obs.Audit.pairs_computed + 1;
        if spurious then
          r.Obs.Audit.pairs_spurious <- r.Obs.Audit.pairs_spurious + 1
      | None -> ()
    in
    (match tr.Trigger.event with
    | Database.Update ->
      List.iter
        (fun (k, old_n) ->
          match List.assoc_opt k after with
          | Some new_n when not (Xml.equal old_n new_n) ->
            seen_pair false;
            fire ~old_node:(Some old_n) ~new_node:(Some new_n)
          | Some _ -> seen_pair true
          | None -> ())
        before
    | Database.Insert ->
      List.iter
        (fun (k, new_n) ->
          if not (List.mem_assoc k before) then begin
            seen_pair false;
            fire ~old_node:None ~new_node:(Some new_n)
          end)
        after
    | Database.Delete ->
      List.iter
        (fun (k, old_n) ->
          if not (List.mem_assoc k after) then begin
            seen_pair false;
            fire ~old_node:(Some old_n) ~new_node:None
          end)
        before);
    (* windowed cost profile: the whole recompute-and-diff is the firing *)
    let fin = Obs.Trace.now () in
    add_profile t ws ~now:fin ~dt:(Int64.sub fin bt0) ~pairs:!n_computed
      ~kept:!n_kept ~spurious:!n_sp ~scanned:0
  in
  List.iter
    (fun ev ->
      (* same signature source as the translated strategies: a statement
         that provably cannot change the monitored level leaves the
         snapshot valid, so skipping the recompute-and-diff is sound (its
         audit record would have had pairs_kept = 0) *)
      let relevance =
        derive_relevance t ~table:ev.Event_pushdown.ev_table m.Compose.m_op
      in
      Database.create_trigger t.db
        { Database.trig_name =
            Printf.sprintf "xmltrig$mat$%s$%s$%s" tr.Trigger.name ev.Event_pushdown.ev_table
              (Database.string_of_event ev.Event_pushdown.ev_event);
          trig_table = ev.Event_pushdown.ev_table;
          trig_event = ev.Event_pushdown.ev_event;
          body;
          relevance;
          sql_text = "-- MATERIALIZED baseline: recompute and diff";
        })
    events

(* --- create_trigger: the full pipeline --- *)

(* Blank string and numeric literals out of a condition's text, so triggers
   differing only in their constants share one structural cohort key (the
   advisor sizes cohorts when modeling GROUPED sharing).  Digits embedded in
   identifiers (e2, NEW_NODE) are kept. *)
let cond_skeleton s =
  let n = String.length s in
  let b = Buffer.create n in
  let is_word c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9') || c = '_'
  in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    if c = '\'' then begin
      Buffer.add_string b "'?'";
      incr i;
      while !i < n && s.[!i] <> '\'' do incr i done;
      if !i < n then incr i
    end
    else if c >= '0' && c <= '9' && (!i = 0 || not (is_word s.[!i - 1])) then begin
      Buffer.add_char b '?';
      while !i < n && ((s.[!i] >= '0' && s.[!i] <= '9') || s.[!i] = '.') do
        incr i
      done
    end
    else begin
      Buffer.add_char b c;
      incr i
    end
  done;
  Buffer.contents b

let register_trigger t name group ~key =
  Hashtbl.replace t.trigger_index name
    { e_group = group; e_key = key; e_seq = t.next_trigger_seq };
  t.next_trigger_seq <- t.next_trigger_seq + 1

let create_trigger_internal t text =
  let tr = try Trigger.parse text with Trigger.Parse_error msg -> fail "%s" msg in
  if Hashtbl.mem t.trigger_index tr.Trigger.name then
    fail "trigger %S already exists" tr.Trigger.name;
  List.iter validate_arg tr.Trigger.args;
  if not (List.mem_assoc tr.Trigger.action t.actions) then
    fail "unknown action function %S (register it first)" tr.Trigger.action;
  let view_name =
    match tr.Trigger.path.Ast.root with
    | Ast.R_view v -> v
    | Ast.R_var _ -> fail "trigger path must be over a view"
  in
  let view =
    match List.assoc_opt view_name t.views with
    | Some v -> v
    | None -> fail "unknown view %S" view_name
  in
  let m =
    try Compose.compose_path view tr.Trigger.path with
    | Compose.Compose_error msg -> fail "%s" msg
    | Xqgm.Keys.Not_trigger_specifiable msg -> fail "not trigger-specifiable (Theorem 1): %s" msg
  in
  (match Xqgm.Keys.trigger_specifiable ~schema_of:(schema_of t) m.Compose.m_op with
  | Ok () -> ()
  | Error msg -> fail "view is not trigger-specifiable (Theorem 1): %s" msg);
  (* event restriction of §2.2: OLD_NODE exists only for UPDATE/DELETE,
     NEW_NODE only for UPDATE/INSERT *)
  let uses_old e = expr_mentions_var "OLD_NODE" e in
  let uses_new e = expr_mentions_var "NEW_NODE" e in
  let all_exprs = Option.to_list tr.Trigger.condition @ tr.Trigger.args in
  if tr.Trigger.event = Database.Insert && List.exists uses_old all_exprs then
    fail "OLD_NODE cannot be used with an INSERT trigger";
  if tr.Trigger.event = Database.Delete && List.exists uses_new all_exprs then
    fail "NEW_NODE cannot be used with a DELETE trigger";
  (* TUNE pins individual triggers to a strategy; everything else arms
     under the runtime's default. *)
  let strat =
    match Hashtbl.find_opt t.strategy_overrides tr.Trigger.name with
    | Some s -> s
    | None -> t.strat
  in
  let path_text = Ast.path_to_string tr.Trigger.path in
  let cohort =
    Printf.sprintf "%s|%s|%s|%s" view_name path_text
      (Database.string_of_event tr.Trigger.event)
      (match tr.Trigger.condition with
      | Some c -> cond_skeleton (Ast.expr_to_string c)
      | None -> "-")
  in
  if strat = Materialized then begin
    install_materialized t ~gid:t.next_group tr view_name m;
    (* materialized triggers are not grouped; track them in a singleton *)
    let g_members = Hashtbl.create 1 in
    Hashtbl.add g_members tr.Trigger.name
      [ { m_trigger = tr; m_fallback_cond = None; m_args = tr.Trigger.args } ];
    let group =
      { g_id = t.next_group;
        g_signature = "materialized:" ^ tr.Trigger.name;
        g_event = tr.Trigger.event;
        g_key = m.Compose.m_key;
        g_consts_table = "";
        g_needs_old = ref true;
        g_needs_new = ref true;
        g_node_compare = false;
        g_plans = [];
        g_members;
        g_next_cid = 0;
        g_consts_index = Hashtbl.create 1;
        g_monitored = m;
        g_view = view_name;
        g_cond_mode = (if tr.Trigger.condition <> None then "fallback" else "none");
        g_strategy = Materialized;
        g_cohort = cohort;
      }
    in
    t.next_group <- t.next_group + 1;
    Hashtbl.replace t.groups group.g_signature group;
    register_trigger t tr.Trigger.name group ~key:""
  end
  else begin
    (* Condition analysis, in decreasing order of pushdown power:
       (1) a §5.1 nested-count conjunct handled by a grouped subquery,
       (2) a plain relational predicate,
       (3) middleware fallback (XPath over the tagged nodes). *)
    let nested_split = Option.bind tr.Trigger.condition (Compose.compile_nested_count m) in
    let nested, cond_rel, fallback_cond =
      match nested_split with
      | Some (nc, rest) -> (
        match rest with
        | None -> (Some nc, None, None)
        | Some r -> (
          match Compose.compile_condition m r with
          | Some e -> (Some nc, Some e, None)
          | None -> (None, None, tr.Trigger.condition)))
      | None ->
        let cond_rel = Option.bind tr.Trigger.condition (Compose.compile_condition m) in
        let fb =
          match tr.Trigger.condition, cond_rel with Some c, None -> Some c | _ -> None
        in
        (None, cond_rel, fb)
    in
    (match fallback_cond with
    | Some c -> (
      match Compose.validate_fallback c with
      | Ok () -> ()
      | Error msg -> fail "unsupported trigger condition: %s" msg)
    | None -> ());
    let shapes, consts =
      generalize_many
        (Option.to_list cond_rel
        @
        match nested with
        | Some nc -> [ nc.Compose.nc_inner; nc.Compose.nc_rhs ]
        | None -> [])
    in
    let cond_rel_shape, nested_shape =
      match cond_rel, nested, shapes with
      | Some _, Some nc, [ c; i; r ] -> (Some c, Some (nc, i, r))
      | Some _, None, [ c ] -> (Some c, None)
      | None, Some nc, [ i; r ] -> (None, Some (nc, i, r))
      | None, None, [] -> (None, None)
      | _ ->
        (* generalize_many returns one shape per input expression, so the
           arity can only disagree if that invariant is broken *)
        fail
          "internal error: constant generalization produced %d shapes for \
           trigger %S (cond_rel=%b, nested=%b)"
          (List.length shapes) tr.Trigger.name (cond_rel <> None) (nested <> None)
    in
    let cond_shape =
      match fallback_cond with
      | Some c -> "fallback:" ^ Ast.expr_to_string c
      | None -> (
        match shapes, nested with
        | [], None -> "none"
        | _ ->
          String.concat "&" (List.map Expr.to_string shapes)
          ^ (match nested with
            | Some nc ->
              "#nested:" ^ nc.Compose.nc_child.Compile.elem_tag
              ^ (match nc.Compose.nc_side with `Old -> "o" | `New -> "n")
            | None -> ""))
    in
    let grouped = strat = Grouped || strat = Grouped_agg in
    let sig_base =
      signature ~view_name ~path_text ~event:tr.Trigger.event ~cond_shape
        ~n_consts:(List.length consts) ~strat
    in
    let group_sig = if grouped then sig_base else sig_base ^ "!" ^ tr.Trigger.name in
    let member =
      { m_trigger = tr; m_fallback_cond = fallback_cond; m_args = tr.Trigger.args }
    in
    let needs_old =
      tr.Trigger.event = Database.Delete
      || List.exists uses_old all_exprs
      || fallback_cond <> None && List.exists uses_old (Option.to_list tr.Trigger.condition)
    in
    let needs_new = tr.Trigger.event <> Database.Delete in
    let group =
      match Hashtbl.find_opt t.groups group_sig with
      | Some g -> g
      | None ->
        (* first member: build (or reuse) the plan template and install *)
        let tmpl =
          match Hashtbl.find_opt t.template_cache sig_base with
          | Some tmpl -> tmpl
          | None ->
            let an_nested =
              Option.map
                (fun ((nc : Compose.nested_count), inner, rhs) ->
                  { Angraph.an_child = nc.Compose.nc_child.Compile.op;
                    an_link = nc.Compose.nc_link;
                    an_side = nc.Compose.nc_side;
                    an_inner = inner;
                    an_cmp = nc.Compose.nc_cmp;
                    an_rhs = rhs;
                  })
                nested_shape
            in
            let tmpl =
              build_template t ~strat ~monitored:m ~event:tr.Trigger.event
                ~cond_rel:cond_rel_shape ~nested:an_nested
                ~n_consts:(List.length consts)
            in
            Hashtbl.replace t.template_cache sig_base tmpl;
            tmpl
        in
        let gid = t.next_group in
        t.next_group <- gid + 1;
        let consts_table = Printf.sprintf "trigconsts%d" gid in
        create_consts_table t ~name:consts_table ~consts;
        let plans = instantiate_template t tmpl ~consts_table in
        let g =
          { g_id = gid;
            g_signature = group_sig;
            g_event = tr.Trigger.event;
            g_key = tmpl.tmpl_key;
            g_consts_table = consts_table;
            g_needs_old = ref false;
            g_needs_new = ref false;
            g_node_compare = tmpl.tmpl_node_compare;
            g_plans = plans;
            g_members = Hashtbl.create 8;
            g_next_cid = 0;
            g_consts_index = Hashtbl.create 64;
            g_monitored = m;
            g_view = view_name;
            g_cond_mode =
              (if fallback_cond <> None then "fallback"
               else if cond_rel <> None || nested <> None then "pushed"
               else "none");
            g_strategy = strat;
            g_cohort = cohort;
          }
        in
        Hashtbl.replace t.groups group_sig g;
        install_sql_triggers t g;
        g
    in
    if needs_old then group.g_needs_old := true;
    if needs_new then group.g_needs_new := true;
    let key = consts_key consts in
    let new_ids, old_ids =
      add_member_constants t group ~key ~consts ~trig_name:tr.Trigger.name
    in
    let existing =
      match Hashtbl.find_opt group.g_members old_ids with
      | Some ms ->
        Hashtbl.remove group.g_members old_ids;
        ms
      | None -> []
    in
    Hashtbl.replace group.g_members new_ids (member :: existing);
    register_trigger t tr.Trigger.name group ~key
  end;
  tr.Trigger.name

(* [log]: whether the DDL lands in the durability log.  Layers that manage
   trigger lifecycle themselves (the subscription hub logs one
   ["subscription"] record instead and re-creates the trigger on re-arm)
   pass ~log:false so recovery does not arm the same trigger twice. *)
let create_trigger ?(log = true) t text =
  (* The constants-table DDL/DML below is system state: recovery re-arms
     triggers from the logged DDL text, which recreates it, so it must not
     also be replayed from the WAL. *)
  let name = Database.without_logging t.db (fun () -> create_trigger_internal t text) in
  if log then record_ddl t ~kind:"xmltrigger" ~name ~payload:text

(* Remove [name] from the comma-joined member list [ids]. *)
let remove_from_ids ids name =
  String.concat ","
    (List.filter (fun n -> n <> name) (String.split_on_char ',' ids))

(* Drop the member's share of the group's constants table: the row whose
   trig_ids names it alone disappears; a row shared with other triggers is
   rewritten without it.  Without this, unsubscribe/resubscribe churn under
   GROUPED leaks one constants row (and one index entry) per cycle — and a
   leaked row keeps firing plans for a trigger that no longer exists.
   Returns the row's trig_ids before and after the drop ("" once the row is
   gone); a materialized trigger has no row and is keyed by its own name. *)
let remove_member_constants t group ~key ~name =
  match Hashtbl.find_opt group.g_consts_index key with
  | None -> (name, "")
  | Some (cid, old_ids) ->
    let new_ids = remove_from_ids old_ids name in
    if new_ids = "" then begin
      ignore
        (Database.delete_pk t.db ~table:group.g_consts_table
           ~pk:[ Value.Int cid ]);
      Hashtbl.remove group.g_consts_index key
    end
    else begin
      ignore
        (Database.update_pk t.db ~table:group.g_consts_table
           ~pk:[ Value.Int cid ]
           ~set:(fun r ->
             let r = Array.copy r in
             r.(1) <- Value.String new_ids;
             r));
      Hashtbl.replace group.g_consts_index key (cid, new_ids)
    end;
    (old_ids, new_ids)

let drop_trigger ?(log = true) t name =
  match Hashtbl.find_opt t.trigger_index name with
  | None -> ()
  | Some { e_group = group; e_key = key; _ } ->
    if log then record_ddl t ~kind:"drop_xmltrigger" ~name ~payload:"";
    Hashtbl.remove t.trigger_index name;
    (* constants bookkeeping happens inside without_logging for the same
       reason as in create_trigger: it is re-derived state, not user data *)
    Database.without_logging t.db (fun () ->
        let old_ids, new_ids = remove_member_constants t group ~key ~name in
        match Hashtbl.find_opt group.g_members old_ids with
        | None -> ()
        | Some ms -> (
          Hashtbl.remove group.g_members old_ids;
          match List.filter (fun m -> m.m_trigger.Trigger.name <> name) ms with
          | [] -> ()
          | rest -> Hashtbl.replace group.g_members new_ids rest));
    (* the last member takes the group's SQL triggers with it *)
    if Hashtbl.length group.g_members = 0 then begin
      List.iter
        (fun tp ->
          List.iter
            (fun ev ->
              Database.drop_trigger t.db
                (Printf.sprintf "xmltrig$g%d$%s$%s" group.g_id tp.tp_table
                   (Database.string_of_event ev)))
            tp.tp_rel_events;
          Obs.Metrics.remove_in t.histograms (firing_histogram group.g_id tp.tp_table))
        group.g_plans;
      (* the constants table is group state: gone with its group, or
         create/drop churn would accrete one orphan table per generation *)
      if group.g_consts_table <> "" then
        Database.drop_table t.db group.g_consts_table;
      (* group telemetry dies with the group: without this, tune churn and
         subscribe/unsubscribe cycles grow the window and the registry by
         one dead series set per generation *)
      List.iter (Obs.Window.remove (Database.window t.db))
        (window_series (group_series group.g_id));
      Hashtbl.remove t.groups group.g_signature
    end;
    (* materialized triggers installed their SQL triggers under their own
       name; only they need this per-table sweep *)
    if group.g_strategy = Materialized then
      List.iter
        (fun tbl ->
          List.iter
            (fun ev ->
              Database.drop_trigger t.db
                (Printf.sprintf "xmltrig$mat$%s$%s$%s" name tbl
                   (Database.string_of_event ev)))
            [ Database.Insert; Database.Update; Database.Delete ])
        (Database.table_names t.db);
    (* the dropped trigger's own latency histogram goes too — but the drop
       is still visible: [triggers_dropped] explains the vanished series
       to anything scraping the registry *)
    Obs.Metrics.remove_in t.histograms name;
    Hashtbl.remove t.last_reco name;
    t.n_dropped <- t.n_dropped + 1

(* --- durability: WAL + snapshots + crash recovery --- *)

let checkpoint t =
  match t.store with
  | None -> fail "no durability attached (use attach_durability or reopen)"
  | Some s -> ignore (Durability.Store.checkpoint s t.db ~meta:(current_meta t))

(* Attach a durability store: every subsequent DML/DDL statement is logged
   to the WAL in [data_dir], and an immediate checkpoint captures the
   current database and catalog as the recovery baseline. *)
let attach_durability ?segment_limit ?policy t ~data_dir =
  if t.store <> None then fail "durability already attached";
  let store =
    Durability.Store.attach ?segment_limit ?policy ~is_system_table ~data_dir t.db
  in
  t.store <- Some store;
  checkpoint t

let detach_durability t =
  match t.store with
  | None -> ()
  | Some s ->
    Durability.Store.detach s t.db;
    t.store <- None

let durability_attached t = t.store <> None
let durability_sync t = Option.iter Durability.Store.sync t.store

type reopened = {
  runtime : t;
  recovery : Durability.Recovery.outcome;
  rearmed_views : int;
  rearmed_triggers : int;
  rearm_errors : string list;  (* triggers/views that failed to re-arm *)
}

(* Rebuild a runtime from [data_dir] after a crash: recover the database
   (snapshot + WAL tail, triggers suppressed during replay), re-compile the
   published views, re-compile and re-arm every XML trigger from its logged
   DDL text, then re-attach durability (with a fresh checkpoint, so the
   recovery just performed is itself durable).

   [actions] must supply every action function the recovered triggers name —
   OCaml closures cannot be persisted.  A trigger whose action (or view) is
   missing is reported in [rearm_errors] rather than aborting recovery. *)
let reopen ?(strategy = Grouped_agg) ?tuning ?segment_limit ?policy
    ?(actions = []) ~data_dir () =
  let recovery = Durability.Recovery.recover ~data_dir () in
  let t = create ~strategy ?tuning recovery.Durability.Recovery.db in
  List.iter (fun (name, action) -> register_action t ~name action) actions;
  let views = ref 0 and triggers = ref 0 and errors = ref [] in
  List.iter
    (fun (kind, name, payload) ->
      match kind with
      | "view" -> (
        match define_view t ~name payload with
        | () -> incr views
        | exception Error msg ->
          errors := Printf.sprintf "view %S: %s" name msg :: !errors)
      | "xmltrigger" -> (
        match create_trigger t payload with
        | () -> incr triggers
        | exception Error msg ->
          errors := Printf.sprintf "trigger %S: %s" name msg :: !errors)
      | "drop_xmltrigger" -> drop_trigger t name
      | "tune" -> (
        (* a TUNE pin: applies to the re-create that follows in the log *)
        match strategy_of_string payload with
        | Some s -> Hashtbl.replace t.strategy_overrides name s
        | None -> ())
      | _ -> ())
    recovery.Durability.Recovery.meta;
  attach_durability ?segment_limit ?policy t ~data_dir;
  { runtime = t;
    recovery;
    rearmed_views = !views;
    rearmed_triggers = !triggers;
    rearm_errors = List.rev !errors;
  }

let view_nodes t ~path =
  let path =
    try Xquery.Parser.parse_path path
    with Xquery.Parser.Parse_error msg -> fail "%s" msg
  in
  let view_name =
    match path.Ast.root with Ast.R_view v -> v | Ast.R_var _ -> fail "bad path root"
  in
  let view =
    match List.assoc_opt view_name t.views with
    | Some v -> v
    | None -> fail "unknown view %S" view_name
  in
  let m =
    try Compose.compose_path view path
    with Compose.Compose_error msg -> fail "%s" msg
  in
  let rel = Eval.eval (Ra_eval.ctx_of_db ~stats:t.scan_stats t.db) m.Compose.m_op in
  let slot = Eval.col_index rel m.Compose.m_node_col in
  List.filter_map
    (fun row -> match row.(slot) with Xval.Node n -> Some n | _ -> None)
    rel.Eval.rows

(* --- query-over-view entry point (the HTTP front door's read path) --- *)

type view_row = {
  vr_tag : string;
  vr_node : Xml.t;
  vr_fields : (string * Value.t) list;
}

(* Resolve [level] (an element tag; default: the view's repeated top-level
   element) to its view-tree node. *)
let view_level view level =
  let tree = view.Compile.tree in
  match level with
  | None -> (
    match tree.Compile.children with
    | child :: _ -> child
    | [] -> tree)
  | Some tag ->
    let rec find n =
      if n.Compile.elem_tag = tag then Some n
      else List.find_map find n.Compile.children
    in
    (match find tree with
    | Some n -> n
    | None -> fail "view has no element level %S" tag)

let find_view_exn t view =
  match List.assoc_opt view t.views with
  | None -> fail "unknown view %S" view
  | Some v -> v

let view_level_fields t ~view ?level () =
  List.map fst (view_level (find_view_exn t view) level).Compile.fields

(* One row per element of the level, in document order, carrying the
   constructed node plus the level's provenance fields as scalars: the
   reference read, evaluated through the XQGM interpreter. *)
let level_rows t lvl =
  let ctx = Ra_eval.ctx_of_db ~stats:t.scan_stats t.db in
  let rel = Eval.eval_sorted ctx ~by:lvl.Compile.key lvl.Compile.op in
  let node_slot = Eval.col_index rel lvl.Compile.node_col in
  let field_slots =
    List.map
      (fun (name, col) -> (name, Eval.col_index rel col))
      lvl.Compile.fields
  in
  let scalar v =
    try Xval.atomize v
    with Invalid_argument _ -> Value.String (Xval.to_string v)
  in
  List.filter_map
    (fun row ->
      match row.(node_slot) with
      | Xval.Node n ->
        Some
          { vr_tag = lvl.Compile.elem_tag;
            vr_node = n;
            vr_fields =
              List.map (fun (name, i) -> (name, scalar row.(i))) field_slots;
          }
      | _ -> None)
    rel.Eval.rows

let view_rows t ~view ?level () =
  level_rows t (view_level (find_view_exn t view) level)

type level_read = {
  lr_tag : string;
  lr_fields : (string * string) list;
  lr_order : string list;
  lr_rows : Ra_eval.rel;
  lr_nodes : Value.t array list -> Xml.t list;
}

(* A level's plan is shredded and compiled like a trigger plan on its first
   read, sharing the runtime's fragment engines.  The level is read through
   the reference evaluator instead when its graph is not pushable, when its
   plan fails to compile, or when its node column is not an element
   template or a field or key column is XML-valued. *)
let level_plan t lvl =
  match List.assq_opt lvl t.level_plans with
  | Some p -> p
  | None ->
    let p =
      match Pushdown.shred lvl.Compile.op with
      | exception Pushdown.Not_pushable _ -> Middleware "graph not pushable"
      | s ->
        let xml c = List.mem_assoc c s.Pushdown.xml in
        let element =
          match List.assoc_opt lvl.Compile.node_col s.Pushdown.xml with
          | Some (Pushdown.T_elem _) -> true
          | _ -> false
        in
        if
          (not element)
          || List.exists xml (lvl.Compile.key @ List.map snd lvl.Compile.fields)
        then Middleware "level is not one element per scalar row"
        else (
          match Pushdown.compile ~frag_memo:t.frag_memo t.db s with
          | c -> Compiled c
          | exception _ -> Middleware "compilation failed")
    in
    t.level_plans <- (lvl, p) :: t.level_plans;
    p

let read_level t ~view ?level () =
  let lvl = view_level (find_view_exn t view) level in
  match level_plan t lvl with
  | Compiled c ->
    let ctx = Ra_eval.ctx_of_db ~stats:t.scan_stats t.db in
    let node_col = lvl.Compile.node_col in
    { lr_tag = lvl.Compile.elem_tag;
      lr_fields = lvl.Compile.fields;
      lr_order = lvl.Compile.key;
      lr_rows = Pushdown.exec_scalar c ctx;
      lr_nodes =
        (fun rows ->
          List.map
            (fun r ->
              match r.(0) with
              | Xval.Node n -> n
              | _ -> assert false (* an element template builds a node *))
            (Pushdown.tag_rows ~cols:[ node_col ] c ctx rows).Eval.rows);
    }
  | Middleware _ ->
    (* the reference rows, already in document order; a [__row] column
       indexes each row's node *)
    let rows = Array.of_list (level_rows t lvl) in
    let names = List.map fst lvl.Compile.fields in
    { lr_tag = lvl.Compile.elem_tag;
      lr_fields = List.map (fun f -> (f, f)) names;
      lr_order = [];
      lr_rows =
        { Ra_eval.cols = Array.of_list ("__row" :: names);
          rows =
            Array.to_list
              (Array.mapi
                 (fun i r -> Array.of_list (Value.Int i :: List.map snd r.vr_fields))
                 rows);
        };
      lr_nodes = List.map (fun r -> rows.(Value.to_int r.(0)).vr_node);
    }

(* --- observability: tracing, latency histograms, EXPLAIN, reports --- *)

let set_tracing t on = Obs.Trace.set_enabled (Database.tracer t.db) on
let tracing_enabled t = Obs.Trace.enabled (Database.tracer t.db)
let trace_clear t = Obs.Trace.clear (Database.tracer t.db)
let trace_render t = Obs.Trace.render (Database.tracer t.db)
let trace_json t = Obs.Trace.to_json (Database.tracer t.db)

let latencies t = Obs.Metrics.histograms t.histograms

let durability_timings t =
  match t.store with None -> [] | Some s -> Durability.Store.timings s

(* --- firing provenance: the audit trail --- *)

let set_audit t on = Obs.Audit.set_enabled (Database.audit t.db) on
let audit_enabled t = Obs.Audit.enabled (Database.audit t.db)
let audit_clear t = Obs.Audit.clear (Database.audit t.db)
let audit_records t = Obs.Audit.records (Database.audit t.db)
let audit t = Obs.Audit.render (Database.audit t.db)
let audit_json t = Obs.Audit.to_json (Database.audit t.db)
let why t id = Obs.Audit.why (Database.audit t.db) id

(* --- export: Chrome trace (Perfetto) and Prometheus text exposition --- *)

let trace_chrome_json t =
  Obs.Trace.to_chrome_json
    ~instants:
      (Obs.Audit.chrome_instants (Database.audit t.db) @ t.reco_instants)
    (Database.tracer t.db)

(* A group's trigger names, sorted. *)
let group_trigger_names g =
  Hashtbl.fold
    (fun _ ms acc -> List.fold_left (fun acc m -> m.m_trigger.Trigger.name :: acc) acc ms)
    g.g_members []
  |> List.sort compare

let group_size g = Hashtbl.fold (fun _ ms n -> n + List.length ms) g.g_members 0

let plan_mode tp =
  match tp_exec tp with
  | Compiled _ -> "compiled"
  | Middleware why -> "middleware (" ^ why ^ ")"

let explain t =
  let buf = Buffer.create 1024 in
  let groups = groups_by_id t in
  if groups = [] then Buffer.add_string buf "(no triggers installed)\n";
  List.iter
    (fun g ->
      Buffer.add_string buf
        (Printf.sprintf "== group %d: %s %s on view %s ==\n" g.g_id
           (strategy_to_string g.g_strategy)
           (Database.string_of_event g.g_event)
           g.g_view);
      Buffer.add_string buf
        (Printf.sprintf "triggers: %s\n" (String.concat ", " (group_trigger_names g)));
      if g.g_strategy = Materialized then begin
        Buffer.add_string buf
          "plan: MATERIALIZED baseline -- recompute the monitored level and \
           diff snapshots on every relevant statement\n";
        List.iter
          (fun tp ->
            Buffer.add_string buf
              (Printf.sprintf "-- table %s relevance: %s\n" tp.tp_table
                 (relevance_summary ~table:tp.tp_table
                    g.g_monitored.Compose.m_op)))
          g.g_plans
      end
      else
        List.iter
          (fun tp ->
            Buffer.add_string buf
              (Printf.sprintf "-- table %s: %s\n" tp.tp_table (plan_mode tp));
            Buffer.add_string buf
              (Printf.sprintf "   relevance: %s\n"
                 (relevance_summary ~table:tp.tp_table
                    g.g_monitored.Compose.m_op));
            match tp_exec tp with
            | Compiled comp -> Buffer.add_string buf (Pushdown.explain_compiled comp)
            | Middleware _ -> ())
          g.g_plans)
    groups;
  Buffer.contents buf

let explain_json t =
  let groups = groups_by_id t in
  let esc = Obs.Metrics.json_escape in
  let group_json g =
    let triggers =
      String.concat ", "
        (List.map (fun n -> "\"" ^ esc n ^ "\"") (group_trigger_names g))
    in
    let tables =
      String.concat ", "
        (List.map
           (fun tp ->
             let plan =
               match tp_exec tp with
               | Compiled comp -> Pushdown.explain_compiled_json comp
               | Middleware _ -> "null"
             in
             Printf.sprintf
               "{\"table\": \"%s\", \"mode\": \"%s\", \"relevance\": \
                \"%s\", \"plan\": %s}"
               (esc tp.tp_table) (esc (plan_mode tp))
               (esc
                  (relevance_summary ~table:tp.tp_table
                     g.g_monitored.Compose.m_op))
               plan)
           g.g_plans)
    in
    Printf.sprintf
      "{\"group\": %d, \"strategy\": \"%s\", \"event\": \"%s\", \"view\": \
       \"%s\", \"triggers\": [%s], \"tables\": [%s]}"
      g.g_id
      (esc (strategy_to_string g.g_strategy))
      (esc (Database.string_of_event g.g_event))
      (esc g.g_view) triggers tables
  in
  "[" ^ String.concat ", " (List.map group_json groups) ^ "]"

(* --- workload observatory: cost profiles, ANALYZE, TUNE ---

   The cost model follows the paper's Table-2 findings: per relevant
   statement, UNGROUPED pays one delta-plan execution per trigger
   (m × C_plan) while GROUPED pays one shared execution plus the
   constants-table join (C_plan × (1 + j)), so the winner flips with the
   cohort size m.  C_plan is calibrated from the *observed* windowed mean
   firing latency under whatever strategy is currently armed, and the
   MATERIALIZED alternative is sized by the monitored base tables
   (recompute-and-diff touches every row, per trigger). *)

let consts_join_overhead = 0.25
(* the GROUPED-AGG inverse-maintenance rewrite adds bookkeeping joins; it
   only pays off when observation (not this static model) proves it, so
   the model prices it slightly above GROUPED and lets an armed
   GROUPED-AGG cohort defend itself with observed numbers *)
let grouped_agg_penalty = 1.05
let materialized_row_ns = 2000.0
(* recompute-and-diff pays view re-evaluation, tagging and the level diff
   on every relevant statement before any rows are even scanned; without
   this floor a toy-sized base table would make MATERIALIZED model as
   nearly free *)
let materialized_stmt_ns = 100_000.0
(* a translated delta plan reads deltas, not the level: when the cohort is
   currently MATERIALIZED there is no observed translated latency, so the
   model assumes the recompute is ~10× a delta execution *)
let materialized_discount = 10.0
(* hysteresis: only recommend a switch that models ≥10% cheaper, so noise
   never flip-flops a cohort between near-equal strategies *)
let switch_threshold = 0.9

type observed = {
  ob_firings : float;  (* plan activations (window, or lifetime fallback) *)
  ob_rate : float;  (* activations/sec over the covered window *)
  ob_latency_ns : float;  (* mean ns per activation *)
  ob_pairs : float;
  ob_kept : float;
  ob_spurious : float;
  ob_scan_rows : float;
  ob_windowed : bool;  (* false = window empty, lifetime totals used *)
}

let observed_of_group t g =
  let w = Database.window t.db in
  let now = Obs.Trace.now () in
  let ws = group_series g.g_id in
  let windowed = Obs.Window.window_sum w ~now ws.s_firings > 0.0 in
  let get name =
    if windowed then Obs.Window.window_sum w ~now name else Obs.Window.total w name
  in
  let f = get ws.s_firings in
  let lat = get ws.s_latency in
  { ob_firings = f;
    ob_rate = Obs.Window.rate w ~now ws.s_firings;
    ob_latency_ns = (if f > 0.0 then lat /. f else 0.0);
    ob_pairs = get ws.s_pairs;
    ob_kept = get ws.s_kept;
    ob_spurious = get ws.s_spurious;
    ob_scan_rows = get ws.s_scan;
    ob_windowed = windowed;
  }

(* Base-table footprint of a group's monitored level, for sizing the
   MATERIALIZED recompute. *)
let group_base_rows t g =
  let evs = Event_pushdown.source_events g.g_monitored.Compose.m_op g.g_event in
  let tabs =
    List.sort_uniq compare (List.map (fun e -> e.Event_pushdown.ev_table) evs)
  in
  List.fold_left
    (fun acc tb ->
      match Database.find_table t.db tb with
      | Some tbl -> acc + Relkit.Table.row_count tbl
      | None -> acc)
    0 tabs

type recommendation = {
  r_trigger : string;
  r_group : int;
  r_members : int;  (* cohort size: triggers sharing the structure *)
  r_current : strategy;
  r_recommended : strategy;
  r_observed_ns : float;  (* observed cohort cost per relevant statement *)
  r_modeled_ns : (strategy * float) list;
  r_rate : float;  (* cohort activations/sec *)
  r_observed : observed;
  r_reason : string;
}

(* One cohort = the triggers that would share a single GROUPED plan.
   Model it as a unit: per-trigger switching makes no sense (leaving a
   group does not make the group's shared plan cheaper). *)
let model_cohort t groups =
  let members =
    List.fold_left
      (fun acc g -> acc + group_size g)
      0 groups
  in
  let m = float_of_int (max 1 members) in
  let obs = List.map (fun g -> (g, observed_of_group t g)) groups in
  (* per relevant statement every group of the cohort activates once, so
     the cohort's observed per-statement cost is the sum of mean
     per-activation latencies *)
  let observed_total =
    List.fold_left (fun acc (_, o) -> acc +. o.ob_latency_ns) 0.0 obs
  in
  let firings = List.fold_left (fun acc (_, o) -> acc +. o.ob_firings) 0.0 obs in
  let rate = List.fold_left (fun acc (_, o) -> acc +. o.ob_rate) 0.0 obs in
  let windowed = List.exists (fun (_, o) -> o.ob_windowed) obs in
  let merged =
    { ob_firings = firings;
      ob_rate = rate;
      ob_latency_ns = (if firings > 0.0 then observed_total else 0.0);
      ob_pairs = List.fold_left (fun a (_, o) -> a +. o.ob_pairs) 0.0 obs;
      ob_kept = List.fold_left (fun a (_, o) -> a +. o.ob_kept) 0.0 obs;
      ob_spurious = List.fold_left (fun a (_, o) -> a +. o.ob_spurious) 0.0 obs;
      ob_scan_rows =
        List.fold_left (fun a (_, o) -> a +. o.ob_scan_rows) 0.0 obs;
      ob_windowed = windowed;
    }
  in
  (* dominant current strategy, by member count *)
  let current =
    let count s =
      List.fold_left
        (fun acc g ->
          if g.g_strategy = s then acc + group_size g
          else acc)
        0 groups
    in
    List.fold_left
      (fun best s -> if count s > count best then s else best)
      Ungrouped
      [ Grouped; Grouped_agg; Materialized ]
  in
  let base_rows =
    match groups with g :: _ -> group_base_rows t g | [] -> 0
  in
  if firings <= 0.0 then
    (members, current, merged, observed_total, [], current,
     "no observed firings in the window; keeping the current strategy")
  else begin
    let c_plan =
      match current with
      | Ungrouped -> observed_total /. m
      | Grouped | Grouped_agg -> observed_total /. (1.0 +. consts_join_overhead)
      | Materialized -> observed_total /. m /. materialized_discount
    in
    let cost = function
      | Ungrouped ->
        if current = Ungrouped then observed_total else m *. c_plan
      | Grouped ->
        if current = Grouped then observed_total
        else c_plan *. (1.0 +. consts_join_overhead)
      | Grouped_agg ->
        if current = Grouped_agg then observed_total
        else c_plan *. (1.0 +. consts_join_overhead) *. grouped_agg_penalty
      | Materialized ->
        if current = Materialized then observed_total
        else
          (* two lower bounds, keep the larger: a static recompute-and-diff
             estimate from the base-table footprint, and the observed
             delta-plan cost scaled by the recompute ratio — recomputing a
             level cannot undercut the delta plan that reads only changes *)
          Float.max
            (materialized_stmt_ns
            +. (m *. float_of_int (max 1 base_rows) *. materialized_row_ns))
            (m *. c_plan *. materialized_discount)
    in
    let modeled =
      List.map (fun s -> (s, cost s))
        [ Ungrouped; Grouped; Grouped_agg; Materialized ]
    in
    let best, best_cost =
      List.fold_left
        (fun (bs, bc) (s, c) -> if c < bc then (s, c) else (bs, bc))
        (Ungrouped, cost Ungrouped) modeled
    in
    let reco, reason =
      if best = current then
        (current, "current strategy already models cheapest")
      else if best_cost < switch_threshold *. cost current then
        ( best,
          Printf.sprintf "models %.1fx cheaper than %s"
            (cost current /. best_cost)
            (strategy_to_string current) )
      else
        (current, "no alternative models >10% cheaper")
    in
    (members, current, merged, observed_total, modeled, reco, reason)
  end

(* Record recommendation changes as Chrome-trace instants, bounded. *)
let note_reco t name reco =
  let changed =
    match Hashtbl.find_opt t.last_reco name with
    | Some s -> s <> reco
    | None -> true
  in
  if changed then begin
    Hashtbl.replace t.last_reco name reco;
    let inst =
      ( "reco:" ^ name,
        Obs.Trace.now (),
        Printf.sprintf "{\"recommended\": \"%s\"}" (strategy_to_string reco) )
    in
    let kept =
      if List.length t.reco_instants >= 256 then
        List.filteri (fun i _ -> i < 255) t.reco_instants
      else t.reco_instants
    in
    t.reco_instants <- inst :: kept
  end

let recommendations t =
  (* each cohort's groups, oldest first *)
  let cohorts = Hashtbl.create 16 in
  List.iter
    (fun g ->
      let gs = Option.value ~default:[] (Hashtbl.find_opt cohorts g.g_cohort) in
      Hashtbl.replace cohorts g.g_cohort (g :: gs))
    (List.rev (groups_by_id t));
  let models = Hashtbl.create 16 in
  Hashtbl.iter (fun key gs -> Hashtbl.replace models key (model_cohort t gs)) cohorts;
  triggers_by_seq t
  |> List.map (fun (name, e) ->
         let g = e.e_group in
         let members, current, merged, observed_total, modeled, reco, reason =
           Hashtbl.find models g.g_cohort
         in
         note_reco t name reco;
         { r_trigger = name;
           r_group = g.g_id;
           r_members = members;
           r_current = g.g_strategy;
           r_recommended = reco;
           r_observed_ns = observed_total;
           r_modeled_ns = modeled;
           r_rate = merged.ob_rate;
           r_observed = merged;
           r_reason =
             (if g.g_strategy <> current then
                "cohort dominated by " ^ strategy_to_string current ^ "; "
                ^ reason
              else reason);
         })

let spurious_ratio o =
  if o.ob_pairs > 0.0 then o.ob_spurious /. o.ob_pairs else 0.0

let analyze t =
  let recos = recommendations t in
  let w = Database.window t.db in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "workload observatory: window = %d buckets x %d ms (last ~%.1fs)\n"
       (Obs.Window.buckets w) (Obs.Window.width_ms w)
       (float_of_int (Obs.Window.buckets w * Obs.Window.width_ms w) /. 1000.0));
  if recos = [] then Buffer.add_string buf "(no triggers installed)\n";
  List.iter
    (fun r ->
      let o = r.r_observed in
      Buffer.add_string buf
        (Printf.sprintf "== trigger %s (group %d, cohort of %d) ==\n"
           r.r_trigger r.r_group r.r_members);
      Buffer.add_string buf
        (Printf.sprintf
           "  current: %-12s observed cost/stmt: %.0f ns%s  rate: %.2f/s\n"
           (strategy_to_string r.r_current)
           r.r_observed_ns
           (if o.ob_windowed then "" else " (lifetime: window empty)")
           r.r_rate);
      Buffer.add_string buf
        (Printf.sprintf
           "  pairs: computed=%.0f kept=%.0f spurious=%.0f (ratio %.2f)  \
            scan_rows=%.0f\n"
           o.ob_pairs o.ob_kept o.ob_spurious (spurious_ratio o)
           o.ob_scan_rows);
      (match r.r_modeled_ns with
      | [] -> Buffer.add_string buf "  modeled: (insufficient data)\n"
      | ms ->
        Buffer.add_string buf "  modeled cost/stmt:";
        List.iter
          (fun (s, c) ->
            Buffer.add_string buf
              (Printf.sprintf " %s=%.0fns" (strategy_to_string s) c))
          ms;
        Buffer.add_char buf '\n');
      Buffer.add_string buf
        (Printf.sprintf "  recommendation: %s (%s)\n"
           (strategy_to_string r.r_recommended)
           r.r_reason))
    recos;
  Buffer.contents buf

let analyze_json t =
  let esc = Obs.Metrics.json_escape in
  let w = Database.window t.db in
  let recos = recommendations t in
  let reco_json r =
    let o = r.r_observed in
    let modeled =
      String.concat ", "
        (List.map
           (fun (s, c) ->
             Printf.sprintf "\"%s\": %.0f" (esc (strategy_to_string s)) c)
           r.r_modeled_ns)
    in
    Printf.sprintf
      "{\"name\": \"%s\", \"group\": %d, \"cohort_members\": %d, \
       \"strategy\": \"%s\", \"observed\": {\"cost_per_stmt_ns\": %.0f, \
       \"rate_per_s\": %.4f, \"firings\": %.0f, \"pairs_computed\": %.0f, \
       \"pairs_kept\": %.0f, \"pairs_spurious\": %.0f, \"spurious_ratio\": \
       %.4f, \"scan_rows\": %.0f, \"windowed\": %b}, \"modeled_cost_ns\": \
       {%s}, \"recommendation\": \"%s\", \"reason\": \"%s\"}"
      (esc r.r_trigger) r.r_group r.r_members
      (esc (strategy_to_string r.r_current))
      r.r_observed_ns r.r_rate o.ob_firings o.ob_pairs o.ob_kept
      o.ob_spurious (spurious_ratio o) o.ob_scan_rows o.ob_windowed modeled
      (esc (strategy_to_string r.r_recommended))
      (esc r.r_reason)
  in
  Printf.sprintf
    "{\"window\": {\"buckets\": %d, \"width_ms\": %d}, \"triggers\": [%s]}"
    (Obs.Window.buckets w) (Obs.Window.width_ms w)
    (String.concat ", " (List.map reco_json recos))

(* --- TUNE: apply recommendations by re-arming live --- *)

(* Re-arm [name] under [strat]: drop + recreate from its catalog entry.
   The action registry, subscriptions and the audit ring live outside the
   trigger, so they carry over; the drop/tune/create record triple makes
   recovery replay the same transition. *)
let retarget_trigger t name strat =
  match Hashtbl.find_opt t.catalog ("xmltrigger", name) with
  | None ->
    fail "cannot tune %S: no logged DDL for it (created with log off?)" name
  | Some (_, text) ->
    drop_trigger t name;
    record_ddl t ~kind:"tune" ~name ~payload:(strategy_to_string strat);
    Hashtbl.replace t.strategy_overrides name strat;
    create_trigger t text

let trigger_strategy t name =
  Option.map (fun e -> e.e_group.g_strategy) (Hashtbl.find_opt t.trigger_index name)

let tune ?trigger t =
  let recos = recommendations t in
  let recos =
    match trigger with
    | None -> recos
    | Some n -> (
      match List.filter (fun r -> r.r_trigger = n) recos with
      | [] -> fail "unknown trigger %S" n
      | rs -> rs)
  in
  let buf = Buffer.create 256 in
  let changed = ref 0 in
  List.iter
    (fun r ->
      if r.r_recommended <> r.r_current then begin
        retarget_trigger t r.r_trigger r.r_recommended;
        incr changed;
        Buffer.add_string buf
          (Printf.sprintf "%s: %s -> %s (re-armed; %s)\n" r.r_trigger
             (strategy_to_string r.r_current)
             (strategy_to_string r.r_recommended)
             r.r_reason)
      end
      else
        Buffer.add_string buf
          (Printf.sprintf "%s: %s (unchanged; %s)\n" r.r_trigger
             (strategy_to_string r.r_current)
             r.r_reason))
    recos;
  Buffer.add_string buf (Printf.sprintf "%d trigger(s) re-armed\n" !changed);
  Buffer.contents buf

(* --- telemetry: every runtime metric family, declared once ---

   [metrics_prometheus], [report] and the metric part of [report_json]
   render this one list.  Each family reads its samples from the store
   that owns them, at render time only. *)

let strategy_code = function
  | Ungrouped -> 0.0
  | Grouped -> 1.0
  | Grouped_agg -> 2.0
  | Materialized -> 3.0

let obs_config t =
  Obs.Metrics.gauge "trigview_obs_config" (fun () ->
      let w = Database.window t.db in
      [ ("trace_ring", Obs.Trace.limit (Database.tracer t.db));
        ("audit_ring", Obs.Audit.limit (Database.audit t.db));
        ("window_buckets", Obs.Window.buckets w);
        ("window_width_ms", Obs.Window.width_ms w);
      ])

let window_snapshot t =
  Obs.Window.snapshot (Database.window t.db) ~now:(Obs.Trace.now ())

(* PK/index probe counts as "table/probe" samples, tables with no traffic
   elided. *)
let probe_totals t =
  List.concat_map
    (fun name ->
      let rep = Relkit.Table.probe_report (Database.get_table t.db name) in
      if List.for_all (fun (_, n) -> n = 0) rep then []
      else List.map (fun (k, v) -> (name ^ "/" ^ k, v)) rep)
    (List.sort compare (Database.table_names t.db))

let families t =
  let open Obs.Metrics in
  let window_gauge name field =
    gauge_f name (fun () -> List.map (fun (n, sn) -> (n, field sn)) (window_snapshot t))
  in
  [ counter "trigview_runtime_total" (fun () ->
        let s = stats t in
        [ ("sql_firings", s.sql_firings);
          ("rows_computed", s.rows_computed);
          ("actions_dispatched", s.actions_dispatched);
          ("plans_compiled", s.plans_compiled);
          ("compiled_execs", s.compiled_execs);
          ("build_cache_hits", s.build_cache_hits);
          ("build_cache_misses", s.build_cache_misses);
          ("prefilter_skips", s.prefilter_skips);
          ("independence_skips", s.independence_skips);
          ("triggers_dropped", s.triggers_dropped);
        ]);
    obs_config t;
    window_gauge "trigview_window_rate" (fun sn -> sn.Obs.Window.sn_rate);
    window_gauge "trigview_window_ewma" (fun sn -> sn.Obs.Window.sn_ewma);
    gauge_f "trigview_recommended_strategy" (fun () ->
        List.map
          (fun r -> (r.r_trigger, strategy_code r.r_recommended))
          (recommendations t));
    counter "trigview_scan_rows_total" (fun () -> scan_rows_report t);
    counter "trigview_probe_total" (fun () -> probe_totals t);
    histogram "trigview_latency_ns" (fun () -> latencies t);
  ]
  @ (if t.store = None then []
    else [ histogram "trigview_durability_ns" (fun () -> durability_timings t) ])
  @ [ counter "trigview_audit_total" (fun () ->
          let a = Database.audit t.db in
          [ ("records", Obs.Audit.total a); ("dropped", Obs.Audit.dropped a) ]);
    ]

let metrics_prometheus t = Obs.Metrics.prometheus (families t)
let report t = Obs.Metrics.text (families t)

let report_json t =
  let esc = Obs.Metrics.json_escape in
  let series =
    List.map
      (fun (n, sn) ->
        Printf.sprintf
          "{\"name\": \"%s\", \"total\": %.0f, \"window\": %.0f, \
           \"rate_per_s\": %.4f, \"ewma_per_s\": %.4f}"
          (esc n) sn.Obs.Window.sn_total sn.Obs.Window.sn_window
          sn.Obs.Window.sn_rate sn.Obs.Window.sn_ewma)
      (window_snapshot t)
  in
  Printf.sprintf
    "{\"strategy\": \"%s\", \"metrics\": %s, \"observatory\": {\"knobs\": %s, \
     \"series\": [%s], \"advisor\": %s}, \"explain\": %s}"
    (esc (strategy_to_string t.strat))
    (Obs.Metrics.json (families t))
    (Obs.Metrics.json_samples (obs_config t))
    (String.concat ", " series) (analyze_json t) (explain_json t)
