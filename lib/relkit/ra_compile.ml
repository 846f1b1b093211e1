(* Compiled executor for Ra plans.

   [compile] walks a plan ONCE and produces a tree of closures in which every
   per-plan decision — column-name resolution, rename slot computation,
   physical join selection, expression compilation — has already been made.
   Executing the result only runs row loops: no name lookups, no plan
   traversal, no [Ra.columns] recomputation.

   The physical decisions mirror {!Ra_eval} exactly (both call into
   {!Ra_eval.Planner}), so the interpreter serves as a differential oracle:
   for any plan and context, [exec] must produce the same multiset of rows.

   On top of the one-time planning, hash-join build sides over *static*
   subplans (those reading only base tables and inline values — no
   transition tables, no [Old_of], no [Rel] bindings) are cached inside the
   closure and reused across executions; {!Table.version} counters detect
   staleness.  A compiled plan is bound to the database it was compiled
   against: execute it only with contexts over that same database. *)

type counters = {
  mutable plans_compiled : int;
  mutable compiled_execs : int;
  mutable build_cache_hits : int;
  mutable build_cache_misses : int;
}

let create_counters () =
  { plans_compiled = 0; compiled_execs = 0; build_cache_hits = 0; build_cache_misses = 0 }

let reset_counters c =
  c.plans_compiled <- 0;
  c.compiled_execs <- 0;
  c.build_cache_hits <- 0;
  c.build_cache_misses <- 0

(* Per-operator annotation, updated on every execution.  [a_label] encodes
   the *physical* decision made at compile time (INL vs hash join, probe
   kind, cached build side), so EXPLAIN shows what will actually run;
   cardinalities and cache traffic fill in as the plan executes. *)
type annot = {
  a_label : string;
  mutable a_last_rows : int;  (* output rows of the most recent run *)
  mutable a_total_rows : int;
  mutable a_execs : int;
  mutable a_hits : int;  (* build-cache / memo hits, where applicable *)
  mutable a_misses : int;
  a_children : annot list;
}

let make_annot label children =
  { a_label = label;
    a_last_rows = 0;
    a_total_rows = 0;
    a_execs = 0;
    a_hits = 0;
    a_misses = 0;
    a_children = children;
  }

type node = {
  n_cols : string array;
  n_annot : annot;
  n_run : Ra_eval.ctx -> Value.t array list;
}

(* Smart constructor: wraps the run closure so the node records its output
   cardinality.  [List.length] over rows the node just materialized is noise
   next to producing them, so the accounting stays always-on. *)
let mk_with a n_cols n_run =
  { n_cols;
    n_annot = a;
    n_run =
      (fun ctx ->
        let rows = n_run ctx in
        let n = List.length rows in
        a.a_last_rows <- n;
        a.a_total_rows <- a.a_total_rows + n;
        a.a_execs <- a.a_execs + 1;
        rows);
  }

let mk ~label ~children n_cols n_run =
  mk_with (make_annot label children) n_cols n_run

type t = {
  cols : string array;
  root : annot;
  exec : Ra_eval.ctx -> Ra_eval.rel;
}

let cols t = Array.to_list t.cols
let exec t ctx = t.exec ctx
let annot t = t.root

(* Shared subplans make the annot graph a DAG: the same (physical) subtree
   is a child of every [shared] node referencing it.  Render each subtree
   once and print back-references after, or a deep plan with heavy sharing
   blows up exponentially in the output. *)
let rec render_annot buf seen depth a =
  Buffer.add_string buf (String.make (2 * depth) ' ');
  Buffer.add_string buf a.a_label;
  let already = List.memq a !seen in
  if not already then seen := a :: !seen;
  if already then Buffer.add_string buf "  [see above]"
  else if a.a_execs = 0 then Buffer.add_string buf "  [never run]"
  else begin
    Buffer.add_string buf
      (Printf.sprintf "  [last=%d rows, total=%d over %d execs" a.a_last_rows
         a.a_total_rows a.a_execs);
    if a.a_hits + a.a_misses > 0 then
      Buffer.add_string buf
        (Printf.sprintf ", cache hit=%d miss=%d" a.a_hits a.a_misses);
    Buffer.add_string buf "]"
  end;
  Buffer.add_char buf '\n';
  if not already then List.iter (render_annot buf seen (depth + 1)) a.a_children

let explain t =
  let buf = Buffer.create 256 in
  render_annot buf (ref []) 0 t.root;
  Buffer.contents buf

let rec annot_json seen a =
  let already = List.memq a !seen in
  if not already then seen := a :: !seen;
  if already then
    Printf.sprintf "{\"label\": \"%s\", \"ref\": true}"
      (Obs.Metrics.json_escape a.a_label)
  else
    Printf.sprintf
      "{\"label\": \"%s\", \"last_rows\": %d, \"total_rows\": %d, \"execs\": %d, \
       \"cache_hits\": %d, \"cache_misses\": %d, \"children\": [%s]}"
      (Obs.Metrics.json_escape a.a_label)
      a.a_last_rows a.a_total_rows a.a_execs a.a_hits a.a_misses
      (String.concat ", " (List.map (annot_json seen) a.a_children))

let explain_json t = annot_json (ref []) t.root

exception Skip
(* raised inside fused Select/Project pipelines to drop a row *)

module Planner = Ra_eval.Planner
module Row_tbl = Ra_eval.Row_tbl

let colmap = Ra_eval.colmap
let slot = Ra_eval.slot

type env = {
  db : Database.t;
  counters : counters;
  shared : (int, node) Hashtbl.t;  (* compile-time memo for Shared subplans *)
  deps : (int, string list option) Hashtbl.t;  (* [static_deps] of Shared subplans *)
}

(* --- static-dependency analysis for build-side caching ---

   [Some tables]: the subplan's result depends only on the current contents
   of [tables] (and constants), so a materialization keyed on their version
   counters stays valid.  [None]: the subplan reads per-firing state
   (transition tables, Old_of, Rel bindings) and must be re-evaluated. *)

let rec deps_in memo (plan : Ra.t) : string list option =
  let both a b =
    match a, b with Some x, Some y -> Some (x @ y) | _ -> None
  in
  match plan with
  | Ra.Scan (Ra.Base t, _) -> Some [ t ]
  | Ra.Scan ((Ra.Delta _ | Ra.Nabla _ | Ra.Old_of _ | Ra.Rel _), _) -> None
  | Ra.Values _ -> Some []
  | Ra.Shared (id, i) -> (
    (* a shared subplan is referenced from many joins; walk it once *)
    match Hashtbl.find_opt memo id with
    | Some d -> d
    | None ->
      let d = deps_in memo i in
      Hashtbl.add memo id d;
      d)
  | Ra.Select (_, i) | Ra.Project (_, i) | Ra.Distinct i
  | Ra.Order_by (_, i) | Ra.Group_by (_, _, i) ->
    deps_in memo i
  | Ra.Join (_, _, l, r) -> both (deps_in memo l) (deps_in memo r)
  | Ra.Union { inputs; _ } ->
    List.fold_left (fun acc i -> both acc (deps_in memo i)) (Some []) inputs

let static_deps plan = deps_in (Hashtbl.create 8) plan

(* --- sources --- *)

(* Rename application compiled against a fixed input layout.  Identity
   renames (all columns, in order, unrenamed) skip the per-row copy: every
   downstream operator allocates fresh arrays, so sharing storage rows is
   safe. *)
let rename_plan in_cols renames =
  let identity =
    List.length renames = List.length in_cols
    && List.for_all2 (fun c (s, o) -> c = s && c = o) in_cols renames
  in
  if identity then `Identity
  else begin
    let m = colmap (Array.of_list in_cols) in
    `Slots (Array.of_list (List.map (fun (s, _) -> slot m s) renames))
  end

let apply_rename_plan rp rows =
  match rp with
  | `Identity -> rows
  | `Slots slots -> List.map (fun row -> Array.map (fun i -> row.(i)) slots) rows

let compile_scan env (src : Ra.source) renames =
  let n_cols = Array.of_list (List.map snd renames) in
  let of_table table key rows_of =
    let tbl = Database.get_table env.db table in
    let rp = rename_plan (Schema.column_names (Table.schema tbl)) renames in
    mk ~label:key ~children:[] n_cols
      (fun ctx ->
        let rows = rows_of tbl ctx in
        Ra_eval.count_scan ctx.Ra_eval.scan_stats key (List.length rows);
        apply_rename_plan rp rows)
  in
  match src with
  | Ra.Base table ->
    of_table table ("scan:" ^ table) (fun tbl _ -> Table.to_rows tbl)
  | Ra.Delta table ->
    of_table table ("delta:" ^ table)
      (fun _ ctx -> fst (Ra_eval.transitions ctx table))
  | Ra.Nabla table ->
    of_table table ("nabla:" ^ table)
      (fun _ ctx -> snd (Ra_eval.transitions ctx table))
  | Ra.Old_of table ->
    of_table table ("oldof:" ^ table) (fun _ ctx -> Ra_eval.old_rows ctx table)
  | Ra.Rel name ->
    (* A context binding takes priority; slots against it are resolved per
       run (bound relations are small and their layouts can vary).  Without
       a binding, fall back to a database table of that name (constants
       tables), resolved at compile time when it already exists. *)
    let fallback =
      match Database.find_table env.db name with
      | Some tbl ->
        let rp = rename_plan (Schema.column_names (Table.schema tbl)) renames in
        Some (tbl, rp)
      | None -> None
    in
    let src_names = Array.of_list (List.map fst renames) in
    mk ~label:("rel:" ^ name) ~children:[] n_cols
      (fun ctx ->
          match List.assoc_opt name ctx.Ra_eval.rels with
          | Some rel ->
            (* Frag-key bindings are built with exactly the scanned layout;
               detect that identity case without building a column map. *)
            if
              Array.length rel.Ra_eval.cols = Array.length src_names
              && (let ok = ref true in
                  Array.iteri
                    (fun i c -> if rel.Ra_eval.cols.(i) <> c then ok := false)
                    src_names;
                  !ok)
            then rel.Ra_eval.rows
            else begin
              let m = colmap rel.Ra_eval.cols in
              let slots =
                Array.of_list (List.map (fun (s, _) -> slot m s) renames)
              in
              List.map
                (fun row -> Array.map (fun i -> row.(i)) slots)
                rel.Ra_eval.rows
            end
          | None ->
            let tbl, rp =
              match fallback with
              | Some pair -> pair
              | None ->
                let tbl = Database.get_table ctx.Ra_eval.db name in
                (tbl, rename_plan (Schema.column_names (Table.schema tbl)) renames)
            in
            let rows = Table.to_rows tbl in
            Ra_eval.count_scan ctx.Ra_eval.scan_stats ("rel:" ^ name)
              (List.length rows);
            apply_rename_plan rp rows)

(* --- aggregates --- *)

let compile_agg m (a : Ra.agg) =
  match a with
  | Ra.Count_star -> `Count_star
  | Ra.Count e -> `Count (Ra_eval.compile_expr m e)
  | Ra.Sum e -> `Sum (Ra_eval.compile_expr m e)
  | Ra.Min e -> `Min (Ra_eval.compile_expr m e)
  | Ra.Max e -> `Max (Ra_eval.compile_expr m e)
  | Ra.Avg e -> `Avg (Ra_eval.compile_expr m e)

let compute_agg rows = function
  | `Count_star -> Value.Int (List.length rows)
  | `Count f ->
    Value.Int (List.length (List.filter (fun r -> not (Value.is_null (f r))) rows))
  | `Sum f ->
    List.fold_left
      (fun acc r ->
        let v = f r in
        if Value.is_null v then acc
        else match acc with Value.Null -> v | acc -> Value.add acc v)
      Value.Null rows
  | `Min f ->
    List.fold_left
      (fun acc r ->
        let v = f r in
        if Value.is_null v then acc
        else
          match acc with
          | Value.Null -> v
          | acc -> if Value.compare v acc < 0 then v else acc)
      Value.Null rows
  | `Max f ->
    List.fold_left
      (fun acc r ->
        let v = f r in
        if Value.is_null v then acc
        else
          match acc with
          | Value.Null -> v
          | acc -> if Value.compare v acc > 0 then v else acc)
      Value.Null rows
  | `Avg f ->
    let vals =
      List.filter_map
        (fun r ->
          let v = f r in
          if Value.is_null v then None else Some (Value.to_float v))
        rows
    in
    if vals = [] then Value.Null
    else Value.Float (List.fold_left ( +. ) 0.0 vals /. float_of_int (List.length vals))

let dedup_rows rows =
  match rows with
  | [] | [ _ ] -> rows
  | _ ->
    let seen = Row_tbl.create 16 in
    List.filter
      (fun r ->
        if Row_tbl.mem seen r then false
        else begin
          Row_tbl.replace seen r ();
          true
        end)
      rows

(* --- compilation --- *)

let rec compile_node env (plan : Ra.t) : node =
  match plan with
  | Ra.Shared (id, input) ->
    let n =
      match Hashtbl.find_opt env.shared id with
      | Some n -> n
      | None ->
        let n = compile_node env input in
        Hashtbl.add env.shared id n;
        n
    in
    let a = make_annot "shared" [ n.n_annot ] in
    mk_with a n.n_cols (fun ctx ->
        match Hashtbl.find_opt ctx.Ra_eval.shared_memo id with
        | Some rel ->
          a.a_hits <- a.a_hits + 1;
          rel.Ra_eval.rows
        | None ->
          a.a_misses <- a.a_misses + 1;
          let rows = n.n_run ctx in
          Hashtbl.add ctx.Ra_eval.shared_memo id
            { Ra_eval.cols = n.n_cols; rows };
          rows)
  | Ra.Scan (src, renames) -> compile_scan env src renames
  | Ra.Values (cols, rows) ->
    mk
      ~label:(Printf.sprintf "values (%d rows)" (List.length rows))
      ~children:[]
      (Array.of_list cols)
      (fun _ -> rows)
  | Ra.Select _ | Ra.Project _ -> compile_pipeline env plan
  | Ra.Join (kind, pred, left, right) -> compile_join env kind pred left right
  | Ra.Group_by (keys, aggs, input) -> compile_group_by env keys aggs input
  | Ra.Union { all; inputs } ->
    let ns = List.map (compile_node env) inputs in
    let n_cols =
      match ns with
      | [] -> invalid_arg "Ra_compile: empty union"
      | n :: _ -> n.n_cols
    in
    List.iter
      (fun n ->
        if Array.length n.n_cols <> Array.length n_cols then
          invalid_arg "Ra_compile: union arity mismatch")
      ns;
    mk
      ~label:(if all then "union all" else "union distinct")
      ~children:(List.map (fun n -> n.n_annot) ns)
      n_cols
      (fun ctx ->
        let rows = List.concat_map (fun n -> n.n_run ctx) ns in
        if all then rows else dedup_rows rows)
  | Ra.Distinct input ->
    let n = compile_node env input in
    mk ~label:"distinct" ~children:[ n.n_annot ] n.n_cols (fun ctx ->
        dedup_rows (n.n_run ctx))
  | Ra.Order_by (keys, input) ->
    let n = compile_node env input in
    let m = colmap n.n_cols in
    let keys = List.map (fun (c, d) -> (slot m c, d)) keys in
    let cmp a b =
      let rec go = function
        | [] -> 0
        | (i, d) :: rest ->
          let c = Value.compare a.(i) b.(i) in
          let c = match d with Ra.Asc -> c | Ra.Desc -> -c in
          if c <> 0 then c else go rest
      in
      go keys
    in
    mk ~label:"order_by" ~children:[ n.n_annot ] n.n_cols (fun ctx ->
        List.stable_sort cmp (n.n_run ctx))

(* Fuse a chain of Select / Project operators over one input into a single
   per-row transform: no intermediate row lists, one traversal. *)
and compile_pipeline env plan =
  let rec peel plan steps =
    match plan with
    | Ra.Select (p, input) -> peel input (`Filter p :: steps)
    | Ra.Project (defs, input) -> peel input (`Project defs :: steps)
    | base -> (base, steps)
  in
  let base, steps = peel plan [] in
  let base_n = compile_node env base in
  let out_cols, trans =
    List.fold_left
      (fun (cols, f) step ->
        let m = colmap cols in
        match step with
        | `Filter p ->
          let pr = Ra_eval.compile_pred m p in
          ( cols,
            fun row ->
              let r = f row in
              if pr r then r else raise Skip )
        | `Project defs ->
          let fs =
            Array.of_list (List.map (fun (_, e) -> Ra_eval.compile_expr m e) defs)
          in
          ( Array.of_list (List.map fst defs),
            fun row ->
              let r = f row in
              Array.map (fun g -> g r) fs ))
      (base_n.n_cols, fun row -> row)
      steps
  in
  let label =
    let kinds =
      List.map (function `Filter _ -> "select" | `Project _ -> "project") steps
    in
    "pipeline[" ^ String.concat "," kinds ^ "]"
  in
  mk ~label ~children:[ base_n.n_annot ] out_cols (fun ctx ->
      let rec loop acc = function
        | [] -> List.rev acc
        | row :: rest -> (
          match trans row with
          | row' -> loop (row' :: acc) rest
          | exception Skip -> loop acc rest)
      in
      loop [] (base_n.n_run ctx))

and compile_join env kind pred left right =
  let left_n = compile_node env left in
  let left_cols = Array.to_list left_n.n_cols in
  let right_cols = Ra.columns right in
  let { Planner.equi; residual } =
    Planner.split_join_pred ~left_cols ~right_cols pred
  in
  let inl =
    if equi = [] then None
    else
      match Planner.as_probe_side right with
      | None -> None
      | Some side -> (
        match Database.find_table env.db side.Planner.p_table with
        | None -> None
        | Some tbl ->
          Option.map
            (fun strat -> (side, tbl, strat))
            (Planner.probe_strategy tbl side equi))
  in
  match inl, kind with
  | Some (side, tbl, strat), (Ra.Inner | Ra.Left_outer | Ra.Left_anti) ->
    compile_inl_join kind ~left_n ~equi ~residual side tbl strat
  | _ -> compile_hash_join env kind ~equi ~residual left left_n right

(* Index-nested-loop join: the inner side is a probeable base-table (or
   Old_of) scan.  Everything name-shaped — probe key slots, rename slots,
   residual predicates — is resolved here, once. *)
and compile_inl_join kind ~left_n ~equi ~residual side tbl strat =
  let lmap = colmap left_n.n_cols in
  let schema = Table.schema tbl in
  let rename_slots =
    Array.of_list
      (List.map (fun (s, _) -> Schema.col_index schema s) side.Planner.p_renames)
  in
  let right_out = Array.of_list (List.map snd side.Planner.p_renames) in
  let joined_cols = Array.append left_n.n_cols right_out in
  let n_left = Array.length left_n.n_cols in
  (* one allocation per joined row: copy left, project right into place *)
  let join_row lrow srow =
    let joined = Array.make (n_left + Array.length rename_slots) Value.Null in
    Array.blit lrow 0 joined 0 n_left;
    Array.iteri (fun k i -> joined.(n_left + k) <- srow.(i)) rename_slots;
    joined
  in
  let out_cols =
    match kind with
    | Ra.Inner | Ra.Left_outer -> joined_cols
    | Ra.Left_anti -> left_n.n_cols
    | Ra.Right_anti -> assert false
  in
  let jm = colmap joined_cols in
  let scan_filter = Option.map (Ra_eval.compile_pred jm) side.Planner.p_filter in
  let residual_preds = List.map (Ra_eval.compile_pred jm) residual in
  let equi_checks =
    List.map
      (fun (lc, rc) ->
        let li = slot lmap lc in
        let src =
          List.find (fun (_, o) -> o = rc) side.Planner.p_renames |> fst
        in
        let ri = Schema.col_index schema src in
        fun lrow srow -> Value.sql_eq lrow.(li) srow.(ri))
      equi
  in
  let probe =
    match strat with
    | Planner.Probe_pk pairs ->
      let slots =
        Array.of_list (List.map (fun (outer, _) -> slot lmap outer) pairs)
      in
      let n_slots = Array.length slots in
      fun lrow ->
        let rec pk_from i =
          if i >= n_slots then [] else lrow.(slots.(i)) :: pk_from (i + 1)
        in
        (match Table.find_pk tbl (pk_from 0) with Some r -> [ r ] | None -> [])
    | Planner.Probe_index (outer, src_col) ->
      let li = slot lmap outer in
      fun lrow -> Table.lookup_cached tbl ~column:src_col lrow.(li)
  in
  let n_right = List.length side.Planner.p_renames in
  let p_old = side.Planner.p_old and p_table = side.Planner.p_table in
  let no_filters = scan_filter = None && residual_preds = [] in
  let label =
    let kind_s =
      match kind with
      | Ra.Inner -> "inner"
      | Ra.Left_outer -> "left_outer"
      | Ra.Left_anti -> "left_anti"
      | Ra.Right_anti -> "right_anti"
    in
    let probe_s =
      match strat with
      | Planner.Probe_pk _ -> "pk"
      | Planner.Probe_index (_, col) -> "index " ^ col
    in
    Printf.sprintf "inl-join %s (probe %s%s via %s)" kind_s
      (if p_old then "oldof " else "")
      p_table probe_s
  in
  (* The joined row built for predicate checking doubles as the output row:
     one Array.append per candidate, not two. *)
  let filters_pass joined =
    (match scan_filter with Some f -> f joined | None -> true)
    && List.for_all (fun p -> p joined) residual_preds
  in
  let equi_pass lrow srow =
    List.for_all (fun chk -> chk lrow srow) equi_checks
  in
  mk ~label ~children:[ left_n.n_annot ] out_cols (fun ctx ->
      match left_n.n_run ctx with
        | [] -> []
        | lrows ->
          (* Candidate source rows for one left row; the Old_of transition
             sets are resolved once per execution, not per left row. *)
          let candidates =
            if not p_old then probe
            else begin
              (* OLD-OF: drop post-state rows, add matching pre-state rows. *)
              let delta, nabla = Ra_eval.transitions ctx p_table in
              let survivors =
                match delta with
                | [] -> fun base -> base
                | _ ->
                  let delta_set = Ra_eval.row_set delta in
                  fun base ->
                    List.filter (fun r -> not (Row_tbl.mem delta_set r)) base
              in
              fun lrow ->
                survivors (probe lrow) @ List.filter (equi_pass lrow) nabla
            end
          in
          let out = ref [] in
          List.iter
            (fun lrow ->
              match kind with
              | Ra.Inner ->
                List.iter
                  (fun srow ->
                    if equi_pass lrow srow then begin
                      let joined =
                        join_row lrow srow
                      in
                      if no_filters || filters_pass joined then
                        out := joined :: !out
                    end)
                  (candidates lrow)
              | Ra.Left_outer ->
                let emitted = ref false in
                List.iter
                  (fun srow ->
                    if equi_pass lrow srow then begin
                      let joined =
                        join_row lrow srow
                      in
                      if no_filters || filters_pass joined then begin
                        emitted := true;
                        out := joined :: !out
                      end
                    end)
                  (candidates lrow);
                if not !emitted then
                  out :=
                    Array.append lrow (Array.make n_right Value.Null) :: !out
              | Ra.Left_anti ->
                let matched =
                  List.exists
                    (fun srow ->
                      equi_pass lrow srow
                      && (no_filters
                         || filters_pass
                              (join_row lrow srow)))
                    (candidates lrow)
                in
                if not matched then out := lrow :: !out
              | Ra.Right_anti -> assert false)
            lrows;
          List.rev !out)

and compile_hash_join env kind ~equi ~residual left_plan left_n right_plan =
  let right_n = compile_node env right_plan in
  let joined_cols = Array.append left_n.n_cols right_n.n_cols in
  let lmap = colmap left_n.n_cols and rmap = colmap right_n.n_cols in
  let l_slots = Array.of_list (List.map (fun (lc, _) -> slot lmap lc) equi) in
  let r_slots = Array.of_list (List.map (fun (_, rc) -> slot rmap rc) equi) in
  let key_of slots row = Array.map (fun i -> row.(i)) slots in
  let residual_preds =
    List.map (Ra_eval.compile_pred (colmap joined_cols)) residual
  in
  let passes lrow rrow =
    (* SQL equality on join keys: NULL joins with nothing. *)
    (let n = Array.length l_slots in
     let rec go i =
       i >= n || (Value.sql_eq lrow.(l_slots.(i)) rrow.(r_slots.(i)) && go (i + 1))
     in
     go 0)
    && (residual_preds = []
       ||
       let joined = Array.append lrow rrow in
       List.for_all (fun p -> p joined) residual_preds)
  in
  let kind_s =
    match kind with
    | Ra.Inner -> "inner"
    | Ra.Left_outer -> "left_outer"
    | Ra.Left_anti -> "left_anti"
    | Ra.Right_anti -> "right_anti"
  in
  let children = [ left_n.n_annot; right_n.n_annot ] in
  if equi = [] then begin
    (* Nested loop for non-equi joins. *)
    mk
      ~label:("nl-join " ^ kind_s)
      ~children
      (match kind with
      | Ra.Inner | Ra.Left_outer -> joined_cols
      | Ra.Left_anti -> left_n.n_cols
      | Ra.Right_anti -> right_n.n_cols)
      (fun ctx ->
          let lrows = left_n.n_run ctx and rrows = right_n.n_run ctx in
          let out = ref [] in
          (match kind with
          | Ra.Inner ->
            List.iter
              (fun lrow ->
                List.iter
                  (fun rrow ->
                    if passes lrow rrow then out := Array.append lrow rrow :: !out)
                  rrows)
              lrows
          | Ra.Left_outer ->
            let width = Array.length right_n.n_cols in
            List.iter
              (fun lrow ->
                let matches = List.filter (passes lrow) rrows in
                if matches = [] then
                  out := Array.append lrow (Array.make width Value.Null) :: !out
                else
                  List.iter
                    (fun rrow -> out := Array.append lrow rrow :: !out)
                    matches)
              lrows
          | Ra.Left_anti ->
            List.iter
              (fun lrow ->
                if not (List.exists (passes lrow) rrows) then out := lrow :: !out)
              lrows
          | Ra.Right_anti ->
            List.iter
              (fun rrow ->
                if not (List.exists (fun lrow -> passes lrow rrow) lrows) then
                  out := rrow :: !out)
              rrows);
          List.rev !out)
  end
  else begin
    let build rows slots =
      let index : Value.t array list ref Row_tbl.t = Row_tbl.create 64 in
      List.iter
        (fun row ->
          let key = key_of slots row in
          if not (Array.exists Value.is_null key) then begin
            match Row_tbl.find_opt index key with
            | Some cell -> cell := row :: !cell
            | None -> Row_tbl.replace index key (ref [ row ])
          end)
        rows;
      index
    in
    (* A build side whose plan reads only base tables can be cached across
       executions and revalidated by comparing table version counters.  Cache
       traffic is recorded both globally (manager counters) and on the join
       node's annotation [a], for EXPLAIN. *)
    let cached_build a plan n slots =
      match deps_in env.deps plan with
      | None -> fun ctx -> build (n.n_run ctx) slots
      | Some names ->
        let tbls =
          List.map (Database.get_table env.db) (List.sort_uniq compare names)
        in
        let cell = ref None in
        fun ctx ->
          let versions = List.map Table.version tbls in
          (match !cell with
          | Some (vs, index) when vs = versions ->
            env.counters.build_cache_hits <- env.counters.build_cache_hits + 1;
            a.a_hits <- a.a_hits + 1;
            index
          | _ ->
            env.counters.build_cache_misses <-
              env.counters.build_cache_misses + 1;
            a.a_misses <- a.a_misses + 1;
            let index = build (n.n_run ctx) slots in
            cell := Some (versions, index);
            index)
    in
    let label ~build_side ~cacheable =
      Printf.sprintf "hash-join %s (build %s%s)" kind_s build_side
        (if cacheable then ", cached" else "")
    in
    match kind with
    | Ra.Inner | Ra.Left_outer | Ra.Left_anti ->
      let a =
        make_annot
          (label ~build_side:"right" ~cacheable:(deps_in env.deps right_plan <> None))
          children
      in
      let get_build = cached_build a right_plan right_n r_slots in
      let probe index lrow =
        let key = key_of l_slots lrow in
        if Array.exists Value.is_null key then []
        else
          match Row_tbl.find_opt index key with
          | None -> []
          | Some cell -> List.filter (passes lrow) !cell
      in
      let n_cols =
        match kind with
        | Ra.Inner | Ra.Left_outer -> joined_cols
        | _ -> left_n.n_cols
      in
      mk_with a n_cols (fun ctx ->
            let index = get_build ctx in
            let lrows = left_n.n_run ctx in
            match kind with
            | Ra.Inner ->
              let out = ref [] in
              List.iter
                (fun lrow ->
                  List.iter
                    (fun rrow -> out := Array.append lrow rrow :: !out)
                    (probe index lrow))
                lrows;
              List.rev !out
            | Ra.Left_outer ->
              let width = Array.length right_n.n_cols in
              let out = ref [] in
              List.iter
                (fun lrow ->
                  match probe index lrow with
                  | [] ->
                    out :=
                      Array.append lrow (Array.make width Value.Null) :: !out
                  | matches ->
                    List.iter
                      (fun rrow -> out := Array.append lrow rrow :: !out)
                      matches)
                lrows;
              List.rev !out
            | _ -> List.filter (fun lrow -> probe index lrow = []) lrows)
    | Ra.Right_anti ->
      (* Build on the left instead. *)
      let a =
        make_annot
          (label ~build_side:"left" ~cacheable:(deps_in env.deps left_plan <> None))
          children
      in
      let get_build = cached_build a left_plan left_n l_slots in
      mk_with a right_n.n_cols (fun ctx ->
            let lindex = get_build ctx in
            let matched rrow =
              let key = key_of r_slots rrow in
              (not (Array.exists Value.is_null key))
              &&
              match Row_tbl.find_opt lindex key with
              | None -> false
              | Some cell -> List.exists (fun lrow -> passes lrow rrow) !cell
            in
            List.filter (fun r -> not (matched r)) (right_n.n_run ctx))
  end

and compile_group_by env keys aggs input =
  let input_n = compile_node env input in
  let m = colmap input_n.n_cols in
  let key_slots = Array.of_list (List.map (slot m) keys) in
  let agg_fs = Array.of_list (List.map (fun (_, a) -> compile_agg m a) aggs) in
  let n_cols = Array.of_list (keys @ List.map fst aggs) in
  let scalar = keys = [] in
  let nk = Array.length key_slots and na = Array.length agg_fs in
  let label =
    Printf.sprintf "group_by [%s] aggs=%d" (String.concat "," keys)
      (List.length aggs)
  in
  mk ~label ~children:[ input_n.n_annot ] n_cols (fun ctx ->
        let in_rows = input_n.n_run ctx in
        if scalar then
          (* Scalar aggregate: exactly one output row, even over empty input. *)
          [ Array.map (compute_agg in_rows) agg_fs ]
        else
          match in_rows with
          | [] -> []
          | _ ->
            let groups : Value.t array list ref Row_tbl.t =
              Row_tbl.create 16
            in
            let order = ref [] in
            List.iter
              (fun row ->
                let key = Array.map (fun i -> row.(i)) key_slots in
                match Row_tbl.find_opt groups key with
                | Some cell -> cell := row :: !cell
                | None ->
                  Row_tbl.replace groups key (ref [ row ]);
                  order := key :: !order)
              in_rows;
            List.rev_map
              (fun key ->
                let rows = !(Row_tbl.find groups key) in
                let out = Array.make (nk + na) Value.Null in
                Array.blit key 0 out 0 nk;
                for j = 0 to na - 1 do
                  out.(nk + j) <- compute_agg rows agg_fs.(j)
                done;
                out)
              !order)

let compile ?counters db plan =
  let counters =
    match counters with Some c -> c | None -> create_counters ()
  in
  let env = { db; counters; shared = Hashtbl.create 8; deps = Hashtbl.create 8 } in
  let n = compile_node env plan in
  counters.plans_compiled <- counters.plans_compiled + 1;
  { cols = n.n_cols;
    root = n.n_annot;
    exec =
      (fun ctx ->
        counters.compiled_execs <- counters.compiled_execs + 1;
        { Ra_eval.cols = n.n_cols; rows = n.n_run ctx });
  }
