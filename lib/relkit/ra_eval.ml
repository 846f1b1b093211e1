type rel = {
  cols : string array;
  rows : Value.t array list;
}

(* Debug / test accounting: rows materialized by full source scans, keyed by
   source description.  Owned by the evaluation context (each manager keeps
   its own accumulator), so concurrent managers cannot corrupt each other's
   counters.  Cheap enough to keep always-on; tests use it to assert that
   affected-key pushdown avoids full scans. *)
type scan_stats = (string, int) Hashtbl.t

let create_scan_stats () : scan_stats = Hashtbl.create 16

let count_scan (stats : scan_stats) name n =
  Hashtbl.replace stats name (n + Option.value ~default:0 (Hashtbl.find_opt stats name))

let reset_scan_stats (stats : scan_stats) = Hashtbl.reset stats

(* Fold [src] into [dst]: the firing path counts each firing privately
   (for its windowed scan total) and then merges into the manager's. *)
let merge_scan_stats ~into:(dst : scan_stats) (src : scan_stats) =
  Hashtbl.iter (fun k n -> count_scan dst k n) src

(* Per-operator output-cardinality keys (["op:select"], ["op:join"], ...)
   share the table with source-scan keys but measure something else, so the
   scan total — used by tests to assert pushdown avoided full scans — must
   not include them. *)
let is_op_key k = String.length k >= 3 && String.sub k 0 3 = "op:"

let scan_stats_total (stats : scan_stats) =
  Hashtbl.fold (fun k n acc -> if is_op_key k then acc else acc + n) stats 0

let scan_stats_report (stats : scan_stats) =
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) stats []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

type ctx = {
  db : Database.t;
  trans : (string * (Value.t array list * Value.t array list)) list;
  rels : (string * rel) list;
  shared_memo : (int, rel) Hashtbl.t;
      (* caches Shared subplans across eval calls within one firing *)
  scan_stats : scan_stats;
}

let ctx_of_trigger ?stats (tc : Database.trigger_ctx) =
  { db = tc.Database.db;
    trans = [ (tc.Database.target, (tc.Database.inserted, tc.Database.deleted)) ];
    rels = [];
    shared_memo = Hashtbl.create 8;
    scan_stats = (match stats with Some s -> s | None -> create_scan_stats ());
  }

let ctx_of_db ?stats db =
  { db;
    trans = [];
    rels = [];
    shared_memo = Hashtbl.create 8;
    scan_stats = (match stats with Some s -> s | None -> create_scan_stats ());
  }

let col_index rel name =
  let n = Array.length rel.cols in
  let rec go i = if i >= n then raise Not_found else if rel.cols.(i) = name then i else go (i + 1) in
  go 0

let rows_assoc rel =
  List.map
    (fun row -> Array.to_list (Array.mapi (fun i v -> (rel.cols.(i), v)) row))
    rel.rows

let compare_rows a b =
  let n = Array.length a in
  let rec go i =
    if i >= n then 0
    else
      let c = Value.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let sorted rel = { rel with rows = List.sort compare_rows rel.rows }

let equal_rel a b =
  Array.to_list a.cols = Array.to_list b.cols
  && List.equal
       (fun x y -> compare_rows x y = 0)
       (sorted a).rows (sorted b).rows

let pp_rel ppf rel =
  Format.fprintf ppf "@[<v>%s@," (String.concat " | " (Array.to_list rel.cols));
  List.iter
    (fun row ->
      Format.fprintf ppf "%s@,"
        (String.concat " | " (Array.to_list (Array.map Value.to_string row))))
    rel.rows;
  Format.fprintf ppf "(%d rows)@]" (List.length rel.rows)

(* --- row hashing --- *)

module Row_key = struct
  type t = Value.t array

  let equal a b =
    Array.length a = Array.length b
    &&
    let rec go i = i >= Array.length a || (Value.equal a.(i) b.(i) && go (i + 1)) in
    go 0

  let hash r = Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 7 r
end

module Row_tbl = Hashtbl.Make (Row_key)

let row_set rows =
  let set = Row_tbl.create (List.length rows + 1) in
  List.iter (fun r -> Row_tbl.replace set r ()) rows;
  set

(* --- expression compilation --- *)

let colmap cols =
  let m = Hashtbl.create (Array.length cols) in
  Array.iteri (fun i c -> Hashtbl.replace m c i) cols;
  m

let slot m c =
  match Hashtbl.find_opt m c with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Ra_eval: unknown column %S" c)

let value_cmp op a b =
  if Value.is_null a || Value.is_null b then Value.Bool false
  else
    let c = Value.compare a b in
    Value.Bool
      (match op with
      | Ra.Eq -> c = 0
      | Ra.Neq -> c <> 0
      | Ra.Lt -> c < 0
      | Ra.Le -> c <= 0
      | Ra.Gt -> c > 0
      | Ra.Ge -> c >= 0
      | Ra.And | Ra.Or | Ra.Add | Ra.Sub | Ra.Mul | Ra.Div | Ra.Mod ->
        invalid_arg "value_cmp: not a comparison")

let as_bool = function
  | Value.Bool b -> b
  | Value.Null -> false
  | v -> invalid_arg (Printf.sprintf "Ra_eval: %s is not a boolean" (Value.to_string v))

let rec compile_expr m (e : Ra.expr) : Value.t array -> Value.t =
  match e with
  | Ra.Col c ->
    let i = slot m c in
    fun row -> row.(i)
  | Ra.Const v -> fun _ -> v
  | Ra.Binop (op, a, b) -> (
    let fa = compile_expr m a and fb = compile_expr m b in
    match op with
    | Ra.Eq | Ra.Neq | Ra.Lt | Ra.Le | Ra.Gt | Ra.Ge ->
      fun row -> value_cmp op (fa row) (fb row)
    | Ra.And -> fun row -> Value.Bool (as_bool (fa row) && as_bool (fb row))
    | Ra.Or -> fun row -> Value.Bool (as_bool (fa row) || as_bool (fb row))
    | Ra.Add -> fun row -> Value.add (fa row) (fb row)
    | Ra.Sub -> fun row -> Value.sub (fa row) (fb row)
    | Ra.Mul -> fun row -> Value.mul (fa row) (fb row)
    | Ra.Div -> fun row -> Value.div (fa row) (fb row)
    | Ra.Mod -> fun row -> Value.modulo (fa row) (fb row))
  | Ra.Not e ->
    let f = compile_expr m e in
    fun row -> Value.Bool (not (as_bool (f row)))
  | Ra.Is_null e ->
    let f = compile_expr m e in
    fun row -> Value.Bool (Value.is_null (f row))

let compile_pred m e =
  let f = compile_expr m e in
  fun row -> as_bool (f row)

(* --- sources --- *)

let trans_for ctx table =
  match List.assoc_opt table ctx.trans with
  | Some pair -> pair
  | None -> ([], [])

let table_rows tbl = Table.to_rows tbl

let old_rows ctx table =
  (* (B EXCEPT ΔB) UNION ∇B, by row value — §4.2 of the paper. *)
  let tbl = Database.get_table ctx.db table in
  let delta, nabla = trans_for ctx table in
  let dset = row_set delta in
  let base = List.filter (fun r -> not (Row_tbl.mem dset r)) (table_rows tbl) in
  base @ nabla

let transitions = trans_for

let source_rel ctx (src : Ra.source) : rel =
  let of_table table rows =
    let schema = Table.schema (Database.get_table ctx.db table) in
    count_scan ctx.scan_stats
      (match src with
      | Ra.Base t -> "scan:" ^ t
      | Ra.Delta t -> "delta:" ^ t
      | Ra.Nabla t -> "nabla:" ^ t
      | Ra.Old_of t -> "oldof:" ^ t
      | Ra.Rel t -> "rel:" ^ t)
      (List.length rows);
    { cols = Array.of_list (Schema.column_names schema); rows }
  in
  match src with
  | Ra.Base table -> of_table table (table_rows (Database.get_table ctx.db table))
  | Ra.Delta table -> of_table table (fst (trans_for ctx table))
  | Ra.Nabla table -> of_table table (snd (trans_for ctx table))
  | Ra.Old_of table -> of_table table (old_rows ctx table)
  | Ra.Rel name -> (
    match List.assoc_opt name ctx.rels with
    | Some rel -> rel
    | None ->
      (* Fall back to a database table of that name (constants tables are
         stored as ordinary tables). *)
      of_table name (table_rows (Database.get_table ctx.db name)))

let apply_renames rel renames =
  let idx = List.map (fun (src, _) -> col_index rel src) renames in
  { cols = Array.of_list (List.map snd renames);
    rows = List.map (fun row -> Array.of_list (List.map (fun i -> row.(i)) idx)) rel.rows;
  }

(* --- join planning: predicate decomposition and probe recognition ---

   Shared between this interpreter and the compiled executor ({!Ra_compile}),
   which makes the same physical decisions once at compile time. *)

module Planner = struct
  let rec conjuncts = function
    | Ra.Binop (Ra.And, a, b) -> conjuncts a @ conjuncts b
    | Ra.Const (Value.Bool true) -> []
    | e -> [ e ]

  type join_split = {
    equi : (string * string) list;  (* (left col, right col) *)
    residual : Ra.expr list;
  }

  let split_join_pred ~left_cols ~right_cols pred =
    let in_left c = List.mem c left_cols and in_right c = List.mem c right_cols in
    List.fold_left
      (fun acc e ->
        match e with
        | Ra.Binop (Ra.Eq, Ra.Col a, Ra.Col b) when in_left a && in_right b ->
          { acc with equi = (a, b) :: acc.equi }
        | Ra.Binop (Ra.Eq, Ra.Col a, Ra.Col b) when in_right a && in_left b ->
          { acc with equi = (b, a) :: acc.equi }
        | e -> { acc with residual = e :: acc.residual })
      { equi = []; residual = [] } (conjuncts pred)

  (* probing plans: recognize (Select? (Scan (Base|Old_of))) *)

  type probe_side = {
    p_table : string;
    p_old : bool;
    p_renames : (string * string) list;  (* source col -> output col *)
    p_filter : Ra.expr option;  (* over output columns *)
  }

  let as_probe_side = function
    | Ra.Scan (Ra.Base t, renames) ->
      Some { p_table = t; p_old = false; p_renames = renames; p_filter = None }
    | Ra.Scan (Ra.Old_of t, renames) ->
      Some { p_table = t; p_old = true; p_renames = renames; p_filter = None }
    | Ra.Select (p, Ra.Scan (Ra.Base t, renames)) ->
      Some { p_table = t; p_old = false; p_renames = renames; p_filter = Some p }
    | Ra.Select (p, Ra.Scan (Ra.Old_of t, renames)) ->
      Some { p_table = t; p_old = true; p_renames = renames; p_filter = Some p }
    | _ -> None

  (* Given equi pairs (outer col, inner output col), pick a probe strategy:
     - full PK coverage: keyed lookup
     - a single indexed column: index lookup, remaining equi pairs as filters *)
  type probe_strategy =
    | Probe_pk of (string * string) list  (* (outer col, pk source col) in PK order *)
    | Probe_index of string * string  (* (outer col, indexed source col) *)

  let probe_strategy tbl side equi =
    let schema = Table.schema tbl in
    let source_of output =
      List.find_map (fun (s, o) -> if o = output then Some s else None) side.p_renames
    in
    let equi_src =
      List.filter_map
        (fun (outer, inner) ->
          match source_of inner with Some s -> Some (outer, s) | None -> None)
        equi
    in
    let pk = schema.Schema.primary_key in
    let pk_pairs =
      List.map (fun k -> (List.assoc_opt k (List.map (fun (o, s) -> (s, o)) equi_src), k)) pk
    in
    if pk <> [] && List.for_all (fun (o, _) -> o <> None) pk_pairs then
      Some (Probe_pk (List.map (fun (o, k) -> (Option.get o, k)) pk_pairs))
    else
      match
        List.find_opt (fun (_, s) -> Table.has_index tbl s) equi_src
      with
      | Some (outer, s) -> Some (Probe_index (outer, s))
      | None -> None
end

open Planner

(* --- evaluation --- *)

let op_label : Ra.t -> string = function
  | Ra.Shared _ -> "op:shared"
  | Ra.Scan _ -> "op:scan"
  | Ra.Values _ -> "op:values"
  | Ra.Select _ -> "op:select"
  | Ra.Project _ -> "op:project"
  | Ra.Join _ -> "op:join"
  | Ra.Group_by _ -> "op:group_by"
  | Ra.Union _ -> "op:union"
  | Ra.Distinct _ -> "op:distinct"
  | Ra.Order_by _ -> "op:order_by"

(* Every node records its output cardinality under an "op:" key, giving the
   interpreter the same per-operator row accounting the compiled executor
   keeps in its annotation tree. *)
let rec eval ctx (plan : Ra.t) : rel =
  let rel = eval_node ctx plan in
  count_scan ctx.scan_stats (op_label plan) (List.length rel.rows);
  rel

and eval_node ctx (plan : Ra.t) : rel =
  match plan with
  | Ra.Shared (id, input) -> (
    match Hashtbl.find_opt ctx.shared_memo id with
    | Some rel -> rel
    | None ->
      let rel = eval ctx input in
      Hashtbl.add ctx.shared_memo id rel;
      rel)
  | Ra.Scan (src, renames) -> apply_renames (source_rel ctx src) renames
  | Ra.Values (cols, rows) -> { cols = Array.of_list cols; rows }
  | Ra.Select (pred, input) ->
    let rel = eval ctx input in
    let f = compile_pred (colmap rel.cols) pred in
    { rel with rows = List.filter f rel.rows }
  | Ra.Project (defs, input) ->
    let rel = eval ctx input in
    let m = colmap rel.cols in
    let fs = List.map (fun (_, e) -> compile_expr m e) defs in
    { cols = Array.of_list (List.map fst defs);
      rows = List.map (fun row -> Array.of_list (List.map (fun f -> f row) fs)) rel.rows;
    }
  | Ra.Join (kind, pred, left, right) -> eval_join ctx kind pred left right
  | Ra.Group_by (keys, aggs, input) -> eval_group_by ctx keys aggs input
  | Ra.Union { all; inputs } ->
    let rels = List.map (eval ctx) inputs in
    let cols =
      match rels with
      | [] -> invalid_arg "Ra_eval: empty union"
      | r :: _ -> r.cols
    in
    List.iter
      (fun r ->
        if Array.length r.cols <> Array.length cols then
          invalid_arg "Ra_eval: union arity mismatch")
      rels;
    let rows = List.concat_map (fun r -> r.rows) rels in
    let rows =
      if all then rows
      else begin
        let seen = Row_tbl.create 64 in
        List.filter
          (fun r ->
            if Row_tbl.mem seen r then false
            else begin
              Row_tbl.replace seen r ();
              true
            end)
          rows
      end
    in
    { cols; rows }
  | Ra.Distinct input ->
    let rel = eval ctx input in
    let seen = Row_tbl.create 64 in
    { rel with
      rows =
        List.filter
          (fun r ->
            if Row_tbl.mem seen r then false
            else begin
              Row_tbl.replace seen r ();
              true
            end)
          rel.rows;
    }
  | Ra.Order_by (keys, input) ->
    let rel = eval ctx input in
    let m = colmap rel.cols in
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
    { rel with rows = List.stable_sort cmp rel.rows }

and eval_group_by ctx keys aggs input =
  let rel = eval ctx input in
  let m = colmap rel.cols in
  let key_slots = List.map (slot m) keys in
  let agg_fs =
    List.map
      (fun (_, a) ->
        match a with
        | Ra.Count_star -> `Count_star
        | Ra.Count e -> `Count (compile_expr m e)
        | Ra.Sum e -> `Sum (compile_expr m e)
        | Ra.Min e -> `Min (compile_expr m e)
        | Ra.Max e -> `Max (compile_expr m e)
        | Ra.Avg e -> `Avg (compile_expr m e))
      aggs
  in
  let groups : Value.t array list ref Row_tbl.t = Row_tbl.create 64 in
  let order = ref [] in
  List.iter
    (fun row ->
      let key = Array.of_list (List.map (fun i -> row.(i)) key_slots) in
      match Row_tbl.find_opt groups key with
      | Some cell -> cell := row :: !cell
      | None ->
        Row_tbl.replace groups key (ref [ row ]);
        order := key :: !order)
    rel.rows;
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
      let vals = List.filter_map (fun r -> let v = f r in if Value.is_null v then None else Some (Value.to_float v)) rows in
      if vals = [] then Value.Null
      else Value.Float (List.fold_left ( +. ) 0.0 vals /. float_of_int (List.length vals))
  in
  let out_rows =
    if keys = [] then begin
      (* Scalar aggregate: exactly one output row, even over empty input. *)
      let rows = rel.rows in
      [ Array.of_list (List.map (compute_agg rows) agg_fs) ]
    end
    else
      List.rev_map
        (fun key ->
          let rows = !(Row_tbl.find groups key) in
          Array.append key (Array.of_list (List.map (compute_agg rows) agg_fs)))
        !order
  in
  { cols = Array.of_list (keys @ List.map fst aggs); rows = out_rows }

and eval_join ctx kind pred left right =
  let left_cols = Ra.columns left and right_cols = Ra.columns right in
  let { equi; residual } = split_join_pred ~left_cols ~right_cols pred in
  (* Try an index-nested-loop join with the right side as inner. *)
  let inl =
    if equi = [] then None
    else
      match as_probe_side right with
      | None -> None
      | Some side ->
        let tbl = Database.get_table ctx.db side.p_table in
        Option.map (fun strat -> (side, tbl, strat)) (probe_strategy tbl side equi)
  in
  match inl, kind with
  | Some (side, tbl, strat), (Inner | Left_outer | Left_anti) ->
    eval_inl_join ctx kind ~left ~equi ~residual side tbl strat
  | _ -> eval_hash_join ctx kind pred ~equi ~residual left right

and eval_inl_join ctx kind ~left ~equi ~residual side tbl strat =
  let lrel = eval ctx left in
  let lmap = colmap lrel.cols in
  let schema = Table.schema tbl in
  (* Δ/∇ patches for Old_of probing. *)
  let delta, nabla = trans_for ctx side.p_table in
  let delta_set = if side.p_old then row_set delta else Row_tbl.create 1 in
  let rename_srcs = List.map fst side.p_renames in
  let rename_slots = List.map (Schema.col_index schema) rename_srcs in
  let project_source_row row = Array.of_list (List.map (fun i -> row.(i)) rename_slots) in
  let out_cols =
    match kind with
    | Inner | Left_outer -> Array.append lrel.cols (Array.of_list (List.map snd side.p_renames))
    | Left_anti -> lrel.cols
    | Right_anti -> assert false
  in
  let out_map = colmap out_cols in
  let scan_filter =
    Option.map
      (fun p ->
        (* The scan-level filter mentions only right output columns, which are
           all present in out_cols for Inner; for Left_anti we evaluate the
           filter on a synthetic (left ++ right) row. *)
        let cols = Array.append lrel.cols (Array.of_list (List.map snd side.p_renames)) in
        compile_pred (colmap cols) p)
      side.p_filter
  in
  let residual_preds =
    List.map
      (fun e ->
        let cols = Array.append lrel.cols (Array.of_list (List.map snd side.p_renames)) in
        compile_pred (colmap cols) e)
      residual
  in
  ignore out_map;
  (* Remaining equi conditions (those not used by the probe) are re-checked
     uniformly below by comparing values directly. *)
  let equi_checks =
    List.map
      (fun (lc, rc) ->
        let li = slot lmap lc in
        let src = List.find (fun (_, o) -> o = rc) side.p_renames |> fst in
        let ri = Schema.col_index schema src in
        fun lrow srow -> Value.sql_eq lrow.(li) srow.(ri))
      equi
  in
  let candidates lrow =
    let base_candidates =
      match strat with
      | Probe_pk pairs ->
        let pk = List.map (fun (outer, _) -> lrow.(slot lmap outer)) pairs in
        (match Table.find_pk tbl pk with Some r -> [ r ] | None -> [])
      | Probe_index (outer, src_col) ->
        Table.lookup tbl ~column:src_col lrow.(slot lmap outer)
    in
    if not side.p_old then base_candidates
    else begin
      (* OLD-OF: drop post-state rows, add matching pre-state rows. *)
      let survivors = List.filter (fun r -> not (Row_tbl.mem delta_set r)) base_candidates in
      let extra =
        List.filter
          (fun r -> List.for_all (fun chk -> chk lrow r) equi_checks)
          nabla
      in
      survivors @ extra
    end
  in
  let match_row lrow srow =
    List.for_all (fun chk -> chk lrow srow) equi_checks
    &&
    let joined = Array.append lrow (project_source_row srow) in
    (match scan_filter with Some f -> f joined | None -> true)
    && List.for_all (fun p -> p joined) residual_preds
  in
  let out = ref [] in
  List.iter
    (fun lrow ->
      let matches = List.filter (match_row lrow) (candidates lrow) in
      match kind with
      | Inner ->
        List.iter
          (fun srow -> out := Array.append lrow (project_source_row srow) :: !out)
          matches
      | Left_outer ->
        if matches = [] then
          out :=
            Array.append lrow
              (Array.make (List.length side.p_renames) Value.Null)
            :: !out
        else
          List.iter
            (fun srow -> out := Array.append lrow (project_source_row srow) :: !out)
            matches
      | Left_anti -> if matches = [] then out := lrow :: !out
      | Right_anti -> assert false)
    lrel.rows;
  { cols = out_cols; rows = List.rev !out }

and eval_hash_join ctx kind pred ~equi ~residual left right =
  ignore pred;
  let lrel = eval ctx left and rrel = eval ctx right in
  let lmap = colmap lrel.cols and rmap = colmap rrel.cols in
  let l_slots = List.map (fun (lc, _) -> slot lmap lc) equi in
  let r_slots = List.map (fun (_, rc) -> slot rmap rc) equi in
  let key_of slots row = Array.of_list (List.map (fun i -> row.(i)) slots) in
  let joined_cols = Array.append lrel.cols rrel.cols in
  let residual_preds =
    List.map (fun e -> compile_pred (colmap joined_cols) e) residual
  in
  let passes lrow rrow =
    (* SQL equality on join keys: NULL joins with nothing. *)
    List.for_all2
      (fun li ri -> Value.sql_eq lrow.(li) rrow.(ri))
      l_slots r_slots
    &&
    let joined = Array.append lrow rrow in
    List.for_all (fun p -> p joined) residual_preds
  in
  if equi = [] then begin
    (* Nested loop for non-equi joins. *)
    let out = ref [] in
    (match kind with
    | Inner ->
      List.iter
        (fun lrow ->
          List.iter
            (fun rrow -> if passes lrow rrow then out := Array.append lrow rrow :: !out)
            rrel.rows)
        lrel.rows
    | Left_outer ->
      List.iter
        (fun lrow ->
          let matches = List.filter (passes lrow) rrel.rows in
          if matches = [] then
            out := Array.append lrow (Array.make (Array.length rrel.cols) Value.Null) :: !out
          else List.iter (fun rrow -> out := Array.append lrow rrow :: !out) matches)
        lrel.rows
    | Left_anti ->
      List.iter
        (fun lrow ->
          if not (List.exists (passes lrow) rrel.rows) then out := lrow :: !out)
        lrel.rows
    | Right_anti ->
      List.iter
        (fun rrow ->
          if not (List.exists (fun lrow -> passes lrow rrow) lrel.rows) then
            out := rrow :: !out)
        rrel.rows);
    let cols =
      match kind with
      | Inner | Left_outer -> joined_cols
      | Left_anti -> lrel.cols
      | Right_anti -> rrel.cols
    in
    { cols; rows = List.rev !out }
  end
  else begin
    (* Hash join: build on the right. *)
    let index : Value.t array list ref Row_tbl.t = Row_tbl.create 64 in
    List.iter
      (fun rrow ->
        let key = key_of r_slots rrow in
        if not (Array.exists Value.is_null key) then begin
          match Row_tbl.find_opt index key with
          | Some cell -> cell := rrow :: !cell
          | None -> Row_tbl.replace index key (ref [ rrow ])
        end)
      rrel.rows;
    let probe lrow =
      let key = key_of l_slots lrow in
      if Array.exists Value.is_null key then []
      else
        match Row_tbl.find_opt index key with
        | None -> []
        | Some cell -> List.filter (passes lrow) !cell
    in
    match kind with
    | Inner ->
      let out = ref [] in
      List.iter
        (fun lrow ->
          List.iter (fun rrow -> out := Array.append lrow rrow :: !out) (probe lrow))
        lrel.rows;
      { cols = joined_cols; rows = List.rev !out }
    | Left_outer ->
      let out = ref [] in
      List.iter
        (fun lrow ->
          match probe lrow with
          | [] ->
            out := Array.append lrow (Array.make (Array.length rrel.cols) Value.Null) :: !out
          | matches ->
            List.iter (fun rrow -> out := Array.append lrow rrow :: !out) matches)
        lrel.rows;
      { cols = joined_cols; rows = List.rev !out }
    | Left_anti ->
      { cols = lrel.cols; rows = List.filter (fun lrow -> probe lrow = []) lrel.rows }
    | Right_anti ->
      (* Build on the left instead. *)
      let lindex : Value.t array list ref Row_tbl.t = Row_tbl.create 64 in
      List.iter
        (fun lrow ->
          let key = key_of l_slots lrow in
          if not (Array.exists Value.is_null key) then begin
            match Row_tbl.find_opt lindex key with
            | Some cell -> cell := lrow :: !cell
            | None -> Row_tbl.replace lindex key (ref [ lrow ])
          end)
        lrel.rows;
      let matched rrow =
        let key = key_of r_slots rrow in
        (not (Array.exists Value.is_null key))
        &&
        match Row_tbl.find_opt lindex key with
        | None -> false
        | Some cell -> List.exists (fun lrow -> passes lrow rrow) !cell
      in
      { cols = rrel.cols; rows = List.filter (fun r -> not (matched r)) rrel.rows }
  end
