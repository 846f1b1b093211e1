module Op = Xqgm.Op
module Expr = Xqgm.Expr
module Keys = Xqgm.Keys
module Eval = Xqgm.Eval
module Value = Relkit.Value
module Ra = Relkit.Ra

exception Unsupported of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Unsupported msg)) fmt

type view_tree = {
  elem_tag : string;
  op : Op.t;
  node_col : string;
  key : string list;
  fields : (string * string) list;
  corr : string list;
  children : view_tree list;
}

type view = {
  view_name : string;
  definition : Ast.expr;
  tree : view_tree;
}

(* A level as compiled bottom-up, before its ancestors' predicates apply:
   [lv_tree]'s op, like its children's, still holds every row of the level's
   block.  [lv_rows] are the level's iteration rows that pass its own
   [where], carrying only the aggregates that [where] reads and no element
   constructor; [lv_subs] pairs each child level with its correlation
   (child column, expression over [lv_rows]). *)
type level = {
  lv_tree : view_tree;
  lv_rows : Op.t;
  lv_subs : (level * (string * Expr.t) list) list;
}

(* --- environment --- *)

type binding =
  | Atom of string  (* scalar column *)
  | Row of {
      table : string;
      cols : (string * string) list;  (* field -> column *)
    }
  | Seq of seq_def
  | Alias of Ast.expr  (* scalar let *)

and seq_def = {
  sd_table : string;
  sd_pred : Ast.expr option;
}



let fresh_prefix =
  let n = ref 0 in
  fun base ->
    incr n;
    Printf.sprintf "%s%d$" base !n

let cmp_op : Ast.cmp -> Ra.binop = function
  | Ast.Eq -> Ra.Eq
  | Ast.Neq -> Ra.Neq
  | Ast.Lt -> Ra.Lt
  | Ast.Le -> Ra.Le
  | Ast.Gt -> Ra.Gt
  | Ast.Ge -> Ra.Ge

let arith_op : Ast.arith -> Ra.binop = function
  | Ast.Add -> Ra.Add
  | Ast.Sub -> Ra.Sub
  | Ast.Mul -> Ra.Mul
  | Ast.Div -> Ra.Div
  | Ast.Mod -> Ra.Mod

let rec conjuncts = function
  | Ast.And (a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

(* --- scalar compilation --- *)

(* [aggs] rewrites whole subexpressions (aggregate calls, nested FLWORs) to
   columns introduced by demand instantiation; matching is structural. *)
let rec compile_scalar ~env ~aggs (e : Ast.expr) : Expr.t =
  match List.assoc_opt e aggs with
  | Some col -> Expr.Col col
  | None -> (
    match e with
    | Ast.Lit v -> Expr.Const v
    | Ast.Cmp (op, a, b) ->
      Expr.Binop (cmp_op op, compile_scalar ~env ~aggs a, compile_scalar ~env ~aggs b)
    | Ast.Arith (op, a, b) ->
      Expr.Binop (arith_op op, compile_scalar ~env ~aggs a, compile_scalar ~env ~aggs b)
    | Ast.And (a, b) ->
      Expr.Binop (Ra.And, compile_scalar ~env ~aggs a, compile_scalar ~env ~aggs b)
    | Ast.Or (a, b) ->
      Expr.Binop (Ra.Or, compile_scalar ~env ~aggs a, compile_scalar ~env ~aggs b)
    | Ast.Not e -> Expr.Not (compile_scalar ~env ~aggs e)
    | Ast.Path p -> scalar_of_path ~env ~aggs p
    | Ast.Call _ -> fail "aggregate %s outside a supported position" (Ast.expr_to_string e)
    | Ast.Quantified _ ->
      fail "quantified expression outside a supported position"
    | Ast.Elem _ | Ast.Flwor _ ->
      fail "%s is not a scalar expression" (Ast.expr_to_string e))

and scalar_of_path ~env ~aggs (p : Ast.path) : Expr.t =
  match p.Ast.root with
  | Ast.R_view _ -> fail "unbound view path %s in a scalar position" (Ast.path_to_string p)
  | Ast.R_var v -> (
    match List.assoc_opt v env with
    | None -> fail "unbound variable $%s" v
    | Some (Atom col) -> (
      match p.Ast.steps with
      | [] -> Expr.Col col
      | _ -> fail "steps after the scalar variable $%s" v)
    | Some (Alias e) -> (
      match p.Ast.steps with
      | [] -> compile_scalar ~env ~aggs e
      | _ -> fail "steps after the scalar let $%s" v)
    | Some (Row { cols; _ }) -> (
      match p.Ast.steps with
      | [ { Ast.axis = Ast.Child | Ast.Self; name; predicate = None } ] -> (
        match List.assoc_opt name cols with
        | Some col -> Expr.Col col
        | None -> fail "row variable $%s has no column %S" v name)
      | _ -> fail "unsupported path %s over a row variable" (Ast.path_to_string p))
    | Some (Seq _) -> fail "sequence variable $%s used as a scalar" v)

(* --- for-clause sources --- *)

type source =
  | Src_rows of string * Ast.expr option  (* table, row predicate *)
  | Src_distinct of string * string * Ast.expr option  (* table, field, pred *)
  | Src_seq of string

let classify_source ~env (e : Ast.expr) : source =
  match e with
  | Ast.Path { root = Ast.R_view _; steps } -> (
    match steps with
    | [ { Ast.name = t; predicate = None; _ }; { Ast.name = "row"; predicate = p; _ } ] ->
      Src_rows (t, p)
    | _ -> fail "unsupported view path %s (expected view(...)/table/row)" (Ast.expr_to_string e))
  | Ast.Call ("distinct", [ Ast.Path { root = Ast.R_view _; steps } ]) -> (
    match steps with
    | [ { Ast.name = t; predicate = None; _ };
        { Ast.name = "row"; predicate = p; _ };
        { Ast.name = f; predicate = None; _ };
      ] ->
      Src_distinct (t, f, p)
    | _ -> fail "unsupported distinct() source")
  | Ast.Path { root = Ast.R_var v; steps = [] } -> (
    match List.assoc_opt v env with
    | Some (Seq _) -> Src_seq v
    | _ -> fail "$%s is not a sequence variable" v)
  | _ -> fail "unsupported for-clause source %s" (Ast.expr_to_string e)

(* --- block instantiation --- *)

(* The result of instantiating a sequence variable: its rows as an operator
   plus the correlation conjuncts linking it to the outer iteration. *)
type block = {
  b_op : Op.t;
  b_cols : (string * string) list;
  b_key : string list;
  b_corr : (string * Expr.t) list;  (* (block column, outer scalar) *)
}

let rec instantiate ~schema_of ~env (sd : seq_def) : block =
  let schema = schema_of sd.sd_table in
  let prefix = fresh_prefix sd.sd_table in
  let cols = List.map (fun c -> (c, prefix ^ c)) (Relkit.Schema.column_names schema) in
  let op = Op.table sd.sd_table cols in
  let block = { b_op = op; b_cols = cols; b_key = Keys.canonical_key ~schema_of op; b_corr = [] } in
  match sd.sd_pred with
  | None -> block
  | Some pred ->
    List.fold_left (fun b conj -> apply_block_conjunct ~schema_of ~env b conj) block
      (conjuncts pred)

and apply_block_conjunct ~schema_of ~env block conj =
  let self_field = function
    | Ast.Path { root = Ast.R_var "."; steps = [ { Ast.name; predicate = None; _ } ] } ->
      Some name
    | _ -> None
  in
  let block_col f =
    match List.assoc_opt f block.b_cols with
    | Some c -> c
    | None -> fail "no column %S in the sequence rows" f
  in
  let as_outer_scalar e =
    match compile_scalar ~env ~aggs:[] e with
    | expr -> Some expr
    | exception Unsupported _ -> None
  in
  match conj with
  | Ast.Cmp (op, a, b) -> (
    let field, other, op =
      match self_field a, self_field b with
      | Some f, _ -> (f, b, op)
      | None, Some f ->
        (* flip the comparison *)
        let flipped =
          match op with
          | Ast.Lt -> Ast.Gt
          | Ast.Le -> Ast.Ge
          | Ast.Gt -> Ast.Lt
          | Ast.Ge -> Ast.Le
          | (Ast.Eq | Ast.Neq) as o -> o
        in
        (f, a, flipped)
      | None, None -> fail "predicate %s does not reference the row" (Ast.expr_to_string conj)
    in
    let col = block_col field in
    match other with
    | Ast.Lit v ->
      { block with
        b_op = Op.select ~pred:(Expr.Binop (cmp_op op, Expr.Col col, Expr.Const v)) block.b_op;
      }
    | Ast.Path { root = Ast.R_var u; steps = [ { Ast.name = g; predicate = None; _ } ] }
      when match List.assoc_opt u env with Some (Seq _) -> true | _ -> false -> (
      (* chained sequence: join the other block in (existential semantics over
         its key) *)
      if op <> Ast.Eq then fail "only equality chains between sequences are supported";
      match List.assoc_opt u env with
      | Some (Seq sd_u) ->
        let ub = instantiate ~schema_of ~env sd_u in
        let joined =
          Op.join
            ~pred:(Expr.eq (Expr.Col col) (Expr.Col (List.assoc g ub.b_cols)))
            block.b_op ub.b_op
        in
        { block with
          b_op = joined;
          b_key = block.b_key @ ub.b_key;
          b_corr = block.b_corr @ ub.b_corr;
        }
      | _ -> assert false)
    | other -> (
      match as_outer_scalar other with
      | Some outer ->
        if op <> Ast.Eq then
          fail "correlated predicate %s must be an equality" (Ast.expr_to_string conj);
        { block with b_corr = (col, outer) :: block.b_corr }
      | None -> fail "unsupported predicate %s" (Ast.expr_to_string conj)))
  | _ -> fail "unsupported predicate %s" (Ast.expr_to_string conj)

(* --- demand analysis --- *)

type demand = {
  dvar : string;
  mutable want_count : bool;
  mutable scalar_aggs : (Ast.expr * string * string) list;
      (* (original call, fn, field) *)
  mutable frag : Ast.expr option;  (* nested FLWOR *)
}

let rec collect_demands ~env demands (e : Ast.expr) =
  let demand_for v =
    match List.find_opt (fun d -> d.dvar = v) !demands with
    | Some d -> d
    | None ->
      let d = { dvar = v; want_count = false; scalar_aggs = []; frag = None } in
      demands := !demands @ [ d ];
      d
  in
  let is_seq v = match List.assoc_opt v env with Some (Seq _) -> true | _ -> false in
  match e with
  | Ast.Call (("count" | "exists"), [ Ast.Path { root = Ast.R_var v; steps = [] } ])
    when is_seq v ->
    (demand_for v).want_count <- true
  | Ast.Call
      ( (("sum" | "min" | "max" | "avg") as fn),
        [ Ast.Path { root = Ast.R_var v; steps = [ { Ast.name = f; predicate = None; _ } ] } ]
      )
    when is_seq v ->
    let d = demand_for v in
    d.scalar_aggs <- d.scalar_aggs @ [ (e, fn, f) ]
  | Ast.Flwor { clauses = Ast.For (_, Ast.Path { root = Ast.R_var v; steps = [] }) :: _; _ }
    when is_seq v ->
    let d = demand_for v in
    (match d.frag with
    | Some other when other != e -> fail "variable $%s is iterated more than once" v
    | _ -> d.frag <- Some e)
  | Ast.Lit _ | Ast.Path _ -> ()
  | Ast.Cmp (_, a, b) | Ast.Arith (_, a, b) | Ast.And (a, b) | Ast.Or (a, b) ->
    collect_demands ~env demands a;
    collect_demands ~env demands b
  | Ast.Not e -> collect_demands ~env demands e
  | Ast.Call (_, args) -> List.iter (collect_demands ~env demands) args
  | Ast.Quantified { source = Ast.Path { root = Ast.R_var _; steps = [] }; _ } ->
    (* handled separately by the where compiler *)
    ()
  | Ast.Quantified _ -> fail "quantifier source must be a sequence variable"
  | Ast.Elem { attrs; content; _ } ->
    List.iter (fun (_, e) -> collect_demands ~env demands e) attrs;
    List.iter
      (function
        | Ast.C_text _ -> ()
        | Ast.C_elem e | Ast.C_enclosed e -> collect_demands ~env demands e)
      content
  | Ast.Flwor _ -> fail "nested FLWOR must iterate a bound sequence variable"

(* Is a count-comparison conjunct satisfied only with at least one row?  Then
   the grouped subquery can be inner-joined. *)
let positive_count_conjunct = function
  | Ast.Cmp (op, Ast.Call ("count", _), Ast.Lit (Value.Int k)) -> (
    match op with
    | Ast.Ge -> k >= 1
    | Ast.Gt -> k >= 0
    | Ast.Eq -> k >= 1
    | Ast.Neq | Ast.Lt | Ast.Le -> false)
  | Ast.Cmp (op, Ast.Lit (Value.Int k), Ast.Call ("count", _)) -> (
    match op with
    | Ast.Le -> k >= 1
    | Ast.Lt -> k >= 0
    | Ast.Eq -> k >= 1
    | Ast.Neq | Ast.Gt | Ast.Ge -> false)
  | Ast.Call ("exists", _) -> true
  | _ -> false

(* --- the main worker --- *)

(* Compiles a FLWOR whose return is an element constructor into a level:
   one output tuple per element. *)
(* exists(e) in conditions desugars to count(e) >= 1 (and survives not(...)
   through the left-outer-join null handling of count comparisons) *)
let rec desugar_exists (e : Ast.expr) : Ast.expr =
  match e with
  | Ast.Call ("exists", [ arg ]) ->
    Ast.Cmp (Ast.Ge, Ast.Call ("count", [ arg ]), Ast.Lit (Relkit.Value.Int 1))
  | Ast.And (a, b) -> Ast.And (desugar_exists a, desugar_exists b)
  | Ast.Or (a, b) -> Ast.Or (desugar_exists a, desugar_exists b)
  | Ast.Not a -> Ast.Not (desugar_exists a)
  | Ast.Cmp (op, a, b) -> Ast.Cmp (op, desugar_exists a, desugar_exists b)
  | e -> e

let rec compile_level ?(keep = []) ~schema_of ~env ~cur (flwor : Ast.expr) : level =
  match flwor with
  | Ast.Flwor { clauses; where; return } ->
    let where = Option.map desugar_exists where in
    (* 1. iteration space *)
    let env, cur =
      List.fold_left
        (fun (env, cur) clause -> apply_clause ~schema_of (env, cur) clause)
        (env, cur) clauses
    in
    let cur =
      match cur with
      | Some c -> c
      | None -> fail "FLWOR without a for clause"
    in
    (* 2. demands from where and return; the where's own demands decide
       which aggregates the surviving rows carry *)
    let demands = ref [] and where_demands = ref [] in
    Option.iter (collect_demands ~env demands) where;
    Option.iter (collect_demands ~env where_demands) where;
    collect_demands ~env demands return;
    (* 3. instantiate each demanded sequence variable *)
    let inner_ok =
      match where with
      | None -> fun _ -> false
      | Some w ->
        fun v ->
          List.exists
            (fun conj ->
              positive_count_conjunct conj
              &&
              let mentions = ref false in
              let rec scan = function
                | Ast.Path { root = Ast.R_var u; _ } -> if u = v then mentions := true
                | Ast.Call (_, args) -> List.iter scan args
                | Ast.Cmp (_, a, b) | Ast.Arith (_, a, b) | Ast.And (a, b) | Ast.Or (a, b) ->
                  scan a;
                  scan b
                | Ast.Not e -> scan e
                | _ -> ()
              in
              scan conj;
              !mentions)
            (conjuncts w)
    in
    let aggs = ref [] in
    let outer_counts = ref [] in
    let row_outer_counts = ref [] in
    let children = ref [] in
    let count_fields = ref [] in
    let cur = ref cur and rows = ref cur in
    List.iter
      (fun d ->
        let sd =
          match List.assoc_opt d.dvar env with
          | Some (Seq sd) -> sd
          | _ -> assert false
        in
        let block = instantiate ~schema_of ~env sd in
        (* extend the block with the nested FLWOR's body, if iterated: a
           plain iteration compiles the item in place, sharing this block
           (and its aggregates) — the Figure 5 shape; a filtered / deeper
           nested loop is its own subtree over the extended block *)
        let block_op, block_rows, item =
          match d.frag with
          | None -> (block.b_op, block.b_op, None)
          | Some (Ast.Flwor { clauses = Ast.For (w, _) :: rest; where = bw; return = br } as f)
            ->
            let benv = (w, Row { table = sd.sd_table; cols = block.b_cols }) :: env in
            let keep_corr = List.map fst block.b_corr in
            let sub =
              if rest = [] && bw = None then
                compile_item ~keep:keep_corr ~schema_of ~env:benv ~cur:block.b_op br
              else
                compile_level ~keep:keep_corr ~schema_of ~env:benv ~cur:(Some block.b_op)
                  (Ast.Flwor { clauses = rest; where = bw; return = br })
            in
            let tree = { sub.lv_tree with corr = keep_corr } in
            children := !children @ [ ({ sub with lv_tree = tree }, block.b_corr) ];
            aggs := (f, ("frag", tree)) :: !aggs;
            (tree.op, sub.lv_rows, Some tree)
          | Some _ -> assert false
        in
        (* grouped aggregates over the (possibly extended) block *)
        let corr_cols = List.map fst block.b_corr in
        let group_aggs = ref [] and scalar_calls = ref [] in
        let cnt_col = fresh_prefix "cnt" in
        if d.want_count || (item <> None && not (inner_ok d.dvar)) then
          group_aggs := (cnt_col, Expr.Count) :: !group_aggs;
        List.iter
          (fun (call, fn, f) ->
            let col = fresh_prefix fn in
            let field_col =
              match List.assoc_opt f block.b_cols with
              | Some c -> c
              | None -> fail "aggregated field %S not found" f
            in
            let agg =
              match fn with
              | "sum" -> Expr.Sum (Expr.Col field_col)
              | "min" -> Expr.Min (Expr.Col field_col)
              | "max" -> Expr.Max (Expr.Col field_col)
              | "avg" -> Expr.Avg (Expr.Col field_col)
              | _ -> assert false
            in
            group_aggs := (col, agg) :: !group_aggs;
            scalar_calls := (col, call) :: !scalar_calls;
            aggs := (call, ("scalar", dummy_tree col)) :: !aggs)
          d.scalar_aggs;
        let frag_col = fresh_prefix "seq" in
        (match item with
        | Some tree ->
          group_aggs := (frag_col, Expr.Xml_frag (Expr.Col tree.node_col)) :: !group_aggs
        | None -> ());
        let order = match item with Some tree -> tree.key | None -> [] in
        let grouped = Op.group_by ~keys:corr_cols ~aggs:(List.rev !group_aggs) ~order block_op in
        let join_pred =
          Expr.and_ (List.map (fun (bc, outer) -> Expr.eq (Expr.Col bc) outer) block.b_corr)
        in
        let kind = if inner_ok d.dvar then Op.Inner else Op.Left_outer in
        cur := Op.join ~kind ~pred:join_pred !cur grouped;
        (* the surviving rows join only the aggregates the where reads *)
        let wd = List.find_opt (fun w -> w.dvar = d.dvar) !where_demands in
        let where_count = Option.fold ~none:false ~some:(fun w -> w.want_count) wd in
        let where_calls =
          Option.fold ~none:[] ~some:(fun w -> List.map (fun (c, _, _) -> c) w.scalar_aggs) wd
        in
        let row_aggs =
          List.filter
            (fun (col, agg) ->
              match agg with
              | Expr.Count -> where_count
              | Expr.Xml_frag _ -> false
              | _ -> List.mem (List.assoc col !scalar_calls) where_calls)
            (List.rev !group_aggs)
        in
        if kind = Op.Inner || row_aggs <> [] then
          rows :=
            Op.join ~kind ~pred:join_pred !rows
              (Op.group_by ~keys:corr_cols ~aggs:row_aggs block_rows);
        if where_count && kind = Op.Left_outer then
          row_outer_counts := (cnt_col, true) :: !row_outer_counts;
        let have_cnt = d.want_count || (item <> None && not (inner_ok d.dvar)) in
        if d.want_count then begin
          let count_ast =
            Ast.Call ("count", [ Ast.Path { root = Ast.R_var d.dvar; steps = [] } ])
          in
          aggs := (count_ast, ("count", dummy_tree cnt_col)) :: !aggs;
          outer_counts := (cnt_col, kind = Op.Left_outer) :: !outer_counts
        end;
        (* expose count(childtag) provenance whenever the count column exists,
           so trigger conditions like count(NEW_NODE/child) compile to it *)
        (if have_cnt then
           match item with
           | Some tree -> count_fields := (tree.elem_tag, cnt_col) :: !count_fields
           | None -> ());
        (* remember the fragment column for the return compiler *)
        match item with
        | Some tree ->
          aggs :=
            List.map
              (fun (k, (tag, t)) ->
                if tag = "frag" && t == tree then (k, ("fragcol", dummy_tree frag_col))
                else (k, (tag, t)))
              !aggs
        | None -> ())
      !demands;
    let agg_cols =
      List.filter_map
        (fun (k, (tag, t)) ->
          match tag with
          | "count" | "scalar" | "fragcol" -> Some (k, t.node_col)
          | _ -> None)
        !aggs
    in
    (* 4. where, over the element rows and over the surviving rows *)
    let apply_where outer_counts cur =
      match where with
      | None -> cur
      | Some w ->
        List.fold_left
          (fun c conj -> compile_where_conjunct ~schema_of ~env ~aggs:agg_cols ~outer_counts c conj)
          cur (conjuncts w)
    in
    let cur = apply_where !outer_counts !cur in
    (* 5. return *)
    (match return with
    | Ast.Elem _ ->
      { lv_tree =
          compile_return ~keep ~schema_of ~env ~aggs:agg_cols
            ~children:(List.map (fun (l, _) -> l.lv_tree) !children)
            ~count_fields:!count_fields ~cur return;
        lv_rows = apply_where !row_outer_counts !rows;
        lv_subs = !children;
      }
    | _ -> fail "return must be an element constructor")
  | _ -> fail "expected a FLWOR expression"

(* a placeholder view_tree used to thread plain columns through the aggs map *)
and dummy_tree col =
  { elem_tag = "";
    op = Op.table "!" [];
    node_col = col;
    key = [];
    fields = [];
    corr = [];
    children = [];
  }

and apply_clause ~schema_of (env, cur) = function
  | Ast.Let (v, e) -> (
    match e with
    | Ast.Path { root = Ast.R_view _; _ } | Ast.Call ("distinct", _) -> (
      match classify_source ~env e with
      | Src_rows (t, p) -> ((v, Seq { sd_table = t; sd_pred = p }) :: env, cur)
      | Src_distinct _ -> fail "let over distinct() is not supported"
      | Src_seq _ -> assert false)
    | scalar -> ((v, Alias scalar) :: env, cur))
  | Ast.For (v, e) -> (
    match classify_source ~env e with
    | Src_rows (t, pred) ->
      let schema = schema_of t in
      let prefix = fresh_prefix v in
      let cols = List.map (fun c -> (c, prefix ^ c)) (Relkit.Schema.column_names schema) in
      let t_op = Op.table t cols in
      let env = (v, Row { table = t; cols }) :: env in
      let joined =
        match cur with
        | None -> t_op
        | Some c -> Op.join ~pred:(Expr.Const (Value.Bool true)) c t_op
      in
      let joined =
        match pred with
        | None -> joined
        | Some p ->
          let penv = ("." , Row { table = t; cols }) :: env in
          let pred_expr =
            Expr.and_ (List.map (compile_scalar ~env:penv ~aggs:[]) (conjuncts p))
          in
          Op.select ~pred:pred_expr joined
      in
      (env, Some joined)
    | Src_distinct (t, f, pred) ->
      let schema = schema_of t in
      let prefix = fresh_prefix v in
      let cols = List.map (fun c -> (c, prefix ^ c)) (Relkit.Schema.column_names schema) in
      let t_op = Op.table t cols in
      let t_op =
        match pred with
        | None -> t_op
        | Some p ->
          let penv = [ (".", Row { table = t; cols }) ] in
          Op.select ~pred:(compile_scalar ~env:penv ~aggs:[] p) t_op
      in
      let vcol = prefix ^ f in
      ignore (List.assoc f cols);
      let distinct = Op.group_by ~keys:[ vcol ] ~aggs:[] t_op in
      let env = (v, Atom vcol) :: env in
      let joined =
        match cur with
        | None -> distinct
        | Some c -> Op.join ~pred:(Expr.Const (Value.Bool true)) c distinct
      in
      (env, Some joined)
    | Src_seq sv -> (
      match List.assoc_opt sv env with
      | Some (Seq sd) ->
        let block = instantiate ~schema_of ~env sd in
        let env = (v, Row { table = sd.sd_table; cols = block.b_cols }) :: env in
        let pred =
          Expr.and_ (List.map (fun (bc, outer) -> Expr.eq (Expr.Col bc) outer) block.b_corr)
        in
        let joined =
          match cur with
          | None ->
            if block.b_corr <> [] then fail "correlated sequence iterated at the top level";
            block.b_op
          | Some c -> Op.join ~pred c block.b_op
        in
        (env, Some joined)
      | _ -> assert false))

and compile_where_conjunct ~schema_of ~env ~aggs ~outer_counts cur conj =
  ignore schema_of;
  match conj with
  | Ast.Quantified { universal; var; source = Ast.Path { root = Ast.R_var v; steps = [] }; satisfies }
    -> (
    match List.assoc_opt v env with
    | Some (Seq sd) ->
      (* some: inner-join groups with >= 1 satisfying row;
         every: left-outer join groups of *violating* rows, keep NULLs *)
      let block = instantiate ~schema_of ~env sd in
      let benv = (var, Row { table = sd.sd_table; cols = block.b_cols }) :: env in
      let local =
        let p = if universal then Ast.Not satisfies else satisfies in
        compile_scalar ~env:benv ~aggs:[] p
      in
      let filtered = Op.select ~pred:local block.b_op in
      let corr_cols = List.map fst block.b_corr in
      let cnt = fresh_prefix "qcnt" in
      let grouped = Op.group_by ~keys:corr_cols ~aggs:[ (cnt, Expr.Count) ] filtered in
      let pred =
        Expr.and_ (List.map (fun (bc, outer) -> Expr.eq (Expr.Col bc) outer) block.b_corr)
      in
      if universal then
        Op.select
          ~pred:(Expr.Is_null (Expr.Col cnt))
          (Op.join ~kind:Op.Left_outer ~pred cur grouped)
      else Op.join ~kind:Op.Inner ~pred cur grouped
    | _ -> fail "quantifier source must be a sequence variable")
  | conj ->
    let expr = compile_scalar ~env ~aggs conj in
    (* counts joined through a left outer join may be NULL, meaning zero *)
    let expr =
      List.fold_left
        (fun e (cnt_col, outer) ->
          if not outer then e
          else
            Expr.Binop
              ( Ra.Or,
                Expr.Binop (Ra.And, Expr.Not (Expr.Is_null (Expr.Col cnt_col)), e),
                Expr.Binop
                  ( Ra.And,
                    Expr.Is_null (Expr.Col cnt_col),
                    Expr.map_cols (fun c -> c) e
                    |> subst_col cnt_col (Expr.Const (Value.Int 0)) ) )
        )
        expr outer_counts
    in
    Op.select ~pred:expr cur

and subst_col col replacement expr =
  let rec go = function
    | Expr.Col c when c = col -> replacement
    | Expr.Col c -> Expr.Col c
    | Expr.Const v -> Expr.Const v
    | Expr.Binop (op, a, b) -> Expr.Binop (op, go a, go b)
    | Expr.Not e -> Expr.Not (go e)
    | Expr.Is_null e -> Expr.Is_null (go e)
    | Expr.Elem { tag; attrs; content } ->
      Expr.Elem
        { tag;
          attrs = List.map (fun (k, e) -> (k, go e)) attrs;
          content = List.map go content;
        }
    | Expr.Node_eq (a, b) -> Expr.Node_eq (go a, go b)
  in
  go expr

(* Compile an item constructor for a block row (the body of a nested FLWOR
   with no further clauses). *)
and compile_item ?(keep = []) ~schema_of ~env ~cur (e : Ast.expr) : level =
  match e with
  | Ast.Elem _ ->
    { lv_tree = compile_return ~keep ~schema_of ~env ~aggs:[] ~children:[] ~count_fields:[] ~cur e;
      lv_rows = cur;
      lv_subs = [];
    }
  | Ast.Flwor _ -> compile_level ~keep ~schema_of ~env ~cur:(Some cur) e
  | _ -> fail "unsupported nested return %s" (Ast.expr_to_string e)

and compile_return ?(keep = []) ~schema_of ~env ~aggs ~children ~count_fields ~cur
    (e : Ast.expr) : view_tree =
  match e with
  | Ast.Elem { tag; attrs; content } ->
    let fields = ref [] in
    let attr_exprs =
      List.map
        (fun (k, ae) ->
          let compiled = compile_scalar ~env ~aggs ae in
          (match compiled with
          | Expr.Col c -> fields := ("@" ^ k, c) :: !fields
          | _ -> ());
          (k, compiled))
        attrs
    in
    let rec compile_content_item (c : Ast.content) : Expr.t list =
      match c with
      | Ast.C_text t -> [ Expr.Const (Value.String t) ]
      | Ast.C_enclosed (Ast.Path { root = Ast.R_var v; steps = [ { Ast.name = "*"; _ } ] })
        -> (
        (* $w slash star: one element per column of the row variable *)
        match List.assoc_opt v env with
        | Some (Row { cols; _ }) ->
          List.map
            (fun (f, col) ->
              fields := (f, col) :: !fields;
              Expr.Elem { tag = f; attrs = []; content = [ Expr.Col col ] })
            cols
        | _ -> fail "$%s/* requires a row variable" v)
      | Ast.C_enclosed e -> [ compile_scalar ~env ~aggs e ]
      | Ast.C_elem (Ast.Elem { tag = t2; attrs = a2; content = c2 }) ->
        let inner_attrs = List.map (fun (k, ae) -> (k, compile_scalar ~env ~aggs ae)) a2 in
        let inner_content = List.concat_map compile_content_item c2 in
        (* simple-field provenance: <t>{$x/f}</t> *)
        (match c2 with
        | [ Ast.C_enclosed pe ] -> (
          match compile_scalar ~env ~aggs pe with
          | Expr.Col col -> fields := (t2, col) :: !fields
          | _ -> ())
        | _ -> ());
        [ Expr.Elem { tag = t2; attrs = inner_attrs; content = inner_content } ]
      | Ast.C_elem _ -> fail "unexpected content"
    in
    let content_exprs = List.concat_map compile_content_item content in
    let key = Keys.canonical_key ~schema_of cur in
    (* the affected-key graphs follow *unminimized* keys through projections *)
    let full = Keys.full_key ~schema_of cur in
    let node_col = fresh_prefix (tag ^ "_elem") in
    let elem = Expr.Elem { tag; attrs = attr_exprs; content = content_exprs } in
    (* keys pass through; provenance columns are exposed for composition *)
    let extra =
      List.sort_uniq compare
        (List.map snd !fields @ List.map snd count_fields @ keep @ full)
    in
    let defs =
      List.map (fun k -> (k, Expr.Col k)) key
      @ List.filter_map
          (fun c -> if List.mem c key then None else Some (c, Expr.Col c))
          extra
      @ [ (node_col, elem) ]
    in
    let op = Op.project ~defs cur in
    { elem_tag = tag;
      op;
      node_col;
      key;
      fields =
        List.rev !fields
        @ List.map (fun (tag, col) -> ("count(" ^ tag ^ ")", col)) count_fields;
      corr = [];
      children;
    }
  | _ -> fail "return must be an element constructor"

(* --- ancestor visibility --- *)

(* [op] restricted to the rows whose correlation columns [corr] (column of
   [op], expression over [by]) match a row of [by]; an uncorrelated child
   ([corr] empty) keeps every row.  It is written as a left outer join with
   the distinct correlation values that keeps the matched rows, so the
   affected-key graphs re-key it to [op]'s own key as they do every nesting
   join; it sits above [op]'s element constructor, so that constructor
   stays the one the document's own graph holds. *)
let semijoin op ~by corr =
  let named = List.map (fun (c, e) -> (c, fresh_prefix "in", e)) corr in
  let values =
    (* [by]'s columns pass through so the projection keeps [by]'s key *)
    Op.project
      ~defs:(List.map (fun (_, v, e) -> (v, e)) named @ List.map (fun c -> (c, Expr.Col c)) (Op.cols by))
      by
  in
  let distinct = Op.group_by ~keys:(List.map (fun (_, v, _) -> v) named) ~aggs:[] values in
  let pred = Expr.and_ (List.map (fun (c, v, _) -> Expr.eq (Expr.Col c) (Expr.Col v)) named) in
  let matched =
    match named with
    | (_, v, _) :: _ -> Expr.Not (Expr.Is_null (Expr.Col v))
    | [] -> Expr.Const (Value.Bool true)
  in
  Op.project
    ~defs:(List.map (fun c -> (c, Expr.Col c)) (Op.cols op))
    (Op.select ~pred:matched (Op.join ~kind:Op.Left_outer ~pred op distinct))

(* A nested element is in the document exactly when its ancestors'
   predicates hold (Liu et al.'s visibility condition): top-down, each child
   level's op and surviving rows are restricted to its parent's restricted
   surviving rows.  Every reader of a level — triggers, view rows, view DML
   — sees the document's elements and no others; the document itself is
   built from the unrestricted levels, whose parents already filter their
   groups. *)
let rec restrict ?within (lv : level) : view_tree =
  let op, rows =
    match within with
    | None -> (lv.lv_tree.op, lv.lv_rows)
    | Some (by, corr) -> (semijoin lv.lv_tree.op ~by corr, semijoin lv.lv_rows ~by corr)
  in
  { lv.lv_tree with
    op;
    children = List.map (fun (sub, corr) -> restrict ~within:(rows, corr) sub) lv.lv_subs;
  }

(* --- the document element --- *)

let compile_view ~schema_of ~name (definition : Ast.expr) : view =
  match definition with
  | Ast.Elem { tag; attrs; content } ->
    if attrs <> [] then fail "attributes on the document element are not supported";
    let frags = ref [] in
    let children = ref [] in
    let content_exprs =
      List.concat_map
        (fun (c : Ast.content) ->
          match c with
          | Ast.C_text t -> [ Expr.Const (Value.String t) ]
          | Ast.C_enclosed (Ast.Flwor _ as f) ->
            let tree = restrict (compile_level ~schema_of ~env:[] ~cur:None f) in
            let frag_col = fresh_prefix "docseq" in
            frags := (frag_col, tree) :: !frags;
            children := !children @ [ tree ];
            [ Expr.Col frag_col ]
          | Ast.C_elem (Ast.Elem _) -> fail "static child elements are not supported"
          | _ -> fail "unsupported document content")
        content
    in
    (match !frags with
    | [] -> fail "the document element must contain a FLWOR"
    | frags_list ->
      let grouped =
        match frags_list with
        | [ (frag_col, tree) ] ->
          Op.group_by ~keys:[]
            ~aggs:[ (frag_col, Expr.Xml_frag (Expr.Col tree.node_col)) ]
            ~order:tree.key tree.op
        | _ -> fail "multiple FLWORs under the document element are not supported"
      in
      let node_col = fresh_prefix "doc_elem" in
      let op =
        Op.project
          ~defs:[ (node_col, Expr.Elem { tag; attrs = []; content = content_exprs }) ]
          grouped
      in
      { view_name = name;
        definition;
        tree =
          { elem_tag = tag;
            op;
            node_col;
            key = [];
            fields = [];
            corr = [];
            children = !children;
          };
      })
  | _ -> fail "a view definition must be a document element constructor"

let view_of_string ~schema_of ~name text =
  compile_view ~schema_of ~name (Parser.parse_expr text)

let materialize ctx view =
  let rel = Eval.eval ctx view.tree.op in
  match rel.Eval.rows with
  | [ row ] -> (
    match row.(Eval.col_index rel view.tree.node_col) with
    | Xqgm.Xval.Node n -> n
    | v -> fail "document evaluation produced %s" (Xqgm.Xval.to_string v))
  | rows -> fail "document evaluation produced %d rows" (List.length rows)
