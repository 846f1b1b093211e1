module Op = Xqgm.Op
module Expr = Xqgm.Expr
module Xval = Xqgm.Xval
module Eval = Xqgm.Eval
module Ra = Relkit.Ra
module Ra_opt = Relkit.Ra_opt
module Ra_eval = Relkit.Ra_eval
module Value = Relkit.Value
module Xml = Xmlkit.Xml

exception Not_pushable of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Not_pushable msg)) fmt

type atom =
  | A_col of string
  | A_const of Value.t

type template =
  | T_elem of {
      tag : string;
      attrs : (string * atom) list;
      content : template list;
    }
  | T_atom of atom
  | T_frag of frag

and frag = {
  f_plan : Ra.t;
  f_template : template;
  f_link : (string * string) list;
  f_order : string list;
}

type t = {
  plan : Ra.t;
  out_cols : string list;
  xml : (string * template) list;
}

(* --- shredding --- *)

let source_of_binding table = function
  | Op.Post -> Ra.Base table
  | Op.Pre -> Ra.Old_of table
  | Op.Delta -> Ra.Delta table
  | Op.Nabla -> Ra.Nabla table

(* Scalar expression translation; XML constructs are rejected. *)
let rec translate_scalar ~xml_cols (e : Expr.t) : Ra.expr =
  match e with
  | Expr.Col c ->
    if List.mem_assoc c xml_cols then fail "column %S is XML-valued in a scalar position" c;
    Ra.Col c
  | Expr.Const v -> Ra.Const v
  | Expr.Binop (op, a, b) ->
    Ra.Binop (op, translate_scalar ~xml_cols a, translate_scalar ~xml_cols b)
  | Expr.Not e -> Ra.Not (translate_scalar ~xml_cols e)
  | Expr.Is_null e -> Ra.Is_null (translate_scalar ~xml_cols e)
  | Expr.Elem _ -> fail "element constructor in a scalar position"
  | Expr.Node_eq _ -> fail "node comparison has no relational translation"

let atom_of_expr ~xml_cols = function
  | Expr.Col c ->
    if List.mem_assoc c xml_cols then fail "XML column %S used as an atomic value" c;
    A_col c
  | Expr.Const v -> A_const v
  | e -> fail "computed value %s in an XML template (bind it to a column first)" (Expr.to_string e)

let rec template_of_expr ~xml_cols (e : Expr.t) : template =
  match e with
  | Expr.Col c -> (
    match List.assoc_opt c xml_cols with
    | Some t -> t
    | None -> T_atom (A_col c))
  | Expr.Const v -> T_atom (A_const v)
  | Expr.Elem { tag; attrs; content } ->
    T_elem
      { tag;
        attrs = List.map (fun (k, e) -> (k, atom_of_expr ~xml_cols e)) attrs;
        content = List.map (template_of_expr ~xml_cols) content;
      }
  | e -> fail "expression %s cannot appear in XML content" (Expr.to_string e)

let hidden_col =
  let n = ref 0 in
  fun c ->
    incr n;
    Printf.sprintf "h%d$%s" !n c

(* Rename the *current level's* column references of a template (atoms and
   parent sides of fragment links); child levels are untouched. *)
let rec rename_template_cols m tpl =
  let ren c = match List.assoc_opt c m with Some c' -> c' | None -> c in
  match tpl with
  | T_atom (A_col c) -> T_atom (A_col (ren c))
  | T_atom (A_const v) -> T_atom (A_const v)
  | T_elem { tag; attrs; content } ->
    T_elem
      { tag;
        attrs =
          List.map
            (fun (k, a) -> (k, match a with A_col c -> A_col (ren c) | a -> a))
            attrs;
        content = List.map (rename_template_cols m) content;
      }
  | T_frag f ->
    T_frag { f with f_link = List.map (fun (p, c) -> (ren p, c)) f.f_link }

(* Columns of the *current level's plan* that a template needs: atom columns
   plus the parent side of immediate fragment links.  Child templates resolve
   against their own level. *)
let rec template_plan_cols = function
  | T_atom (A_col c) -> [ c ]
  | T_atom (A_const _) -> []
  | T_elem { attrs; content; _ } ->
    List.filter_map (fun (_, a) -> match a with A_col c -> Some c | A_const _ -> None) attrs
    @ List.concat_map template_plan_cols content
  | T_frag f -> List.map fst f.f_link

let rec shred (op : Op.t) : t =
  match op.Op.node with
  | Op.Table { table; binding; cols } ->
    { plan = Ra.Scan (source_of_binding table binding, cols);
      out_cols = List.map snd cols;
      xml = [];
    }
  | Op.Select { input; pred } ->
    let s = shred input in
    let pred = translate_scalar ~xml_cols:s.xml pred in
    { s with plan = Ra.Select (pred, s.plan) }
  | Op.Project { input; defs } ->
    let s = shred input in
    let scalar_defs, xml_defs =
      List.partition (fun (_, e) -> Expr.is_scalar e && not (List.exists (fun c -> List.mem_assoc c s.xml) (Expr.cols e))) defs
    in
    let xml =
      List.map (fun (o, e) -> (o, template_of_expr ~xml_cols:s.xml e)) xml_defs
    in
    let ra_defs =
      List.map (fun (o, e) -> (o, translate_scalar ~xml_cols:s.xml e)) scalar_defs
    in
    (* Carry the columns the templates still need.  They are renamed to fresh
       hidden names so they can never collide with the projection's own
       outputs (the old/new sides of an affected-node graph both carry the
       same underlying columns). *)
    let needed =
      List.sort_uniq compare (List.concat_map (fun (_, t) -> template_plan_cols t) xml)
    in
    let renaming, ra_defs =
      List.fold_left
        (fun (ren, acc) c ->
          (* reuse an identity pass-through when the projection already has
             one for this column *)
          match List.find_opt (fun (_, e) -> e = Ra.Col c) acc with
          | Some (o, _) -> ((c, o) :: ren, acc)
          | None ->
            let h = hidden_col c in
            ((c, h) :: ren, acc @ [ (h, Ra.Col c) ]))
        ([], ra_defs) needed
    in
    let xml = List.map (fun (o, t) -> (o, rename_template_cols renaming t)) xml in
    { plan = Ra.Project (ra_defs, s.plan);
      out_cols = List.map fst defs;
      xml;
    }
  | Op.Join { kind; left; right; pred } ->
    let l = shred left and r = shred right in
    let xml_cols = l.xml @ r.xml in
    let pred = translate_scalar ~xml_cols pred in
    let kind' =
      match kind with
      | Op.Inner -> Ra.Inner
      | Op.Left_outer -> Ra.Left_outer
      | Op.Left_anti -> Ra.Left_anti
      | Op.Right_anti -> Ra.Right_anti
    in
    let out_cols =
      match kind with
      | Op.Inner | Op.Left_outer -> l.out_cols @ r.out_cols
      | Op.Left_anti -> l.out_cols
      | Op.Right_anti -> r.out_cols
    in
    let xml =
      match kind with
      | Op.Inner | Op.Left_outer -> xml_cols
      | Op.Left_anti -> l.xml
      | Op.Right_anti -> r.xml
    in
    { plan = Ra.Join (kind', pred, l.plan, r.plan); out_cols; xml }
  | Op.Group_by { input; keys; aggs; order } ->
    let s = shred input in
    List.iter
      (fun k -> if List.mem_assoc k s.xml then fail "grouping on XML column %S" k)
      keys;
    let rel_aggs, frag_aggs =
      List.partition_map
        (fun (o, a) ->
          match a with
          | Expr.Count -> Left (o, Ra.Count_star)
          | Expr.Sum e -> Left (o, Ra.Sum (translate_scalar ~xml_cols:s.xml e))
          | Expr.Min e -> Left (o, Ra.Min (translate_scalar ~xml_cols:s.xml e))
          | Expr.Max e -> Left (o, Ra.Max (translate_scalar ~xml_cols:s.xml e))
          | Expr.Avg e -> Left (o, Ra.Avg (translate_scalar ~xml_cols:s.xml e))
          | Expr.Xml_frag e -> Right (o, e))
        aggs
    in
    let xml =
      List.map
        (fun (o, e) ->
          let f_template = template_of_expr ~xml_cols:s.xml e in
          List.iter
            (fun c -> if List.mem_assoc c s.xml then fail "order column %S is XML-valued" c)
            order;
          ( o,
            T_frag
              { f_plan = s.plan;
                f_template;
                f_link = List.map (fun k -> (k, k)) keys;
                f_order = order;
              } ))
        frag_aggs
    in
    { plan = Ra.Group_by (keys, rel_aggs, s.plan);
      out_cols = keys @ List.map fst aggs;
      xml;
    }
  | Op.Union { cols; inputs } ->
    let shredded = List.map (fun (i, mapping) -> (shred i, mapping)) inputs in
    List.iter
      (fun ((s : t), _) ->
        if s.xml <> [] then fail "union over XML-valued columns is not pushable")
      shredded;
    let parts =
      List.map
        (fun ((s : t), mapping) ->
          Ra.Project (List.map2 (fun out src -> (out, Ra.Col src)) cols mapping, s.plan))
        shredded
    in
    { plan = Ra.Union { all = false; inputs = parts }; out_cols = cols; xml = [] }

(* --- fragment link keys (for audit/provenance) ---

   The child-level link columns of every fragment in a shredded graph, one
   entry per distinct fragment, outermost first.  Static per plan: the
   runtime computes this once at trigger-group construction and stamps it
   on every audit record, so the hot path never walks templates. *)

let rec template_frag_keys acc = function
  | T_atom _ -> acc
  | T_elem { content; _ } -> List.fold_left template_frag_keys acc content
  | T_frag f ->
    let key = String.concat "," (List.map snd f.f_link) in
    let acc = if List.mem key acc then acc else acc @ [ key ] in
    template_frag_keys acc f.f_template

let frag_keys (t : t) =
  List.fold_left (fun acc (_, tpl) -> template_frag_keys acc tpl) [] t.xml

(* --- GROUPED-AGG: invert aggregates over OLD-OF (§5.2) --- *)

(* The rewrites below visit a [Shared] body once per pass, not once per
   reference: a plan with affected-key restrictions threaded through nested
   levels references its shared key relations from every scan they reach,
   so walking them per reference is exponential in the nesting. *)

(* Number of OLD-OF [table] scans below a plan, counting every reference. *)
let old_scan_count table plan =
  let memo = Hashtbl.create 8 in
  let rec go = function
    | Ra.Scan (Ra.Old_of t, _) -> if t = table then 1 else 0
    | Ra.Scan (_, _) | Ra.Values _ -> 0
    | Ra.Shared (id, i) -> (
      match Hashtbl.find_opt memo id with
      | Some n -> n
      | None ->
        let n = go i in
        Hashtbl.add memo id n;
        n)
    | Ra.Select (_, i) | Ra.Project (_, i) | Ra.Group_by (_, _, i) | Ra.Distinct i | Ra.Order_by (_, i) ->
      go i
    | Ra.Join (_, _, l, r) -> go l + go r
    | Ra.Union { inputs; _ } -> List.fold_left (fun acc i -> acc + go i) 0 inputs
  in
  go plan

(* [plan] with OLD-OF [table] scans read from [replacement table] instead;
   a [Shared] body keeps its id (and its per-firing memoization) when
   nothing below changes and gets one fresh id otherwise. *)
let subst_old table replacement plan =
  let memo = Hashtbl.create 8 in
  let rec go = function
    | Ra.Scan (Ra.Old_of t, renames) when t = table -> Ra.Scan (replacement t, renames)
    | Ra.Shared (id, i) as p -> (
      match Hashtbl.find_opt memo id with
      | Some r -> r
      | None ->
        let r = if old_scan_count table i = 0 then p else Ra.shared (go i) in
        Hashtbl.add memo id r;
        r)
    | p -> Ra.map_inputs go p
  in
  go plan

let exists_col = "old_exists$"

let invert_group_by table keys aggs input =
  let invertible =
    List.for_all (fun (_, a) -> match a with Ra.Count_star | Ra.Sum _ -> true | _ -> false) aggs
  in
  if not invertible then None
  else begin
    let post_input = subst_old table (fun t -> Ra.Base t) input in
    let deleted_input = subst_old table (fun t -> Ra.Nabla t) input in
    let inserted_input = subst_old table (fun t -> Ra.Delta t) input in
    (* Existence of a group in the pre-state = its row count there; reuse an
       existing COUNT aggregate when the view already computes one, so the
       post-state group-by stays structurally identical to the NEW side's and
       common-subplan sharing evaluates it once per firing. *)
    let existing_count = List.find_opt (fun (_, a) -> a = Ra.Count_star) aggs in
    let exists_col =
      match existing_count with Some (c, _) -> c | None -> exists_col
    in
    let aggs_plus =
      match existing_count with
      | Some _ -> aggs
      | None -> aggs @ [ (exists_col, Ra.Count_star) ]
    in
    (* Post-state aggregates.  Deliberately NOT wrapped in Shared here: the
       affected-key restriction must still be pushed inside; common-subplan
       sharing runs after that pass. *)
    let base = Ra.Group_by (keys, aggs_plus, post_input) in
    let contrib sign inp =
      let defs =
        List.map (fun k -> (k, Ra.Col k)) keys
        @ List.map
            (fun (o, a) ->
              let v =
                match a with
                | Ra.Count_star -> Ra.Const (Value.Int 1)
                | Ra.Sum e -> e
                | Ra.Count _ | Ra.Min _ | Ra.Max _ | Ra.Avg _ ->
                  (* invertibility was checked before rewriting; reaching
                     here means the check and this table disagree *)
                  invalid_arg
                    (Printf.sprintf
                       "Pushdown.invert_old_aggregates: aggregate %s of \
                        output %S is not invertible (only COUNT(*) and SUM \
                        are)"
                       (match a with
                       | Ra.Count _ -> "COUNT(expr)"
                       | Ra.Min _ -> "MIN"
                       | Ra.Max _ -> "MAX"
                       | _ -> "AVG")
                       o)
              in
              (o, if sign > 0 then v else Ra.Binop (Ra.Sub, Ra.Const (Value.Int 0), v)))
            aggs_plus
      in
      Ra.Project (defs, inp)
    in
    let base_rows =
      Ra.Project
        ( List.map (fun k -> (k, Ra.Col k)) keys
          @ List.map (fun (o, _) -> (o, Ra.Col o)) aggs_plus,
          base )
    in
    let union =
      Ra.Union
        { all = true;
          inputs =
            [ base_rows; contrib 1 deleted_input; contrib (-1) inserted_input ];
        }
    in
    let resummed =
      Ra.Group_by
        (keys, List.map (fun (o, _) -> (o, Ra.Sum (Ra.Col o))) aggs_plus, union)
    in
    (* a group existed in the pre-state iff its row count there was > 0 *)
    let filtered =
      Ra.Select (Ra.Binop (Ra.Gt, Ra.Col exists_col, Ra.Const (Value.Int 0)), resummed)
    in
    let dropped =
      Ra.Project
        ( List.map (fun k -> (k, Ra.Col k)) keys
          @ List.map (fun (o, _) -> (o, Ra.Col o)) aggs,
          filtered )
    in
    Some dropped
  end

(* Only the top-most qualifying GroupBy on each path is rewritten: its three
   substituted branches (post / deleted / inserted) already account for every
   OLD-OF access below it, so recursing into them would only multiply the
   plan size (3^depth for nested groupings).  The contribution algebra of
   [invert_group_by] is linear in one occurrence of the pre-update table, so
   a GroupBy qualifies only with exactly one OLD-OF scan below it. *)
let invert_plan table plan =
  let memo = Hashtbl.create 8 in
  let rec go = function
    | Ra.Group_by (keys, aggs, input) as p when old_scan_count table input = 1 -> (
      match invert_group_by table keys aggs input with
      | Some rewritten -> rewritten
      | None -> Ra.map_inputs go p)
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

let rec invert_template table = function
  | T_atom a -> T_atom a
  | T_elem { tag; attrs; content } ->
    T_elem { tag; attrs; content = List.map (invert_template table) content }
  | T_frag f ->
    T_frag
      { f with
        f_plan = invert_plan table f.f_plan;
        f_template = invert_template table f.f_template;
      }

let invert_old_aggregates ~table t =
  { t with
    plan = invert_plan table t.plan;
    xml = List.map (fun (o, tpl) -> (o, invert_template table tpl)) t.xml;
  }

(* --- compiled rendering (the tagger) ---

   [compile] resolves everything name-shaped in a shredded graph once: the
   relational plans go through {!Relkit.Ra_compile}, template column
   references become slots, and each fragment level's parent-key restriction
   is baked in via [push_semijoin] against a named [Rel] source bound per
   firing, so no child plan is rebuilt or re-optimized on a firing. *)

type cnode = {
  (* [bind ctx parent_rows] does the per-firing work of one template level
     (for fragments: execute the child plan restricted to the parent keys
     and group its rows), returning the per-row tagger. *)
  bind : Ra_eval.ctx -> Value.t array list -> Value.t array -> Xval.t;
}

type compiled = {
  c_ra : Relkit.Ra_compile.t;
  c_out_cols : string list;
  c_getters : (string * [ `Slot of int | `Tpl of cnode * int array ]) list;
  c_frags : (string * Relkit.Ra_compile.t) list;
      (* fragment child plans this template tree executes, for EXPLAIN *)
}

(* A fragment engine does the per-firing work below one [T_frag]: execute
   the child plan restricted to the parent link keys and group the rendered
   child nodes by link key.  The OLD- and NEW-node templates of one trigger
   group — and the templates of different groups over the same view — differ
   only in parent-side column names, so their fragments share one engine
   (memoized on the child plan/template) and one result cache: when the
   fragment plan reads only base tables, a bind with the same key rows and
   the same table versions returns the previously grouped sequences. *)
type frag_engine = {
  fe_bind : Ra_eval.ctx -> Value.t array list -> (Value.t list, Xval.t) Hashtbl.t;
  fe_ra : Relkit.Ra_compile.t;  (* the restricted child plan, for EXPLAIN *)
}

type frag_memo = (Ra.t * template * string list * string list, frag_engine) Hashtbl.t

let create_frag_memo () : frag_memo = Hashtbl.create 8

(* [Some (bases, trans)]: the fragment plan reads the current contents of
   base tables [bases] and the firing's transition data for tables [trans]
   — its result is reusable while those stay equal.  [None]: the plan reads
   a [Rel] binding and is never cached (our own fragkeys [Rel] is bound
   outside the plan, so it does not appear here). *)
let rec frag_deps (plan : Ra.t) : (string list * string list) option =
  let both a b =
    match a, b with
    | Some (x1, y1), Some (x2, y2) -> Some (x1 @ x2, y1 @ y2)
    | _ -> None
  in
  match plan with
  | Ra.Scan (Ra.Base t, _) -> Some ([ t ], [])
  | Ra.Scan ((Ra.Delta t | Ra.Nabla t), _) -> Some ([], [ t ])
  | Ra.Scan (Ra.Old_of t, _) -> Some ([ t ], [ t ])
  | Ra.Scan (Ra.Rel _, _) -> None
  | Ra.Values _ -> Some ([], [])
  | Ra.Select (_, i) | Ra.Project (_, i) | Ra.Distinct i
  | Ra.Order_by (_, i) | Ra.Group_by (_, _, i) | Ra.Shared (_, i) ->
    frag_deps i
  | Ra.Join (_, _, l, r) -> both (frag_deps l) (frag_deps r)
  | Ra.Union { inputs; _ } ->
    List.fold_left (fun acc i -> both acc (frag_deps i)) (Some ([], [])) inputs

let fragkeys_name =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "fragkeys$%d" !n

let col_slot cols c =
  let n = Array.length cols in
  let rec go i =
    if i >= n then
      invalid_arg
        (Printf.sprintf
           "Pushdown: template references unknown column %S (plan produces: %s)"
           c
           (String.concat ", " (Array.to_list cols)))
    else if cols.(i) = c then i
    else go (i + 1)
  in
  go 0

(* Dedup key rows structurally: link keys come out of an equi-join, so the
   matching values are identical and polymorphic equality is exact. *)
let distinct_key_rows rows =
  match rows with
  | [] | [ _ ] -> rows
  | _ ->
    let seen : (Value.t array, unit) Hashtbl.t = Hashtbl.create 16 in
    List.filter
      (fun row ->
        if Hashtbl.mem seen row then false
        else begin
          Hashtbl.add seen row ();
          true
        end)
      rows

let rec compile_template ?counters ~memo ~frags db cols (tpl : template) : cnode =
  match tpl with
  | T_atom (A_const v) ->
    let f _ = Xval.atom v in
    { bind = (fun _ _ -> f) }
  | T_atom (A_col c) ->
    let i = col_slot cols c in
    let f row = Xval.atom row.(i) in
    { bind = (fun _ _ -> f) }
  | T_elem { tag; attrs; content } ->
    let attr_fs =
      List.map
        (fun (k, a) ->
          match a with
          | A_const v -> (k, fun (_ : Value.t array) -> v)
          | A_col c ->
            let i = col_slot cols c in
            (k, fun row -> row.(i)))
        attrs
    in
    let content_cs =
      List.map (compile_template ?counters ~memo ~frags db cols) content
    in
    { bind =
        (fun ctx parent_rows ->
          let content_fs = List.map (fun c -> c.bind ctx parent_rows) content_cs in
          fun row ->
            let attrs =
              List.filter_map
                (fun (k, f) ->
                  match f row with
                  | Value.Null -> None
                  | v -> Some (k, Value.to_string v))
                attr_fs
            in
            let children =
              List.concat_map (fun f -> Xval.to_nodes (f row)) content_fs
            in
            Xval.node (Xml.elem ~attrs tag children));
    }
  | T_frag f ->
    let parent_slots = List.map (fun (p, _) -> col_slot cols p) f.f_link in
    let parent_slots_arr = Array.of_list parent_slots in
    let engine = frag_engine_of ?counters ~memo ~frags db f in
    { bind =
        (fun ctx parent_rows ->
          let key_rows =
            distinct_key_rows
              (List.map
                 (fun row -> Array.map (fun i -> row.(i)) parent_slots_arr)
                 parent_rows)
          in
          if key_rows = [] then fun _ -> Xval.Seq []
          else begin
            let seqs = engine.fe_bind ctx key_rows in
            fun row ->
              let link = List.map (fun i -> row.(i)) parent_slots in
              match Hashtbl.find_opt seqs link with
              | None -> Xval.Seq []
              | Some v -> v
          end);
    }

(* Engine construction happens once per distinct (plan, template, link,
   order); the parent-side link column names are deliberately NOT part of
   the key — key rows arrive already extracted, so OLD_/NEW_-prefixed
   parents reuse the same engine. *)
and frag_engine_of ?counters ~memo ~frags db (f : frag) : frag_engine =
  let mkey = (f.f_plan, f.f_template, List.map snd f.f_link, f.f_order) in
  let note_frag e =
    (* collect once per distinct child plan, for EXPLAIN output *)
    if not (List.exists (fun (_, ra) -> ra == e.fe_ra) !frags) then
      frags :=
        !frags
        @ [ ( Printf.sprintf "fragment (link on %s)"
                (String.concat ", " (List.map snd f.f_link)),
              e.fe_ra )
          ];
    e
  in
  match Hashtbl.find_opt memo mkey with
  | Some e -> note_frag e
  | None ->
    let key_cols = List.map (fun (_, c) -> "lk$" ^ c) f.f_link in
    let rel_name = fragkeys_name () in
    let keys_plan =
      Ra.Scan (Ra.Rel rel_name, List.map (fun kc -> (kc, kc)) key_cols)
    in
    let restricted =
      Ra_opt.push_semijoin ~keys:keys_plan
        ~on:(List.map2 (fun (_, c) kc -> (c, kc)) f.f_link key_cols)
        f.f_plan
    in
    let child_ra = Relkit.Ra_compile.compile ?counters db restricted in
    let child_cols = Array.of_list (Relkit.Ra_compile.cols child_ra) in
    let child_tpl =
      compile_template ?counters ~memo ~frags db child_cols f.f_template
    in
    let child_link_slots = List.map (fun (_, c) -> col_slot child_cols c) f.f_link in
    let order_slots = List.map (col_slot child_cols) f.f_order in
    let key_cols_arr = Array.of_list key_cols in
    let run ctx key_rows =
      let trace = Relkit.Database.tracer ctx.Ra_eval.db in
      let t0 = Obs.Trace.start trace in
      let ctx' =
        { ctx with
          Ra_eval.rels =
            (rel_name, { Ra_eval.cols = key_cols_arr; rows = key_rows })
            :: ctx.Ra_eval.rels;
        }
      in
      let child_rel = Relkit.Ra_compile.exec child_ra ctx' in
      let child_node = child_tpl.bind ctx child_rel.Ra_eval.rows in
      let groups : (Value.t list, (Value.t list * Xval.t) list ref) Hashtbl.t =
        Hashtbl.create 16
      in
      List.iter
        (fun row ->
          let link = List.map (fun i -> row.(i)) child_link_slots in
          let okey = List.map (fun i -> row.(i)) order_slots in
          let node = child_node row in
          match Hashtbl.find_opt groups link with
          | Some cell -> cell := (okey, node) :: !cell
          | None -> Hashtbl.add groups link (ref [ (okey, node) ]))
        child_rel.Ra_eval.rows;
      (* Sort each group once and share the sequence: several parent
         rows (one per satisfied trigger) reference the same group. *)
      let seqs : (Value.t list, Xval.t) Hashtbl.t =
        Hashtbl.create (Hashtbl.length groups)
      in
      Hashtbl.iter
        (fun link cell ->
          let sorted =
            List.sort
              (fun (a, _) (b, _) -> List.compare Value.compare a b)
              (List.rev !cell)
          in
          Hashtbl.replace seqs link (Xval.seq (List.map snd sorted)))
        groups;
      if Obs.Trace.enabled trace then
        Obs.Trace.finish_note trace t0 "frag.exec"
          (Printf.sprintf "keys=%d child_rows=%d" (List.length key_rows)
             (List.length child_rel.Ra_eval.rows));
      seqs
    in
    let deps = frag_deps f.f_plan in
    let cache = ref None in
    let fe_bind ctx key_rows =
      match deps with
      | None -> run ctx key_rows
      | Some (base_tables, trans_tables) ->
        let versions =
          List.map
            (fun tn -> Relkit.Table.version (Relkit.Database.get_table db tn))
            base_tables
        in
        (* Transition deltas are a handful of rows per firing; comparing
           them structurally lets OLD-side fragments (whose inverted plans
           read pre-update state) share results across the getters and
           groups fired by one update. *)
        let trans =
          List.map (fun tn -> List.assoc_opt tn ctx.Ra_eval.trans) trans_tables
        in
        (match !cache with
        | Some (kr, vs, tr, seqs)
          when vs = versions && tr = trans
               && List.equal (fun a b -> a = b) kr key_rows ->
          seqs
        | _ ->
          let seqs = run ctx key_rows in
          cache := Some (key_rows, versions, trans, seqs);
          seqs)
    in
    let e = { fe_bind; fe_ra = child_ra } in
    Hashtbl.add memo mkey e;
    note_frag e

(* Slots of the parent row a template's per-row tagger actually reads:
   attribute and atom columns plus fragment link columns.  Rows that agree
   on these slots produce the same node, so taggers memoize on them. *)
let rec template_slots cols acc = function
  | T_atom (A_const _) -> acc
  | T_atom (A_col c) -> col_slot cols c :: acc
  | T_elem { attrs; content; _ } ->
    let acc =
      List.fold_left
        (fun acc (_, a) ->
          match a with
          | A_const _ -> acc
          | A_col c -> col_slot cols c :: acc)
        acc attrs
    in
    List.fold_left (template_slots cols) acc content
  | T_frag f ->
    List.fold_left (fun acc (p, _) -> col_slot cols p :: acc) acc f.f_link

let compile ?counters ?frag_memo db (t : t) : compiled =
  let memo =
    match frag_memo with Some m -> m | None -> create_frag_memo ()
  in
  let frags = ref [] in
  let ra = Relkit.Ra_compile.compile ?counters db t.plan in
  let cols_arr = Array.of_list (Relkit.Ra_compile.cols ra) in
  let getters =
    List.map
      (fun c ->
        match List.assoc_opt c t.xml with
        | Some tpl ->
          let slots =
            Array.of_list (List.sort_uniq compare (template_slots cols_arr [] tpl))
          in
          (c, `Tpl (compile_template ?counters ~memo ~frags db cols_arr tpl, slots))
        | None -> (c, `Slot (col_slot cols_arr c)))
      t.out_cols
  in
  { c_ra = ra; c_out_cols = t.out_cols; c_getters = getters; c_frags = !frags }

(* The per-firing semijoin binding is named [fragkeys$N] with a process-wide
   counter; EXPLAIN output masks the digits so renderings are stable across
   runtimes (and golden-testable). *)
let mask_fragkeys s =
  let pat = "fragkeys$" in
  let plen = String.length pat in
  let n = String.length s in
  let buf = Buffer.create n in
  let i = ref 0 in
  while !i < n do
    if !i + plen <= n && String.sub s !i plen = pat then begin
      Buffer.add_string buf pat;
      i := !i + plen;
      while !i < n && s.[!i] >= '0' && s.[!i] <= '9' do
        incr i
      done;
      Buffer.add_char buf '_'
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let explain_compiled (c : compiled) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Relkit.Ra_compile.explain c.c_ra);
  List.iter
    (fun (name, ra) ->
      Buffer.add_string buf (name ^ ":\n");
      Buffer.add_string buf (Relkit.Ra_compile.explain ra))
    c.c_frags;
  mask_fragkeys (Buffer.contents buf)

let explain_compiled_json (c : compiled) =
  let frag_json =
    List.map
      (fun (name, ra) ->
        Printf.sprintf "{\"name\": \"%s\", \"plan\": %s}"
          (Obs.Metrics.json_escape name)
          (Relkit.Ra_compile.explain_json ra))
      c.c_frags
  in
  mask_fragkeys
    (Printf.sprintf "{\"plan\": %s, \"fragments\": [%s]}"
       (Relkit.Ra_compile.explain_json c.c_ra)
       (String.concat ", " frag_json))

let exec_scalar (c : compiled) ctx =
  let trace = Relkit.Database.tracer ctx.Ra_eval.db in
  let t0 = Obs.Trace.start trace in
  let rel = Relkit.Ra_compile.exec c.c_ra ctx in
  if Obs.Trace.enabled trace then
    Obs.Trace.finish_note trace t0 "plan.exec"
      (Printf.sprintf "compiled rows=%d" (List.length rel.Ra_eval.rows));
  rel

let tag_rows ?cols (c : compiled) ctx rows : Eval.xrel =
  let trace = Relkit.Database.tracer ctx.Ra_eval.db in
  let wanted = match cols with Some cs -> cs | None -> c.c_out_cols in
  let t1 = Obs.Trace.start trace in
  let getters =
    List.map
      (fun name ->
        match List.assoc name c.c_getters with
        | `Slot i -> fun row -> Xval.atom row.(i)
        | `Tpl (node, slots) ->
          let tag = node.bind ctx rows in
          (* Rows agreeing on the template's slots (e.g. the same view node
             matched by many triggers) share one physically equal value. *)
          let memo : (Value.t array, Xval.t) Hashtbl.t = Hashtbl.create 8 in
          fun row ->
            let key = Array.map (fun i -> row.(i)) slots in
            (match Hashtbl.find_opt memo key with
            | Some v -> v
            | None ->
              let v = tag row in
              Hashtbl.add memo key v;
              v))
      wanted
  in
  let out =
    List.map (fun row -> Array.of_list (List.map (fun g -> g row) getters)) rows
  in
  if Obs.Trace.enabled trace then
    Obs.Trace.finish_note trace t1 "tagger"
      (Printf.sprintf "compiled rows=%d" (List.length out));
  { Eval.cols = Array.of_list wanted; rows = out }

let render_compiled ?cols c ctx =
  tag_rows ?cols c ctx (exec_scalar c ctx).Ra_eval.rows

let to_sql (t : t) =
  (* Present the levels as one sorted-outer-union query: the top level is
     branch 0; each fragment level becomes a further branch. *)
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Relkit.Sql_print.plan_to_sql t.plan);
  let rec frags prefix = function
    | T_frag f ->
      Buffer.add_string buf
        (Printf.sprintf "\n\nUNION ALL -- child level %s (link on %s, order by %s)\n"
           prefix
           (String.concat ", " (List.map fst f.f_link))
           (String.concat ", " f.f_order));
      Buffer.add_string buf (Relkit.Sql_print.plan_to_sql f.f_plan);
      frags (prefix ^ "*") f.f_template
    | T_elem { content; _ } -> List.iter (frags prefix) content
    | T_atom _ -> ()
  in
  List.iter (fun (_, tpl) -> frags "*" tpl) t.xml;
  Buffer.contents buf
