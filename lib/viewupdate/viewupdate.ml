(* Write-through view DML: the XML-side DML verbs planned against the view's
   XQGM graph and translated into base-table statements.

   The translation follows Liu et al.'s updatable-XML-view analysis:

   - a targeted view node is *anchored* when its level's canonical key
     carries (per {!Xqgm.Lineage} provenance) a full primary key of one base
     table — that key value names the unique base row behind the node;
   - an update is *side-effect free* when the changed base columns feed
     nothing in the view graph beyond the targeted level's own element
     constructor ({!Xqgm.Lineage.dependents}); when that static check is
     inconclusive, the planner evaluates the view over the hypothetical
     post-update state (through [Op.to_old] + transition tables, no base
     table is touched) and compares against the structurally edited current
     document;
   - a node that is not anchored (e.g. a grouped <product> built from two
     product rows) yields a candidate-row ambiguity, resolved by the view's
     programmable strategy (BIRDS-style) or rejected with a diagnostic.

   Accepted plans execute through the normal [Database] DML path, so the
   translated statements stamp ids, fire SQL triggers, hit the audit ring
   (tagged with the view-DML source text via [Database.statement_origin]),
   replicate to subscribers and land in the WAL. *)

open Relkit
module Xml = Xmlkit.Xml
module Ast = Xquery.Ast
module Parser = Xquery.Parser
module Compile = Xquery.Compile
module Compose = Xquery.Compose
module Op = Xqgm.Op
module Expr = Xqgm.Expr
module Xval = Xqgm.Xval
module Eval = Xqgm.Eval
module Lineage = Xqgm.Lineage
module Runtime = Trigview.Runtime
module Pushdown = Trigview.Pushdown

type stmt =
  | Insert_node of { xml : Xml.t; into : Ast.path }
  | Replace_node of { path : Ast.path; xml : Xml.t }
  | Delete_node of { path : Ast.path; where : Ast.expr option }

type base_op =
  | Ins of { table : string; row : Value.t array }
  | Upd of {
      table : string;
      pk : Value.t list;
      before : Value.t array;
      after : Value.t array;
    }
  | Del of { table : string; pk : Value.t list; row : Value.t array }

type plan = {
  p_text : string;
  p_view : string;
  p_level : string;
  p_anchor : string;
  p_targets : int;
  p_verdict : string list;
  p_ops : base_op list;
}

type diagnostic = {
  d_stmt : string;
  d_view : string;
  d_level : string;
  d_table : string;
  d_reason : string;
  d_candidates : (string * Value.t array) list;
  d_side_effects : string list;
}

exception Error of string
exception Rejected of diagnostic

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* The value [tbl] holds under [key], computed by [f] on first use. *)
let memo tbl key f =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
    let v = f () in
    Hashtbl.add tbl key v;
    v

(* --- strategies --- *)

type ambiguity = {
  amb_stmt : string;
  amb_view : string;
  amb_level : string;
  amb_table : string;
  amb_schema : Schema.t;
  amb_candidates : Value.t array list;
}

type strategy =
  | Reject_ambiguous
  | First_candidate
  | All_candidates
  | Custom of (ambiguity -> Value.t array list option)

let strategy_to_string = function
  | Reject_ambiguous -> "reject-ambiguous"
  | First_candidate -> "first-candidate"
  | All_candidates -> "all-candidates"
  | Custom _ -> "custom"

(* --- parsing --- *)

(* Whitespace-only text nodes in hand-written XML are layout, not content;
   the rendered views never contain them. *)
let rec strip_ws = function
  | Xml.Element { tag; attrs; children } ->
    let children =
      List.filter_map
        (function
          | Xml.Text t when String.trim t = "" -> None
          | c -> Some (strip_ws c))
        children
    in
    Xml.elem ~attrs tag children
  | t -> t

(* Scans one balanced XML literal starting at [s.[i] = '<']; returns the
   literal and the index just past it.  Quoted attribute values may contain
   angle brackets; <?...?> / <!...> and self-closing tags do not nest. *)
let scan_xml s i =
  let n = String.length s in
  if i >= n || s.[i] <> '<' then fail "expected an XML literal";
  let starts_with j p =
    let lp = String.length p in
    j + lp <= n && String.sub s j lp = p
  in
  (* comments and CDATA may contain markup ('<!-- see <b>note</b> -->');
     skip to their closing delimiter without counting element depth *)
  let skip_past j close =
    let lc = String.length close in
    let rec go j =
      if j + lc > n then fail "unterminated %s in XML literal" close
      else if String.sub s j lc = close then j + lc
      else go (j + 1)
    in
    go j
  in
  let depth = ref 0 and j = ref i and fin = ref (-1) in
  while !fin < 0 do
    if !j >= n then fail "unterminated XML literal";
    if s.[!j] <> '<' then incr j
    else if starts_with !j "<!--" then begin
      j := skip_past (!j + 4) "-->";
      if !depth = 0 then fin := !j
    end
    else if starts_with !j "<![CDATA[" then begin
      j := skip_past (!j + 9) "]]>";
      if !depth = 0 then fin := !j
    end
    else begin
      let closing = !j + 1 < n && s.[!j + 1] = '/' in
      let special = !j + 1 < n && (s.[!j + 1] = '!' || s.[!j + 1] = '?') in
      let k = ref (!j + 1) and quote = ref None and stop = ref (-1) in
      while !stop < 0 do
        if !k >= n then fail "unterminated tag in XML literal";
        (match !quote with
        | Some q -> if s.[!k] = q then quote := None
        | None ->
          if s.[!k] = '"' || s.[!k] = '\'' then quote := Some s.[!k]
          else if s.[!k] = '>' then stop := !k);
        incr k
      done;
      let self_closing = !stop > !j + 1 && s.[!stop - 1] = '/' in
      if special || self_closing then ()
      else if closing then decr depth
      else incr depth;
      j := !stop + 1;
      if !depth = 0 then fin := !j
    end
  done;
  (String.sub s i (!fin - i), !fin)

(* First top-level occurrence of keyword [kw] (case-insensitive, word
   boundaries, outside quotes and outside [...] / (...)). *)
let find_keyword s kw =
  let n = String.length s and m = String.length kw in
  let low = Char.lowercase_ascii in
  let rec go i depth quote =
    if i >= n then None
    else
      match quote with
      | Some q -> go (i + 1) depth (if s.[i] = q then None else quote)
      | None ->
        if s.[i] = '\'' || s.[i] = '"' then go (i + 1) depth (Some s.[i])
        else if s.[i] = '[' || s.[i] = '(' then go (i + 1) (depth + 1) None
        else if s.[i] = ']' || s.[i] = ')' then go (i + 1) (depth - 1) None
        else if
          depth = 0
          && i + m <= n
          && (i = 0 || not (Parser.is_word_char s.[i - 1]))
          && (i + m = n || not (Parser.is_word_char s.[i + m]))
          &&
          let rec eq k = k = m || (low s.[i + k] = low kw.[k] && eq (k + 1)) in
          eq 0
        then Some i
        else go (i + 1) depth None
  in
  go 0 0 None

let parse_xml_literal lit =
  match Xmlkit.Xml_parse.parse_opt (String.trim lit) with
  | Some x -> strip_ws x
  | None -> fail "malformed XML literal: %s" (String.trim lit)

let parse_path_text s =
  match Parser.parse_path (String.trim s) with
  | p -> p
  | exception Parser.Parse_error msg -> fail "bad path %S: %s" (String.trim s) msg

let parse text =
  let s = String.trim text in
  let has_prefix p =
    let lp = String.length p in
    String.length s >= lp
    && String.uppercase_ascii (String.sub s 0 lp) = p
    && (String.length s = lp || not (Parser.is_word_char s.[lp]))
  in
  let after p = String.trim (String.sub s (String.length p) (String.length s - String.length p)) in
  if has_prefix "INSERT NODE" then begin
    let body = after "INSERT NODE" in
    let lit, j = scan_xml body 0 in
    let rest = String.trim (String.sub body j (String.length body - j)) in
    if not (String.length rest > 4 && String.uppercase_ascii (String.sub rest 0 4) = "INTO"
            && not (Parser.is_word_char rest.[4]))
    then fail "expected INTO <path> after the XML literal";
    let path = parse_path_text (String.sub rest 4 (String.length rest - 4)) in
    Insert_node { xml = parse_xml_literal lit; into = path }
  end
  else if has_prefix "REPLACE NODE" then begin
    let body = after "REPLACE NODE" in
    match find_keyword body "WITH" with
    | None -> fail "expected REPLACE NODE <path> WITH <xml>"
    | Some k ->
      let path = parse_path_text (String.sub body 0 k) in
      let lit = String.sub body (k + 4) (String.length body - k - 4) in
      Replace_node { path; xml = parse_xml_literal lit }
  end
  else if has_prefix "DELETE NODE" then begin
    let body = after "DELETE NODE" in
    match find_keyword body "WHERE" with
    | None -> Delete_node { path = parse_path_text body; where = None }
    | Some k ->
      let path = parse_path_text (String.sub body 0 k) in
      let cond_text = String.trim (String.sub body (k + 5) (String.length body - k - 5)) in
      let cond =
        match Parser.parse_expr cond_text with
        | e -> e
        | exception Parser.Parse_error msg -> fail "bad WHERE condition: %s" msg
      in
      Delete_node { path; where = Some cond }
  end
  else fail "expected INSERT NODE / REPLACE NODE / DELETE NODE, got %S" s

(* --- AST utilities --- *)

(* A view-DML WHERE condition refers to the targeted node as [.] or [NODE];
   the fallback evaluator binds OLD_NODE/NEW_NODE, so rewrite the roots. *)
let rec rewrite_expr (e : Ast.expr) : Ast.expr =
  match e with
  | Ast.Lit _ -> e
  | Ast.Path p -> Ast.Path (rewrite_path p)
  | Ast.Flwor { clauses; where; return } ->
    Ast.Flwor
      { clauses = List.map rewrite_clause clauses;
        where = Option.map rewrite_expr where;
        return = rewrite_expr return;
      }
  | Ast.Elem { tag; attrs; content } ->
    Ast.Elem
      { tag;
        attrs = List.map (fun (k, v) -> (k, rewrite_expr v)) attrs;
        content = List.map rewrite_content content;
      }
  | Ast.Cmp (c, a, b) -> Ast.Cmp (c, rewrite_expr a, rewrite_expr b)
  | Ast.Arith (o, a, b) -> Ast.Arith (o, rewrite_expr a, rewrite_expr b)
  | Ast.And (a, b) -> Ast.And (rewrite_expr a, rewrite_expr b)
  | Ast.Or (a, b) -> Ast.Or (rewrite_expr a, rewrite_expr b)
  | Ast.Not a -> Ast.Not (rewrite_expr a)
  | Ast.Call (f, args) -> Ast.Call (f, List.map rewrite_expr args)
  | Ast.Quantified { universal; var; source; satisfies } ->
    Ast.Quantified
      { universal; var; source = rewrite_expr source; satisfies = rewrite_expr satisfies }

and rewrite_clause = function
  | Ast.For (v, e) -> Ast.For (v, rewrite_expr e)
  | Ast.Let (v, e) -> Ast.Let (v, rewrite_expr e)

and rewrite_content = function
  | Ast.C_text _ as c -> c
  | Ast.C_elem e -> Ast.C_elem (rewrite_expr e)
  | Ast.C_enclosed e -> Ast.C_enclosed (rewrite_expr e)

and rewrite_path ({ root; steps } : Ast.path) : Ast.path =
  match root with
  | Ast.R_var ("." | "NODE") -> { Ast.root = Ast.R_var "OLD_NODE"; steps }
  | _ -> { Ast.root; steps }

(* --- typed values --- *)

let col_type (schema : Schema.t) c =
  match List.find_opt (fun col -> col.Schema.col_name = c) schema.Schema.columns with
  | Some col -> col.Schema.col_type
  | None -> fail "no column %S in table %S" c schema.Schema.name

let value_of_text ty s =
  match ty with
  | Schema.TString -> Value.String s
  | Schema.TInt -> (
    try Value.Int (int_of_string (String.trim s)) with _ -> fail "%S is not an integer" s)
  | Schema.TFloat -> (
    try Value.Float (float_of_string (String.trim s)) with _ -> fail "%S is not a number" s)
  | Schema.TBool -> (
    match String.lowercase_ascii (String.trim s) with
    | "true" -> Value.Bool true
    | "false" -> Value.Bool false
    | _ -> fail "%S is not a boolean" s)

let coerce ty (v : Value.t) =
  match (ty, v) with
  | Schema.TFloat, Value.Int i -> Value.Float (float_of_int i)
  | Schema.TString, (Value.Int _ | Value.Float _ | Value.Bool _) ->
    Value.String (Value.to_string v)
  | _ -> v

(* --- lineage helpers --- *)

let lineage_base lin col =
  match List.assoc_opt col lin with
  | Some (Lineage.Base { table; column }) -> Some (table, column)
  | _ -> None

let is_count_field f = String.length f >= 6 && String.sub f 0 6 = "count("
let is_attr_field f = String.length f > 0 && f.[0] = '@'

(* --- level resolution --- *)

let view_name_of (path : Ast.path) =
  match path.Ast.root with
  | Ast.R_view v -> v
  | Ast.R_var _ -> fail "a view-DML path must be rooted at view(...)"

(* Tag path of a level inside its view tree, e.g. "catalog/product". *)
let level_path (view : Compile.view) (tree : Compile.view_tree) =
  let rec go t acc =
    if t == tree then Some (List.rev (t.Compile.elem_tag :: acc))
    else List.find_map (fun c -> go c (t.Compile.elem_tag :: acc)) t.Compile.children
  in
  match go view.Compile.tree [] with
  | Some tags -> String.concat "/" tags
  | None -> tree.Compile.elem_tag

(* The {!Compose.monitored} of a path; an empty-step path denotes the
   document element (allowed as an INSERT target). *)
let monitored_of view (path : Ast.path) =
  if path.Ast.steps = [] then
    { Compose.m_op = view.Compile.tree.Compile.op;
      m_node_col = view.Compile.tree.Compile.node_col;
      m_key = view.Compile.tree.Compile.key;
      m_tree = view.Compile.tree;
    }
  else
    match Compose.compose_path view path with
    | m -> m
    | exception Compose.Compose_error msg -> fail "%s" msg

(* --- target evaluation (generic path) --- *)

type target = {
  t_row : (string * Xval.t) list;
  t_node : Xml.t;
}

let eval_targets db (m : Compose.monitored) ~(where : Ast.expr option) =
  let ctx = Ra_eval.ctx_of_db db in
  let rel = Eval.eval ctx m.Compose.m_op in
  let cols = Array.to_list rel.Eval.cols in
  let targets =
    List.map
      (fun row ->
        let assoc = List.mapi (fun i c -> (c, row.(i))) cols in
        let node =
          match List.assoc m.Compose.m_node_col assoc with
          | Xval.Node n -> n
          | v -> fail "level row did not produce a node (%s)" (Xval.to_string v)
        in
        { t_row = assoc; t_node = node })
      rel.Eval.rows
  in
  match where with
  | None -> targets
  | Some cond ->
    let cond = rewrite_expr cond in
    (match Compose.validate_fallback cond with
    | Ok () -> ()
    | Error msg -> fail "unsupported WHERE condition: %s" msg);
    List.filter
      (fun t -> Compose.condition_fallback cond ~old_node:(Some t.t_node) ~new_node:None)
      targets

(* --- anchoring --- *)

type anchor =
  | Anchored of {
      table : string;
      schema : Schema.t;
      pk_slots : (string * string) list;  (* (base pk column, level output column) *)
    }
  | Unanchored of { table : string option; schema : Schema.t option; reason : string }

(* A probe asks whether a level has a row matching some key values (see
   {!probe_for}). *)
type probe = {
  pr_rel : string;  (* the [Ra.Rel] binding name carrying the key values *)
  pr_run : Ra_eval.ctx -> Ra_eval.rel;
}

(* The translator's per-runtime state, held by the runtime itself so that
   it dies with the runtime: the compiled probes pin its database, and the
   memos are keyed by the op ids of its views.  Each memo is pure in the
   (immutable) level ops and the database's schemas. *)
type state = {
  strategies : (string, strategy) Hashtbl.t;
      (* per view: a strategy set for view "v" on one runtime does not leak
         to a same-named view of another *)
  lineage : (int, (string * Lineage.source) list) Hashtbl.t;
      (* lineage walks the level's whole op graph (the root op embeds every
         descendant level): the planner's largest repeated cost *)
  anchors : (int, anchor) Hashtbl.t;
      (* consulted for the target level and every ancestor on each statement *)
  constructors : (int, (int * Expr.t * Op.t) option) Hashtbl.t;
  dependents : (int * string * (int * string) * string list, string list) Hashtbl.t;
  shreds : (int, Pushdown.t option) Hashtbl.t;
  filter_free : (int, bool) Hashtbl.t;
  probes : (int * string list, probe) Hashtbl.t;  (* (level op id, key columns) *)
}

type Runtime.layer_state += State of state

let state_of rt =
  Runtime.layer_state rt
    ~find:(function State s -> Some s | _ -> None)
    ~create:(fun () ->
      let t () = Hashtbl.create 16 in
      State
        { strategies = t (); lineage = t (); anchors = t (); constructors = t ();
          dependents = t (); shreds = t (); filter_free = t (); probes = t () })

let set_strategy rt ~view strat = Hashtbl.replace (state_of rt).strategies view strat
let clear_strategy rt ~view = Hashtbl.remove (state_of rt).strategies view

let strategy_for rt ~view =
  Option.value ~default:Reject_ambiguous (Hashtbl.find_opt (state_of rt).strategies view)

let lin_of st (op : Op.t) = memo st.lineage op.Op.id (fun () -> Lineage.columns op)

(* A level is anchored to T when its key columns that copy T's columns cover
   T's primary key.  Several tables can qualify (correlation columns carry
   ancestor keys through joins); prefer the table carrying the most key
   columns, then the one whose key column appears last — the iterated
   (deepest) side of the level's joins. *)
let anchor_of_level_uncached st db (tree : Compile.view_tree) =
  let lin = lin_of st tree.Compile.op in
  let keyed =
    List.filter_map (fun k -> Option.map (fun b -> (k, b)) (lineage_base lin k)) tree.Compile.key
  in
  let pos k =
    let rec go i = function
      | [] -> -1
      | k' :: _ when k' = k -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 tree.Compile.key
  in
  let tables = List.sort_uniq compare (List.map (fun (_, (t, _)) -> t) keyed) in
  let covering =
    List.filter_map
      (fun t ->
        match Database.find_table db t with
        | None -> None
        | Some tbl ->
          let schema = Table.schema tbl in
          let carried =
            List.filter_map (fun (k, (t', c)) -> if t' = t then Some (c, k) else None) keyed
          in
          if
            schema.Schema.primary_key <> []
            && List.for_all (fun c -> List.mem_assoc c carried) schema.Schema.primary_key
          then Some (t, schema, carried)
          else None)
      tables
  in
  match covering with
  | [] ->
    let table = match keyed with [] -> None | (_, (t, _)) :: _ -> Some t in
    let schema = Option.map (fun t -> Table.schema (Database.get_table db t)) table in
    let reason =
      match keyed with
      | [] -> "no key column of this level copies a base column"
      | _ ->
        Printf.sprintf "the level key [%s] does not cover the primary key of %s"
          (String.concat "; " tree.Compile.key)
          (match table with Some t -> t | None -> "?")
    in
    Unanchored { table; schema; reason }
  | _ ->
    let score (_, _, carried) =
      ( List.length carried,
        List.fold_left (fun m (_, k) -> max m (pos k)) (-1) carried )
    in
    let t, schema, carried =
      List.fold_left
        (fun best cand ->
          match best with
          | Some b when score b >= score cand -> Some b
          | _ -> Some cand)
        None covering
      |> Option.get
    in
    Anchored
      { table = t;
        schema;
        pk_slots = List.map (fun c -> (c, List.assoc c carried)) schema.Schema.primary_key;
      }

let anchor_of_level st db (tree : Compile.view_tree) =
  memo st.anchors tree.Compile.op.Op.id (fun () -> anchor_of_level_uncached st db tree)

(* Base rows of [table] matching the target tuple on every level column that
   copies one of [table]'s columns — the candidate rows of an ambiguous
   update. *)
let candidate_rows db ~table lin (get_opt : string -> Xval.t option) =
  let tbl = Database.get_table db table in
  let schema = Table.schema tbl in
  let checks =
    List.filter_map
      (fun (out, src) ->
        match src with
        | Lineage.Base { table = t; column } when t = table -> (
          match get_opt out with
          | Some (Xval.Atom v) -> Some (Schema.col_index schema column, v)
          | _ -> None)
        | _ -> None)
      lin
  in
  List.rev
    (Table.fold tbl ~init:[] ~f:(fun acc row ->
         if List.for_all (fun (i, v) -> Value.equal row.(i) v) checks then row :: acc else acc))

(* --- fields of user-supplied XML --- *)

let xml_field_value node field =
  if is_attr_field field then Xml.attr node (String.sub field 1 (String.length field - 1))
  else if is_count_field field then None
  else
    match Xml.children_named node field with
    | [] -> None
    | [ c ] -> Some (Xml.text_content c)
    | _ -> fail "multiple <%s> children; the field maps to one column" field

(* An inserted node may carry only the level's own fields: unknown content
   has no underlying column, and nested view levels are separate nodes. *)
let check_insert_shape (tree : Compile.view_tree) xml =
  let fields = tree.Compile.fields in
  let field_attr a = List.mem_assoc ("@" ^ a) fields in
  let field_child t = List.mem_assoc t fields in
  let child_level t = List.exists (fun c -> c.Compile.elem_tag = t) tree.Compile.children in
  match xml with
  | Xml.Text _ -> fail "the inserted node must be an element"
  | Xml.Element { tag; attrs; children } ->
    List.iter
      (fun (a, _) ->
        if not (field_attr a) then
          fail "attribute %S of <%s> has no underlying column" a tag)
      attrs;
    List.iter
      (function
        | Xml.Text t ->
          if String.trim t <> "" then
            fail "text content %S of <%s> has no underlying column" t tag
        | Xml.Element { tag = ct; _ } ->
          if child_level ct then
            fail "<%s> is a nested view level; insert those nodes one at a time" ct
          else if not (field_child ct) then
            fail "child <%s> of <%s> has no underlying column" ct tag)
      children

(* A replacement must match the old node everywhere except field values:
   same tag, same attribute names (non-field values unchanged), and the same
   child sequence up to the text of simple field children. *)
let check_replace_shape (tree : Compile.view_tree) ~old_node xml =
  match (old_node, xml) with
  | Xml.Element o, Xml.Element r ->
    if r.tag <> o.tag then
      fail "replacement root <%s> does not match the targeted <%s>" r.tag o.tag;
    let fields = tree.Compile.fields in
    let field_attr a = List.mem_assoc ("@" ^ a) fields in
    let field_child t = List.mem_assoc t fields in
    let names l = List.sort compare (List.map fst l) in
    if names r.attrs <> names o.attrs then
      fail "replacement changes the attribute set of <%s>" o.tag;
    List.iter
      (fun (a, v) ->
        if not (field_attr a) then
          match Xml.attr old_node a with
          | Some v' when v' = v -> ()
          | _ -> fail "attribute %S of <%s> has no underlying column" a o.tag)
      r.attrs;
    if List.length r.children <> List.length o.children then
      fail
        "replacement changes the child structure of <%s>; only field values are \
         updatable (REPLACE nested nodes directly)"
        o.tag;
    List.iter2
      (fun oc rc ->
        match (oc, rc) with
        | Xml.Element { tag = ot; _ }, Xml.Element { tag = rt; _ }
          when ot = rt && field_child ot ->
          ()
        | _ ->
          if not (Xml.equal oc rc) then
            fail
              "child %s of <%s> is not a simple field; REPLACE the nested node directly"
              (match Xml.tag rc with Some t -> "<" ^ t ^ ">" | None -> "text") o.tag)
      o.children r.children
  | _ -> fail "REPLACE needs element nodes"

(* Field-by-field diff of a replacement against the current values.
   Returns (base column, old, new) per changed column of the anchor table;
   fields carried by joined non-anchor tables must be unchanged. *)
let replace_changes db ~anchor lin (tree : Compile.view_tree)
    ~(get : string -> Value.t) xml =
  List.filter_map
    (fun (field, out) ->
      if is_count_field field then None
      else
        match lineage_base lin out with
        | None -> (
          match xml_field_value xml field with
          | None -> None
          | Some s ->
            if Value.equal (value_of_text Schema.TString s) (get out)
               || Value.to_string (get out) = s
            then None
            else fail "field %s is computed and not updatable" field)
        | Some (t, c) -> (
          let schema = Table.schema (Database.get_table db t) in
          let ty = col_type schema c in
          match xml_field_value xml field with
          | None -> fail "replacement is missing field %s" field
          | Some s ->
            let nv = value_of_text ty s in
            let ov = get out in
            if Value.equal nv ov then None
            else if t = anchor then Some (c, ov, nv)
            else
              fail "field %s lives in table %s, not the level's anchor table %s" field t
                anchor))
    tree.Compile.fields

(* --- static side-effect analysis --- *)

(* The Project definition that constructs this level's elements — the one
   graph site allowed to depend on the changed columns; a nested level's
   visibility join sits above it, with the constructor on its left.
   Returns the Project's id, the constructor expression, and the Project's
   input (the operator the constructor's column references are resolved
   against). *)
let constructor_def st (tree : Compile.view_tree) =
  let rec find (op : Op.t) =
    match op.Op.node with
    | Op.Project { defs; input } -> (
      match List.assoc_opt tree.Compile.node_col defs with
      | Some (Expr.Elem _ as e) -> Some (op.Op.id, e, input)
      | _ -> find input)
    | Op.Select { input; _ } -> find input
    | Op.Join { left; _ } -> find left
    | _ -> None
  in
  memo st.constructors tree.Compile.op.Op.id (fun () -> find tree.Compile.op)

let constructor_site st (tree : Compile.view_tree) =
  Option.map (fun (id, _, _) -> (id, tree.Compile.node_col)) (constructor_def st tree)

(* [None] = statically safe; [Some sites] = inconclusive, listing the
   dependent graph sites (fall through to the dynamic check). *)
let static_unsafe st (view : Compile.view) (tree : Compile.view_tree) lin ~table ~cols =
  let key_base =
    List.filter_map
      (fun k ->
        match lineage_base lin k with Some (t, c) when t = table -> Some c | _ -> None)
      tree.Compile.key
  in
  if List.exists (fun c -> List.mem c key_base) cols then
    Some [ "the change touches the level's key columns (node identity / order)" ]
  else
    match constructor_site st tree with
    | None -> Some [ "could not locate the level's element constructor" ]
    | Some exempt -> (
      (* the dependency scan re-derives lineage at every graph site, so it
         dominates per-statement planning; the scan is pure in the (immutable)
         op graph and its parameters, so memoize per (root op, table, column
         set, exempt site) — repeated updates touching the same columns, the
         common case, pay it once *)
      let key =
        (view.Compile.tree.Compile.op.Op.id, table, exempt, List.sort_uniq compare cols)
      in
      match
        memo st.dependents key (fun () ->
            Lineage.dependents ~table ~cols ~exempt view.Compile.tree.Compile.op)
      with
      | [] -> None
      | sites -> Some sites)

(* --- hypothetical-future evaluation --- *)

(* Ra_eval reconstructs the "old" state of a table as (current \ Δ) ∪ ∇.
   Feeding the rows a plan removes as Δ and the rows it adds as ∇ therefore
   makes the *future* state readable through Pre bindings — no base table is
   touched to verify a translation. *)
let future_ctx db ops =
  let tbl : (string, Value.t array list * Value.t array list) Hashtbl.t = Hashtbl.create 4 in
  let add table ~removed ~added =
    let r, a = Option.value ~default:([], []) (Hashtbl.find_opt tbl table) in
    Hashtbl.replace tbl table (removed @ r, added @ a)
  in
  List.iter
    (function
      | Ins { table; row } -> add table ~removed:[] ~added:[ row ]
      | Upd { table; before; after; _ } -> add table ~removed:[ before ] ~added:[ after ]
      | Del { table; row; _ } -> add table ~removed:[ row ] ~added:[])
    ops;
  let trans = Hashtbl.fold (fun t (r, a) acc -> (t, (r, a)) :: acc) tbl [] in
  ({ (Ra_eval.ctx_of_db db) with Ra_eval.trans }, List.map fst trans)

let future_eval db ops op =
  let ctx, touched = future_ctx db ops in
  let op = List.fold_left (fun o t -> Op.to_old ~table:t o) op touched in
  Eval.eval ctx op

let current_doc db view = Compile.materialize (Ra_eval.ctx_of_db db) view

let future_doc db view ops =
  let rel = future_eval db ops view.Compile.tree.Compile.op in
  match rel.Eval.rows with
  | [ row ] -> (
    match row.(Eval.col_index rel view.Compile.tree.Compile.node_col) with
    | Xval.Node n -> n
    | v -> fail "future document evaluated to %s" (Xval.to_string v))
  | rows -> fail "future document evaluated to %d rows" (List.length rows)

(* --- structural document edits (the expected outcome) --- *)

let rec replace_first node ~target ~repl =
  if Xml.equal node target then (repl, true)
  else
    match node with
    | Xml.Text _ -> (node, false)
    | Xml.Element { tag; attrs; children } ->
      let rec go acc found = function
        | [] -> (List.rev acc, found)
        | c :: rest ->
          if found then go (c :: acc) found rest
          else
            let c', f = replace_first c ~target ~repl in
            go (c' :: acc) f rest
      in
      let children, found = go [] false children in
      (Xml.elem ~attrs tag children, found)

let rec remove_first node ~target =
  match node with
  | Xml.Text _ -> (node, false)
  | Xml.Element { tag; attrs; children } ->
    let rec go acc found = function
      | [] -> (List.rev acc, found)
      | c :: rest ->
        if found then go (c :: acc) found rest
        else if Xml.equal c target then go acc true rest
        else
          let c', f = remove_first c ~target in
          go (c' :: acc) f rest
    in
    let children, found = go [] false children in
    (Xml.elem ~attrs tag children, found)

(* [f] must equal [c] up to exactly one extra node somewhere below; returns
   the added node.  Any other difference — a second addition, a modified
   sibling, a changed attribute (e.g. an exposed count) — is a side effect. *)
let rec diff_one_insert c f =
  if Xml.equal c f then `Same
  else
    match (c, f) with
    | Xml.Element ce, Xml.Element fe when ce.tag = fe.tag && ce.attrs = fe.attrs ->
      let nc = List.length ce.children and nf = List.length fe.children in
      if nf = nc + 1 then
        let rec try_at i =
          if i >= nf then `Mismatch
          else
            let without = List.filteri (fun j _ -> j <> i) fe.children in
            if List.for_all2 Xml.equal ce.children without then
              `Added (List.nth fe.children i)
            else try_at (i + 1)
        in
        try_at 0
      else if nf = nc then
        let rec go cs fs =
          match (cs, fs) with
          | [], [] -> `Mismatch
          | cc :: cr, fc :: fr ->
            if Xml.equal cc fc then go cr fr
            else if List.length cr = List.length fr && List.for_all2 Xml.equal cr fr then
              diff_one_insert cc fc
            else `Mismatch
          | _ -> `Mismatch
        in
        go ce.children fe.children
      else `Mismatch
    | _ -> `Mismatch

(* --- foreign-key cascade (deepest first) --- *)

let fk_dependents db table =
  List.filter_map
    (fun tname ->
      match Database.find_table db tname with
      | None -> None
      | Some tbl ->
        let s = Table.schema tbl in
        let fks = List.filter (fun fk -> fk.Schema.fk_table = table) s.Schema.foreign_keys in
        if fks = [] then None else Some (tname, s, fks))
    (Database.table_names db)

(* Deleting a base row must also delete the rows referencing it — the
   node's view subtree — in dependency order (recovery's invariant check
   flags orphaned foreign keys). *)
let cascade_deletes db table row =
  let seen = Hashtbl.create 16 in
  let acc = ref [] in
  let rec go table row =
    let schema = Table.schema (Database.get_table db table) in
    let pk = Schema.pk_of_row schema row in
    if not (Hashtbl.mem seen (table, pk)) then begin
      Hashtbl.add seen (table, pk) ();
      List.iter
        (fun (utable, uschema, fks) ->
          let utbl = Database.get_table db utable in
          List.iter
            (fun fk ->
              let ref_vals =
                List.map (fun c -> row.(Schema.col_index schema c)) fk.Schema.fk_ref_columns
              in
              let idxs = List.map (Schema.col_index uschema) fk.Schema.fk_columns in
              let matches urow =
                List.for_all2 (fun i v -> Value.equal urow.(i) v) idxs ref_vals
              in
              let rows =
                match (fk.Schema.fk_columns, ref_vals) with
                | [ c ], [ v ] when Table.has_index utbl c ->
                  Table.lookup utbl ~column:c v
                | _ -> List.filter matches (Table.to_rows utbl)
              in
              List.iter (fun urow -> if matches urow then go utable urow) rows)
            fks)
        (fk_dependents db table);
      acc := Del { table; pk; row } :: !acc
    end
  in
  go table row;
  List.rev !acc

let dedupe_ops ops =
  let key = function
    | Ins { table; row } -> (table, "I", Array.to_list row)
    | Upd { table; pk; _ } -> (table, "U", pk)
    | Del { table; pk; _ } -> (table, "D", pk)
  in
  let seen = Hashtbl.create 16 in
  List.filter
    (fun op ->
      let k = key op in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    ops

(* --- rendering --- *)

let row_to_string row =
  String.concat ", " (List.map Value.to_sql_literal (Array.to_list row))

let base_op_to_string = function
  | Ins { table; row } -> Printf.sprintf "INSERT INTO %s VALUES (%s)" table (row_to_string row)
  | Upd { table; pk; before; after } ->
    let sets = ref [] in
    Array.iteri
      (fun i v ->
        if not (Value.equal v after.(i)) then
          sets := Printf.sprintf "col%d: %s -> %s" i (Value.to_sql_literal v)
                    (Value.to_sql_literal after.(i)) :: !sets)
      before;
    Printf.sprintf "UPDATE %s SET {%s} WHERE PRIMARY KEY = (%s)" table
      (String.concat "; " (List.rev !sets))
      (String.concat ", " (List.map Value.to_sql_literal pk))
  | Del { table; pk; _ } ->
    Printf.sprintf "DELETE FROM %s WHERE PRIMARY KEY = (%s)" table
      (String.concat ", " (List.map Value.to_sql_literal pk))

(* Column-named rendering when the schema is at hand (explain output). *)
let base_op_render db = function
  | Ins { table; row } ->
    let schema = Table.schema (Database.get_table db table) in
    Printf.sprintf "INSERT INTO %s (%s) VALUES (%s)" table
      (String.concat ", " (Schema.column_names schema))
      (row_to_string row)
  | Upd { table; pk; before; after } ->
    let schema = Table.schema (Database.get_table db table) in
    let names = Array.of_list (Schema.column_names schema) in
    let sets = ref [] in
    Array.iteri
      (fun i v ->
        if not (Value.equal v after.(i)) then
          sets :=
            Printf.sprintf "%s = %s" names.(i) (Value.to_sql_literal after.(i)) :: !sets)
      before;
    let where =
      List.map2
        (fun c v -> Printf.sprintf "%s = %s" c (Value.to_sql_literal v))
        schema.Schema.primary_key pk
    in
    Printf.sprintf "UPDATE %s SET %s WHERE %s" table
      (String.concat ", " (List.rev !sets))
      (String.concat " AND " where)
  | Del { table; pk; _ } ->
    let schema = Table.schema (Database.get_table db table) in
    let where =
      List.map2
        (fun c v -> Printf.sprintf "%s = %s" c (Value.to_sql_literal v))
        schema.Schema.primary_key pk
    in
    Printf.sprintf "DELETE FROM %s WHERE %s" table (String.concat " AND " where)

let render_diagnostic d =
  let buf = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "rejected: %s" d.d_reason;
  line "  statement : %s" d.d_stmt;
  line "  view      : %S, level %s" d.d_view d.d_level;
  if d.d_table <> "" then line "  table     : %s" d.d_table;
  (match d.d_candidates with
  | [] -> ()
  | cs ->
    line "  candidate base rows (%d):" (List.length cs);
    List.iter (fun (t, row) -> line "    - %s(%s)" t (row_to_string row)) cs);
  (match d.d_side_effects with
  | [] -> ()
  | ss ->
    line "  side effects:";
    List.iter (fun s -> line "    - %s" s) ss);
  if d.d_candidates <> [] then
    line
      "  hint: a per-view strategy (Viewupdate.set_strategy / CLI update-strategy) can \
       resolve ambiguous updates";
  Buffer.contents buf

let render_plan_with ~render_op p =
  let buf = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "view-update plan: %s" p.p_text;
  line "  view      : %S, level %s (%d node%s)" p.p_view p.p_level p.p_targets
    (if p.p_targets = 1 then "" else "s");
  if p.p_anchor <> "" then line "  anchor    : table %s" p.p_anchor;
  List.iter (fun v -> line "  verdict   : %s" v) p.p_verdict;
  (match p.p_ops with
  | [] -> line "  base DML  : (none — the statement is a no-op)"
  | ops ->
    line "  base DML  :";
    List.iter (fun op -> line "    %s" (render_op op)) ops);
  Buffer.contents buf

let render_plan p = render_plan_with ~render_op:base_op_to_string p

(* --- the planner --- *)

let apply_changes schema changes row =
  let row = Array.copy row in
  List.iter (fun (c, _, nv) -> row.(Schema.col_index schema c) <- nv) changes;
  row

let injectivity_verdict db (view : Compile.view) table =
  let schema_of name = Table.schema (Database.get_table db name) in
  Printf.sprintf "injectivity w.r.t. %s: %s" table
    (Xqgm.Injective.verdict_to_string
       (Xqgm.Injective.analyze ~table ~schema_of view.Compile.tree.Compile.op))

(* Strategy resolution: hand the candidates to the view's hook, or reject
   with the full diagnostic. *)
let resolve_ambiguity strat amb ~diagnostic =
  match strat with
  | Reject_ambiguous -> raise (Rejected (diagnostic ()))
  | First_candidate -> (
    match amb.amb_candidates with
    | [] -> raise (Rejected (diagnostic ()))
    | r :: _ -> ([ r ], "ambiguity resolved by strategy first-candidate"))
  | All_candidates -> (
    match amb.amb_candidates with
    | [] -> raise (Rejected (diagnostic ()))
    | rs -> (rs, "ambiguity resolved by strategy all-candidates"))
  | Custom f -> (
    match f amb with
    | Some rows when rows <> [] -> (rows, "ambiguity resolved by custom strategy hook")
    | _ -> raise (Rejected (diagnostic ())))

(* Locate the unique base row behind an anchored target tuple. *)
let anchored_row db ~table ~pk_slots (get : string -> Value.t) =
  let pk = List.map (fun (_, out) -> get out) pk_slots in
  match Table.find_pk (Database.get_table db table) pk with
  | Some row -> row
  | None -> fail "the node's base row vanished from %s during planning" table

(* Shared: pick the base rows a target tuple maps to, via anchor or
   strategy-resolved candidates.  Returns (table, schema, rows, verdict). *)
let rows_for_target st db view strat stmt_text level_str tree lin
    (get : string -> Value.t) (get_opt : string -> Xval.t option) =
  match anchor_of_level st db tree with
  | Anchored { table; schema; pk_slots } ->
    (table, schema, [ anchored_row db ~table ~pk_slots get ],
     Printf.sprintf "anchored: level key pins one %s row by primary key" table)
  | Unanchored { table = Some table; schema = Some schema; reason } -> (
    let cands = candidate_rows db ~table lin get_opt in
    match cands with
    | [ row ] ->
      (table, schema, [ row ],
       Printf.sprintf "not key-anchored (%s), but a single %s row matches the node" reason
         table)
    | _ ->
      let amb =
        { amb_stmt = stmt_text;
          amb_view = view.Compile.view_name;
          amb_level = level_str;
          amb_table = table;
          amb_schema = schema;
          amb_candidates = cands;
        }
      in
      let diagnostic () =
        { d_stmt = stmt_text;
          d_view = view.Compile.view_name;
          d_level = level_str;
          d_table = table;
          d_reason =
            Printf.sprintf "ambiguous update: %s; %d candidate rows of %s match the node"
              reason (List.length cands) table;
          d_candidates = List.map (fun r -> (table, r)) cands;
          d_side_effects = [];
        }
      in
      let rows, verdict = resolve_ambiguity strat amb ~diagnostic in
      (table, schema, rows, verdict))
  | Unanchored { table; schema = _; reason } ->
    raise
      (Rejected
         { d_stmt = stmt_text;
           d_view = view.Compile.view_name;
           d_level = level_str;
           d_table = (match table with Some t -> t | None -> "");
           d_reason = Printf.sprintf "the targeted level maps to no unique base row: %s" reason;
           d_candidates = [];
           d_side_effects = [];
         })

let reject_side_effects ~stmt_text ~view ~level_str ~table ~sides =
  raise
    (Rejected
       { d_stmt = stmt_text;
         d_view = view.Compile.view_name;
         d_level = level_str;
         d_table = table;
         d_reason = "the translated statements would change untargeted view nodes";
         d_candidates = [];
         d_side_effects = sides;
       })

(* Expected key values of the replaced node in the future state. *)
let expected_future_key tree lin ~table changes (get : string -> Value.t) =
  List.map
    (fun k ->
      match lineage_base lin k with
      | Some (t, c) when t = table -> (
        match List.find_opt (fun (c', _, _) -> c' = c) changes with
        | Some (_, _, nv) -> (k, nv)
        | None -> (k, get k))
      | _ -> (k, get k))
    tree.Compile.key

(* Find the level row with the given key values in a (future) evaluation. *)
let find_level_row rel (key_vals : (string * Value.t) list) =
  let idx = List.map (fun (k, v) -> (Eval.col_index rel k, v)) key_vals in
  List.find_opt
    (fun row ->
      List.for_all
        (fun (i, v) ->
          match row.(i) with Xval.Atom a -> Value.equal a v | _ -> false)
        idx)
    rel.Eval.rows

(* -- REPLACE -- *)

(* Fast path: a leaf-level REPLACE whose final-step predicate is a
   conjunction of field equalities resolvable to anchor-table columns skips
   the level evaluation entirely — target rows come straight off the base
   table (by primary key or index), and the static dependency check makes
   document materialization unnecessary.  This is what keeps view-DML
   within a few percent of direct base DML on the Table-2 workload. *)
let pred_constraints (pred : Ast.expr option) =
  let rec field_of (p : Ast.path) =
    match (p.Ast.root, p.Ast.steps) with
    | Ast.R_var ".", [ { Ast.axis = Ast.Attribute; name; predicate = None } ] ->
      Some ("@" ^ name)
    | Ast.R_var ".", [ { Ast.axis = Ast.Child; name; predicate = None } ] -> Some name
    | _ -> None
  and go = function
    | Ast.And (a, b) -> (
      match (go a, go b) with Some x, Some y -> Some (x @ y) | _ -> None)
    | Ast.Cmp (Ast.Eq, Ast.Path p, Ast.Lit v) | Ast.Cmp (Ast.Eq, Ast.Lit v, Ast.Path p) -> (
      match field_of p with Some f -> Some [ (f, v) ] | None -> None)
    | _ -> None
  in
  match pred with None -> None | Some e -> go e

(* Memoized, so the fast path's visibility probes pay planner work once per
   view level. *)
let shred_of st (op : Op.t) =
  memo st.shreds op.Op.id (fun () ->
      try Some (Pushdown.shred op) with Pushdown.Not_pushable _ -> None)

let probe_name =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "vuprobe$%d" !n

(* A probe asks whether a level has a row matching some key values.  The
   restricted plan is built and physically planned ONCE per (database,
   level op, key column set) — {!Ra_opt.push_semijoin} over the shredded
   scalar plan with the keys delivered through a [Ra.Rel] binding, the same
   parameterized-semijoin trick the trigger path uses for fragment
   restriction — so the per-statement cost is a few index accesses, not
   plan construction.  Memoized in the runtime's {!state}, whose database
   the compiled plan reads. *)
let probe_for st db (tree : Compile.view_tree) kcols =
  match shred_of st tree.Compile.op with
  | None -> None
  | Some sh ->
    let plan_cols = Ra.columns sh.Pushdown.plan in
    if kcols = [] || not (List.for_all (fun c -> List.mem c plan_cols) kcols) then None
    else
      Some
        (memo st.probes (tree.Compile.op.Op.id, kcols) (fun () ->
             let name = probe_name () in
             let plan =
               Ra_opt.push_semijoin
                 ~keys:(Ra.Scan (Ra.Rel name, List.map (fun c -> (c, c)) kcols))
                 ~on:(List.map (fun c -> (c, c)) kcols)
                 sh.Pushdown.plan
             in
             let run =
               match Ra_compile.compile db plan with
               | exec -> fun ctx -> Ra_compile.exec exec ctx
               | exception (Not_found | Invalid_argument _) ->
                 fun ctx -> Ra_eval.eval ctx plan
             in
             { pr_rel = name; pr_run = run }))

(* Does the level have a row matching [keys]?  [None] = cannot decide here
   (unshreddable op, or a key column missing from the scalar plan);
   [Some None] = no such row; [Some (Some (cols, row))] = the first
   matching row's scalar columns. *)
let level_probe st db (tree : Compile.view_tree) (keys : (string * Value.t) list) =
  match probe_for st db tree (List.map fst keys) with
  | None -> None
  | Some p ->
    let krel =
      { Ra_eval.cols = Array.of_list (List.map fst keys);
        rows = [ Array.of_list (List.map snd keys) ];
      }
    in
    let ctx = { (Ra_eval.ctx_of_db db) with Ra_eval.rels = [ (p.pr_rel, krel) ] } in
    let rel = p.pr_run ctx in
    (match rel.Ra_eval.rows with
    | [] -> Some None
    | row :: _ -> Some (Some (rel.Ra_eval.cols, row)))

(* Whether every row of the anchor [table] reaches the level relation — the
   shredded level plan applies no filter to the anchor's rows: no Select,
   and the anchor reached only through Project / Distinct / Order_by /
   Shared and the LEFT side of left-outer joins.  For such a level, a
   node's visibility in the level relation is exactly base-row existence,
   so visibility checks can replace the compiled probe with a primary-key
   lookup.  (Left-outer right sides may duplicate left rows; that affects
   multiplicity, never existence, which is all the callers ask.) *)
let rec anchor_preserving ~table (plan : Ra.t) =
  match plan with
  | Ra.Scan (Ra.Base t, _) -> t = table
  | Ra.Project (_, p) | Ra.Distinct p | Ra.Order_by (_, p) | Ra.Shared (_, p) ->
    anchor_preserving ~table p
  | Ra.Join (Ra.Left_outer, _, l, _) -> anchor_preserving ~table l
  | _ -> false

(* Does the level relation trivially contain the rows of its anchor table
   (see {!anchor_preserving})?  Memoized per level op. *)
let level_filter_free st (tree : Compile.view_tree) ~table =
  memo st.filter_free tree.Compile.op.Op.id (fun () ->
      match shred_of st tree.Compile.op with
      | None -> false
      | Some sh -> anchor_preserving ~table sh.Pushdown.plan)

(* Renders the level element for one base row straight from the level's
   constructor expression, mirroring {!Eval}'s [Elem] semantics (attribute
   values atomize and drop NULLs; atom children become text nodes).  Covers
   the Col/Const/Elem fragment the compiler emits for levels whose columns
   all copy the anchor table; [None] = unsupported shape. *)
let render_node_of_row ~table ~schema lin row (elem : Expr.t) =
  let rec all f = function
    | [] -> Some []
    | x :: rest -> (
      match f x with
      | None -> None
      | Some y -> Option.map (fun ys -> y :: ys) (all f rest))
  in
  let rec go e =
    match e with
    | Expr.Const v -> Some (Xval.Atom v)
    | Expr.Col c -> (
      match lineage_base lin c with
      | Some (t, bc) when t = table ->
        Some (Xval.Atom row.(Schema.col_index schema bc))
      | _ -> None)
    | Expr.Elem { tag; attrs; content } ->
      Option.bind (all (fun (k, e) -> Option.map (fun v -> (k, v)) (go e)) attrs)
        (fun avs ->
          Option.map
            (fun cvs ->
              let attrs =
                List.filter_map
                  (fun (k, v) ->
                    match Xval.atomize v with
                    | Value.Null -> None
                    | a -> Some (k, Value.to_string a))
                  avs
              in
              Xval.Node (Xml.elem ~attrs tag (List.concat_map Xval.to_nodes cvs)))
            (all go content))
    | _ -> None
  in
  match go elem with Some (Xval.Node n) -> Some n | _ -> None

let try_fast_replace st db view tree pred xml text level_str =
  match anchor_of_level st db tree with
  | Unanchored _ -> None
  | Anchored { table; schema; pk_slots } -> (
    let lin = lin_of st tree.Compile.op in
    let all_fields_anchored =
      List.for_all
        (fun (f, out) ->
          is_count_field f
          || match lineage_base lin out with Some (t, _) -> t = table | None -> false)
        tree.Compile.fields
    in
    if tree.Compile.children <> [] || not all_fields_anchored then None
    else
      match pred_constraints pred with
      | None -> None
      | Some cs -> (
        (* field constraints -> base-column constraints *)
        let base_cs =
          List.map
            (fun (f, v) ->
              match List.assoc_opt f tree.Compile.fields with
              | None -> raise Exit
              | Some out -> (
                match lineage_base lin out with
                | Some (t, c) when t = table -> (c, coerce (col_type schema c) v)
                | _ -> raise Exit))
            cs
        in
        match
          (let covers_pk =
             List.for_all (fun c -> List.mem_assoc c base_cs) schema.Schema.primary_key
           in
           let tbl = Database.get_table db table in
           let matches row =
             List.for_all
               (fun (c, v) -> Value.equal row.(Schema.col_index schema c) v)
               base_cs
           in
           if covers_pk then
             let pk = List.map (fun c -> List.assoc c base_cs) schema.Schema.primary_key in
             match Table.find_pk tbl pk with
             | Some row when matches row -> [ row ]
             | _ -> []
           else
             match
               List.find_opt (fun (c, _) -> Table.has_index tbl c) base_cs
             with
             | Some (c, v) -> List.filter matches (Table.lookup tbl ~column:c v)
             | None -> List.filter matches (Table.to_rows tbl))
        with
        | [] -> fail "no node matches the path"
        | _ :: _ :: _ -> None (* ambiguous: let the generic path build the diagnostic *)
        | [ row ] -> (
          (* the base row alone does not prove the node is in the view: the
             level's predicates, which carry its ancestors', must hold.
             Probe the level relation through the pushdown engine — index
             probes, not scans; an unshreddable level falls back to the
             generic path (Exit).  The row is known to exist, so a
             filter-free level needs no probe. *)
          (if not (level_filter_free st tree ~table) then
             let probe_keys =
               List.map (fun (c, out) -> (out, row.(Schema.col_index schema c))) pk_slots
             in
             match level_probe st db tree probe_keys with
             | None -> raise Exit
             | Some None ->
               fail "no node matches the path (a level predicate excludes the node \
                     from the view)"
             | Some (Some _) -> ());
          (* the replacement must pass the same shape check as the generic
             path, against the node this row currently renders *)
          let old_node =
            match constructor_def st tree with
            | None -> raise Exit
            | Some (_, elem, input) -> (
              match
                render_node_of_row ~table ~schema (lin_of st input) row elem
              with
              | Some n -> n
              | None -> raise Exit)
          in
          check_replace_shape tree ~old_node xml;
          let get out =
            match lineage_base lin out with
            | Some (t, c) when t = table -> row.(Schema.col_index schema c)
            | _ -> raise Exit
          in
          let changes = replace_changes db ~anchor:table lin tree ~get xml in
          if changes = [] then
            Some
              { p_text = text;
                p_view = view.Compile.view_name;
                p_level = level_str;
                p_anchor = table;
                p_targets = 1;
                p_verdict = [ "no-op: every field already has the given value" ];
                p_ops = [];
              }
          else
            match
              static_unsafe st view tree lin ~table
                ~cols:(List.map (fun (c, _, _) -> c) changes)
            with
            | Some _ -> None (* fall back to the dynamic differential check *)
            | None ->
              let after = apply_changes schema changes row in
              Some
                { p_text = text;
                  p_view = view.Compile.view_name;
                  p_level = level_str;
                  p_anchor = table;
                  p_targets = 1;
                  p_verdict =
                    [ "anchored: level key pins one row by primary key";
                      "statically safe: the changed columns feed only this node's constructor";
                    ];
                  p_ops = [ Upd { table; pk = Schema.pk_of_row schema row; before = row; after } ];
                })))

let plan_replace st db view strat path xml text =
  if path.Ast.steps = [] then fail "the document element cannot be replaced";
  let last = List.nth path.Ast.steps (List.length path.Ast.steps - 1) in
  let m = monitored_of view path in
  let tree = m.Compose.m_tree in
  let level_str = level_path view tree in
  match
    try try_fast_replace st db view tree last.Ast.predicate xml text level_str
    with Exit -> None
  with
  | Some p -> p
  | None -> (
    let targets = eval_targets db m ~where:None in
    match targets with
    | [] -> fail "no node matches %s" (Ast.path_to_string path)
    | _ :: _ :: _ ->
      fail "REPLACE targets %d nodes; the path must select exactly one"
        (List.length targets)
    | [ tgt ] ->
      check_replace_shape tree ~old_node:tgt.t_node xml;
      let lin = lin_of st tree.Compile.op in
      let get_opt out = List.assoc_opt out tgt.t_row in
      let get out =
        match get_opt out with
        | Some v -> Xval.atomize v
        | None -> fail "level has no column %S" out
      in
      let table, schema, rows, how =
        rows_for_target st db view strat text level_str tree lin get get_opt
      in
      let changes = replace_changes db ~anchor:table lin tree ~get xml in
      if changes = [] then
        { p_text = text;
          p_view = view.Compile.view_name;
          p_level = level_str;
          p_anchor = table;
          p_targets = 1;
          p_verdict = [ how; "no-op: every field already has the given value" ];
          p_ops = [];
        }
      else begin
        let ops =
          List.map
            (fun row ->
              Upd
                { table;
                  pk = Schema.pk_of_row schema row;
                  before = row;
                  after = apply_changes schema changes row;
                })
            rows
        in
        let cols = List.map (fun (c, _, _) -> c) changes in
        let verdict =
          match static_unsafe st view tree lin ~table ~cols with
          | None ->
            [ how;
              "statically safe: the changed columns feed only this node's constructor";
            ]
          | Some sites ->
            (* dynamic differential check over the hypothetical future state *)
            let fdoc = future_doc db view ops in
            let frel = future_eval db ops tree.Compile.op in
            let key_vals = expected_future_key tree lin ~table changes get in
            let new_node =
              match find_level_row frel key_vals with
              | Some row -> (
                match row.(Eval.col_index frel tree.Compile.node_col) with
                | Xval.Node n -> n
                | _ -> fail "future level row did not produce a node")
              | None ->
                reject_side_effects ~stmt_text:text ~view ~level_str ~table
                  ~sides:
                    ("the targeted node disappears from the view after the update"
                    :: sites)
            in
            let expected, _ =
              replace_first (current_doc db view) ~target:tgt.t_node ~repl:new_node
            in
            if Xml.equal fdoc expected then
              [ how;
                "verified dynamically: only the targeted node re-renders (dependent sites \
                 checked by differential evaluation)";
              ]
            else
              reject_side_effects ~stmt_text:text ~view ~level_str ~table
                ~sides:
                  ("re-evaluating the view over the translated update changes more than \
                    the targeted node"
                  :: sites)
        in
        { p_text = text;
          p_view = view.Compile.view_name;
          p_level = level_str;
          p_anchor = table;
          p_targets = 1;
          p_verdict = injectivity_verdict db view table :: verdict;
          p_ops = ops;
        }
      end)

(* -- DELETE -- *)

let plan_delete st db view strat path where text =
  if path.Ast.steps = [] then fail "the document element cannot be deleted";
  let m = monitored_of view path in
  let tree = m.Compose.m_tree in
  let level_str = level_path view tree in
  let targets = eval_targets db m ~where in
  if targets = [] then fail "no node matches %s" (Ast.path_to_string path);
  let lin = lin_of st tree.Compile.op in
  let anchor_desc = ref "" in
  let verdicts = ref [] in
  let ops =
    List.concat_map
      (fun tgt ->
        let get_opt out = List.assoc_opt out tgt.t_row in
        let get out =
          match get_opt out with
          | Some v -> Xval.atomize v
          | None -> fail "level has no column %S" out
        in
        let table, _, rows, how =
          rows_for_target st db view strat text level_str tree lin get get_opt
        in
        anchor_desc := table;
        if not (List.mem how !verdicts) then verdicts := how :: !verdicts;
        List.concat_map (fun row -> cascade_deletes db table row) rows)
      targets
    |> dedupe_ops
  in
  (* dynamic verification: the future document must equal the current one
     with exactly the targeted nodes removed *)
  let fdoc = future_doc db view ops in
  let expected =
    List.fold_left
      (fun doc tgt -> fst (remove_first doc ~target:tgt.t_node))
      (current_doc db view) targets
  in
  if not (Xml.equal fdoc expected) then
    reject_side_effects ~stmt_text:text ~view ~level_str ~table:!anchor_desc
      ~sides:
        [ "re-evaluating the view over the translated deletes does not remove exactly \
           the targeted nodes (untargeted nodes change or a target stays visible)";
        ];
  { p_text = text;
    p_view = view.Compile.view_name;
    p_level = level_str;
    p_anchor = !anchor_desc;
    p_targets = List.length targets;
    p_verdict =
      injectivity_verdict db view !anchor_desc
      :: List.rev !verdicts
      @ [ "verified dynamically: the future document equals the current one minus the \
           targeted nodes" ];
    p_ops = ops;
  }

(* -- INSERT -- *)

let plan_insert st db view strat into xml text =
  let m = monitored_of view into in
  let ptree = m.Compose.m_tree in
  let parents = eval_targets db m ~where:None in
  let parent =
    match parents with
    | [ p ] -> p
    | [] -> fail "no parent node matches %s" (Ast.path_to_string into)
    | ps -> fail "INSERT path matches %d parent nodes; it must select exactly one"
              (List.length ps)
  in
  let tag =
    match xml with
    | Xml.Element { tag; _ } -> tag
    | Xml.Text _ -> fail "the inserted node must be an element"
  in
  let tree =
    match List.find_opt (fun c -> c.Compile.elem_tag = tag) ptree.Compile.children with
    | Some t -> t
    | None ->
      fail "view %S has no <%s> level under <%s>" view.Compile.view_name tag
        ptree.Compile.elem_tag
  in
  let level_str = level_path view tree in
  check_insert_shape tree xml;
  let lin = lin_of st tree.Compile.op in
  let build_row table schema =
    let row = Array.make (Schema.arity schema) Value.Null in
    let setc c v =
      let i = Schema.col_index schema c in
      if Value.is_null row.(i) then row.(i) <- v
      else if not (Value.equal row.(i) v) then
        fail "conflicting values for column %s of %s: %s vs %s" c table
          (Value.to_string row.(i)) (Value.to_string v)
    in
    List.iter
      (fun (field, out) ->
        if not (is_count_field field) then
          match lineage_base lin out with
          | Some (t, c) when t = table -> (
            match xml_field_value xml field with
            | Some s -> setc c (value_of_text (col_type schema c) s)
            | None -> ())
          | _ -> (
            match xml_field_value xml field with
            | Some _ ->
              fail "field %s of <%s> is derived from a joined table, not insertable"
                field tag
            | None -> ()))
      tree.Compile.fields;
    (* correlation columns inherit the parent's values (the join back to the
       parent level), e.g. the leaf's [parent] foreign key *)
    List.iter
      (fun corr ->
        match lineage_base lin corr with
        | Some (t, c) when t = table -> (
          match List.assoc_opt corr parent.t_row with
          | Some v -> setc c (Xval.atomize v)
          | None -> ())
        | _ -> ())
      tree.Compile.corr;
    (match Schema.validate_row schema row with
    | Ok () -> ()
    | Error msg -> fail "cannot build a %s row from <%s>: %s" table tag msg);
    (match Table.find_pk (Database.get_table db table) (Schema.pk_of_row schema row) with
    | Some _ -> fail "a %s row with this primary key already exists" table
    | None -> ());
    (* early foreign-key check: execution would reject it anyway, but here
       the message still has the XML-side context *)
    List.iter
      (fun fk ->
        let vals = List.map (fun c -> row.(Schema.col_index schema c)) fk.Schema.fk_columns in
        if not (List.exists Value.is_null vals) then
          match Database.find_table db fk.Schema.fk_table with
          | None -> ()
          | Some rtbl ->
            let rs = Table.schema rtbl in
            let ok =
              if fk.Schema.fk_ref_columns = rs.Schema.primary_key then
                Table.find_pk rtbl vals <> None
              else
                List.exists
                  (fun r ->
                    List.for_all2
                      (fun c v -> Value.equal r.(Schema.col_index rs c) v)
                      fk.Schema.fk_ref_columns vals)
                  (Table.to_rows rtbl)
            in
            if not ok then
              fail "foreign key (%s) -> %s has no matching row"
                (String.concat ", " fk.Schema.fk_columns)
                fk.Schema.fk_table)
      schema.Schema.foreign_keys;
    row
  in
  let table, schema, rows, how =
    match anchor_of_level st db tree with
    | Anchored { table; schema; _ } ->
      (table, schema, [ build_row table schema ],
       Printf.sprintf "anchored: the new node becomes one %s row" table)
    | Unanchored { table; schema = _; reason } -> (
      let table' = match table with Some t -> t | None -> "" in
      let diagnostic () =
        { d_stmt = text;
          d_view = view.Compile.view_name;
          d_level = level_str;
          d_table = table';
          d_reason =
            Printf.sprintf "the <%s> level maps to no unique base row: %s" tag reason;
          d_candidates = [];
          d_side_effects = [];
        }
      in
      match (table, strat) with
      | Some t, Custom f -> (
        let schema = Table.schema (Database.get_table db t) in
        let amb =
          { amb_stmt = text;
            amb_view = view.Compile.view_name;
            amb_level = level_str;
            amb_table = t;
            amb_schema = schema;
            amb_candidates = [];
          }
        in
        match f amb with
        | Some rows when rows <> [] ->
          (t, schema, rows, "rows supplied by custom strategy hook")
        | _ -> raise (Rejected (diagnostic ())))
      | _ -> raise (Rejected (diagnostic ())))
  in
  let ops = List.map (fun row -> Ins { table; row }) rows in
  (* dynamic verification: exactly one node appears, it is the new node, and
     it sits under the targeted parent (correlation columns match) *)
  let fdoc = future_doc db view ops in
  let cdoc = current_doc db view in
  let verdict =
    match diff_one_insert cdoc fdoc with
    | `Same ->
      [ "the new row is not visible in the view (a level predicate filters it); the \
         document is unchanged";
      ]
    | `Mismatch ->
      reject_side_effects ~stmt_text:text ~view ~level_str ~table
        ~sides:
          [ "re-evaluating the view over the translated insert changes more than one \
             node (e.g. a sibling re-renders or another level's predicate flips)";
          ]
    | `Added n -> (
      let frel = future_eval db ops tree.Compile.op in
      let confirm row =
        let pk = Schema.pk_of_row schema row in
        let found =
          List.find_opt
            (fun frow ->
              match anchor_of_level st db tree with
              | Anchored { pk_slots; _ } ->
                List.for_all2
                  (fun (_, out) v ->
                    match frow.(Eval.col_index frel out) with
                    | Xval.Atom a -> Value.equal a v
                    | _ -> false)
                  pk_slots pk
              | Unanchored _ -> true)
            frel.Eval.rows
        in
        match found with
        | None -> false
        | Some frow ->
          let node_ok =
            match frow.(Eval.col_index frel tree.Compile.node_col) with
            | Xval.Node nd -> Xml.equal nd n
            | _ -> false
          in
          let corr_ok =
            List.for_all
              (fun corr ->
                match
                  (List.assoc_opt corr parent.t_row, Eval.col_index frel corr)
                with
                | Some pv, i -> (
                  match frow.(i) with
                  | Xval.Atom a -> Value.equal a (Xval.atomize pv)
                  | v -> Xval.equal v pv)
                | None, _ -> true
                | exception Not_found -> true)
              tree.Compile.corr
          in
          node_ok && corr_ok
      in
      if List.exists confirm rows then
        [ "verified dynamically: exactly the new node appears, under the targeted parent" ]
      else
        reject_side_effects ~stmt_text:text ~view ~level_str ~table
          ~sides:
            [ "the translated insert renders a node, but not the targeted one (wrong \
               parent or different content)";
            ])
  in
  { p_text = text;
    p_view = view.Compile.view_name;
    p_level = level_str;
    p_anchor = table;
    p_targets = 1;
    p_verdict = (injectivity_verdict db view table :: how :: verdict);
    p_ops = ops;
  }

(* --- entry points --- *)

let plan rt ?strategy text =
  let stmt = parse text in
  let path =
    match stmt with
    | Insert_node { into; _ } -> into
    | Replace_node { path; _ } -> path
    | Delete_node { path; _ } -> path
  in
  let vname = view_name_of path in
  let view =
    match Runtime.find_view rt vname with
    | Some v -> v
    | None -> fail "unknown view %S" vname
  in
  let db = Runtime.database rt and st = state_of rt in
  let strat = match strategy with Some s -> s | None -> strategy_for rt ~view:vname in
  match stmt with
  | Replace_node { path; xml } -> plan_replace st db view strat path xml (String.trim text)
  | Delete_node { path; where } -> plan_delete st db view strat path where (String.trim text)
  | Insert_node { xml; into } -> plan_insert st db view strat into xml (String.trim text)

let execute rt ?strategy text =
  let p = plan rt ?strategy text in
  match p.p_ops with
  | [] -> p
  | ops ->
    let db = Runtime.database rt in
    let name = Printf.sprintf "vdml%d" (Database.statement_count db + 1) in
    (* provenance: recovery sees which view-DML statement the WAL's base
       statements were translated from.  WAL only — no catalog entry, so the
       next checkpoint leaves it behind *)
    Runtime.log_meta rt ~kind:"viewdml" ~name ~payload:p.p_text;
    Database.with_statement_origin db p.p_text (fun () ->
        (* The plan was verified as one atomic unit, so it must not be
           left half-applied: each op re-validates its plan-time before
           image (a trigger may have written the row since planning),
           and any failure — validation, an FK rejection, a trigger
           raising — compensates the already-applied ops in reverse,
           through the Database path so the rollback also lands in the
           WAL and fires triggers symmetrically. *)
        let rows_equal a b =
          Array.length a = Array.length b
          && Array.for_all2 Value.equal a b
        in
        let check_before table pk expect =
          match Table.find_pk (Database.get_table db table) pk with
          | None -> fail "row of %s vanished during execution" table
          | Some cur ->
            if not (rows_equal cur expect) then
              fail "a row of %s changed between planning and execution (a trigger \
                    wrote it); the view update is aborted"
                table
        in
        let apply op =
          match op with
          | Ins { table; row } -> Database.insert_rows db ~table [ row ]
          | Upd { table; pk; before; after } ->
            check_before table pk before;
            if not (Database.update_pk db ~table ~pk ~set:(fun _ -> after)) then
              fail "row of %s vanished during execution" table
          | Del { table; pk; row } ->
            check_before table pk row;
            ignore (Database.delete_pk db ~table ~pk)
        in
        (* An exception can escape mid-write (a trigger raising after
           the row landed), so the op being applied when the failure hit
           is compensated too — undo inspects the current state to tell
           whether the write actually took effect. *)
        let undo op =
          match op with
          | Ins { table; row } ->
            let schema = Table.schema (Database.get_table db table) in
            ignore (Database.delete_pk db ~table ~pk:(Schema.pk_of_row schema row))
          | Upd { table; pk; before; after } ->
            let schema = Table.schema (Database.get_table db table) in
            (* key by the after image: the update may have changed PK
               columns; falls back to the before key when the write
               never landed *)
            let apk = Schema.pk_of_row schema after in
            if
              not (Database.update_pk db ~table ~pk:apk ~set:(fun _ -> before))
            then (
              match Table.find_pk (Database.get_table db table) pk with
              | Some cur when rows_equal cur before -> ()
              | _ -> fail "cannot restore a row of %s" table)
          | Del { table; pk; row } -> (
            match Table.find_pk (Database.get_table db table) pk with
            | Some _ -> () (* the delete never landed *)
            | None -> Database.insert_rows db ~table [ row ])
        in
        let applied = ref [] in
        try
          List.iter
            (fun op ->
              applied := op :: !applied;
              apply op)
            ops
        with exn ->
          let bt = Printexc.get_raw_backtrace () in
          let failures = ref [] in
          List.iter
            (fun op ->
              try undo op with e -> failures := Printexc.to_string e :: !failures)
            !applied;
          (match !failures with
          | [] -> ()
          | fs ->
            fail "view update failed (%s) and compensation also failed (%s); the \
                  database may hold a partial translation"
              (Printexc.to_string exn) (String.concat "; " fs));
          Printexc.raise_with_backtrace exn bt);
    p

let explain rt text =
  match plan rt text with
  | p ->
    let db = Runtime.database rt in
    render_plan_with ~render_op:(base_op_render db) p ^ "  (not executed)\n"
  | exception Rejected d -> render_diagnostic d
