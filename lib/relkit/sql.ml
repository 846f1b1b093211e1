exception Error of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Error msg)) fmt

type result =
  | Rows of Ra_eval.rel
  | Affected of int
  | Done

(* unquoted identifiers resolve case-insensitively, like column names *)
let find_table_ci db name =
  match Database.find_table db name with
  | Some t -> Some (Table.schema t).Schema.name
  | None ->
    List.find_opt
      (fun t -> String.lowercase_ascii t = String.lowercase_ascii name)
      (Database.table_names db)

(* --- lexer --- *)

type token =
  | Id of string  (* identifier or keyword, original case *)
  | Num of Value.t
  | Str of string
  | Punct of string

let keyword t = String.uppercase_ascii t

let lex input =
  let n = String.length input in
  let tokens = ref [] in
  let i = ref 0 in
  let is_id_start c = ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || c = '_' in
  let is_id c = is_id_start c || ('0' <= c && c <= '9') || c = '$' in
  while !i < n do
    let c = input.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '-' && !i + 1 < n && input.[!i + 1] = '-' then begin
      (* line comment *)
      while !i < n && input.[!i] <> '\n' do
        incr i
      done
    end
    else if is_id_start c then begin
      let start = !i in
      while !i < n && is_id input.[!i] do
        incr i
      done;
      tokens := Id (String.sub input start (!i - start)) :: !tokens
    end
    else if ('0' <= c && c <= '9') || (c = '.' && !i + 1 < n && '0' <= input.[!i + 1] && input.[!i + 1] <= '9')
    then begin
      let start = !i in
      let dot = ref false in
      while
        !i < n
        && (('0' <= input.[!i] && input.[!i] <= '9')
           || (input.[!i] = '.' && not !dot))
      do
        if input.[!i] = '.' then dot := true;
        incr i
      done;
      let s = String.sub input start (!i - start) in
      let v =
        if !dot then Value.Float (float_of_string s)
        else
          match int_of_string_opt s with
          | Some i -> Value.Int i
          | None -> fail "integer literal out of range"
      in
      tokens := Num v :: !tokens
    end
    else if c = '\'' then begin
      incr i;
      let buf = Buffer.create 8 in
      let closed = ref false in
      while not !closed do
        if !i >= n then fail "unterminated string literal";
        if input.[!i] = '\'' then
          if !i + 1 < n && input.[!i + 1] = '\'' then begin
            Buffer.add_char buf '\'';
            i := !i + 2
          end
          else begin
            closed := true;
            incr i
          end
        else begin
          Buffer.add_char buf input.[!i];
          incr i
        end
      done;
      tokens := Str (Buffer.contents buf) :: !tokens
    end
    else begin
      let two = if !i + 1 < n then String.sub input !i 2 else "" in
      match two with
      | "<=" | ">=" | "<>" | "!=" ->
        tokens := Punct two :: !tokens;
        i := !i + 2
      | _ -> (
        match c with
        | '(' | ')' | ',' | ';' | '*' | '=' | '<' | '>' | '+' | '-' | '/' | '%' | '.' ->
          tokens := Punct (String.make 1 c) :: !tokens;
          incr i
        | c -> fail "unexpected character %C" c)
    end
  done;
  List.rev !tokens

(* --- token stream --- *)

type stream = {
  mutable toks : token list;
}

let peek st = match st.toks with [] -> None | t :: _ -> Some t
let advance st = match st.toks with [] -> () | _ :: rest -> st.toks <- rest

let eat_kw st kw =
  match peek st with
  | Some (Id t) when keyword t = kw ->
    advance st;
    true
  | _ -> false

let expect_kw st kw = if not (eat_kw st kw) then fail "expected %s" kw

let eat_punct st p =
  match peek st with
  | Some (Punct q) when q = p ->
    advance st;
    true
  | _ -> false

let expect_punct st p = if not (eat_punct st p) then fail "expected %S" p

let ident st =
  match peek st with
  | Some (Id t) ->
    advance st;
    t
  | _ -> fail "expected an identifier"

(* --- expressions --- *)

type sexpr =
  | E_col of string option * string  (* qualifier, column *)
  | E_const of Value.t
  | E_binop of Ra.binop * sexpr * sexpr
  | E_not of sexpr
  | E_is_null of sexpr * bool  (* negated? *)
  | E_agg_raw of string * sexpr option  (* aggregate: function name, argument *)

let rec parse_expr st = parse_or st

and parse_or st =
  let left = parse_and st in
  if eat_kw st "OR" then E_binop (Ra.Or, left, parse_or st) else left

and parse_and st =
  let left = parse_not st in
  if eat_kw st "AND" then E_binop (Ra.And, left, parse_and st) else left

and parse_not st = if eat_kw st "NOT" then E_not (parse_not st) else parse_cmp st

and parse_cmp st =
  let left = parse_add st in
  if eat_kw st "IS" then begin
    let negated = eat_kw st "NOT" in
    expect_kw st "NULL";
    E_is_null (left, negated)
  end
  else
    match peek st with
    | Some (Punct "=") ->
      advance st;
      E_binop (Ra.Eq, left, parse_add st)
    | Some (Punct ("<>" | "!=")) ->
      advance st;
      E_binop (Ra.Neq, left, parse_add st)
    | Some (Punct "<=") ->
      advance st;
      E_binop (Ra.Le, left, parse_add st)
    | Some (Punct ">=") ->
      advance st;
      E_binop (Ra.Ge, left, parse_add st)
    | Some (Punct "<") ->
      advance st;
      E_binop (Ra.Lt, left, parse_add st)
    | Some (Punct ">") ->
      advance st;
      E_binop (Ra.Gt, left, parse_add st)
    | _ -> left

and parse_add st =
  let left = ref (parse_mul st) in
  let continue = ref true in
  while !continue do
    if eat_punct st "+" then left := E_binop (Ra.Add, !left, parse_mul st)
    else if eat_punct st "-" then left := E_binop (Ra.Sub, !left, parse_mul st)
    else continue := false
  done;
  !left

and parse_mul st =
  let left = ref (parse_primary st) in
  let continue = ref true in
  while !continue do
    if eat_punct st "*" then left := E_binop (Ra.Mul, !left, parse_primary st)
    else if eat_punct st "/" then left := E_binop (Ra.Div, !left, parse_primary st)
    else if eat_punct st "%" then left := E_binop (Ra.Mod, !left, parse_primary st)
    else continue := false
  done;
  !left

and parse_primary st =
  match peek st with
  | Some (Num v) ->
    advance st;
    E_const v
  | Some (Str s) ->
    advance st;
    E_const (Value.String s)
  | Some (Punct "(") ->
    advance st;
    let e = parse_expr st in
    expect_punct st ")";
    e
  | Some (Punct "-") ->
    advance st;
    E_binop (Ra.Sub, E_const (Value.Int 0), parse_primary st)
  | Some (Id t) -> (
    match keyword t with
    | "NULL" ->
      advance st;
      E_const Value.Null
    | "TRUE" ->
      advance st;
      E_const (Value.Bool true)
    | "FALSE" ->
      advance st;
      E_const (Value.Bool false)
    | "COUNT" | "SUM" | "MIN" | "MAX" | "AVG" ->
      let fn = keyword t in
      advance st;
      expect_punct st "(";
      if fn = "COUNT" && eat_punct st "*" then begin
        expect_punct st ")";
        E_agg_raw ("COUNT*", None)
      end
      else begin
        let arg = parse_expr st in
        expect_punct st ")";
        E_agg_raw (fn, Some arg)
      end
    | _ ->
      advance st;
      if eat_punct st "." then E_col (Some t, ident st) else E_col (None, t))
  | _ -> fail "expected an expression"

(* --- name resolution --- *)

(* bindings: (qualifier, source column, plan output column) *)
type scope = (string * string * string) list

let resolve (scope : scope) qual name =
  let matches =
    List.filter
      (fun (q, c, _) ->
        String.lowercase_ascii c = String.lowercase_ascii name
        && match qual with Some q' -> String.lowercase_ascii q = String.lowercase_ascii q' | None -> true)
      scope
  in
  match matches with
  | [ (_, _, out) ] -> out
  | [] ->
    fail "unknown column %s%s"
      (match qual with Some q -> q ^ "." | None -> "")
      name
  | _ ->
    fail "ambiguous column %s%s (qualify it)"
      (match qual with Some q -> q ^ "." | None -> "")
      name

(* compile a scalar expression; aggregates are collected into [aggs] and
   replaced by column references when [aggs] is given, rejected otherwise *)
let rec compile ?aggs scope (e : sexpr) : Ra.expr =
  match e with
  | E_col (q, c) -> Ra.Col (resolve scope q c)
  | E_const v -> Ra.Const v
  | E_binop (op, a, b) -> Ra.Binop (op, compile ?aggs scope a, compile ?aggs scope b)
  | E_not e -> Ra.Not (compile ?aggs scope e)
  | E_is_null (e, negated) ->
    let base = Ra.Is_null (compile ?aggs scope e) in
    if negated then Ra.Not base else base
  | E_agg_raw (fn, arg) -> (
    match aggs with
    | None -> fail "aggregate %s is not allowed here" fn
    | Some cell ->
      let ra =
        match fn, arg with
        | "COUNT*", None -> Ra.Count_star
        | "COUNT", Some a -> Ra.Count (compile scope a)
        | "SUM", Some a -> Ra.Sum (compile scope a)
        | "MIN", Some a -> Ra.Min (compile scope a)
        | "MAX", Some a -> Ra.Max (compile scope a)
        | "AVG", Some a -> Ra.Avg (compile scope a)
        | _ -> fail "malformed aggregate %s" fn
      in
      (* reuse an existing identical aggregate column *)
      let existing = List.find_opt (fun (_, a) -> a = ra) !cell in
      let col =
        match existing with
        | Some (c, _) -> c
        | None ->
          let c = Printf.sprintf "agg$%d" (List.length !cell) in
          cell := !cell @ [ (c, ra) ];
          c
      in
      Ra.Col col)

let rec has_aggregate = function
  | E_agg_raw _ -> true
  | E_col _ | E_const _ -> false
  | E_binop (_, a, b) -> has_aggregate a || has_aggregate b
  | E_not e | E_is_null (e, _) -> has_aggregate e

(* --- SELECT planning --- *)

let rec expr_cols scope = function
  | E_col (q, c) -> [ resolve scope q c ]
  | E_const _ -> []
  | E_binop (_, a, b) -> expr_cols scope a @ expr_cols scope b
  | E_not e | E_is_null (e, _) -> expr_cols scope e
  | E_agg_raw (_, Some a) -> expr_cols scope a
  | E_agg_raw (_, None) -> []

let plan_select_tokens db st =
  expect_kw st "SELECT";
  (* select list *)
  let star = eat_punct st "*" in
  let items = ref [] in
  if not star then begin
    let rec go () =
      let e = parse_expr st in
      let alias =
        if eat_kw st "AS" then Some (ident st)
        else
          match peek st with
          | Some (Id t)
            when not
                   (List.mem (keyword t)
                      [ "FROM"; "WHERE"; "GROUP"; "HAVING"; "ORDER"; "AS" ]) ->
            advance st;
            Some t
          | _ -> None
      in
      items := (e, alias) :: !items;
      if eat_punct st "," then go ()
    in
    go ();
    items := List.rev !items
  end;
  expect_kw st "FROM";
  (* FROM list *)
  let sources = ref [] in
  let rec go () =
    let tname = ident st in
    let alias =
      match peek st with
      | Some (Id t)
        when not (List.mem (keyword t) [ "WHERE"; "GROUP"; "HAVING"; "ORDER"; "ON" ]) ->
        advance st;
        t
      | _ -> tname
    in
    sources := (tname, alias) :: !sources;
    if eat_punct st "," then go ()
  in
  go ();
  let sources = List.rev !sources in
  (* build scans with qualified output names and the resolution scope *)
  let scope : scope ref = ref [] in
  let scans =
    List.map
      (fun (tname, alias) ->
        let tname =
          match find_table_ci db tname with
          | Some t -> t
          | None -> fail "unknown table %S" tname
        in
        let schema = Table.schema (Database.get_table db tname) in
        let renames =
          List.map
            (fun c ->
              let out = alias ^ "." ^ c in
              scope := !scope @ [ (alias, c, out) ];
              (c, out))
            (Schema.column_names schema)
        in
        Ra.Scan (Ra.Base tname, renames))
      sources
  in
  let scope = !scope in
  (* WHERE: place each conjunct at the earliest join point covering it *)
  let where = if eat_kw st "WHERE" then Some (parse_expr st) else None in
  let conjuncts =
    match where with
    | None -> []
    | Some w ->
      let rec split = function
        | E_binop (Ra.And, a, b) -> split a @ split b
        | e -> [ e ]
      in
      split w
  in
  let compiled_conjuncts =
    List.map (fun e -> (compile scope e, expr_cols scope e)) conjuncts
  in
  let plan, leftover =
    match scans with
    | [] -> fail "empty FROM"
    | first :: rest ->
      List.fold_left
        (fun (acc, pending) scan ->
          let acc_cols = Ra.columns acc @ Ra.columns scan in
          let here, later =
            List.partition
              (fun (_, cols) -> List.for_all (fun c -> List.mem c acc_cols) cols)
              pending
          in
          (Ra.Join (Ra.Inner, Ra.conj (List.map fst here), acc, scan), later))
        (first, compiled_conjuncts)
        rest
  in
  (* conjuncts over a single table (or anything left) *)
  let plan =
    let plan_cols = Ra.columns plan in
    List.fold_left
      (fun acc (e, cols) ->
        if List.for_all (fun c -> List.mem c plan_cols) cols then Ra.Select (e, acc)
        else fail "condition references unknown columns")
      plan leftover
  in
  (* GROUP BY / aggregates *)
  let group_cols =
    if eat_kw st "GROUP" then begin
      expect_kw st "BY";
      let cols = ref [] in
      let rec go () =
        let q, c =
          let t = ident st in
          if eat_punct st "." then (Some t, ident st) else (None, t)
        in
        cols := resolve scope q c :: !cols;
        if eat_punct st "," then go ()
      in
      go ();
      Some (List.rev !cols)
    end
    else None
  in
  let having = if eat_kw st "HAVING" then Some (parse_expr st) else None in
  let any_agg =
    (not star)
    && (List.exists (fun (e, _) -> has_aggregate e) !items
       || group_cols <> None
       || match having with Some h -> has_aggregate h | None -> false)
  in
  let plan, out_defs =
    if not any_agg then begin
      (* plain projection *)
      if Option.is_some having then fail "HAVING requires GROUP BY or aggregates";
      if star then (plan, List.map (fun c -> (c, Ra.Col c)) (Ra.columns plan))
      else
        ( plan,
          List.mapi
            (fun i (e, alias) ->
              let name =
                match alias, e with
                | Some a, _ -> a
                | None, E_col (_, c) -> c
                | None, _ -> Printf.sprintf "col%d" i
              in
              (name, compile scope e))
            !items )
    end
    else begin
      let aggs = ref [] in
      let keys = Option.value group_cols ~default:[] in
      let defs =
        List.mapi
          (fun i (e, alias) ->
            let compiled = compile ~aggs scope e in
            (* non-aggregate select items must be grouping columns *)
            (match compiled with
            | Ra.Col c when List.mem c keys -> ()
            | _ ->
              if not (has_aggregate e) then
                fail "select item %d is neither an aggregate nor a grouping column" (i + 1));
            let name =
              match alias, e with
              | Some a, _ -> a
              | None, E_col (_, c) -> c
              | None, E_agg_raw (fn, _) -> String.lowercase_ascii fn
              | None, _ -> Printf.sprintf "col%d" i
            in
            (name, compiled))
          !items
      in
      let having_pred = Option.map (compile ~aggs scope) having in
      let grouped = Ra.Group_by (keys, !aggs, plan) in
      let grouped =
        match having_pred with Some h -> Ra.Select (h, grouped) | None -> grouped
      in
      (grouped, defs)
    end
  in
  let plan = Ra.Project (out_defs, plan) in
  (* ORDER BY over output names (case-insensitive, like other identifiers) *)
  let plan =
    if eat_kw st "ORDER" then begin
      expect_kw st "BY";
      let out_names = List.map fst out_defs in
      let resolve_out c =
        match
          List.find_opt
            (fun o -> String.lowercase_ascii o = String.lowercase_ascii c)
            out_names
        with
        | Some o -> o
        | None -> fail "ORDER BY references unknown output column %S" c
      in
      let keys = ref [] in
      let rec go () =
        let c = resolve_out (ident st) in
        let dir = if eat_kw st "DESC" then Ra.Desc else (ignore (eat_kw st "ASC"); Ra.Asc) in
        keys := (c, dir) :: !keys;
        if eat_punct st "," then go ()
      in
      go ();
      Ra.Order_by (List.rev !keys, plan)
    end
    else plan
  in
  plan

(* --- DDL / DML --- *)

let parse_col_type st =
  let t = keyword (ident st) in
  (* swallow optional length arguments like VARCHAR(20) *)
  if eat_punct st "(" then begin
    (match peek st with Some (Num _) -> advance st | _ -> ());
    expect_punct st ")"
  end;
  match t with
  | "INT" | "INTEGER" | "BIGINT" | "SMALLINT" -> Schema.TInt
  | "FLOAT" | "REAL" | "DOUBLE" | "DECIMAL" | "NUMERIC" -> Schema.TFloat
  | "VARCHAR" | "CHAR" | "TEXT" | "STRING" -> Schema.TString
  | "BOOLEAN" | "BOOL" -> Schema.TBool
  | t -> fail "unknown column type %S" t

let parse_name_list st =
  expect_punct st "(";
  let names = ref [ ident st ] in
  while eat_punct st "," do
    names := ident st :: !names
  done;
  expect_punct st ")";
  List.rev !names

let exec_create_table db st =
  let tname = ident st in
  expect_punct st "(";
  let columns = ref [] in
  let pk = ref [] in
  let fks = ref [] in
  let rec go () =
    if eat_kw st "PRIMARY" then begin
      expect_kw st "KEY";
      pk := parse_name_list st
    end
    else if eat_kw st "FOREIGN" then begin
      expect_kw st "KEY";
      let cols = parse_name_list st in
      expect_kw st "REFERENCES";
      let rt = ident st in
      let rcols = parse_name_list st in
      fks := { Schema.fk_columns = cols; fk_table = rt; fk_ref_columns = rcols } :: !fks
    end
    else begin
      let cname = ident st in
      let ty = parse_col_type st in
      if eat_kw st "PRIMARY" then begin
        expect_kw st "KEY";
        pk := !pk @ [ cname ]
      end
      else ignore (eat_kw st "NOT" && (expect_kw st "NULL"; true));
      columns := (cname, ty) :: !columns
    end;
    if eat_punct st "," then go ()
  in
  go ();
  expect_punct st ")";
  (match
     Schema.make ~name:tname ~columns:(List.rev !columns) ~primary_key:!pk
       ~foreign_keys:(List.rev !fks) ()
   with
  | schema -> Database.create_table db schema
  | exception Invalid_argument msg -> fail "%s" msg);
  Done

let exec_insert db st =
  expect_kw st "INTO";
  let tname = ident st in
  let cols =
    match peek st with Some (Punct "(") -> Some (parse_name_list st) | _ -> None
  in
  expect_kw st "VALUES";
  let tname =
    match find_table_ci db tname with Some t -> t | None -> fail "unknown table %S" tname
  in
  let schema = Table.schema (Database.get_table db tname) in
  let parse_tuple () =
    expect_punct st "(";
    let vals = ref [] in
    let rec go () =
      (match parse_expr st with
      | E_const v -> vals := v :: !vals
      | E_binop (Ra.Sub, E_const (Value.Int 0), E_const (Value.Int i)) ->
        vals := Value.Int (-i) :: !vals
      | E_binop (Ra.Sub, E_const (Value.Int 0), E_const (Value.Float f)) ->
        vals := Value.Float (-.f) :: !vals
      | _ -> fail "INSERT values must be literals");
      if eat_punct st "," then go ()
    in
    go ();
    expect_punct st ")";
    let vals = List.rev !vals in
    match cols with
    | None ->
      if List.length vals <> Schema.arity schema then fail "wrong number of values";
      Array.of_list vals
    | Some names ->
      if List.length vals <> List.length names then fail "wrong number of values";
      let row = Array.make (Schema.arity schema) Value.Null in
      List.iter2 (fun name v -> row.(Schema.col_index schema name) <- v) names vals;
      row
  in
  let rows = ref [ parse_tuple () ] in
  while eat_punct st "," do
    rows := parse_tuple () :: !rows
  done;
  let rows = List.rev !rows in
  (match Database.insert_rows db ~table:tname rows with
  | () -> ()
  | exception Invalid_argument msg -> fail "%s" msg);
  Affected (List.length rows)

let table_scope db tname =
  let tname =
    match find_table_ci db tname with Some t -> t | None -> fail "unknown table %S" tname
  in
  let schema = Table.schema (Database.get_table db tname) in
  (tname, schema, List.map (fun c -> (tname, c, c)) (Schema.column_names schema))

let compile_row_pred db tname st =
  let tname, schema, scope = table_scope db tname in
  let pred =
    if eat_kw st "WHERE" then compile scope (parse_expr st) else Ra.Const (Value.Bool true)
  in
  let m = Hashtbl.create 8 in
  List.iteri (fun i c -> Hashtbl.replace m c i) (Schema.column_names schema);
  let compiled = ref None in
  let f row =
    let g =
      match !compiled with
      | Some g -> g
      | None ->
        (* compile lazily against the row layout *)
        let rec to_fn (e : Ra.expr) : Value.t array -> Value.t =
          match e with
          | Ra.Col c ->
            let i =
              match Hashtbl.find_opt m c with
              | Some i -> i
              | None ->
                invalid_arg
                  (Printf.sprintf
                     "SQL WHERE clause references unknown column %S of table %S"
                     c tname)
            in
            fun r -> r.(i)
          | Ra.Const v -> fun _ -> v
          | Ra.Binop (op, a, b) -> (
            let fa = to_fn a and fb = to_fn b in
            match op with
            | Ra.And -> fun r -> Value.Bool (fa r = Value.Bool true && fb r = Value.Bool true)
            | Ra.Or -> fun r -> Value.Bool (fa r = Value.Bool true || fb r = Value.Bool true)
            | Ra.Add -> fun r -> Value.add (fa r) (fb r)
            | Ra.Sub -> fun r -> Value.sub (fa r) (fb r)
            | Ra.Mul -> fun r -> Value.mul (fa r) (fb r)
            | Ra.Div -> fun r -> Value.div (fa r) (fb r)
            | Ra.Mod -> fun r -> Value.modulo (fa r) (fb r)
            | cmp ->
              fun r ->
                let a = fa r and b = fb r in
                if Value.is_null a || Value.is_null b then Value.Bool false
                else
                  let c = Value.compare a b in
                  Value.Bool
                    (match cmp with
                    | Ra.Eq -> c = 0
                    | Ra.Neq -> c <> 0
                    | Ra.Lt -> c < 0
                    | Ra.Le -> c <= 0
                    | Ra.Gt -> c > 0
                    | Ra.Ge -> c >= 0
                    | (Ra.And | Ra.Or | Ra.Add | Ra.Sub | Ra.Mul | Ra.Div | Ra.Mod) as op ->
                      (* handled by the outer match; reaching here means the
                         operator table above went out of sync *)
                      invalid_arg
                        (Printf.sprintf
                           "Sql.to_fn: operator %s is not a comparison"
                           (match op with
                           | Ra.And -> "AND" | Ra.Or -> "OR" | Ra.Add -> "+"
                           | Ra.Sub -> "-" | Ra.Mul -> "*" | Ra.Div -> "/"
                           | Ra.Mod -> "%"
                           | _ -> "?"))))
          | Ra.Not e ->
            let f = to_fn e in
            fun r -> Value.Bool (f r <> Value.Bool true)
          | Ra.Is_null e ->
            let f = to_fn e in
            fun r -> Value.Bool (Value.is_null (f r))
        in
        let g = to_fn pred in
        compiled := Some g;
        g
    in
    g row = Value.Bool true
  in
  (tname, schema, scope, f)

let exec_update db st =
  let tname = ident st in
  expect_kw st "SET";
  let assignments = ref [] in
  let rec go () =
    let c = ident st in
    expect_punct st "=";
    let e = parse_expr st in
    assignments := (c, e) :: !assignments;
    if eat_punct st "," then go ()
  in
  go ();
  let tname, schema, scope, where_fn = compile_row_pred db tname st in
  let compiled_assignments =
    List.rev_map (fun (c, e) -> (Schema.col_index schema c, compile scope e)) !assignments
  in
  let set row =
    let copy = Array.copy row in
    List.iter
      (fun (slot, e) ->
        let rec eval (e : Ra.expr) =
          match e with
          | Ra.Col c -> row.(Schema.col_index schema c)
          | Ra.Const v -> v
          | Ra.Binop (Ra.Add, a, b) -> Value.add (eval a) (eval b)
          | Ra.Binop (Ra.Sub, a, b) -> Value.sub (eval a) (eval b)
          | Ra.Binop (Ra.Mul, a, b) -> Value.mul (eval a) (eval b)
          | Ra.Binop (Ra.Div, a, b) -> Value.div (eval a) (eval b)
          | Ra.Binop (Ra.Mod, a, b) -> Value.modulo (eval a) (eval b)
          | _ -> fail "unsupported expression in SET"
        in
        copy.(slot) <- eval e)
      compiled_assignments;
    copy
  in
  (* the SET list is the statement's full write set: passing it as the
     touched-columns hint bounds the firing path's changed-column scan *)
  let touched_cols = List.rev_map fst !assignments in
  match
    Database.update_rows_hint db ~table:tname ~where:where_fn ~touched_cols ~set
  with
  | n -> Affected n
  | exception Invalid_argument msg -> fail "%s" msg

let exec_delete db st =
  expect_kw st "FROM";
  let tname = ident st in
  let tname, _, _, where_fn = compile_row_pred db tname st in
  match Database.delete_rows db ~table:tname ~where:where_fn with
  | n -> Affected n
  | exception Invalid_argument msg -> fail "%s" msg

let exec_statement db st =
  match peek st with
  | Some (Id t) -> (
    match keyword t with
    | "SELECT" ->
      let plan = plan_select_tokens db st in
      Rows (Ra_eval.eval (Ra_eval.ctx_of_db db) plan)
    | "CREATE" ->
      advance st;
      if eat_kw st "TABLE" then exec_create_table db st
      else if eat_kw st "INDEX" then begin
        (* optional index name *)
        if not (eat_kw st "ON") then begin
          ignore (ident st);
          expect_kw st "ON"
        end;
        let tname = ident st in
        let cols = parse_name_list st in
        List.iter (fun c -> Database.create_index db ~table:tname ~column:c) cols;
        Done
      end
      else fail "expected TABLE or INDEX after CREATE"
    | "INSERT" ->
      advance st;
      exec_insert db st
    | "UPDATE" ->
      advance st;
      exec_update db st
    | "DELETE" ->
      advance st;
      exec_delete db st
    | kw -> fail "unsupported statement %S" kw)
  | _ -> fail "empty statement"

let exec db input =
  let st = { toks = lex input } in
  let r = exec_statement db st in
  ignore (eat_punct st ";");
  if st.toks <> [] then fail "trailing tokens after statement";
  r

let plan_select db input =
  let st = { toks = lex input } in
  let plan = plan_select_tokens db st in
  ignore (eat_punct st ";");
  if st.toks <> [] then fail "trailing tokens after statement";
  plan

let exec_script db input =
  let st = { toks = lex input } in
  let results = ref [] in
  while st.toks <> [] do
    results := exec_statement db st :: !results;
    ignore (eat_punct st ";")
  done;
  List.rev !results
