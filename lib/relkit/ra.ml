type source =
  | Base of string
  | Delta of string
  | Nabla of string
  | Old_of of string
  | Rel of string

type binop =
  | Eq
  | Neq
  | Lt
  | Le
  | Gt
  | Ge
  | And
  | Or
  | Add
  | Sub
  | Mul
  | Div
  | Mod

type expr =
  | Col of string
  | Const of Value.t
  | Binop of binop * expr * expr
  | Not of expr
  | Is_null of expr

type agg =
  | Count_star
  | Count of expr
  | Sum of expr
  | Min of expr
  | Max of expr
  | Avg of expr

type join_kind = Inner | Left_outer | Left_anti | Right_anti
type dir = Asc | Desc

type t =
  | Scan of source * (string * string) list
  | Select of expr * t
  | Project of (string * expr) list * t
  | Join of join_kind * expr * t * t
  | Group_by of string list * (string * agg) list * t
  | Union of { all : bool; inputs : t list }
  | Distinct of t
  | Order_by of (string * dir) list * t
  | Values of string list * Value.t array list
  | Shared of int * t

let next_shared_id =
  let counter = ref 0 in
  fun () ->
    incr counter;
    !counter

let shared plan = Shared (next_shared_id (), plan)

let map_inputs f = function
  | (Scan _ | Values _) as p -> p
  | Select (e, i) -> Select (e, f i)
  | Project (d, i) -> Project (d, f i)
  | Group_by (k, a, i) -> Group_by (k, a, f i)
  | Distinct i -> Distinct (f i)
  | Order_by (k, i) -> Order_by (k, f i)
  | Shared (id, i) -> Shared (id, f i)
  | Join (k, p, l, r) -> Join (k, p, f l, f r)
  | Union { all; inputs } -> Union { all; inputs = List.map f inputs }

let check_distinct what cols =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun c ->
      if Hashtbl.mem tbl c then
        invalid_arg (Printf.sprintf "Ra: duplicate column %S in %s" c what);
      Hashtbl.add tbl c ())
    cols

let rec columns = function
  | Scan (_, renames) ->
    let cols = List.map snd renames in
    check_distinct "scan output" cols;
    cols
  | Select (_, input) -> columns input
  | Project (defs, _) ->
    let cols = List.map fst defs in
    check_distinct "projection" cols;
    cols
  | Join (kind, _, left, right) -> (
    match kind with
    | Inner | Left_outer ->
      let cols = columns left @ columns right in
      check_distinct "join output" cols;
      cols
    | Left_anti -> columns left
    | Right_anti -> columns right)
  | Group_by (keys, aggs, _) ->
    let cols = keys @ List.map fst aggs in
    check_distinct "group-by output" cols;
    cols
  | Union { inputs; _ } -> (
    match inputs with
    | [] -> invalid_arg "Ra: empty union"
    | first :: rest ->
      let cols = columns first in
      let n = List.length cols in
      List.iter
        (fun input ->
          if List.length (columns input) <> n then
            invalid_arg "Ra: union inputs have mismatched arities")
        rest;
      cols)
  | Distinct input -> columns input
  | Order_by (_, input) -> columns input
  | Values (cols, _) -> cols
  | Shared (_, input) -> columns input

let scan src schema =
  Scan (src, List.map (fun c -> (c, c)) (Schema.column_names schema))

let scan_as src ~prefix schema =
  Scan (src, List.map (fun c -> (c, prefix ^ c)) (Schema.column_names schema))

let conj = function
  | [] -> Const (Value.Bool true)
  | e :: rest -> List.fold_left (fun acc e' -> Binop (And, acc, e')) e rest

let eq_cols pairs = conj (List.map (fun (l, r) -> Binop (Eq, Col l, Col r)) pairs)

let rec expr_columns = function
  | Col c -> [ c ]
  | Const _ -> []
  | Binop (_, a, b) -> expr_columns a @ expr_columns b
  | Not e | Is_null e -> expr_columns e

let string_of_binop = function
  | Eq -> "="
  | Neq -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | And -> "AND"
  | Or -> "OR"
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"

let rec pp_expr ppf = function
  | Col c -> Format.pp_print_string ppf c
  | Const v -> Format.pp_print_string ppf (Value.to_sql_literal v)
  | Binop (op, a, b) ->
    Format.fprintf ppf "(%a %s %a)" pp_expr a (string_of_binop op) pp_expr b
  | Not e -> Format.fprintf ppf "NOT %a" pp_expr e
  | Is_null e -> Format.fprintf ppf "%a IS NULL" pp_expr e

let string_of_source = function
  | Base t -> t
  | Delta t -> "INSERTED(" ^ t ^ ")"
  | Nabla t -> "DELETED(" ^ t ^ ")"
  | Old_of t -> "OLD-OF(" ^ t ^ ")"
  | Rel t -> "REL(" ^ t ^ ")"

let string_of_agg = function
  | Count_star -> "COUNT(*)"
  | Count e -> Format.asprintf "COUNT(%a)" pp_expr e
  | Sum e -> Format.asprintf "SUM(%a)" pp_expr e
  | Min e -> Format.asprintf "MIN(%a)" pp_expr e
  | Max e -> Format.asprintf "MAX(%a)" pp_expr e
  | Avg e -> Format.asprintf "AVG(%a)" pp_expr e

let rec pp ppf = function
  | Scan (src, renames) ->
    let show (c, o) = if c = o then c else c ^ " AS " ^ o in
    Format.fprintf ppf "@[<hov 2>Scan %s [%s]@]" (string_of_source src)
      (String.concat ", " (List.map show renames))
  | Select (pred, input) ->
    Format.fprintf ppf "@[<v 2>Select %a@,%a@]" pp_expr pred pp input
  | Project (defs, input) ->
    let show (o, e) = Format.asprintf "%a AS %s" pp_expr e o in
    Format.fprintf ppf "@[<v 2>Project [%s]@,%a@]"
      (String.concat ", " (List.map show defs))
      pp input
  | Join (kind, pred, left, right) ->
    let kname =
      match kind with
      | Inner -> "Join"
      | Left_outer -> "LeftOuterJoin"
      | Left_anti -> "LeftAntiJoin"
      | Right_anti -> "RightAntiJoin"
    in
    Format.fprintf ppf "@[<v 2>%s %a@,%a@,%a@]" kname pp_expr pred pp left pp right
  | Group_by (keys, aggs, input) ->
    let show (o, a) = string_of_agg a ^ " AS " ^ o in
    Format.fprintf ppf "@[<v 2>GroupBy [%s] aggs [%s]@,%a@]"
      (String.concat ", " keys)
      (String.concat ", " (List.map show aggs))
      pp input
  | Union { all; inputs } ->
    Format.fprintf ppf "@[<v 2>Union%s" (if all then "All" else "");
    List.iter (fun i -> Format.fprintf ppf "@,%a" pp i) inputs;
    Format.fprintf ppf "@]"
  | Distinct input -> Format.fprintf ppf "@[<v 2>Distinct@,%a@]" pp input
  | Order_by (keys, input) ->
    let show (c, d) = c ^ (match d with Asc -> " ASC" | Desc -> " DESC") in
    Format.fprintf ppf "@[<v 2>OrderBy [%s]@,%a@]"
      (String.concat ", " (List.map show keys))
      pp input
  | Values (cols, rows) ->
    Format.fprintf ppf "Values [%s] (%d rows)" (String.concat ", " cols)
      (List.length rows)
  | Shared (id, input) -> Format.fprintf ppf "@[<v 2>Shared cte%d@,%a@]" id pp input
