(* RQL parser / printer / planner-compiler.  See rql.mli for the
   grammar.  The term tokenizer splits on structural characters first
   ('&' between terms, '(' ')' around arguments, ',' between them) and
   percent-decodes afterwards, so encoded structural characters inside
   field names and literals are data. *)

module Ra = Relkit.Ra
module Value = Relkit.Value

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type filter = {
  f_field : string;
  f_cmp : cmp;
  f_value : Value.t;
}

type t = {
  filters : filter list;
  sorts : (string * bool) list;
  limit : (int * int) option;
  select : string list;
}

let empty = { filters = []; sorts = []; limit = None; select = [] }

exception Error of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Error msg)) fmt

(* --- percent-coding --- *)

let hex_val c =
  match c with
  | '0' .. '9' -> Char.code c - 48
  | 'a' .. 'f' -> Char.code c - 87
  | 'A' .. 'F' -> Char.code c - 55
  | _ -> fail "bad percent-encoding: %%%c" c

let pct_decode s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | '%' ->
      if !i + 2 >= n then fail "truncated percent-encoding in %S" s;
      Buffer.add_char buf
        (Char.chr ((hex_val s.[!i + 1] * 16) + hex_val s.[!i + 2]));
      i := !i + 2
    | c -> Buffer.add_char buf c);
    incr i
  done;
  Buffer.contents buf

(* Unreserved characters stay literal; everything structural ('&', '(',
   ')', ',', '+', '-' at token start, '%', '=', '#', '?', ...) is
   encoded.  '-' is kept literal except as the first character, where it
   would read as a descending-sort prefix. *)
let pct_encode s =
  let literal i c =
    match c with
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '~' | '@' -> true
    | '-' -> i > 0
    | _ -> false
  in
  let buf = Buffer.create (String.length s) in
  String.iteri
    (fun i c ->
      if literal i c then Buffer.add_char buf c
      else Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c)))
    s;
  Buffer.contents buf

(* --- literals --- *)

let parse_value tok =
  let s = pct_decode tok in
  if String.length s >= 7 && String.sub s 0 7 = "string:" then
    Value.String (String.sub s 7 (String.length s - 7))
  else
    match s with
    | "true" -> Value.Bool true
    | "false" -> Value.Bool false
    | "null" -> Value.Null
    | _ -> (
      match int_of_string_opt s with
      | Some n -> Value.Int n
      | None -> (
        match float_of_string_opt s with
        | Some f -> Value.Float f
        | None -> Value.String s))

(* A string literal needs the [string:] prefix exactly when its raw form
   would re-parse as something else. *)
let ambiguous_string s =
  s = "true" || s = "false" || s = "null"
  || int_of_string_opt s <> None
  || float_of_string_opt s <> None
  || (String.length s >= 7 && String.sub s 0 7 = "string:")

let print_value = function
  | Value.Int n -> string_of_int n
  | Value.Float f ->
    let s = Printf.sprintf "%.17g" f in
    (* %g may drop the decimal point for integral floats; keep the token
       float-shaped so it re-parses as a Float, not an Int *)
    if String.contains s '.' || String.contains s 'e'
       || String.contains s 'n' (* nan / inf have no '.'; accept as-is *)
       || String.contains s 'i'
    then s
    else s ^ "."
  | Value.Bool true -> "true"
  | Value.Bool false -> "false"
  | Value.Null -> "null"
  | Value.String s ->
    if ambiguous_string s then "string:" ^ pct_encode s else pct_encode s

(* --- parsing --- *)

let cmp_of_name = function
  | "eq" -> Some Eq
  | "ne" -> Some Ne
  | "lt" -> Some Lt
  | "le" -> Some Le
  | "gt" -> Some Gt
  | "ge" -> Some Ge
  | _ -> None

let split_term term =
  match String.index_opt term '(' with
  | None -> fail "malformed term %S: expected name(args)" term
  | Some lp ->
    if String.length term = 0 || term.[String.length term - 1] <> ')' then
      fail "malformed term %S: missing closing parenthesis" term;
    let name = String.sub term 0 lp in
    let args = String.sub term (lp + 1) (String.length term - lp - 2) in
    if name = "" then fail "malformed term %S: empty operator" term;
    if String.contains args '(' then
      fail "malformed term %S: nested parentheses" term;
    (name, if args = "" then [] else String.split_on_char ',' args)

let parse_sort_key tok =
  if tok = "" || tok = "+" || tok = "-" then fail "empty sort key";
  match tok.[0] with
  | '-' -> (pct_decode (String.sub tok 1 (String.length tok - 1)), true)
  | '+' -> (pct_decode (String.sub tok 1 (String.length tok - 1)), false)
  | _ -> (pct_decode tok, false)

let parse_int tok =
  match int_of_string_opt (pct_decode tok) with
  | Some n when n >= 0 -> n
  | _ -> fail "expected a non-negative integer, got %S" tok

let parse s =
  let s = String.trim s in
  if s = "" then empty
  else
    let terms = String.split_on_char '&' s in
    List.fold_left
      (fun q term ->
        if term = "" then q
        else
          let name, args = split_term term in
          match (cmp_of_name name, args) with
          | Some cmp, [ f; v ] ->
            let filter =
              { f_field = pct_decode f; f_cmp = cmp; f_value = parse_value v }
            in
            { q with filters = q.filters @ [ filter ] }
          | Some _, _ -> fail "%s() takes exactly (field,value)" name
          | None, _ -> (
            match name with
            | "sort" ->
              if args = [] then fail "sort() needs at least one key";
              { q with sorts = q.sorts @ List.map parse_sort_key args }
            | "limit" -> (
              match args with
              | [ off; cnt ] ->
                { q with limit = Some (parse_int off, parse_int cnt) }
              | _ -> fail "limit() takes exactly (offset,count)")
            | "select" ->
              if args = [] then fail "select() needs at least one field";
              { q with select = q.select @ List.map pct_decode args }
            | _ -> fail "unknown RQL operator %S" name))
      empty terms

(* --- printing --- *)

let cmp_name = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"

let print q =
  let terms =
    List.map
      (fun f ->
        Printf.sprintf "%s(%s,%s)" (cmp_name f.f_cmp) (pct_encode f.f_field)
          (print_value f.f_value))
      q.filters
    @ (match q.sorts with
      | [] -> []
      | sorts ->
        [ Printf.sprintf "sort(%s)"
            (String.concat ","
               (List.map
                  (fun (f, desc) ->
                    (if desc then "-" else "+") ^ pct_encode f)
                  sorts));
        ])
    @ (match q.select with
      | [] -> []
      | fields ->
        [ Printf.sprintf "select(%s)"
            (String.concat "," (List.map pct_encode fields));
        ])
    @
    match q.limit with
    | None -> []
    | Some (off, cnt) -> [ Printf.sprintf "limit(%d,%d)" off cnt ]
  in
  String.concat "&" terms

(* --- compilation onto the relational planner --- *)

let resolve_field ~columns f =
  if List.mem f columns then f
  else
    let attr = "@" ^ f in
    if List.mem attr columns then attr
    else fail "unknown field %S" f

let ra_cmp = function
  | Eq -> Ra.Eq
  | Ne -> Ra.Neq
  | Lt -> Ra.Lt
  | Le -> Ra.Le
  | Gt -> Ra.Gt
  | Ge -> Ra.Ge

let compile ~fields ~order q plan =
  let column f =
    List.assoc (resolve_field ~columns:(List.map fst fields) f) fields
  in
  (* validate select() names even though projection happens at render *)
  List.iter (fun f -> ignore (column f)) q.select;
  let plan =
    match q.filters with
    | [] -> plan
    | filters ->
      let pred =
        Ra.conj
          (List.map
             (fun f ->
               Ra.Binop (ra_cmp f.f_cmp, Ra.Col (column f.f_field), Ra.Const f.f_value))
             filters)
      in
      Ra.Select (pred, plan)
  in
  match
    List.map (fun (f, desc) -> (column f, if desc then Ra.Desc else Ra.Asc)) q.sorts
    @ List.map (fun c -> (c, Ra.Asc)) order
  with
  | [] -> plan
  | keys -> Ra.Order_by (keys, plan)

let limit_slice q rows =
  match q.limit with
  | None -> rows
  | Some (off, cnt) ->
    let rec drop n = function
      | rest when n <= 0 -> rest
      | [] -> []
      | _ :: rest -> drop (n - 1) rest
    in
    let rec take n = function
      | _ when n <= 0 -> []
      | [] -> []
      | x :: rest -> x :: take (n - 1) rest
    in
    take cnt (drop off rows)
