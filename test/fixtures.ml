(* Shared fixtures: the paper's running example — the product/vendor database
   of Figure 2 and hand-built XQGM graphs for the catalog view (Figure 5) and
   the min-price view (Figure 21).  Used by the xqgm and trigview suites; the
   xquery suite checks that the compiler reproduces these graphs'
   semantics. *)

open Relkit

let v_int i = Value.Int i
let v_str s = Value.String s
let v_float f = Value.Float f

let product_schema =
  Schema.make ~name:"product"
    ~columns:[ ("pid", Schema.TString); ("pname", Schema.TString); ("mfr", Schema.TString) ]
    ~primary_key:[ "pid" ] ()

let vendor_schema =
  Schema.make ~name:"vendor"
    ~foreign_keys:
      [ { Schema.fk_columns = [ "pid" ]; fk_table = "product"; fk_ref_columns = [ "pid" ] } ]
    ~columns:[ ("vid", Schema.TString); ("pid", Schema.TString); ("price", Schema.TFloat) ]
    ~primary_key:[ "vid"; "pid" ] ()

(* The Figure 2 database. *)
let mk_db () =
  let db = Database.create () in
  Database.create_table db product_schema;
  Database.create_table db vendor_schema;
  Database.create_index db ~table:"vendor" ~column:"pid";
  Database.create_index db ~table:"product" ~column:"pname";
  Database.insert_rows db ~table:"product"
    [ [| v_str "P1"; v_str "CRT 15"; v_str "Samsung" |];
      [| v_str "P2"; v_str "LCD 19"; v_str "Samsung" |];
      [| v_str "P3"; v_str "CRT 15"; v_str "Viewsonic" |];
    ];
  Database.insert_rows db ~table:"vendor"
    [ [| v_str "Amazon"; v_str "P1"; v_float 100.0 |];
      [| v_str "Bestbuy"; v_str "P1"; v_float 120.0 |];
      [| v_str "Circuitcity"; v_str "P1"; v_float 150.0 |];
      [| v_str "Buy.com"; v_str "P2"; v_float 200.0 |];
      [| v_str "Bestbuy"; v_str "P2"; v_float 180.0 |];
      [| v_str "Bestbuy"; v_str "P3"; v_float 120.0 |];
      [| v_str "Circuitcity"; v_str "P3"; v_float 140.0 |];
    ];
  db

let schema_of db name = Table.schema (Database.get_table db name)

open Xqgm

(* Boxes 1-4 of Figure 5: product x vendor with a <vendor> element per pair. *)
let vendor_elem_level () =
  (* Figure 5 box 1 scans only pid and pname; mfr never enters the view. *)
  let product = Op.table "product" [ ("pid", "pid"); ("pname", "pname") ] in
  let vendor =
    Op.table "vendor" [ ("vid", "vid"); ("pid", "v_pid"); ("price", "price") ]
  in
  let joined = Op.join ~pred:(Expr.eq (Expr.Col "pid") (Expr.Col "v_pid")) product vendor in
  Op.project
    ~defs:
      [ ("pid", Expr.Col "pid");
        ("pname", Expr.Col "pname");
        ("vid", Expr.Col "vid");
        ("v_pid", Expr.Col "v_pid");
        ( "vendor_elem",
          Expr.Elem
            { tag = "vendor";
              attrs = [];
              content =
                [ Expr.Elem { tag = "pid"; attrs = []; content = [ Expr.Col "v_pid" ] };
                  Expr.Elem { tag = "vid"; attrs = []; content = [ Expr.Col "vid" ] };
                  Expr.Elem { tag = "price"; attrs = []; content = [ Expr.Col "price" ] };
                ];
            } );
      ]
    joined

(* Boxes 5-7 of Figure 5: group vendors per product name, keep names with >= 2
   vendors, and build the <product> elements.  This is also the Path graph of
   Figure 5A (the trigger monitors /product). *)
let product_level () =
  let grouped =
    Op.group_by ~keys:[ "pname" ]
      ~aggs:[ ("vendors", Expr.Xml_frag (Expr.Col "vendor_elem")); ("cnt", Expr.Count) ]
      ~order:[ "vid"; "v_pid" ] (vendor_elem_level ())
  in
  let filtered =
    Op.select ~pred:(Expr.Binop (Relkit.Ra.Ge, Expr.Col "cnt", Expr.Const (v_int 2))) grouped
  in
  Op.project
    ~defs:
      [ ("pname", Expr.Col "pname");
        ( "product_elem",
          Expr.Elem
            { tag = "product";
              attrs = [ ("name", Expr.Col "pname") ];
              content = [ Expr.Col "vendors" ];
            } );
      ]
    filtered

(* Boxes 8-9: the whole catalog document. *)
let catalog_view () =
  let products =
    Op.group_by ~keys:[] ~aggs:[ ("products", Expr.Xml_frag (Expr.Col "product_elem")) ]
      ~order:[ "pname" ] (product_level ())
  in
  Op.project
    ~defs:
      [ ( "catalog_elem",
          Expr.Elem { tag = "catalog"; attrs = []; content = [ Expr.Col "products" ] } );
      ]
    products

(* Figure 21: the min-price variant.  The hidden [minp] pass-through is what
   lets the Agg-only optimization compare the aggregate relationally. *)
let minprice_product_level () =
  (* Figure 21 box 4': pass the raw price instead of building <vendor>. *)
  let product = Op.table "product" [ ("pid", "pid"); ("pname", "pname") ] in
  let vendor = Op.table "vendor" [ ("vid", "vid"); ("pid", "v_pid"); ("price", "price") ] in
  let joined = Op.join ~pred:(Expr.eq (Expr.Col "pid") (Expr.Col "v_pid")) product vendor in
  let grouped =
    Op.group_by ~keys:[ "pname" ]
      ~aggs:[ ("minp", Expr.Min (Expr.Col "price")); ("cnt", Expr.Count) ]
      joined
  in
  let filtered =
    Op.select ~pred:(Expr.Binop (Relkit.Ra.Ge, Expr.Col "cnt", Expr.Const (v_int 2))) grouped
  in
  Op.project
    ~defs:
      [ ("pname", Expr.Col "pname");
        ("minp", Expr.Col "minp");
        ( "product_elem",
          Expr.Elem
            { tag = "product";
              attrs = [ ("name", Expr.Col "pname") ];
              content = [ Expr.Elem { tag = "min"; attrs = []; content = [ Expr.Col "minp" ] } ];
            } );
      ]
    filtered

(* DML helpers used across suites. *)

let update_vendor_price db ~vid ~pid ~price =
  ignore
    (Database.update_rows db ~table:"vendor"
       ~where:(fun row -> Value.equal row.(0) (v_str vid) && Value.equal row.(1) (v_str pid))
       ~set:(fun row -> [| row.(0); row.(1); v_float price |]))

let insert_vendor db ~vid ~pid ~price =
  Database.insert_rows db ~table:"vendor" [ [| v_str vid; v_str pid; v_float price |] ]

let delete_vendor db ~vid ~pid =
  ignore (Database.delete_pk db ~table:"vendor" ~pk:[ v_str vid; v_str pid ])

(* --- the literal oracle (Definitions 2 and 3) ---

   Materialize the whole document through the reference evaluator, select
   the trigger path's nodes with XPath, and diff the before/after node sets
   by the level's canonical key (read off each node by [key]).  It shares
   nothing with the compiled level plans, the affected-node graphs or the
   runtime's own readers, so it sees a level holding elements the document
   does not. *)

module Xml = Xmlkit.Xml

(* The nodes [xpath] selects in [view]'s document (the document element is
   the context node: [/product/vendor] for [view('catalog')/product/vendor]),
   each with its key. *)
let oracle_nodes ctx view ~xpath ~key =
  let doc = Xquery.Compile.materialize ctx view in
  List.map (fun n -> (key n, n)) (Xmlkit.Xpath.select doc xpath)

(* The XPath of the level tagged [tag] below the document element, e.g.
   "/product/vendor". *)
let level_xpath (view : Xquery.Compile.view) tag =
  let rec find prefix (t : Xquery.Compile.view_tree) =
    List.find_map
      (fun (c : Xquery.Compile.view_tree) ->
        let path = prefix ^ "/" ^ c.Xquery.Compile.elem_tag in
        if c.Xquery.Compile.elem_tag = tag then Some path else find path c)
      t.Xquery.Compile.children
  in
  match find "" view.Xquery.Compile.tree with
  | Some p -> p
  | None -> invalid_arg ("no level " ^ tag)

(* A key read off a node: each name is an attribute ("@name") or a simple
   child element ("vid"). *)
let field_key fields node =
  String.concat "|"
    (List.map
       (fun f ->
         if String.length f > 0 && f.[0] = '@' then
           Option.value ~default:"" (Xml.attr node (String.sub f 1 (String.length f - 1)))
         else String.concat "," (List.map Xml.text_content (Xml.children_named node f)))
       fields)

(* The hand-built Figure 5 graph as a compiled view, for {!oracle_nodes}. *)
let hand_built_catalog () =
  { Xquery.Compile.view_name = "catalog";
    definition = Xquery.Ast.Lit (Value.String "Figure 5");
    tree =
      { Xquery.Compile.elem_tag = "catalog";
        op = catalog_view ();
        node_col = "catalog_elem";
        key = [];
        fields = [];
        corr = [];
        children = [];
      };
  }

type diff = {
  updated : (string * Xml.t * Xml.t) list;  (* key, old, new *)
  inserted : (string * Xml.t) list;
  deleted : (string * Xml.t) list;
}

let oracle_diff before after =
  let updated =
    List.filter_map
      (fun (k, old_n) ->
        match List.assoc_opt k after with
        | Some new_n when not (Xml.equal old_n new_n) -> Some (k, old_n, new_n)
        | _ -> None)
      before
  in
  let inserted = List.filter (fun (k, _) -> not (List.mem_assoc k before)) after in
  let deleted = List.filter (fun (k, _) -> not (List.mem_assoc k after)) before in
  { updated; inserted; deleted }
