(* The paper's Table 2 database (§6.1), built from the benchmark's own
   seeded generator.

   Tables t1 (root) … td (leaf) form a hierarchy; every child row points at
   its parent through [parent].  The view nests each level inside its
   parent, with the count(…) >= 2 predicate on the lowest nesting level, and
   triggers watch the top-level element e1 through its name attribute.  The
   seed fixes leaf prices and which e1 is hot; sizes come from the
   parameters. *)

open Relkit

type params = {
  depth : int;
  leaves : int;
  fanout : int;  (* leaf rows under one e1 *)
}

type t = {
  db : Database.t;
  depth : int;
  view_text : string;
  names : string array;  (* name attribute of each e1 *)
  leaves_of : string array array;  (* leaf ids under each e1 *)
  hot : int;  (* index of the e1 the hot writes go to *)
}

let table i = Printf.sprintf "t%d" i
let elem i = Printf.sprintf "e%d" i
let leaf_table t = table t.depth
let hot_name t = t.names.(t.hot)

(* children per intermediate row, so that the d-1 nesting levels multiply
   out to the requested leaf fanout *)
let step_fanout (p : params) =
  max 1
    (int_of_float
       (Float.round (float_of_int p.fanout ** (1.0 /. float_of_int (p.depth - 1)))))

let schema (p : params) level =
  let cols =
    if level = 1 then [ ("id", Schema.TString); ("name", Schema.TString) ]
    else if level = p.depth then
      [ ("id", Schema.TString); ("parent", Schema.TString); ("price", Schema.TFloat) ]
    else [ ("id", Schema.TString); ("parent", Schema.TString) ]
  in
  let foreign_keys =
    if level = 1 then []
    else
      [ { Schema.fk_columns = [ "parent" ];
          fk_table = table (level - 1);
          fk_ref_columns = [ "id" ];
        } ]
  in
  Schema.make ~name:(table level) ~columns:cols ~primary_key:[ "id" ] ~foreign_keys ()

let row_id level i = Printf.sprintf "t%dr%d" level i

(* Nested FLWORs, one per level; the count predicate sits on the level just
   above the leaves. *)
let view_text depth =
  let b = Buffer.create 512 in
  let add fmt = Printf.bprintf b fmt in
  let rec level l =
    let x = Printf.sprintf "$x%d" l in
    if l = depth then
      add "for %s in $c%d return <%s><id>{%s/id}</id><price>{%s/price}</price></%s>" x l
        (elem l) x x (elem l)
    else begin
      if l = 1 then add "for %s in view(\"default\")/%s/row " x (table 1)
      else add "for %s in $c%d " x l;
      add "let $c%d := view(\"default\")/%s/row[./parent = %s/id] " (l + 1) (table (l + 1)) x;
      if l = depth - 1 then add "where count($c%d) >= 2 " (l + 1);
      if l = 1 then add "return <%s name=\"{%s/name}\">{" (elem l) x
      else add "return <%s id=\"{%s/id}\">{" (elem l) x;
      level (l + 1);
      add "}</%s>" (elem l)
    end
  in
  add "<doc>{";
  level 1;
  add "}</doc>";
  Buffer.contents b

let build ~seed (p : params) =
  let rng = Random.State.make [| seed; 0x7ab1e2 |] in
  let db = Database.create () in
  for l = 1 to p.depth do
    Database.create_table db (schema p l)
  done;
  let f = step_fanout p in
  let tops = max 1 (p.leaves / p.fanout) in
  let size l = tops * int_of_float (float_of_int f ** float_of_int (l - 1)) in
  let names = Array.init tops (Printf.sprintf "name%d") in
  Database.load_rows db ~table:(table 1)
    (List.init tops (fun i -> [| Value.String (row_id 1 i); Value.String names.(i) |]));
  for l = 2 to p.depth do
    let n = size l and np = size (l - 1) in
    Database.load_rows db ~table:(table l)
      (List.init n (fun i ->
           let id = Value.String (row_id l i) in
           let parent = Value.String (row_id (l - 1) (i * np / n)) in
           if l = p.depth then
             [| id; parent; Value.Float (float_of_int (10 + Random.State.int rng 990)) |]
           else [| id; parent |]));
    Database.create_index db ~table:(table l) ~column:"parent"
  done;
  Database.create_index db ~table:(table 1) ~column:"name";
  let per_top = size p.depth / tops in
  let leaves_of =
    Array.init tops (fun e -> Array.init per_top (fun j -> row_id p.depth ((e * per_top) + j)))
  in
  { db;
    depth = p.depth;
    view_text = view_text p.depth;
    names;
    leaves_of;
    hot = Random.State.int rng tops;
  }

(* [n] structurally similar triggers on e1: the first [satisfied] carry the
   hot element's name plus a distinct, vacuously true count threshold (one
   constants row each, so the pair count grows with them as in Figure 24);
   the rest name no element at all. *)
let trigger_texts t ~n ~satisfied ~action =
  List.init n (fun i ->
      let name, threshold =
        if i < satisfied then (hot_name t, -i) else (Printf.sprintf "nomatch%d" i, 1)
      in
      Printf.sprintf
        "CREATE TRIGGER w%d AFTER UPDATE ON view('doc')/%s WHERE NEW_NODE/@name = '%s' and \
         count(NEW_NODE/%s) >= %d DO %s(NEW_NODE)"
        i (elem 1) name (elem 2) threshold action)

let hot_path t = Printf.sprintf "view('doc')/%s[@name = '%s']" (elem 1) (hot_name t)
