module Op = Xqgm.Op
module Expr = Xqgm.Expr
module Keys = Xqgm.Keys
module Lineage = Xqgm.Lineage

type key = (string * string) list

let ak_col c = "ak$" ^ c

let key_join_pred (key : key) =
  Expr.and_ (List.map (fun (c, akc) -> Expr.eq (Expr.Col c) (Expr.Col akc)) key)

(* Project an AK graph so that its columns follow a renaming of the original
   graph's columns (used when passing through Project operators). *)
let rename_key ak (key : key) renaming =
  let new_key =
    List.map
      (fun (c, akc) ->
        match List.assoc_opt c renaming with
        | Some c' -> (c', akc, ak_col c')
        | None ->
          raise
            (Keys.Not_trigger_specifiable
               (Printf.sprintf "projection drops key column %S needed by the affected-key graph" c)))
      key
  in
  if List.for_all (fun (_, akc, akc') -> akc = akc') new_key then
    (ak, List.map (fun (c', akc, _) -> (c', akc)) new_key)
  else
    let ak' =
      Op.project ~defs:(List.map (fun (_, akc, akc') -> (akc', Expr.Col akc)) new_key) ak
    in
    (ak', List.map (fun (c', _, akc') -> (c', akc')) new_key)

(* The [dt] transition rows of [table] with no counterpart on the other
   side agreeing on the primary key and the [observed] columns: of an
   UPDATE, the rows that can change a subgraph reading only [observed];
   inserted and deleted rows always count.  Projected to the affected-key
   columns of the scan's [key]. *)
let changed_rows ~schema_of ~table ~dt ~observed key =
  let other = if dt = Op.Delta then Op.Nabla else Op.Delta in
  let cmp = List.sort_uniq compare ((schema_of table).Relkit.Schema.primary_key @ observed) in
  let side binding pfx = Op.table ~binding table (List.map (fun c -> (c, pfx ^ c)) cmp) in
  let same = Expr.and_ (List.map (fun c -> Expr.eq (Expr.Col ("chg$" ^ c)) (Expr.Col ("cmp$" ^ c))) cmp) in
  let changed = Op.join ~kind:Op.Left_anti ~pred:same (side dt "chg$") (side other "cmp$") in
  Op.project ~defs:(List.map (fun (src, out) -> (ak_col out, Expr.Col ("chg$" ^ src))) key) changed

(* [only]: the subgraph reads only these columns of [table] (see
   [changed_rows]). *)
let rec create_ak ?only ~schema_of ~table ~dt (op : Op.t) : (Op.t * key) option =
  let create = create_ak ?only in
  match op.Op.node with
  | Op.Table { table = t; binding; cols } ->
    if t = table && (binding = Op.Post || binding = Op.Pre) then begin
      let schema = schema_of t in
      let pk = schema.Relkit.Schema.primary_key in
      let key =
        List.map
          (fun k ->
            match List.assoc_opt k cols with
            | Some out -> (k, out)
            | None ->
              raise
                (Keys.Not_trigger_specifiable
                   (Printf.sprintf "scan of %S does not expose key column %S" t k)))
          pk
      in
      let ak =
        match only with
        | None -> Op.table ~binding:dt t (List.map (fun (src, out) -> (src, ak_col out)) key)
        | Some observed -> changed_rows ~schema_of ~table ~dt ~observed key
      in
      Some (ak, List.map (fun (_, out) -> (out, ak_col out)) key)
    end
    else None
  | Op.Select { input; _ } -> create ~schema_of ~table ~dt input
  | Op.Project { input; defs } -> (
    match create ~schema_of ~table ~dt input with
    | None -> None
    | Some (ak, key) ->
      (* Key columns pass through projections as plain column references. *)
      let renaming =
        List.filter_map (fun (o, e) -> match e with Expr.Col c -> Some (c, o) | _ -> None) defs
      in
      (* invert: input col -> first output name *)
      let renaming =
        List.fold_left
          (fun acc (c, o) -> if List.mem_assoc c acc then acc else (c, o) :: acc)
          [] renaming
      in
      Some (rename_key ak key renaming))
  | Op.Join { kind; left; right; pred } -> (
    let l = create ~schema_of ~table ~dt left in
    let r =
      (* a padded right side that reads only some of the table's columns
         (say a nested level's visibility, which counts rows) is unaffected
         by updates confined to the others *)
      let observed = Lineage.observed ~table right in
      let all = Relkit.Schema.column_names (schema_of table) in
      if kind = Op.Left_outer && not (List.for_all (fun c -> List.mem c observed) all) then
        create_ak ~only:observed ~schema_of ~table ~dt right
      else create ~schema_of ~table ~dt right
    in
    match kind with
    | Op.Left_outer -> (
      (* The padded side's columns are NULL for outer rows that lost all
         their matches, so right-side affected keys cannot re-link to the
         output.  Re-key everything to the LEFT side: left keys are always
         present in the output (Figure 8 only treats inner joins; this is
         the sound extension for the outer joins our front-end emits). *)
      let equalities =
        let rec go = function
          | Expr.Binop (Relkit.Ra.And, a, b) -> go a @ go b
          | Expr.Binop (Relkit.Ra.Eq, Expr.Col a, Expr.Col b) -> [ (a, b); (b, a) ]
          | _ -> []
        in
        go pred
      in
      let left_cols = Op.cols left in
      let lkey = Keys.canonical_key ~schema_of left in
      let all_left_keys () =
        (* conservative: every left row may be affected *)
        Op.project ~defs:(List.map (fun k -> (ak_col k, Expr.Col k)) lkey) left
      in
      let rekey_left (la, lk) =
        (* join the left input with its own AK, then project the full key *)
        if List.map fst lk = lkey then (la, lk)
        else
          let j = Op.join ~pred:(key_join_pred lk) left la in
          ( Op.project ~defs:(List.map (fun k -> (ak_col k, Expr.Col k)) lkey) j,
            List.map (fun k -> (k, ak_col k)) lkey )
      in
      let rekey_right (ra, rk) =
        (* translate the right AK keys to left columns via the join
           equalities, then pick up the left rows they touch *)
        let translated =
          List.map
            (fun (rcol, akc) ->
              List.find_map
                (fun (a, b) ->
                  if a = rcol && List.mem b left_cols then Some (b, akc) else None)
                equalities)
            rk
        in
        if List.for_all Option.is_some translated then begin
          let join_pred =
            Expr.and_
              (List.map
                 (fun o ->
                   let lcol, akc = Option.get o in
                   Expr.eq (Expr.Col lcol) (Expr.Col akc))
                 translated)
          in
          let j = Op.join ~pred:join_pred left ra in
          Op.project ~defs:(List.map (fun k -> (ak_col k, Expr.Col k)) lkey) j
        end
        else all_left_keys ()
      in
      let lkey_pairs = List.map (fun k -> (k, ak_col k)) lkey in
      match l, r with
      | None, None -> None
      | Some lr, None -> Some (rekey_left lr)
      | None, Some rr -> Some (rekey_right rr, lkey_pairs)
      | Some lr, Some rr ->
        let la, _ = rekey_left lr in
        let ra = rekey_right rr in
        let cols = List.map snd lkey_pairs in
        Some (Op.union ~cols [ (la, cols); (ra, cols) ], lkey_pairs))
    | Op.Inner -> (
      match l, r with
      | None, None -> None
      | Some lr, None -> Some lr
      | None, Some rr -> Some rr
      | Some (la, lk), Some (ra, rk) ->
        (* Both sides can be affected: union of cross products (Fig. 8
           lines 36-39). *)
        let lkey_cols = Keys.canonical_key ~schema_of left in
        let rkey_cols = Keys.canonical_key ~schema_of right in
        let full_key = List.map (fun c -> (c, ak_col c)) (lkey_cols @ rkey_cols) in
        let out_cols = List.map snd full_key in
        let ja =
          (* affected left keys x all right keys *)
          let j = Op.join ~pred:(Expr.Const (Relkit.Value.Bool true)) la right in
          Op.project
            ~defs:
              (List.map (fun (_, akc) -> (akc, Expr.Col akc)) lk
              @ List.map (fun c -> (ak_col c, Expr.Col c)) rkey_cols
              @
              (* left key columns not in lk are unknown: the AK key of the
                 left side may be partial; pad the remaining ones from the
                 right... they do not exist, so restrict the full key to what
                 we can produce *)
              [])
            j
        in
        let jb =
          let j = Op.join ~pred:(Expr.Const (Relkit.Value.Bool true)) left ra in
          Op.project
            ~defs:
              (List.map (fun c -> (ak_col c, Expr.Col c)) lkey_cols
              @ List.map (fun (_, akc) -> (akc, Expr.Col akc)) rk)
            j
        in
        (* If lk is partial, ja lacks some ak columns of the full key.  We
           recover them by joining back with the original side, which the
           Project above cannot do — instead we require full keys here, which
           holds because AK keys are only partial across *join* boundaries
           and lk/rk come from complete subgraphs. *)
        let ja_cols = Op.cols ja and jb_cols = Op.cols jb in
        if
          List.sort compare ja_cols = List.sort compare out_cols
          && List.sort compare jb_cols = List.sort compare out_cols
        then
          Some
            ( Op.union ~cols:out_cols [ (ja, out_cols); (jb, out_cols) ],
              full_key )
        else begin
          (* Partial side keys: fall back to joining each AK with its own
             side to recover that side's full key. *)
          let expand side ak key =
            let side_key = Keys.canonical_key ~schema_of side in
            let j = Op.join ~pred:(key_join_pred key) side ak in
            Op.project ~defs:(List.map (fun c -> (ak_col c, Expr.Col c)) side_key) j
          in
          let la_full = expand left la lk and ra_full = expand right ra rk in
          let ja =
            Op.project
              ~defs:
                (List.map (fun c -> (ak_col c, Expr.Col (ak_col c))) lkey_cols
                @ List.map (fun c -> (ak_col c, Expr.Col c)) rkey_cols)
              (Op.join ~pred:(Expr.Const (Relkit.Value.Bool true)) la_full right)
          in
          let jb =
            Op.project
              ~defs:
                (List.map (fun c -> (ak_col c, Expr.Col c)) lkey_cols
                @ List.map (fun c -> (ak_col c, Expr.Col (ak_col c))) rkey_cols)
              (Op.join ~pred:(Expr.Const (Relkit.Value.Bool true)) left ra_full)
          in
          Some (Op.union ~cols:out_cols [ (ja, out_cols); (jb, out_cols) ], full_key)
        end)
    | Op.Left_anti | Op.Right_anti -> (
      let surviving, lost, sr =
        match kind with
        | Op.Left_anti -> (left, right, l)
        | _ -> (right, left, r)
      in
      let lost_affected =
        create ~schema_of ~table ~dt lost <> None
      in
      if lost_affected then begin
        (* A change on the invisible side can flip any surviving tuple in or
           out: conservatively flag every key of the surviving side. *)
        let skey = Keys.canonical_key ~schema_of surviving in
        let all =
          Op.project ~defs:(List.map (fun c -> (ak_col c, Expr.Col c)) skey) surviving
        in
        Some (all, List.map (fun c -> (c, ak_col c)) skey)
      end
      else
        match sr with
        | None -> None
        | Some (ak, key) -> Some (ak, key)))
  | Op.Group_by { input; keys; _ } -> (
    match create ~schema_of ~table ~dt input with
    | None -> None
    | Some (ak, key) ->
      (* Join the GroupBy's full input with the affected keys, then project
         the distinct grouping-column values (Fig. 8 lines 15-17 and the
         walk-through of Figures 9-10). *)
      let j = Op.join ~pred:(key_join_pred key) input ak in
      let grouped = Op.group_by ~keys ~aggs:[] j in
      if keys = [] then
        (* Scalar aggregate: the single output tuple is affected whenever any
           input tuple is; its key is empty. *)
        Some (grouped, [])
      else
        let renamed =
          Op.project ~defs:(List.map (fun g -> (ak_col g, Expr.Col g)) keys) grouped
        in
        Some (renamed, List.map (fun g -> (g, ak_col g)) keys))
  | Op.Union { cols = out_cols; inputs } ->
    let out_key = Keys.canonical_key ~schema_of op in
    let parts =
      List.filter_map
        (fun (input, mapping) ->
          match create ~schema_of ~table ~dt input with
          | None -> None
          | Some (ak, key) ->
            (* Join the AK back with its own input to recover all mapped key
               columns, then rename through the union mapping. *)
            let j = Op.join ~pred:(key_join_pred key) input ak in
            let src_of out =
              let rec go outs maps =
                match outs, maps with
                | o :: outs, m :: maps -> if o = out then m else go outs maps
                | _ -> raise Not_found
              in
              go out_cols mapping
            in
            let defs = List.map (fun k -> (ak_col k, Expr.Col (src_of k))) out_key in
            Some (Op.project ~defs j))
        inputs
    in
    (match parts with
    | [] -> None
    | parts ->
      let cols = List.map ak_col out_key in
      let u = Op.union ~cols (List.map (fun p -> (p, cols)) parts) in
      Some (u, List.map (fun k -> (k, ak_col k)) out_key))

let create ~schema_of ~table ~dt op = create_ak ~schema_of ~table ~dt op
