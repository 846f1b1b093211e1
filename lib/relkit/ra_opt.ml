(* Fresh names for the key relation's columns so they never collide with plan
   columns. *)
let fresh_sj =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "sj%d$" !n

let rec push_semijoin_internal ~keys ~on plan =
  let root_attach = ref false in
  let root = plan in
  let prefix = fresh_sj () in
  let keys =
    (* project the needed key columns under fresh names, deduplicated *)
    Ra.Distinct
      (Ra.Project
         (List.map (fun (_, kc) -> (prefix ^ kc, Ra.Col kc)) on, keys))
  in
  let attach on node =
    if node == root then root_attach := true;
    let pred = Ra.conj (List.map (fun (pc, kc) -> Ra.Binop (Ra.Eq, Ra.Col (prefix ^ kc), Ra.Col pc)) on) in
    let joined = Ra.Join (Ra.Inner, pred, keys, node) in
    let cols = Ra.columns node in
    Ra.Project (List.map (fun c -> (c, Ra.Col c)) cols, joined)
  in
  let rec push on node =
    let plan_cols = List.map fst on in
    match node with
    | Ra.Select (p, i) -> Ra.Select (p, push on i)
    | Ra.Distinct i -> Ra.Distinct (push on i)
    | Ra.Order_by (ks, i) -> Ra.Order_by (ks, push on i)
    | Ra.Project (defs, i) -> (
      (* rewrite link columns through the projection when they are plain
         column references *)
      let mapped =
        List.map
          (fun (pc, kc) ->
            match List.assoc_opt pc defs with
            | Some (Ra.Col src) -> Some (src, kc)
            | _ -> None)
          on
      in
      if List.for_all Option.is_some mapped then
        Ra.Project (defs, push (List.map Option.get mapped) i)
      else attach on node)
    | Ra.Join (kind, p, l, r) -> (
      let lcols = Ra.columns l and rcols = Ra.columns r in
      (* Equality conjuncts let link columns transfer across the join: after
         l.id = r.parent, a restriction on id is also a restriction on
         parent.  This is what carries the affected-key semijoin through the
         view's nesting joins down to the base-table scans. *)
      let rec equi = function
        | Ra.Binop (Ra.And, a, b) -> equi a @ equi b
        | Ra.Binop (Ra.Eq, Ra.Col a, Ra.Col b) -> [ (a, b); (b, a) ]
        | _ -> []
      in
      let eq_pairs = equi p in
      let resolve side_cols (pc, kc) =
        if List.mem pc side_cols then Some (pc, kc)
        else
          List.find_map
            (fun (a, b) -> if a = pc && List.mem b side_cols then Some (b, kc) else None)
            eq_pairs
      in
      let resolve_all side_cols =
        let mapped = List.map (resolve side_cols) on in
        if List.for_all Option.is_some mapped then Some (List.map Option.get mapped)
        else None
      in
      let lmap = resolve_all lcols and rmap = resolve_all rcols in
      (* Sideways information passing: when only one side takes the
         restriction directly, the restricted side itself becomes the key
         relation for the other side through the join's own equality
         conjuncts (the magic-sets step of §5.2). *)
      let lr_pairs =
        List.filter_map
          (fun (a, b) ->
            if List.mem a lcols && List.mem b rcols then Some (a, b) else None)
          eq_pairs
      in
      let sideways_join kind p l' r =
        (* reuse the shared left as both join input and key relation *)
        match lr_pairs with
        | [] -> Ra.Join (kind, p, l', r)
        | pairs ->
          let keys2 = Ra.shared l' in
          let r', _ =
            push_semijoin_internal ~keys:keys2
              ~on:(List.map (fun (a, b) -> (b, a)) pairs)
              r
          in
          Ra.Join (kind, p, keys2, r')
      in
      match kind with
      | Ra.Inner -> (
        match lmap, rmap with
        | Some lm, Some rm -> Ra.Join (kind, p, push lm l, push rm r)
        | Some lm, None -> sideways_join kind p (push lm l) r
        | None, Some rm ->
          let rl_pairs = List.map (fun (a, b) -> (b, a)) lr_pairs in
          (match rl_pairs with
          | [] -> Ra.Join (kind, p, l, push rm r)
          | pairs ->
            let r' = push rm r in
            let keys2 = Ra.shared r' in
            let l', _ =
              push_semijoin_internal ~keys:keys2
                ~on:(List.map (fun (a, b) -> (b, a)) pairs)
                l
            in
            Ra.Join (kind, p, l', keys2))
        | None, None -> attach on node)
      | Ra.Left_outer | Ra.Left_anti -> (
        (* The left side must be restricted (it determines the output rows);
           once it is, the right side may be too — right rows matching a kept
           left row necessarily carry a kept key value, and padding /
           anti-join decisions for kept rows are unchanged. *)
        match lmap with
        | None -> attach on node
        | Some lm -> (
          match rmap with
          | Some rm -> Ra.Join (kind, p, push lm l, push rm r)
          | None -> sideways_join kind p (push lm l) r))
      | Ra.Right_anti -> (
        match rmap with
        | None -> attach on node
        | Some rm -> (
          match lmap with
          | Some lm -> Ra.Join (kind, p, push lm l, push rm r)
          | None ->
            let r' = push rm r in
            let rl = List.map (fun (a, b) -> (b, a)) lr_pairs in
            (match rl with
            | [] -> Ra.Join (kind, p, l, r')
            | pairs ->
              let keys2 = Ra.shared r' in
              let l', _ =
                push_semijoin_internal ~keys:keys2
                  ~on:(List.map (fun (a, b) -> (b, a)) pairs)
                  l
              in
              Ra.Join (kind, p, l', keys2)))))
    | Ra.Group_by (gkeys, aggs, i) ->
      (* restricting rows is equivalent to restricting groups when the link
         columns are grouping columns *)
      if List.for_all (fun c -> List.mem c gkeys) plan_cols then
        Ra.Group_by (gkeys, aggs, push on i)
      else attach on node
    | Ra.Union { all; inputs } -> (
      (* union columns are positional: translate link names through each
         input's own column list *)
      match inputs with
      | [] -> node
      | first :: _ ->
        let out_cols = Ra.columns first in
        let positions =
          List.map
            (fun (pc, kc) ->
              let rec idx i = function
                | [] -> None
                | c :: rest -> if c = pc then Some i else idx (i + 1) rest
              in
              (idx 0 out_cols, kc))
            on
        in
        if List.exists (fun (p, _) -> p = None) positions then attach on node
        else
          let inputs =
            List.map
              (fun i ->
                let cols = Ra.columns i in
                let on_i =
                  List.map
                    (fun (p, kc) -> (List.nth cols (Option.get p), kc))
                    positions
                in
                push on_i i)
              inputs
          in
          Ra.Union { all; inputs })
    | Ra.Scan _ | Ra.Values _ | Ra.Shared _ -> attach on node
  in
  let pushed = push on plan in
  (pushed, not !root_attach)

let push_semijoin ~keys ~on plan = fst (push_semijoin_internal ~keys ~on plan)

(* As push_semijoin, but None when the restriction could only be attached at
   the root (no progress — used to guard runtime sideways information
   passing against re-attaching forever). *)
let push_semijoin_deep ~keys ~on plan =
  match push_semijoin_internal ~keys ~on plan with
  | pushed, true -> Some pushed
  | _, false -> None

let rec contains_transition = function
  | Ra.Scan ((Ra.Delta _ | Ra.Nabla _), _) -> true
  | Ra.Scan ((Ra.Base _ | Ra.Old_of _ | Ra.Rel _), _) | Ra.Values _ -> false
  | Ra.Select (_, i)
  | Ra.Project (_, i)
  | Ra.Group_by (_, _, i)
  | Ra.Distinct i
  | Ra.Order_by (_, i)
  | Ra.Shared (_, i) ->
    contains_transition i
  | Ra.Join (_, _, l, r) -> contains_transition l || contains_transition r
  | Ra.Union { inputs; _ } -> List.exists contains_transition inputs

let equi_pairs ~left_cols ~right_cols pred =
  let rec conjuncts = function
    | Ra.Binop (Ra.And, a, b) -> conjuncts a @ conjuncts b
    | e -> [ e ]
  in
  List.filter_map
    (fun e ->
      match e with
      | Ra.Binop (Ra.Eq, Ra.Col a, Ra.Col b) when List.mem a left_cols && List.mem b right_cols
        ->
        Some (a, b)
      | Ra.Binop (Ra.Eq, Ra.Col a, Ra.Col b) when List.mem b left_cols && List.mem a right_cols
        ->
        Some (b, a)
      | _ -> None)
    (conjuncts pred)

let rec push_transition_joins plan =
  match plan with
  | Ra.Join (Ra.Inner, pred, l, r) -> (
    let l = push_transition_joins l and r = push_transition_joins r in
    let lt = contains_transition l and rt = contains_transition r in
    let lcols = Ra.columns l and rcols = Ra.columns r in
    let pairs = equi_pairs ~left_cols:lcols ~right_cols:rcols pred in
    match lt, rt, pairs with
    | true, false, _ :: _ ->
      let keys = Ra.shared l in
      let r' = push_semijoin ~keys ~on:(List.map (fun (a, b) -> (b, a)) pairs) r in
      Ra.Join (Ra.Inner, pred, keys, r')
    | false, true, _ :: _ ->
      let keys = Ra.shared r in
      let l' = push_semijoin ~keys ~on:pairs l in
      Ra.Join (Ra.Inner, pred, l', keys)
    | _ -> Ra.Join (Ra.Inner, pred, l, r))
  | _ -> Ra.map_inputs push_transition_joins plan

(* Common-subplan sharing via bottom-up interning: every distinct subtree
   (modulo Shared ids) gets an integer id, so lookups never hash or compare
   whole plans — trigger compilation on deep views stays linear-ish. *)

type anode = {
  a_id : int;
  a_orig : Ra.t;
  a_weight : int;  (* joins + group-bys below, as a "worth sharing" measure *)
  a_kids : anode list;
}

let share_common_subplans plan =
  let interner : (string * string * int list, int) Hashtbl.t = Hashtbl.create 256 in
  let counts : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let next_id = ref 0 in
  (* plans reached through an existing Shared node are annotated once — the
     rewrites that build deep plans reuse Shared values heavily, and
     re-walking them from every reference would dominate trigger compilation *)
  let shared_memo : (int, anode) Hashtbl.t = Hashtbl.create 64 in
  let rec annotate (p : Ra.t) : anode =
    match p with
    | Ra.Shared (sid, _) when Hashtbl.mem shared_memo sid ->
      let a = Hashtbl.find shared_memo sid in
      Hashtbl.replace counts a.a_id
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts a.a_id));
      a
    | _ -> annotate_fresh p
  and annotate_fresh (p : Ra.t) : anode =
    let kids, tag, payload, local_weight =
      match p with
      | Ra.Scan (src, renames) -> ([], "scan", Marshal.to_string (src, renames) [], 0)
      | Ra.Values (cols, rows) -> ([], "values", Marshal.to_string (cols, rows) [], 0)
      | Ra.Select (e, i) -> ([ i ], "select", Marshal.to_string e [], 0)
      | Ra.Project (d, i) -> ([ i ], "project", Marshal.to_string d [], 0)
      | Ra.Group_by (k, a, i) -> ([ i ], "groupby", Marshal.to_string (k, a) [], 1)
      | Ra.Distinct i -> ([ i ], "distinct", "", 0)
      | Ra.Order_by (k, i) -> ([ i ], "orderby", Marshal.to_string k [], 0)
      | Ra.Shared (_, i) -> ([ i ], "shared", "", 0)  (* ids erased *)
      | Ra.Join (k, e, l, r) -> ([ l; r ], "join", Marshal.to_string (k, e) [], 1)
      | Ra.Union { all; inputs } -> (inputs, "union", string_of_bool all, 0)
    in
    let akids = List.map annotate kids in
    let key = (tag, payload, List.map (fun k -> k.a_id) akids) in
    let id =
      match Hashtbl.find_opt interner key with
      | Some id -> id
      | None ->
        incr next_id;
        Hashtbl.replace interner key !next_id;
        !next_id
    in
    Hashtbl.replace counts id (1 + Option.value ~default:0 (Hashtbl.find_opt counts id));
    let a =
      { a_id = id;
        a_orig = p;
        a_weight = local_weight + List.fold_left (fun acc k -> acc + k.a_weight) 0 akids;
        a_kids = akids;
      }
    in
    (match p with Ra.Shared (sid, _) -> Hashtbl.replace shared_memo sid a | _ -> ());
    a
  in
  let root = annotate plan in
  let shared_nodes : (int, Ra.t) Hashtbl.t = Hashtbl.create 32 in
  let rec rewrite (a : anode) : Ra.t =
    if Option.value ~default:0 (Hashtbl.find_opt counts a.a_id) >= 2 && a.a_weight >= 1
    then begin
      match Hashtbl.find_opt shared_nodes a.a_id with
      | Some sh -> sh
      | None ->
        let sh = Ra.shared (rewrite_children a) in
        Hashtbl.add shared_nodes a.a_id sh;
        sh
    end
    else rewrite_children a
  and rewrite_children a =
    match a.a_orig, a.a_kids with
    | ((Ra.Scan _ | Ra.Values _) as p), _ -> p
    | Ra.Select (e, _), [ i ] -> Ra.Select (e, rewrite i)
    | Ra.Project (d, _), [ i ] -> Ra.Project (d, rewrite i)
    | Ra.Group_by (k, ag, _), [ i ] -> Ra.Group_by (k, ag, rewrite i)
    | Ra.Distinct _, [ i ] -> Ra.Distinct (rewrite i)
    | Ra.Order_by (k, _), [ i ] -> Ra.Order_by (k, rewrite i)
    | Ra.Shared (id, _), [ i ] -> Ra.Shared (id, rewrite i)
    | Ra.Join (k, p, _, _), [ l; r ] -> Ra.Join (k, p, rewrite l, rewrite r)
    | Ra.Union { all; _ }, inputs -> Ra.Union { all; inputs = List.map rewrite inputs }
    | _ -> assert false
  in
  rewrite root
