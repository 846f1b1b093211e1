module Pk = struct
  type t = Value.t list

  let equal = List.equal Value.equal
  let hash pk = Hashtbl.hash (List.map Value.hash pk)
end

module Pk_table = Hashtbl.Make (Pk)

module V_key = struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end

module V_table = Hashtbl.Make (V_key)

(* A secondary index maps a column value to the set of primary keys of rows
   holding that value.  NULL keys are never stored: SQL equality never
   matches NULL, so a NULL-keyed bucket could never serve a lookup — it
   would only accumulate entries (and, with a total-equality witness that
   distinguished NULLs, leak a fresh bucket per NULL row). *)
type index = unit Pk_table.t V_table.t

(* Probe accounting for the observability layer: how often the physical
   access paths are exercised and how often they hit.  Plain int increments,
   safe to leave always-on. *)
type probe_stats = {
  mutable pk_probes : int;
  mutable pk_hits : int;
  mutable idx_probes : int;  (* secondary-index lookups *)
  mutable idx_hits : int;  (* ... that returned at least one row *)
  mutable scan_lookups : int;  (* [lookup] calls that had to scan *)
  mutable cache_hits : int;  (* [lookup_cached] probes served by the memo *)
}

type t = {
  schema : Schema.t;
  rows : Value.t array Pk_table.t;
  mutable indexes : (string * int * index) list;  (* (column, slot, index) *)
  mutable version : int;
      (* bumped on every content mutation; cached plan artifacts (compiled
         hash-join build sides) are invalidated by comparing versions *)
  lookup_cache : (string * Value.t, Value.t array list) Hashtbl.t;
  mutable lookup_cache_version : int;
      (* [lookup] result rows, valid for exactly one version: one trigger
         firing probes the same (column, value) several times — old and new
         sides, count subqueries, fragment plans — and mutations reset it *)
  probes : probe_stats;
}

let create schema =
  { schema;
    rows = Pk_table.create 64;
    indexes = [];
    version = 0;
    lookup_cache = Hashtbl.create 64;
    lookup_cache_version = -1;
    probes =
      { pk_probes = 0;
        pk_hits = 0;
        idx_probes = 0;
        idx_hits = 0;
        scan_lookups = 0;
        cache_hits = 0;
      };
  }
let schema t = t.schema
let row_count t = Pk_table.length t.rows
let version t = t.version
let bump t = t.version <- t.version + 1

let pk_of t row = Schema.pk_of_row t.schema row

let index_add idx v pk =
  if not (Value.is_null v) then begin
    let set =
      match V_table.find_opt idx v with
      | Some set -> set
      | None ->
        let set = Pk_table.create 4 in
        V_table.add idx v set;
        set
    in
    Pk_table.replace set pk ()
  end

let index_remove idx v pk =
  if not (Value.is_null v) then begin
    match V_table.find_opt idx v with
    | None -> ()
    | Some set ->
      Pk_table.remove set pk;
      if Pk_table.length set = 0 then V_table.remove idx v
  end

let create_index t column =
  if not (List.exists (fun (c, _, _) -> c = column) t.indexes) then begin
    let slot = Schema.col_index t.schema column in
    let idx : index = V_table.create 64 in
    Pk_table.iter (fun pk row -> index_add idx row.(slot) pk) t.rows;
    t.indexes <- (column, slot, idx) :: t.indexes
  end

let indexed_columns t = List.map (fun (c, _, _) -> c) t.indexes
let has_index t column = List.exists (fun (c, _, _) -> c = column) t.indexes

(* Distinct keys currently stored in the secondary index on [column]; NULLs
   are never stored, so this is also the count of distinct non-NULL values. *)
let index_entry_count t column =
  match List.find_opt (fun (c, _, _) -> c = column) t.indexes with
  | Some (_, _, idx) -> V_table.length idx
  | None ->
    invalid_arg
      (Printf.sprintf "Table.index_entry_count: no index on %S.%s"
         t.schema.Schema.name column)

let probe_report t =
  let p = t.probes in
  [ ("pk_probes", p.pk_probes);
    ("pk_hits", p.pk_hits);
    ("idx_probes", p.idx_probes);
    ("idx_hits", p.idx_hits);
    ("scan_lookups", p.scan_lookups);
    ("lookup_cache_hits", p.cache_hits);
  ]

let reset_probe_report t =
  let p = t.probes in
  p.pk_probes <- 0;
  p.pk_hits <- 0;
  p.idx_probes <- 0;
  p.idx_hits <- 0;
  p.scan_lookups <- 0;
  p.cache_hits <- 0

let find_pk t pk =
  t.probes.pk_probes <- t.probes.pk_probes + 1;
  match Pk_table.find_opt t.rows pk with
  | Some _ as r ->
    t.probes.pk_hits <- t.probes.pk_hits + 1;
    r
  | None -> None

(* SQL equality semantics on both paths: nothing equals NULL, so a NULL
   probe value returns no rows — whether or not an index exists.  (The
   pre-update-state reconstruction and join filters all use [Value.sql_eq];
   before this guard the indexed and scan paths returned the NULL-valued
   rows themselves, i.e. total-equality matching, inconsistent with every
   caller.) *)
let lookup t ~column v =
  if Value.is_null v then []
  else
    match List.find_opt (fun (c, _, _) -> c = column) t.indexes with
    | Some (_, _, idx) -> (
      t.probes.idx_probes <- t.probes.idx_probes + 1;
      match V_table.find_opt idx v with
      | None -> []
      | Some set ->
        let rows =
          Pk_table.fold
            (fun pk () acc ->
              match Pk_table.find_opt t.rows pk with
              | Some row -> row :: acc
              | None -> acc)
            set []
        in
        if rows <> [] then t.probes.idx_hits <- t.probes.idx_hits + 1;
        rows)
    | None ->
      t.probes.scan_lookups <- t.probes.scan_lookups + 1;
      let slot = Schema.col_index t.schema column in
      Pk_table.fold
        (fun _ row acc -> if Value.equal row.(slot) v then row :: acc else acc)
        t.rows []

(* Memoized probe for the compiled executor: one trigger firing probes the
   same (column, value) several times — old and new sides, count subqueries,
   fragment plans.  Valid for exactly one version; any mutation resets it.
   The interpreter keeps the plain [lookup] so it stays a faithful
   reference implementation. *)
let lookup_cached t ~column v =
  if t.lookup_cache_version <> t.version then begin
    Hashtbl.reset t.lookup_cache;
    t.lookup_cache_version <- t.version
  end;
  let key = (column, v) in
  match Hashtbl.find_opt t.lookup_cache key with
  | Some rows ->
    t.probes.cache_hits <- t.probes.cache_hits + 1;
    rows
  | None ->
    let rows = lookup t ~column v in
    Hashtbl.add t.lookup_cache key rows;
    rows

let iter t f = Pk_table.iter (fun _ row -> f row) t.rows
let fold t ~init ~f = Pk_table.fold (fun _ row acc -> f acc row) t.rows init
let to_rows t = Pk_table.fold (fun _ row acc -> row :: acc) t.rows []

let index_row t op row =
  List.iter
    (fun (_, slot, idx) ->
      match op with
      | `Add -> index_add idx row.(slot) (pk_of t row)
      | `Remove -> index_remove idx row.(slot) (pk_of t row))
    t.indexes

let insert_exn t row =
  let pk = pk_of t row in
  if Pk_table.mem t.rows pk then
    invalid_arg
      (Printf.sprintf "Table.insert: duplicate primary key (%s) in table %S"
         (String.concat ", " (List.map Value.to_string pk))
         t.schema.Schema.name);
  Pk_table.replace t.rows pk row;
  index_row t `Add row;
  bump t

let delete_pk t pk =
  match Pk_table.find_opt t.rows pk with
  | None -> None
  | Some row ->
    Pk_table.remove t.rows pk;
    index_row t `Remove row;
    bump t;
    Some row

let replace_exn t row =
  let pk = pk_of t row in
  match Pk_table.find_opt t.rows pk with
  | None ->
    invalid_arg
      (Printf.sprintf "Table.replace: no row with primary key (%s) in table %S"
         (String.concat ", " (List.map Value.to_string pk))
         t.schema.Schema.name)
  | Some old ->
    index_row t `Remove old;
    Pk_table.replace t.rows pk row;
    index_row t `Add row;
    bump t;
    old
