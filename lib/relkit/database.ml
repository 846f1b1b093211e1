type event = Insert | Update | Delete

let string_of_event = function
  | Insert -> "INSERT"
  | Update -> "UPDATE"
  | Delete -> "DELETE"

(* A committed statement, with full row images: replaying a change log
   through the DML path regenerates identical transition tables.  This is
   the unit a durability layer (see lib/relkit/durability) appends to its
   write-ahead log. *)
type change =
  | Ch_insert of { table : string; rows : Value.t array list }
  | Ch_update of {
      table : string;
      before : Value.t array list;
      after : Value.t array list;  (* pairwise with [before] *)
    }
  | Ch_delete of { table : string; rows : Value.t array list }
  | Ch_create_table of Schema.t
  | Ch_create_index of { table : string; column : string }

type t = {
  tables : (string, Table.t) Hashtbl.t;
  mutable triggers_rev : trigger list;
      (* newest first (O(1) registration); creation order is recovered at
         read time — [trigger_sql], [drop_trigger] — which are rare *)
  mutable trig_count : int;
      (* cached |catalog|, maintained on add/drop: the firing path's skip
         accounting must not walk the catalog per statement *)
  trig_names : (string, unit) Hashtbl.t;  (* O(1) duplicate-name check *)
  mutable trig_seq : int;
      (* global creation sequence, stamped on bucket entries so candidate
         sets recovered from several indexes can be merged back into
         creation order *)
  trig_index : (string * event, bucket) Hashtbl.t;
      (* (table, event) → bucket: a DML statement activates exactly its
         bucket instead of sweeping the whole catalog (table-relevance
         prefilter); within a bucket, relevance signatures prune further *)
  mutable trigger_skips : int;
      (* triggers the prefilter did not even consider, summed over
         statements: |catalog| - |bucket| per trigger-firing opportunity *)
  mutable independence_skips : int;
      (* triggers inside the activated bucket that the static relevance
         signature proved independent of the statement (counted separately
         from the table-level prefilter above) *)
  mutable firing_depth : int;
  mutable on_change : (change -> unit) option;
  mutable change_paused : bool;
  mutable triggers_suppressed : bool;
  mutable stmt_seq : int;
      (* statement id: bumped at the start of every DML statement (an int
         store, free) and carried into each trigger_ctx, so audit records
         can name the exact statement a firing derives from *)
  mutable stmt_origin : string;
      (* provenance of the statement currently executing: layers that
         translate a higher-level statement into base DML (the view-update
         translator) set this to the source text around their DML calls, so
         triggers and audit records fired underneath can name the true
         cause.  "" = a direct relational statement *)
  trace : Obs.Trace.t;
      (* one tracer per database; every layer holding a [t] (runtime,
         pushdown fragment engines via Ra_eval.ctx, durability) records
         spans here so a firing is observable end-to-end *)
  audit : Obs.Audit.t;
      (* one audit log per database, same ownership story as the tracer:
         the runtime's SQL-trigger bodies append firing records here *)
  mutable window : Obs.Window.t;
      (* sliding-window statistics (per-table DML rates, skip rates,
         per-group firing profiles) shared by every layer holding a [t] *)
}

and trigger_ctx = {
  db : t;
  target : string;
  event : event;
  stmt_id : int;  (* id of the DML statement that fired this trigger *)
  inserted : Value.t array list;
  deleted : Value.t array list;
}

and trigger = {
  trig_name : string;
  trig_table : string;
  trig_event : event;
  body : trigger_ctx -> unit;
  relevance : relevance option;
      (* static relevance signature derived at arm time from the trigger's
         plan; [None] = always relevant (fire on every bucket hit) *)
  sql_text : string;
}

and relevance = {
  rel_cols : string list option;
      (* base columns of [trig_table] the trigger's plans can observe;
         [None] = all.  An UPDATE whose every (OLD, NEW) pair is identical
         on these columns provably yields no pair. *)
  rel_pred : (Value.t array -> bool) option;
      (* constant-filter test over full base rows (disjunction of the
         plan's scan-site conjunctions): a row failing it cannot influence
         any of the trigger's plans.  Must answer [true] on NULLs or any
         doubt.  [None] = unconstrained. *)
  rel_eq : (string * Value.t) option;
      (* an equality every scan site implies, when one exists: lets the
         bucket index the trigger by (column, constant) so a statement
         only considers triggers whose constant appears in its transition
         rows *)
}

(* One bucket member.  Column names from the signature are resolved to row
   slots once, at registration, so the firing path never touches the
   schema. *)
and entry = {
  e_seq : int;  (* global creation sequence, for order recovery *)
  e_trig : trigger;
  e_slots : int list option;  (* resolved [rel_cols]; [None] = all *)
  e_pred : (Value.t array -> bool) option;
}

and bucket = {
  mutable b_entries_rev : entry list;  (* newest first *)
  mutable b_ordered : trigger list;  (* cached creation-order view *)
  mutable b_stale : bool;
  mutable b_size : int;
  mutable b_rel_count : int;  (* entries carrying a relevance signature *)
  mutable b_plain_rev : entry list;
      (* entries with no index key: always candidates (their exact
         relevance check still runs if they carry a signature) *)
  b_by_col : (int, entry list) Hashtbl.t;
      (* UPDATE buckets: observed slot → entries; an entry appears under
         each of its observed slots *)
  b_by_val : (int * Value.t, entry list) Hashtbl.t;
      (* (slot, constant) → entries whose every scan site implies that
         equality *)
  mutable b_eq_slots : int list;  (* distinct slots keyed in [b_by_val] *)
  mutable b_indexed : int;  (* entries reachable only via an index *)
}

let max_firing_depth = 16

let create () =
  { tables = Hashtbl.create 16;
    triggers_rev = [];
    trig_count = 0;
    trig_names = Hashtbl.create 16;
    trig_seq = 0;
    trig_index = Hashtbl.create 16;
    trigger_skips = 0;
    independence_skips = 0;
    firing_depth = 0;
    on_change = None;
    change_paused = false;
    triggers_suppressed = false;
    stmt_seq = 0;
    stmt_origin = "";
    trace = Obs.Trace.create ~limit:(Obs.Knobs.trace_ring ()) ();
    audit = Obs.Audit.create ~limit:(Obs.Knobs.audit_ring ()) ();
    window =
      Obs.Window.create
        ~buckets:(Obs.Knobs.window_buckets ())
        ~width_ms:(Obs.Knobs.window_width_ms ())
        ~now:(Obs.Trace.now ()) ();
  }

let tracer t = t.trace
let audit t = t.audit
let window t = t.window

(* Replace the sliding window with a fresh one (different bucket
   geometry).  Lifetime totals restart; the runtime calls this at
   creation time, before any traffic. *)
let set_window t ~buckets ~width_ms =
  t.window <- Obs.Window.create ~buckets ~width_ms ~now:(Obs.Trace.now ()) ()
let statement_count t = t.stmt_seq

let statement_origin t = t.stmt_origin

(* Run [f] with every statement it issues stamped as originating from
   [origin] (e.g. the view-DML text a translator compiled into base DML).
   Restores the previous origin even on exceptions, so a failed translation
   cannot leak its stamp onto later direct statements. *)
let with_statement_origin t origin f =
  let saved = t.stmt_origin in
  t.stmt_origin <- origin;
  Fun.protect ~finally:(fun () -> t.stmt_origin <- saved) f

let next_stmt t =
  t.stmt_seq <- t.stmt_seq + 1;
  t.stmt_seq

(* --- durability hook --- *)

let attach_durability t f = t.on_change <- Some f
let detach_durability t = t.on_change <- None

let notify t ch =
  if not t.change_paused then Option.iter (fun f -> f ch) t.on_change

(* Run [f] without reporting its statements to the durability hook.  Used for
   system state that is regenerated from logical DDL on recovery (e.g. the
   runtime's trigger-constants tables). *)
let without_logging t f =
  let saved = t.change_paused in
  t.change_paused <- true;
  Fun.protect ~finally:(fun () -> t.change_paused <- saved) f

(* Run [f] without firing any AFTER triggers.  Used by crash recovery: the
   log already contains the full effects of every statement, including those
   issued by trigger bodies, so replaying with triggers armed would apply
   cascaded effects twice. *)
let with_triggers_suppressed t f =
  let saved = t.triggers_suppressed in
  t.triggers_suppressed <- true;
  Fun.protect ~finally:(fun () -> t.triggers_suppressed <- saved) f

let create_table t schema =
  let name = schema.Schema.name in
  if Hashtbl.mem t.tables name then
    invalid_arg (Printf.sprintf "Database.create_table: table %S already exists" name);
  Hashtbl.add t.tables name (Table.create schema);
  notify t (Ch_create_table schema)

(* Removes a table from the catalog.  No change notification is emitted:
   this exists for runtime-owned derived state (the trigger-grouping
   constants tables, regenerated when triggers are re-armed), which
   durability already excludes from the WAL and snapshots. *)
let drop_table t name = Hashtbl.remove t.tables name

let find_table t name = Hashtbl.find_opt t.tables name

(* Content version of a table (0 when absent).  Bumped by Table on every
   mutation reaching storage, whether or not the change hook is paused. *)
let table_version t name =
  match Hashtbl.find_opt t.tables name with
  | Some tbl -> Table.version tbl
  | None -> 0

let get_table t name =
  match find_table t name with
  | Some tbl -> tbl
  | None -> raise Not_found

let table_names t = Hashtbl.fold (fun name _ acc -> name :: acc) t.tables []

let create_index t ~table ~column =
  Table.create_index (get_table t table) column;
  notify t (Ch_create_index { table; column })

(* --- constraint checking --- *)

let check_row_valid tbl row =
  match Schema.validate_row (Table.schema tbl) row with
  | Ok () -> ()
  | Error msg ->
    invalid_arg
      (Printf.sprintf "constraint violation in table %S: %s"
         (Table.schema tbl).Schema.name msg)

let check_foreign_keys t tbl row =
  let schema = Table.schema tbl in
  List.iter
    (fun fk ->
      let vals = List.map (fun c -> row.(Schema.col_index schema c)) fk.Schema.fk_columns in
      if not (List.exists Value.is_null vals) then begin
        match find_table t fk.Schema.fk_table with
        | None ->
          invalid_arg
            (Printf.sprintf "foreign key references unknown table %S" fk.Schema.fk_table)
        | Some parent ->
          let pschema = Table.schema parent in
          let found =
            if fk.Schema.fk_ref_columns = pschema.Schema.primary_key then
              Table.find_pk parent vals <> None
            else begin
              match fk.Schema.fk_ref_columns, vals with
              | [ col ], [ v ] -> Table.lookup parent ~column:col v <> []
              | _ -> true (* composite non-PK references are not enforced *)
            end
          in
          if not found then
            invalid_arg
              (Printf.sprintf
                 "foreign key violation: (%s) not present in %S(%s)"
                 (String.concat ", " (List.map Value.to_string vals))
                 fk.Schema.fk_table
                 (String.concat ", " fk.Schema.fk_ref_columns))
      end)
    schema.Schema.foreign_keys

let check_uniques tbl row =
  let schema = Table.schema tbl in
  List.iter
    (fun ucols ->
      match ucols with
      | [ col ] ->
        let v = row.(Schema.col_index schema col) in
        if (not (Value.is_null v)) && Table.lookup tbl ~column:col v <> [] then
          invalid_arg
            (Printf.sprintf "unique violation on %S.%s = %s" schema.Schema.name col
               (Value.to_string v))
      | _ ->
        (* Composite uniques are checked only against the PK path; a full
           implementation would keep a composite index.  Not needed by the
           paper's workloads. *)
        ())
    schema.Schema.uniques

let trigger_skips t = t.trigger_skips
let reset_trigger_skips t = t.trigger_skips <- 0
let independence_skips t = t.independence_skips
let reset_independence_skips t = t.independence_skips <- 0

(* --- trigger firing --- *)

(* Creation-order view of a bucket, cached across statements. *)
let bucket_ordered b =
  if b.b_stale then begin
    b.b_ordered <- List.rev_map (fun e -> e.e_trig) b.b_entries_rev;
    b.b_stale <- false
  end;
  b.b_ordered

(* Does (old, new) differ on any observed slot?  [None] = all columns
   observed; update statements never reach here with a fully identical
   pair (the DML path filters those), so [None] answers [true]. *)
let differs_on slots o n =
  match slots with
  | None -> true
  | Some l ->
    List.exists
      (fun s ->
        s < Array.length o && s < Array.length n
        && not (Value.equal o.(s) n.(s)))
      l

(* Exact relevance check for one candidate.  UPDATE relevance is per pair:
   some (OLD, NEW) pair must both change an observed column and have at
   least one version passing the constant filters — a pair failing either
   test provably cannot contribute.  A raising predicate is treated as
   relevant (the check is an optimization, never a gate). *)
let entry_relevant ~event ~pairs ~inserted ~deleted e =
  match e.e_trig.relevance with
  | None -> true
  | Some _ ->
    let pass row =
      match e.e_pred with
      | None -> true
      | Some p -> ( try p row with _ -> true)
    in
    (match event with
    | Update ->
      List.exists
        (fun (o, n) -> differs_on e.e_slots o n && (pass o || pass n))
        pairs
    | Insert -> List.exists pass inserted
    | Delete -> List.exists pass deleted)

(* The candidate set for one statement: plain entries, plus column-indexed
   entries whose observed slots intersect the statement's changed slots,
   plus value-indexed entries whose (slot, constant) key appears in some
   transition row.  Both indexes are sound over-approximations; the exact
   check above then decides each candidate.  [touched] optionally bounds
   the changed-slot scan to the columns the statement's SET list could
   write. *)
(* [b_by_val] keys go through a polymorphic Hashtbl whose structural
   equality is finer than [Value.compare] (which coerces Int/Float, so the
   engine treats [Int 1] and [Float 1.] as equal).  Widen ints at both
   insert and lookup so the index agrees with the engine. *)
let val_key = function Value.Int i -> Value.Float (float_of_int i) | v -> v

let relevant_bucket_triggers t b ~event ~inserted ~deleted ~touched =
  if b.b_rel_count = 0 then bucket_ordered b
  else begin
    let pairs =
      match event with
      | Update -> ( try List.combine deleted inserted with Invalid_argument _ -> [])
      | Insert | Delete -> []
    in
    let candidates =
      if b.b_indexed = 0 then b.b_entries_rev
      else begin
        let acc = ref b.b_plain_rev in
        if Hashtbl.length b.b_by_col > 0 && event = Update then begin
          (* changed-slot set of the statement's pairs *)
          match pairs with
          | [] -> ()
          | (first, _) :: _ ->
            let arity = Array.length first in
            let slots =
              match touched with
              | Some ts -> List.filter (fun s -> s >= 0 && s < arity) ts
              | None -> List.init arity Fun.id
            in
            List.iter
              (fun s ->
                if
                  List.exists
                    (fun (o, n) ->
                      s < Array.length o && s < Array.length n
                      && not (Value.equal o.(s) n.(s)))
                    pairs
                then
                  match Hashtbl.find_opt b.b_by_col s with
                  | Some es -> acc := List.rev_append es !acc
                  | None -> ())
              slots
        end;
        if b.b_eq_slots <> [] then begin
          let seen = Hashtbl.create 8 in
          List.iter
            (fun row ->
              List.iter
                (fun s ->
                  if s < Array.length row then begin
                    let key = (s, val_key row.(s)) in
                    if not (Hashtbl.mem seen key) then begin
                      Hashtbl.add seen key ();
                      match Hashtbl.find_opt b.b_by_val key with
                      | Some es -> acc := List.rev_append es !acc
                      | None -> ()
                    end
                  end)
                b.b_eq_slots)
            (List.rev_append inserted deleted)
        end;
        List.sort_uniq (fun a b' -> compare a.e_seq b'.e_seq) !acc
      end
    in
    let kept =
      List.filter (entry_relevant ~event ~pairs ~inserted ~deleted) candidates
    in
    (* candidates out of an index merge may still be newest-first *)
    let kept =
      if b.b_indexed = 0 then
        List.rev_map (fun e -> e.e_trig) kept
      else List.map (fun e -> e.e_trig) kept
    in
    t.independence_skips <- t.independence_skips + (b.b_size - List.length kept);
    kept
  end

let fire_triggers t ~target ~event ~stmt_id ~inserted ~deleted ?touched () =
  if t.triggers_suppressed then ()
  else begin
    (* Table-relevance prefilter: only this (table, event) bucket can have
       non-empty transition tables; the rest of the catalog is skipped
       without being examined (and without audit probes).  The cached
       catalog count keeps the skip accounting O(1) per statement. *)
    match Hashtbl.find_opt t.trig_index (target, event) with
    | None ->
      t.trigger_skips <- t.trigger_skips + t.trig_count;
      if t.trig_count > 0 then
        Obs.Window.add t.window ~now:(Obs.Trace.now ()) "skips:prefilter"
          (float_of_int t.trig_count)
    | Some bucket ->
    let pre_skipped = t.trig_count - bucket.b_size in
    t.trigger_skips <- t.trigger_skips + pre_skipped;
    let ind0 = t.independence_skips in
    let to_fire =
      relevant_bucket_triggers t bucket ~event ~inserted ~deleted ~touched
    in
    let ind_skipped = t.independence_skips - ind0 in
    if pre_skipped > 0 || ind_skipped > 0 then begin
      let now = Obs.Trace.now () in
      if pre_skipped > 0 then
        Obs.Window.add t.window ~now "skips:prefilter" (float_of_int pre_skipped);
      if ind_skipped > 0 then
        Obs.Window.add t.window ~now "skips:independence"
          (float_of_int ind_skipped)
    end;
    if to_fire <> [] then begin
      if t.firing_depth >= max_firing_depth then
        invalid_arg "Database: trigger recursion depth exceeded";
      t.firing_depth <- t.firing_depth + 1;
      let ctx = { db = t; target; event; stmt_id; inserted; deleted } in
      Fun.protect
        ~finally:(fun () -> t.firing_depth <- t.firing_depth - 1)
        (fun () ->
          List.iter
            (fun tr ->
              let t0 = Obs.Trace.start t.trace in
              tr.body ctx;
              (* trig_name is a live string: no allocation when disabled *)
              Obs.Trace.finish_note t.trace t0 "trigger" tr.trig_name)
            to_fire)
    end
  end

(* --- DML --- *)

let validate_batch t tbl rows =
  List.iter
    (fun row ->
      check_row_valid tbl row;
      check_uniques tbl row;
      check_foreign_keys t tbl row)
    rows;
  (* Detect duplicate PKs within the batch before mutating anything. *)
  let seen = Hashtbl.create (List.length rows) in
  List.iter
    (fun row ->
      let pk = Schema.pk_of_row (Table.schema tbl) row in
      let key = List.map Value.to_string pk in
      if Hashtbl.mem seen key then
        invalid_arg "duplicate primary key within inserted batch";
      Hashtbl.add seen key ())
    rows

let insert_no_fire t ~table rows =
  let tbl = get_table t table in
  validate_batch t tbl rows;
  List.iter
    (fun row ->
      if Table.find_pk tbl (Schema.pk_of_row (Table.schema tbl) row) <> None then
        invalid_arg
          (Printf.sprintf "duplicate primary key on insert into %S" table);
      Table.insert_exn tbl row)
    rows;
  if rows <> [] then notify t (Ch_insert { table; rows })

(* Span label for one DML statement; only called when tracing is enabled. *)
let dml_note op table n = Printf.sprintf "%s %s n=%d" op table n

(* Windowed per-table DML statistics: one statement count plus the rows it
   affected.  Called once per statement. *)
let bump_dml t table n =
  let now = Obs.Trace.now () in
  Obs.Window.add t.window ~now ("dml:" ^ table) 1.0;
  if n > 0 then
    Obs.Window.add t.window ~now ("dml_rows:" ^ table) (float_of_int n)

let insert_rows t ~table rows =
  let t0 = Obs.Trace.start t.trace in
  let sid = next_stmt t in
  insert_no_fire t ~table rows;
  bump_dml t table (List.length rows);
  if rows <> [] then
    fire_triggers t ~target:table ~event:Insert ~stmt_id:sid ~inserted:rows ~deleted:[] ();
  if Obs.Trace.enabled t.trace then
    Obs.Trace.finish_note t.trace t0 "dml" (dml_note "INSERT" table (List.length rows))

let load_rows = insert_no_fire

(* Full-image row equality: a pair the statement matched but did not
   actually change.  Such pairs carry no information — every trigger would
   later discover OLD = NEW and keep zero pairs — so the DML path drops
   them before the durability hook and trigger firing (the statement's
   *affected* count still includes them, as in SQL). *)
let rows_equal a b =
  Array.length a = Array.length b
  &&
  let rec go i = i < 0 || (Value.equal a.(i) b.(i) && go (i - 1)) in
  go (Array.length a - 1)

let update_rows_gen t ~table ~where ~touched_cols ~set =
  let t0 = Obs.Trace.start t.trace in
  let sid = next_stmt t in
  let tbl = get_table t table in
  let victims = Table.fold tbl ~init:[] ~f:(fun acc row -> if where row then row :: acc else acc) in
  let pairs = List.map (fun old -> (old, set old)) victims in
  List.iter (fun (_, row) -> check_row_valid tbl row) pairs;
  let schema = Table.schema tbl in
  List.iter
    (fun (old, row) ->
      let old_pk = Schema.pk_of_row schema old in
      let new_pk = Schema.pk_of_row schema row in
      if List.equal Value.equal old_pk new_pk then ignore (Table.replace_exn tbl row)
      else begin
        ignore (Table.delete_pk tbl old_pk);
        Table.insert_exn tbl row
      end;
      check_foreign_keys t tbl row)
    pairs;
  let changed = List.filter (fun (o, n) -> not (rows_equal o n)) pairs in
  bump_dml t table (List.length pairs);
  if changed <> [] then begin
    notify t
      (Ch_update
         { table; before = List.map fst changed; after = List.map snd changed });
    let touched =
      Option.map
        (List.filter_map (fun c ->
             match Schema.col_index schema c with
             | s -> Some s
             | exception _ -> None))
        touched_cols
    in
    fire_triggers t ~target:table ~event:Update ~stmt_id:sid
      ~inserted:(List.map snd changed)
      ~deleted:(List.map fst changed)
      ?touched ()
  end;
  if Obs.Trace.enabled t.trace then
    Obs.Trace.finish_note t.trace t0 "dml" (dml_note "UPDATE" table (List.length pairs));
  List.length pairs

let update_rows t ~table ~where ~set =
  update_rows_gen t ~table ~where ~touched_cols:None ~set

let update_rows_hint t ~table ~where ~touched_cols ~set =
  update_rows_gen t ~table ~where ~touched_cols:(Some touched_cols) ~set

let update_pk t ~table ~pk ~set =
  let t0 = Obs.Trace.start t.trace in
  let sid = next_stmt t in
  let tbl = get_table t table in
  match Table.find_pk tbl pk with
  | None -> false
  | Some old ->
    let row = set old in
    check_row_valid tbl row;
    let schema = Table.schema tbl in
    let new_pk = Schema.pk_of_row schema row in
    if List.equal Value.equal pk new_pk then ignore (Table.replace_exn tbl row)
    else begin
      ignore (Table.delete_pk tbl pk);
      Table.insert_exn tbl row
    end;
    check_foreign_keys t tbl row;
    bump_dml t table 1;
    if not (rows_equal old row) then begin
      notify t (Ch_update { table; before = [ old ]; after = [ row ] });
      fire_triggers t ~target:table ~event:Update ~stmt_id:sid ~inserted:[ row ]
        ~deleted:[ old ] ()
    end;
    if Obs.Trace.enabled t.trace then
      Obs.Trace.finish_note t.trace t0 "dml" (dml_note "UPDATE_PK" table 1);
    true

let delete_rows t ~table ~where =
  let t0 = Obs.Trace.start t.trace in
  let sid = next_stmt t in
  let tbl = get_table t table in
  let victims = Table.fold tbl ~init:[] ~f:(fun acc row -> if where row then row :: acc else acc) in
  let schema = Table.schema tbl in
  List.iter (fun row -> ignore (Table.delete_pk tbl (Schema.pk_of_row schema row))) victims;
  bump_dml t table (List.length victims);
  if victims <> [] then begin
    notify t (Ch_delete { table; rows = victims });
    fire_triggers t ~target:table ~event:Delete ~stmt_id:sid ~inserted:[] ~deleted:victims ()
  end;
  if Obs.Trace.enabled t.trace then
    Obs.Trace.finish_note t.trace t0 "dml" (dml_note "DELETE" table (List.length victims));
  List.length victims

let delete_pk t ~table ~pk =
  let t0 = Obs.Trace.start t.trace in
  let sid = next_stmt t in
  let tbl = get_table t table in
  match Table.delete_pk tbl pk with
  | None -> false
  | Some old ->
    bump_dml t table 1;
    notify t (Ch_delete { table; rows = [ old ] });
    fire_triggers t ~target:table ~event:Delete ~stmt_id:sid ~inserted:[] ~deleted:[ old ] ();
    if Obs.Trace.enabled t.trace then
      Obs.Trace.finish_note t.trace t0 "dml" (dml_note "DELETE_PK" table 1);
    true

(* --- trigger catalog --- *)

let fresh_bucket () =
  { b_entries_rev = [];
    b_ordered = [];
    b_stale = false;
    b_size = 0;
    b_rel_count = 0;
    b_plain_rev = [];
    b_by_col = Hashtbl.create 4;
    b_by_val = Hashtbl.create 4;
    b_eq_slots = [];
    b_indexed = 0;
  }

(* Registration is O(1) amortized in both the catalog and the bucket:
   storage is newest-first, the creation-order views are rebuilt lazily at
   read time. *)
let create_trigger t trigger =
  if Hashtbl.mem t.trig_names trigger.trig_name then
    invalid_arg
      (Printf.sprintf "Database.create_trigger: trigger %S already exists"
         trigger.trig_name);
  if not (Hashtbl.mem t.tables trigger.trig_table) then
    invalid_arg
      (Printf.sprintf "Database.create_trigger: unknown table %S" trigger.trig_table);
  Hashtbl.add t.trig_names trigger.trig_name ();
  t.triggers_rev <- trigger :: t.triggers_rev;
  t.trig_count <- t.trig_count + 1;
  t.trig_seq <- t.trig_seq + 1;
  let key = (trigger.trig_table, trigger.trig_event) in
  let b =
    match Hashtbl.find_opt t.trig_index key with
    | Some b -> b
    | None ->
      let b = fresh_bucket () in
      Hashtbl.add t.trig_index key b;
      b
  in
  let schema = Table.schema (get_table t trigger.trig_table) in
  let slot c = try Some (Schema.col_index schema c) with _ -> None in
  let e =
    match trigger.relevance with
    | None ->
      { e_seq = t.trig_seq; e_trig = trigger; e_slots = None; e_pred = None }
    | Some r ->
      (* columns the schema does not know cannot be written by DML on this
         table, so they are dropped from the observed set *)
      { e_seq = t.trig_seq;
        e_trig = trigger;
        e_slots = Option.map (List.filter_map slot) r.rel_cols;
        e_pred = r.rel_pred;
      }
  in
  b.b_entries_rev <- e :: b.b_entries_rev;
  b.b_stale <- true;
  b.b_size <- b.b_size + 1;
  if trigger.relevance <> None then b.b_rel_count <- b.b_rel_count + 1;
  let indexed =
    match trigger.relevance with
    | None -> false
    | Some r -> (
      match Option.bind r.rel_eq (fun (c, v) -> Option.map (fun s -> (s, v)) (slot c)) with
      | Some (s, v) ->
        let key = (s, val_key v) in
        let es = Option.value ~default:[] (Hashtbl.find_opt b.b_by_val key) in
        Hashtbl.replace b.b_by_val key (e :: es);
        if not (List.mem s b.b_eq_slots) then b.b_eq_slots <- s :: b.b_eq_slots;
        true
      | None -> (
        (* the column index only discriminates UPDATE statements (every
           column "changes" under INSERT/DELETE) *)
        match trigger.trig_event, e.e_slots with
        | Update, Some (_ :: _ as slots) ->
          List.iter
            (fun s ->
              let es = Option.value ~default:[] (Hashtbl.find_opt b.b_by_col s) in
              Hashtbl.replace b.b_by_col s (e :: es))
            (List.sort_uniq compare slots);
          true
        | _ -> false))
  in
  if indexed then b.b_indexed <- b.b_indexed + 1
  else b.b_plain_rev <- e :: b.b_plain_rev

let drop_trigger t name =
  match List.find_opt (fun tr -> tr.trig_name = name) t.triggers_rev with
  | None -> ()
  | Some tr ->
    Hashtbl.remove t.trig_names name;
    t.triggers_rev <- List.filter (fun tr -> tr.trig_name <> name) t.triggers_rev;
    t.trig_count <- t.trig_count - 1;
    let key = (tr.trig_table, tr.trig_event) in
    (match Hashtbl.find_opt t.trig_index key with
    | None -> ()
    | Some b ->
      let keep e = e.e_trig.trig_name <> name in
      (match List.filter keep b.b_entries_rev with
      | [] -> Hashtbl.remove t.trig_index key
      | rest ->
        b.b_entries_rev <- rest;
        b.b_stale <- true;
        b.b_size <- b.b_size - 1;
        let was_plain = List.exists (fun e -> not (keep e)) b.b_plain_rev in
        b.b_plain_rev <- List.filter keep b.b_plain_rev;
        if was_plain then ()
        else begin
          b.b_indexed <- b.b_indexed - 1;
          Hashtbl.iter (fun k es -> Hashtbl.replace b.b_by_col k (List.filter keep es)) (Hashtbl.copy b.b_by_col);
          Hashtbl.iter (fun k es -> Hashtbl.replace b.b_by_val k (List.filter keep es)) (Hashtbl.copy b.b_by_val)
        end;
        (match tr.relevance with
        | Some _ -> b.b_rel_count <- b.b_rel_count - 1
        | None -> ())))

let triggers_on t ~table ~event =
  match Hashtbl.find_opt t.trig_index (table, event) with
  | None -> []
  | Some b -> bucket_ordered b

let trigger_count t = t.trig_count

let trigger_sql t =
  List.rev_map (fun tr -> (tr.trig_name, tr.sql_text)) t.triggers_rev
